import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density, random_rank1_projector
from weakprobe import (
    InvalidProjector,
    Projector,
    SuperOp,
    UniformTiming,
    apply_superop,
    collapse_superop,
    evolution_superop_objective,
    objective_state_at,
    projective_ensemble_state_at,
    strong_statistics,
    spectral_decompose,
)
from weakprobe.operators import DensityOperator

PLUS = np.array([1.0, 0.0], dtype=complex)
P_PLUS = Projector.onto(PLUS)
HALF = DensityOperator.maximally_mixed(2)


class TestUniformTiming:
    def test_width_and_density(self):
        w = UniformTiming(0.0, 2.0)
        assert w.width == 2.0
        assert w.density == 0.5

    def test_contains(self):
        w = UniformTiming(-1.0, 1.0)
        assert w.contains(0.0)
        assert w.contains(-1.0) and w.contains(1.0)
        assert not w.contains(1.0 + 1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformTiming(1.0, 1.0)


class TestObjectiveState:
    def test_start_is_input(self):
        out = objective_state_at(HALF, P_PLUS, 0.0, 1.0)
        np.testing.assert_array_equal(out.mat, HALF.mat)

    def test_end_is_projector(self):
        out = objective_state_at(HALF, P_PLUS, 1.0, 1.0)
        np.testing.assert_allclose(out.mat, P_PLUS.mat, atol=1e-15)

    def test_midpoint_frozen_value(self):
        out = objective_state_at(HALF, P_PLUS, 0.5, 1.0)
        np.testing.assert_allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-15)

    def test_linearity_in_time(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        p = random_rank1_projector(rng, 2)
        a = objective_state_at(rho, p, 0.25, 1.0).mat
        b = objective_state_at(rho, p, 0.75, 1.0).mat
        mid = objective_state_at(rho, p, 0.5, 1.0).mat
        np.testing.assert_allclose((a + b) / 2, mid, atol=1e-14)

    def test_time_out_of_range(self):
        with pytest.raises(ValueError):
            objective_state_at(HALF, P_PLUS, -0.1, 1.0)
        with pytest.raises(ValueError):
            objective_state_at(HALF, P_PLUS, 1.1, 1.0)

    def test_nonpositive_window(self):
        with pytest.raises(ValueError):
            objective_state_at(HALF, P_PLUS, 0.0, 0.0)

    def test_rank2_projector_rejected(self):
        p2 = Projector.from_matrix(np.eye(2))
        with pytest.raises(InvalidProjector):
            objective_state_at(HALF, p2, 0.5, 1.0)


class TestEnsembleState:
    def test_matches_objective_profile_bitwise(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        p = random_rank1_projector(rng, 2)
        for t in (0.0, 0.3, 0.5, 0.9, 1.0):
            a = objective_state_at(rho, p, t, 1.0).mat
            b = projective_ensemble_state_at(rho, p, t, 1.0).mat
            assert np.array_equal(a, b)

    def test_distinct_windows_differ(self):
        a = objective_state_at(HALF, P_PLUS, 0.5, 1.0).mat
        b = projective_ensemble_state_at(HALF, P_PLUS, 0.5, 2.0).mat
        assert np.max(np.abs(a - b)) > 0.1

    @pytest.mark.parametrize("delta_t_m", [0.0, -1.0])
    def test_nonpositive_window(self, delta_t_m):
        with pytest.raises(ValueError, match="jitter window"):
            projective_ensemble_state_at(HALF, P_PLUS, 0.0, delta_t_m)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_valid_density_everywhere(self, t):
        out = projective_ensemble_state_at(HALF, P_PLUS, t, 1.0)
        evals = np.linalg.eigvalsh(out.mat)
        assert evals.min() >= -1e-12
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


class TestEvolutionSuperop:
    def test_zero_anchor_interpolates(self):
        c = collapse_superop(P_PLUS)
        e = evolution_superop_objective(0.0, 0.5, P_PLUS, 1.0)
        expected = 0.5 * np.eye(4) + 0.5 * c.matrix
        assert np.max(np.abs(e.matrix - expected)) <= 1e-12

    def test_full_interval_is_collapse(self):
        c = collapse_superop(P_PLUS)
        e = evolution_superop_objective(0.0, 1.0, P_PLUS, 1.0)
        assert np.max(np.abs(e.matrix - c.matrix)) <= 1e-12

    def test_remainder_by_completion(self):
        # E(t1 -> end) composed with E(0 -> t1) must land on full collapse
        c = collapse_superop(P_PLUS)
        first = evolution_superop_objective(0.0, 0.4, P_PLUS, 1.0)
        rest = evolution_superop_objective(0.4, 1.0, P_PLUS, 1.0)
        total = SuperOp(2, rest.matrix @ first.matrix)
        assert np.max(np.abs(total.matrix - c.matrix)) <= 1e-9

    def test_remainder_acts_like_collapse(self):
        # with an invertible first segment the only completion IS the collapse
        rest = evolution_superop_objective(0.3, 1.0, P_PLUS, 1.0)
        c = collapse_superop(P_PLUS)
        assert np.max(np.abs(rest.matrix - c.matrix)) <= 1e-9

    def test_state_route_agrees(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 2)
        e = evolution_superop_objective(0.0, 0.7, P_PLUS, 1.0)
        via_superop = apply_superop(e, rho.mat)
        direct = objective_state_at(rho, P_PLUS, 0.7, 1.0).mat
        np.testing.assert_allclose(via_superop, direct, atol=1e-12)

    def test_unsupported_anchor(self):
        with pytest.raises(ValueError, match="anchor"):
            evolution_superop_objective(0.2, 0.6, P_PLUS, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            evolution_superop_objective(0.5, 0.5, P_PLUS, 1.0)
        with pytest.raises(ValueError):
            evolution_superop_objective(0.0, 1.2, P_PLUS, 1.0)


class TestStrongStatistics:
    def test_pure_eigenstate(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        stats = strong_statistics(DensityOperator.pure([1, 0]), obs)
        assert stats == [(-1.0, pytest.approx(0.0, abs=1e-15)), (1.0, pytest.approx(1.0))]

    def test_mixture_probabilities(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        rho = DensityOperator(np.diag([0.75, 0.25]))
        stats = dict(strong_statistics(rho, obs))
        assert stats[1.0] == pytest.approx(0.75)
        assert stats[-1.0] == pytest.approx(0.25)

    def test_probabilities_clip_to_zero(self):
        obs = spectral_decompose(np.diag([1.0, -1.0]))
        stats = strong_statistics(DensityOperator.pure([0, 1]), obs)
        probs = [p for _, p in stats]
        assert all(p >= 0.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_level_pools_weight(self):
        obs = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
        rho = DensityOperator(np.diag([0.3, 0.3, 0.4]))
        stats = dict(strong_statistics(rho, obs))
        assert stats[2.0] == pytest.approx(0.6)
        assert stats[5.0] == pytest.approx(0.4)

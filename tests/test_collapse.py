import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import objective_map, random_density, random_ket, random_rank1_projector
from weakprobe import (
    DimensionMismatch,
    InvalidProjector,
    Projector,
    SuperOp,
    UniformTiming,
    apply_superop,
    collapse_superop,
    compose,
    objective_state_at,
    projective_ensemble_state_at,
    solve_completion,
    strong_statistics,
    spectral_decompose,
    validate_density,
)
from weakprobe.operators import TRACE_TOL, DensityOperator

PLUS = np.array([1.0, 0.0], dtype=complex)
P_PLUS = Projector.onto(PLUS)
HALF = DensityOperator(np.eye(2) / 2)


class TestUniformTiming:
    def test_width(self):
        assert UniformTiming(0.0, 2.0).width == 2.0

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


def mix_cases(d: int, pure_in: bool):
    """``(rho_in, P, t, window)`` over the collapse window, the ends included."""
    rng = np.random.default_rng(40 + 2 * d + pure_in)
    for _ in range(8):
        rho = DensityOperator.pure(random_ket(rng, d)) if pure_in else random_density(rng, d)
        p = random_rank1_projector(rng, d)
        window = float(rng.uniform(0.5, 2.0))
        for frac in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
            yield rho, p, frac * window, window


class TestTrustedMix:
    """The mixes are convex combinations the library forms itself: stored as
    computed, never decomposed or repaired."""

    @pytest.mark.parametrize("pure_in", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_mix_is_the_convex_combination(self, d, pure_in):
        for rho, p, t, window in mix_cases(d, pure_in):
            x = t / window
            want = (1.0 - x) * rho.mat + x * p.mat
            for route in (objective_state_at, projective_ensemble_state_at):
                out = route(rho, p, t, window)
                assert out.mat.dtype == want.dtype
                assert out.mat.tobytes() == want.tobytes()
                assert out.psd_adjustment == 0.0
                assert not out.mat.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    out.mat[0, 0] = 7.0
                assert not np.shares_memory(out.mat, rho.mat)
                assert not np.shares_memory(out.mat, p.mat)
            assert abs(np.trace(out.mat) - 1.0) <= TRACE_TOL
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-12

    def test_pure_inputs_are_where_a_repair_would_fire(self):
        # Without the trusted path these mixes had roundoff eigenvalues
        # clipped; the cases above cover that branch.
        repaired = [
            validate_density(objective_state_at(rho, p, t, window).mat).psd_adjustment > 0.0
            for d in (3, 4, 8, 16)
            for rho, p, t, window in mix_cases(d, True)
        ]
        assert any(repaired)


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
    def test_state_route_agrees(self):
        # the map (1 - s) Id + s C of acceptance 6 traces out the same line
        rng = np.random.default_rng(17)
        rho = random_density(rng, 2)
        c = collapse_superop(P_PLUS)
        e = SuperOp(2, 0.3 * np.eye(4) + 0.7 * c.matrix)
        via_superop = apply_superop(e, rho.mat)
        direct = objective_state_at(rho, P_PLUS, 0.7, 1.0).mat
        np.testing.assert_allclose(via_superop, direct, atol=1e-12)

    def test_projective_route_agrees(self):
        # equal windows: the jitter average follows the objective map too
        rng = np.random.default_rng(18)
        rho, p = random_density(rng, 3), random_rank1_projector(rng, 3)
        via_superop = apply_superop(objective_map(p, 0.4), rho.mat)
        direct = projective_ensemble_state_at(rho, p, 0.8, 2.0).mat
        np.testing.assert_allclose(via_superop, direct, atol=1e-12)

    def test_full_interval_is_collapse(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 2)
        via_superop = apply_superop(collapse_superop(P_PLUS), rho.mat)
        direct = objective_state_at(rho, P_PLUS, 1.0, 1.0).mat
        np.testing.assert_allclose(via_superop, direct, atol=1e-12)

    def test_remainder_by_completion(self):
        # the rest of the window, solved for, composes back to full collapse
        first = objective_map(P_PLUS, 0.4)
        rest = solve_completion(first, collapse_superop(P_PLUS)).solution
        total = compose(rest, first)
        assert np.max(np.abs(total.matrix - collapse_superop(P_PLUS).matrix)) <= 1e-9

    def test_remainder_acts_like_collapse(self):
        # from a mid-window ensemble the remainder lands on the window's end
        rng = np.random.default_rng(20)
        rho = random_density(rng, 2)
        rest = solve_completion(objective_map(P_PLUS, 0.3), collapse_superop(P_PLUS)).solution
        mid = objective_state_at(rho, P_PLUS, 0.3, 1.0)
        end = objective_state_at(rho, P_PLUS, 1.0, 1.0).mat
        np.testing.assert_allclose(apply_superop(rest, mid.mat), end, atol=1e-12)


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

    def test_dimension_mismatch(self):
        obs = spectral_decompose(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch, match="state dim 2 != observable dim 3"):
            strong_statistics(DensityOperator.pure([1, 0]), obs)

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

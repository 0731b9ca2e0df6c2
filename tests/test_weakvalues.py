from dataclasses import replace

import numpy as np
import pytest

from conftest import random_config, random_hermitian, random_ket, spin_config
from weakprobe import (
    DegenerateScenario,
    DensityOperator,
    DimensionMismatch,
    DiscriminationVerdict,
    HermiticityViolation,
    InvalidProjector,
    OrthogonalPostselection,
    Projector,
    ProtocolConfig,
    apparent_resolution,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    discriminate,
    objective_weak_value_adjoint,
    objective_weak_value_at,
    objective_weak_value_forward,
    protocol_traces,
    trial_weak_value_strong_first,
    trial_weak_value_weak_first,
    weak_value,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
KET_PLUS = np.array([1.0, 0.0], dtype=complex)


class TestProtocolConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProtocolConfig(
                rho_in=DensityOperator.maximally_mixed(2),
                rho_fin=DensityOperator.maximally_mixed(3),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_rank2_projector_rejected(self):
        with pytest.raises(InvalidProjector):
            ProtocolConfig(
                rho_in=DensityOperator.maximally_mixed(2),
                rho_fin=DensityOperator.maximally_mixed(2),
                strong_projector=Projector.from_matrix(np.eye(2)),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_non_hermitian_observable(self):
        with pytest.raises(HermiticityViolation):
            ProtocolConfig(
                rho_in=DensityOperator.maximally_mixed(2),
                rho_fin=DensityOperator.maximally_mixed(2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.array([[0, 1], [0, 0]], dtype=complex),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    @pytest.mark.parametrize("field", ["delta_t_m", "delta_t_c", "hbar"])
    def test_nonpositive_scalars(self, field):
        kwargs = dict(
            rho_in=DensityOperator.maximally_mixed(2),
            rho_fin=DensityOperator.maximally_mixed(2),
            strong_projector=Projector.onto(KET_PLUS),
            weak_observable=SIGMA_Z,
            delta_t_m=1.0,
            delta_t_c=1.0,
        )
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize("field", ["delta_t_m", "delta_t_c", "hbar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_scalars(self, field, value):
        kwargs = dict(
            rho_in=DensityOperator.maximally_mixed(2),
            rho_fin=DensityOperator.maximally_mixed(2),
            strong_projector=Projector.onto(KET_PLUS),
            weak_observable=SIGMA_Z,
            delta_t_m=1.0,
            delta_t_c=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_observable(self, value):
        # the hermiticity check lets NaN through (nan > tol is False)
        with pytest.raises(ValueError, match="non-finite"):
            ProtocolConfig(
                rho_in=DensityOperator.maximally_mixed(2),
                rho_fin=DensityOperator.maximally_mixed(2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.diag([value, -1.0]).astype(complex),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_trace(self):
        with pytest.raises(ValueError, match="obs_in .* not finite"):
            ProtocolConfig(
                rho_in=DensityOperator.pure([1.0, 1.0]),
                rho_fin=DensityOperator.maximally_mixed(2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.full((2, 2), 1.7e308),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_orthogonal_preselection(self):
        with pytest.raises(OrthogonalPostselection):
            ProtocolConfig(
                rho_in=DensityOperator.pure([0, 1]),
                rho_fin=DensityOperator.maximally_mixed(2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_orthogonal_postselection(self):
        with pytest.raises(OrthogonalPostselection):
            ProtocolConfig(
                rho_in=DensityOperator.maximally_mixed(2),
                rho_fin=DensityOperator.pure([0, 1]),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_weak_window_geometry(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        w = cfg.weak_window
        assert w.lo == pytest.approx(-0.25)
        assert w.hi == pytest.approx(0.75)
        assert w.width == pytest.approx(cfg.delta_t_m)

    def test_observable_frozen(self):
        cfg = spin_config()
        with pytest.raises(ValueError):
            cfg.weak_observable[0, 0] = 9.0


class TestTraceKernel:
    def test_protocol_traces_is_stored(self):
        cfg = random_config(np.random.default_rng(3), 3)
        assert protocol_traces(cfg) is cfg.traces

    def test_traces_not_an_argument(self):
        cfg = spin_config()
        with pytest.raises(TypeError):
            ProtocolConfig(
                rho_in=cfg.rho_in,
                rho_fin=cfg.rho_fin,
                strong_projector=cfg.strong_projector,
                weak_observable=cfg.weak_observable,
                delta_t_m=1.0,
                delta_t_c=1.0,
                traces=cfg.traces,
            )

    def test_replace_recomputes(self):
        cfg = random_config(np.random.default_rng(4), 2)
        changed = replace(cfg, delta_t_c=0.125, weak_observable=2.0 * cfg.weak_observable)
        fresh = ProtocolConfig(
            rho_in=cfg.rho_in,
            rho_fin=cfg.rho_fin,
            strong_projector=cfg.strong_projector,
            weak_observable=2.0 * cfg.weak_observable,
            delta_t_m=cfg.delta_t_m,
            delta_t_c=0.125,
        )
        assert changed.traces == fresh.traces
        assert changed.traces != cfg.traces
        assert averaged_weak_value_objective(changed) == averaged_weak_value_objective(fresh)

    def test_derived_values(self):
        t = protocol_traces(random_config(np.random.default_rng(5), 3))
        assert t.weak_first == t.proj_obs_in / t.proj_in
        assert t.strong_first == t.fin_obs_proj / t.fin_proj
        assert t.saturated == (t.obs_in + t.obs_proj) / 2.0


class TestWeakValue:
    def test_pure_state_formula_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            psi1 = random_ket(rng, d)
            psi2 = random_ket(rng, d)
            if abs(np.vdot(psi2, psi1)) < 1e-3:
                continue
            obs = random_hermitian(rng, d)
            got = weak_value(
                DensityOperator.pure(psi1).mat,
                DensityOperator.pure(psi2).mat,
                obs,
            )
            expected = np.vdot(psi2, obs @ psi1) / np.vdot(psi2, psi1)
            assert got == pytest.approx(expected, abs=1e-11)

    def test_anomalous_value_outside_spectrum(self):
        psi1 = np.array([1.0, 1.0]) / np.sqrt(2)
        psi2 = np.array([1.0, -0.9]) / np.linalg.norm([1.0, -0.9])
        got = weak_value(
            DensityOperator.pure(psi1).mat, DensityOperator.pure(psi2).mat, SIGMA_Z
        )
        assert got.real == pytest.approx(19.0, rel=1e-10)
        assert abs(got.imag) <= 1e-12
        assert abs(got) > np.max(np.abs(np.linalg.eigvalsh(SIGMA_Z)))

    def test_orthogonal_states_raise(self):
        with pytest.raises(OrthogonalPostselection):
            weak_value(
                DensityOperator.pure([1, 0]).mat,
                DensityOperator.pure([0, 1]).mat,
                SIGMA_Z,
            )

    def test_eigenstate_gives_eigenvalue(self):
        got = weak_value(
            DensityOperator.pure([1, 0]).mat,
            DensityOperator.pure([1, 0]).mat,
            SIGMA_Z,
        )
        assert got == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weak_value(np.eye(2), np.eye(3), SIGMA_Z)


class TestTrialValues:
    def test_cross_route_against_generic_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cfg = random_config(rng)
            p = cfg.strong_projector.mat
            o = cfg.weak_observable
            w1 = trial_weak_value_weak_first(cfg)
            assert w1 == pytest.approx(
                weak_value(cfg.rho_in.mat, p, o), abs=1e-11
            )
            w3 = trial_weak_value_strong_first(cfg)
            assert w3 == pytest.approx(
                weak_value(p, cfg.rho_fin.mat, o), abs=1e-11
            )

    def test_spin_reference_values(self):
        cfg = spin_config()
        assert trial_weak_value_weak_first(cfg) == pytest.approx(0.5)
        assert trial_weak_value_strong_first(cfg) == pytest.approx(0.5)


class TestAveragedVn:
    def test_spin_reference(self):
        assert averaged_weak_value_vn(spin_config()) == pytest.approx(0.5)

    def test_is_plain_mean_of_orderings(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            cfg = random_config(rng)
            expected = (
                trial_weak_value_weak_first(cfg) + trial_weak_value_strong_first(cfg)
            ) / 2
            assert averaged_weak_value_vn(cfg) == pytest.approx(expected, abs=1e-12)


class TestObjectivePerTrial:
    def test_branches(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        t = protocol_traces(cfg)
        # weak-first stretch
        assert objective_weak_value_at(-0.1, cfg) == pytest.approx(
            trial_weak_value_weak_first(cfg)
        )
        # strong-first stretch
        assert objective_weak_value_at(0.7, cfg) == pytest.approx(
            trial_weak_value_strong_first(cfg)
        )
        # interior: unconditional expectation in the partially collapsed state
        assert objective_weak_value_at(0.0, cfg) == pytest.approx(t.obs_in)
        assert objective_weak_value_at(0.5, cfg) == pytest.approx(t.obs_proj)
        mid = objective_weak_value_at(0.25, cfg)
        assert mid == pytest.approx((t.obs_in + t.obs_proj) / 2)

    def test_outside_window(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        for t_w in (-0.26, 0.76):
            with pytest.raises(ValueError, match="window"):
                objective_weak_value_at(t_w, cfg)

    def test_interior_is_linear(self):
        rng = np.random.default_rng(29)
        cfg = random_config(rng)
        hi = min(cfg.weak_window.hi, cfg.delta_t_c)
        lo = max(cfg.weak_window.lo, 0.0)
        a = objective_weak_value_at(lo, cfg)
        b = objective_weak_value_at(hi, cfg)
        mid = objective_weak_value_at((lo + hi) / 2, cfg)
        assert mid == pytest.approx((a + b) / 2, abs=1e-12)

    def test_superop_routes_agree_with_branch_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cfg = random_config(rng)
            for frac in (0.0, 0.3, 0.5, 0.8, 1.0):
                t_w = frac * cfg.delta_t_c
                if not cfg.weak_window.contains(t_w):
                    continue
                direct = objective_weak_value_at(t_w, cfg)
                fwd = objective_weak_value_forward(cfg, t_w)
                adj = objective_weak_value_adjoint(cfg, t_w)
                assert fwd == pytest.approx(direct, abs=1e-11)
                assert adj == pytest.approx(direct, abs=1e-11)


def quadrature_average(cfg: ProtocolConfig) -> complex:
    """Independent oracle: integrate the per-trial curve piece by piece.

    The curve is constant on the weak-first and strong-first stretches
    and linear in between, so endpoint trapezoids are exact.
    """
    w = cfg.weak_window
    dtc = cfg.delta_t_c
    t = protocol_traces(cfg)
    total = 0.0 + 0.0j
    lo_mid, hi_mid = max(w.lo, 0.0), min(w.hi, dtc)
    if w.lo < 0.0:
        total += trial_weak_value_weak_first(cfg) * (min(w.hi, 0.0) - w.lo)
    if hi_mid > lo_mid:
        value = lambda s: (1 - s / dtc) * t.obs_in + (s / dtc) * t.obs_proj
        total += (value(lo_mid) + value(hi_mid)) / 2 * (hi_mid - lo_mid)
    if w.hi > dtc:
        total += trial_weak_value_strong_first(cfg) * (w.hi - max(w.lo, dtc))
    return total / w.width


class TestAveragedObjective:
    def test_spin_reference_frozen(self):
        assert averaged_weak_value_objective(spin_config(dtc=0.5)) == pytest.approx(
            0.375
        )

    @pytest.mark.parametrize("dtc", [1.0, 2.0, 10.0])
    def test_saturation_beyond_jitter_window(self, dtc):
        cfg = spin_config(dtm=1.0, dtc=dtc)
        t = protocol_traces(cfg)
        expected = (t.obs_in + t.obs_proj) / 2
        assert averaged_weak_value_objective(cfg) == pytest.approx(
            expected, abs=1e-14
        )
        assert expected == pytest.approx(0.25)

    def test_short_collapse_approaches_vn(self):
        cfg = spin_config(dtm=1.0, dtc=1e-6)
        vn = averaged_weak_value_vn(cfg)
        obj = averaged_weak_value_objective(cfg)
        assert abs(obj - vn) / abs(vn) < 1e-5
        assert obj != vn

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            cfg = random_config(rng)
            closed = averaged_weak_value_objective(cfg)
            assert closed == pytest.approx(quadrature_average(cfg), abs=1e-12)


class TestApparentResolution:
    def test_max_of_windows(self):
        assert apparent_resolution(1.0, 0.5) == 1.0
        assert apparent_resolution(0.5, 3.0) == 3.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            apparent_resolution(0.0, 1.0)
        with pytest.raises(ValueError):
            apparent_resolution(1.0, -2.0)


class TestDiscriminate:
    CFG = None

    @pytest.fixture(autouse=True)
    def _cfg(self):
        # v_vn = 0.5, v_sat = 0.25 for this reference configuration
        self.cfg = spin_config(dtm=1.0, dtc=0.5)

    def test_vn_verdict(self):
        v = discriminate(0.5004, self.cfg, sigma_meas=0.001)
        assert v == DiscriminationVerdict("vn", None, None, pytest.approx(0.0004))

    def test_jitter_branch_recovers_duration(self):
        v = discriminate(0.375, self.cfg, sigma_meas=0.001)
        assert v.model == "objective"
        assert v.branch == "jitter"
        assert v.delta_t_c_estimate == pytest.approx(0.5, abs=1e-9)
        assert v.residual <= 1e-12

    def test_saturated_branch(self):
        v = discriminate(0.25, self.cfg, sigma_meas=0.001)
        assert v.model == "objective"
        assert v.branch == "saturated"
        assert v.delta_t_c_estimate is None

    def test_beyond_saturation_inconclusive(self):
        v = discriminate(0.20, self.cfg, sigma_meas=0.001)
        assert v.model == "inconclusive"

    def test_wrong_side_of_vn_inconclusive(self):
        v = discriminate(0.60, self.cfg, sigma_meas=0.001)
        assert v.model == "inconclusive"

    def test_off_line_inconclusive(self):
        v = discriminate(0.375 + 0.05j, self.cfg, sigma_meas=0.001)
        assert v.model == "inconclusive"
        assert v.residual == pytest.approx(0.05)

    def test_large_sigma_swallows_everything_into_vn(self):
        v = discriminate(0.375, self.cfg, sigma_meas=0.1)
        assert v.model == "vn"

    def test_degenerate_scenario_raises(self):
        # preselection in the strong outcome itself: both models predict 0.5
        cfg = spin_config(a=1.0)
        with pytest.raises(DegenerateScenario):
            discriminate(0.4, cfg, sigma_meas=0.001)

    def test_identity_observable_degenerate(self):
        cfg = ProtocolConfig(
            rho_in=DensityOperator.maximally_mixed(2),
            rho_fin=DensityOperator.maximally_mixed(2),
            strong_projector=Projector.onto(KET_PLUS),
            weak_observable=np.eye(2),
            delta_t_m=1.0,
            delta_t_c=1.0,
        )
        with pytest.raises(DegenerateScenario):
            discriminate(1.0, cfg, sigma_meas=0.001)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            discriminate(0.4, self.cfg, sigma_meas=0.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_sigma_must_be_finite(self, sigma):
        # an infinite uncertainty used to swallow any measurement into "vn"
        with pytest.raises(ValueError, match="sigma_meas"):
            discriminate(0.3, self.cfg, sigma_meas=sigma)

    @pytest.mark.parametrize(
        "measured", [np.nan, np.inf, complex(0.3, np.nan), complex(0.3, -np.inf)]
    )
    def test_measured_must_be_finite(self, measured):
        with pytest.raises(ValueError, match="measured"):
            discriminate(measured, self.cfg, sigma_meas=0.01)

    def test_round_trip_random_durations(self):
        # predict with some true dtc < dtm, then invert
        rng = np.random.default_rng(41)
        for _ in range(10):
            cfg = random_config(rng)
            true_dtc = float(rng.uniform(0.05, 0.95)) * cfg.delta_t_m
            probe = ProtocolConfig(
                rho_in=cfg.rho_in,
                rho_fin=cfg.rho_fin,
                strong_projector=cfg.strong_projector,
                weak_observable=cfg.weak_observable,
                delta_t_m=cfg.delta_t_m,
                delta_t_c=true_dtc,
            )
            measured = averaged_weak_value_objective(probe)
            v_vn = averaged_weak_value_vn(cfg)
            if abs(measured - v_vn) < 3e-3:
                continue  # too close to separate at this sigma
            v = discriminate(measured, cfg, sigma_meas=1e-3)
            assert v.model == "objective"
            assert v.branch == "jitter"
            assert v.delta_t_c_estimate == pytest.approx(true_dtc, rel=1e-6)

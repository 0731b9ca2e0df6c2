import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    line_end_overflow,
    random_config,
    random_density,
    random_hermitian,
    random_ket,
    spin_config,
)
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
    build_hydrogen,
    discriminate,
    objective_weak_value_adjoint,
    objective_weak_value_at,
    objective_weak_value_forward,
    protocol_traces,
    weak_value,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
KET_PLUS = np.array([1.0, 0.0], dtype=complex)


class TestProtocolConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProtocolConfig(
                rho_in=DensityOperator(np.eye(2) / 2),
                rho_fin=DensityOperator(np.eye(3) / 3),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_rank2_projector_rejected(self):
        with pytest.raises(InvalidProjector):
            ProtocolConfig(
                rho_in=DensityOperator(np.eye(2) / 2),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.from_matrix(np.eye(2)),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_non_hermitian_observable(self):
        with pytest.raises(HermiticityViolation):
            ProtocolConfig(
                rho_in=DensityOperator(np.eye(2) / 2),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.array([[0, 1], [0, 0]], dtype=complex),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    @pytest.mark.parametrize("field", ["delta_t_m", "delta_t_c", "hbar"])
    def test_nonpositive_scalars(self, field):
        kwargs = dict(
            rho_in=DensityOperator(np.eye(2) / 2),
            rho_fin=DensityOperator(np.eye(2) / 2),
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
            rho_in=DensityOperator(np.eye(2) / 2),
            rho_fin=DensityOperator(np.eye(2) / 2),
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
        # a non-finite entry makes the hermiticity defect NaN or inf, which fails
        with pytest.raises(ValueError, match="non-finite"):
            ProtocolConfig(
                rho_in=DensityOperator(np.eye(2) / 2),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.diag([value, -1.0]).astype(complex),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_overflowing_trace(self):
        with pytest.raises(ValueError, match="obs_in .* not finite"):
            ProtocolConfig(
                rho_in=DensityOperator.pure([1.0, 1.0]),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.full((2, 2), 1.7e308),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_overflowing_trace_sum(self):
        # finite products whose diagonal sum overflows; this used to warn first
        with pytest.raises(ValueError, match="trace .* not finite"):
            ProtocolConfig(
                rho_in=DensityOperator.pure([1.0, 1.0]),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=np.full((2, 2), 1e308),
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    @pytest.mark.parametrize("name", ["vn", "saturated"])
    def test_overflowing_line_end(self, name):
        # finite traces, a prediction past the double range; this used to
        # predict inf or NaN, and discriminate to answer on it
        with pytest.raises(ValueError, match=f"prediction {name} = .* not finite"):
            ProtocolConfig(**line_end_overflow(name))

    def test_orthogonal_preselection(self):
        with pytest.raises(OrthogonalPostselection):
            ProtocolConfig(
                rho_in=DensityOperator.pure([0, 1]),
                rho_fin=DensityOperator(np.eye(2) / 2),
                strong_projector=Projector.onto(KET_PLUS),
                weak_observable=SIGMA_Z,
                delta_t_m=1.0,
                delta_t_c=1.0,
            )

    def test_orthogonal_postselection(self):
        with pytest.raises(OrthogonalPostselection):
            ProtocolConfig(
                rho_in=DensityOperator(np.eye(2) / 2),
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

    @pytest.mark.parametrize("dtm, dtc", [(1e-20, 1.0), (1.0, 1e300)])
    def test_zero_width_weak_window_rejected(self, dtm, dtc):
        # the window (dtc - dtm, dtc + dtm) / 2 rounds to a single point
        with pytest.raises(ValueError, match="zero width"):
            spin_config(dtm=dtm, dtc=dtc)

    def test_weak_window_is_stored(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        assert cfg.weak_window is cfg.weak_window

    def test_replace_recomputes_weak_window(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        changed = replace(cfg, delta_t_c=0.125)
        fresh = spin_config(dtm=1.0, dtc=0.125)
        assert (changed.weak_window.lo, changed.weak_window.hi) == (
            fresh.weak_window.lo,
            fresh.weak_window.hi,
        )
        assert changed.weak_window != cfg.weak_window

    def test_narrowest_weak_window_accepted(self):
        dtm = 2 * np.spacing(0.5)  # one ulp on each side of the centre 0.5
        assert spin_config(dtm=dtm, dtc=1.0).weak_window.width > 0.0
        with pytest.raises(ValueError, match="zero width"):
            spin_config(dtm=dtm / 4, dtc=1.0)

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

    def test_line_ends(self):
        cfg = random_config(np.random.default_rng(6), 3)
        t = cfg.traces
        assert t.vn == (t.weak_first + t.strong_first) / 2.0
        assert averaged_weak_value_vn(cfg) == t.vn


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

    def test_small_unnormalized_postselection(self):
        r1 = np.array([[0.36, 0.48], [0.48, 0.64]])  # (0.6, 0.8)
        r2 = np.array([[0.5, 0.5], [0.5, 0.5]])  # |+>
        assert weak_value(r1, r2, SIGMA_Z) == pytest.approx(-1 / 7, rel=1e-14)
        assert weak_value(r1, 1e-12 * r2, SIGMA_Z) == pytest.approx(-1 / 7, rel=1e-14)
        # a plain sum of squares of 1e200 * r1 overflows
        assert weak_value(1e200 * r1, 1e-200 * r2, SIGMA_Z) == pytest.approx(-1 / 7, rel=1e-14)

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        k=st.integers(-200, 200),
        log_overlap=st.none() | st.floats(-9.0, 0.0),
    )
    def test_operand_scale_invariant(self, seed, d, k, log_overlap):
        # Scaling one operand by 2**k scales both traces exactly, so the weak
        # value keeps its bits and the orthogonality test its answer.  With
        # ``log_overlap`` the states are pure with |<psi2|psi1>| about
        # 10**log_overlap, around the tolerance; without, exactly orthogonal.
        rng = np.random.default_rng(seed)
        obs = random_hermitian(rng, d)
        if log_overlap is None:
            r1, r2 = np.diag(np.eye(d)[0]), random_density(rng, d - 1).mat
            r2 = np.pad(r2, ((1, 0), (1, 0)))
        else:
            psi1, other = random_ket(rng, d), random_ket(rng, d)
            other -= np.vdot(psi1, other) * psi1
            psi2 = other / np.linalg.norm(other) + 10.0**log_overlap * psi1
            r1 = DensityOperator.pure(psi1).mat * float(rng.uniform(0.5, 2.0))
            r2 = np.outer(psi2, psi2.conj())

        def outcome(a, b):
            try:
                return weak_value(a, b, obs)
            except OrthogonalPostselection:
                return "orthogonal"

        want = outcome(r1, r2)
        if log_overlap is None:
            assert want == "orthogonal"
        unit = 2.0**k
        for got in (outcome(r1, unit * r2), outcome(unit * r1, r2)):
            assert repr(got) == repr(want)  # shortest repr: bit for bit


class TestTrialValues:
    def test_cross_route_against_generic_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cfg = random_config(rng)
            p = cfg.strong_projector.mat
            o = cfg.weak_observable
            w1 = cfg.traces.weak_first
            assert w1 == pytest.approx(
                weak_value(cfg.rho_in.mat, p, o), abs=1e-11
            )
            w3 = cfg.traces.strong_first
            assert w3 == pytest.approx(
                weak_value(p, cfg.rho_fin.mat, o), abs=1e-11
            )

    def test_spin_reference_values(self):
        cfg = spin_config()
        assert cfg.traces.weak_first == pytest.approx(0.5)
        assert cfg.traces.strong_first == pytest.approx(0.5)


class TestAveragedVn:
    def test_spin_reference(self):
        assert averaged_weak_value_vn(spin_config()) == pytest.approx(0.5)

    def test_is_plain_mean_of_orderings(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            cfg = random_config(rng)
            expected = (cfg.traces.weak_first + cfg.traces.strong_first) / 2
            assert averaged_weak_value_vn(cfg) == pytest.approx(expected, abs=1e-12)


class TestObjectivePerTrial:
    def test_branches(self):
        cfg = spin_config(dtm=1.0, dtc=0.5)
        t = protocol_traces(cfg)
        # weak-first stretch
        assert objective_weak_value_at(-0.1, cfg) == pytest.approx(t.weak_first)
        # strong-first stretch
        assert objective_weak_value_at(0.7, cfg) == pytest.approx(t.strong_first)
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
        total += t.weak_first * (min(w.hi, 0.0) - w.lo)
    if hi_mid > lo_mid:
        value = lambda s: (1 - s / dtc) * t.obs_in + (s / dtc) * t.obs_proj
        total += (value(lo_mid) + value(hi_mid)) / 2 * (hi_mid - lo_mid)
    if w.hi > dtc:
        total += t.strong_first * (w.hi - max(w.lo, dtc))
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
            rho_in=DensityOperator(np.eye(2) / 2),
            rho_fin=DensityOperator(np.eye(2) / 2),
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

    @pytest.mark.parametrize(
        "measured, model, branch",
        [(1e308, "inconclusive", None), (3e307, "objective", "jitter"), (2.5e307, "objective", "saturated")],
    )
    def test_huge_predictions(self, measured, model, branch):
        # v_vn = 5e307 and v_sat = 2.5e307: |span|^2 overflows, which used to
        # raise OverflowError out of discriminate
        cfg = build_hydrogen(2**-0.5, 2**-0.5, hbar=1e308, delta_t_m=1.0, delta_t_c=1.0)
        v = discriminate(measured, cfg, sigma_meas=1e-3 * 1e307)
        assert (v.model, v.branch) == (model, branch)
        if branch == "jitter":
            assert v.delta_t_c_estimate == pytest.approx(0.8)

    def test_distance_past_the_double_range_refused(self):
        # |measured - v_vn| overflows here; this used to raise OverflowError
        with pytest.raises(ValueError, match="measured value"):
            discriminate(1.7e308 + 1.7e308j, build_hydrogen(0.6, 0.8), 1.0)
        # and here it used to come out as an infinite residual
        cfg = build_hydrogen(0.6, 0.8, hbar=1.7e308)
        with pytest.raises(ValueError, match="measured value"):
            discriminate(-1.7e308, cfg, 1.0)
        # and here only |measured - v_vn| overflows, not the distance to
        # v_sat; at sigma_meas = 1e308 this used to read "vn" with residual inf
        cfg = build_hydrogen(0.6, 0.8, hbar=1e308)
        for sigma_meas in (1.0, 1e308):
            with pytest.raises(ValueError, match="measured value"):
                discriminate(-1.5e308, cfg, sigma_meas)

    # The rule's equality edges.  This config's line runs from v_vn = 1 to
    # v_sat = 0.5 on the real axis and sigma is a power of two, so every
    # distance and coordinate below is exact.
    SIGMA = 2.0**-6

    @staticmethod
    def exact_line():
        cfg = ProtocolConfig(
            rho_in=DensityOperator(np.eye(2) / 2),
            rho_fin=DensityOperator(np.eye(2) / 2),
            strong_projector=Projector.onto(KET_PLUS),
            weak_observable=SIGMA_Z,
            delta_t_m=1.0,
            delta_t_c=0.5,
        )
        assert (averaged_weak_value_vn(cfg), cfg.traces.saturated) == (1.0, 0.5)
        return cfg

    @pytest.mark.parametrize("measured", [1.0 - 2 * SIGMA, 1.0 + 2 * SIGMA, complex(1.0, 2 * SIGMA)])
    def test_two_sigma_from_vn_reads_vn(self, measured):
        v = discriminate(measured, self.exact_line(), self.SIGMA)
        assert v == DiscriminationVerdict("vn", None, None, 2 * self.SIGMA)

    def test_two_sigma_off_the_linear_branch_reads_jitter(self):
        cfg = self.exact_line()
        v = discriminate(complex(0.75, 2 * self.SIGMA), cfg, self.SIGMA)
        assert v == DiscriminationVerdict("objective", 0.5, "jitter", 2 * self.SIGMA)
        wider = math.nextafter(2 * self.SIGMA, 1.0)
        v = discriminate(complex(0.75, wider), cfg, self.SIGMA)
        assert v == DiscriminationVerdict("inconclusive", None, None, wider)

    @pytest.mark.parametrize("measured", [complex(0.5, 2 * SIGMA), 0.5 - 2 * SIGMA])
    def test_two_sigma_off_the_plateau_reads_saturated(self, measured):
        v = discriminate(measured, self.exact_line(), self.SIGMA)
        assert v == DiscriminationVerdict("objective", None, "saturated", 2 * self.SIGMA)

    def test_coordinate_one_reads_saturated(self):
        from weakprobe.weakvalues import _fit

        cfg = self.exact_line()
        assert _fit(cfg.traces, 0.5 + 0j) == (1.0, 0.5, 0.0)
        v = discriminate(0.5, cfg, self.SIGMA)
        assert v == DiscriminationVerdict("objective", None, "saturated", 0.0)

    def test_coordinate_zero_reads_inconclusive(self):
        # beside v_vn, where the curve ends: the residual is the distance to v_vn
        from weakprobe.weakvalues import _fit

        cfg, measured = self.exact_line(), complex(1.0, 4 * self.SIGMA)
        assert _fit(cfg.traces, measured) == (0.0, 4 * self.SIGMA, 4 * self.SIGMA)
        v = discriminate(measured, cfg, self.SIGMA)
        assert v == DiscriminationVerdict("inconclusive", None, None, 4 * self.SIGMA)

    def test_line_coordinate_keeps_the_plain_formula_bits(self):
        from weakprobe.weakvalues import _line_coordinate

        def plain(offset, span):  # the formula before the overflow guard
            return (offset * span.conjugate()).real / abs(span) ** 2

        rng = np.random.default_rng(43)
        kept = scaled = 0
        for _ in range(4000):
            o_re, o_im = np.ldexp(rng.uniform(-1, 1, 2), rng.integers(-1074, 1024, 2))
            s_re, s_im = np.ldexp(rng.uniform(-1, 1, 2), rng.integers(-40, 1024, 2))
            offset, span = complex(o_re, o_im), complex(s_re, s_im)
            x = _line_coordinate(offset, span)
            try:
                expected = plain(offset, span)
            except OverflowError:
                expected = math.nan
            if math.isfinite(expected):
                assert x == expected
                kept += 1
                continue
            # Exact rational value; a dot product's error bound is relative
            # to |offset| / |span|, here up to the factor 2 of max-norms, plus
            # the spacing of the subnormals.
            exact = (F(o_re) * F(s_re) + F(o_im) * F(s_im)) / (F(s_re) ** 2 + F(s_im) ** 2)
            scale = F(max(abs(o_re), abs(o_im))) / F(max(abs(s_re), abs(s_im)))
            if math.isinf(x):
                assert exact * F(np.sign(x)) > F(1e308)
            else:
                assert abs(F(x) - exact) <= F(1e-15) * scale + F(5e-324)
            scaled += 1
        assert kept > 500 and scaled > 500

    @pytest.mark.parametrize("hbar", [1e-13, 1.054571817e-34, 1e-300])
    def test_small_hbar_reads_like_unit_hbar(self, hbar):
        # The degeneracy test compared |v_vn - v_sat| with an absolute floor
        # of 1e-12, so hydrogen at SI-scale hbar read as degenerate (exit 4);
        # at 1e-300 the coordinate then divided by zero.
        want = discriminate(0.3, build_hydrogen(0.6, 0.8), 1e-3)
        got = discriminate(0.3 * hbar, build_hydrogen(0.6, 0.8, hbar=hbar), 1e-3 * hbar)
        assert (got.model, got.branch) == (want.model, want.branch) == ("objective", "jitter")
        assert got.delta_t_c_estimate == pytest.approx(want.delta_t_c_estimate, rel=1e-14, abs=0.0)
        assert got.residual / hbar == pytest.approx(want.residual, abs=1e-15)
        # equal predictions stay degenerate at any scale
        with pytest.raises(DegenerateScenario):
            discriminate(0.4 * hbar, build_hydrogen(1.0, 0.8, hbar=hbar), 1e-3 * hbar)

    @pytest.mark.parametrize("offset", [0.1 + 0.05j, 1e-3 - 2e-3j])
    @pytest.mark.parametrize("span", [0.3 - 0.2j, 0.3 + 0j, 0.2j])
    @pytest.mark.parametrize("k", [-490, -509, -520, -600, -900, -1000])
    def test_line_coordinate_below_the_normal_range(self, offset, span, k):
        # |span|^2 underflowed to 0 here, which raised ZeroDivisionError, or
        # it or the numerator lost bits below the normal range (k = -509, -520);
        # and a part of 0 gave the power-of-two path the exponent 0
        from weakprobe.weakvalues import _line_coordinate

        want = _line_coordinate(offset, span)
        got = _line_coordinate(offset * 2.0**k, span * 2.0**k)
        assert got == pytest.approx(want, rel=4e-16, abs=0.0)

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


class TestScaleInvariance:
    """``discriminate`` reads a measurement the same way in any unit: scaling
    the observable, the measurement and its uncertainty by ``2**k`` scales
    every trace exactly, so the verdict must not move."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        k=st.integers(-1000, 1000),
        x=st.floats(-0.5, 1.5),
        across=st.floats(-3.0, 3.0),
        log_sigma=st.floats(-5.0, 0.0),
    )
    @example(seed=1, d=2, k=-975, x=0.75, across=0.0, log_sigma=-1.0)
    def test_verdict_is_scale_invariant(self, seed, d, k, x, across, log_sigma):
        cfg = random_config(np.random.default_rng(seed), d)
        t, sigma = cfg.traces, 10.0**log_sigma
        span = t.saturated - t.vn
        measured = t.vn + x * span + across * sigma * 1j * span / abs(span)
        want = discriminate(measured, cfg, sigma)

        unit = 2.0**k
        scaled = replace(cfg, weak_observable=cfg.weak_observable * unit)
        m = complex(math.ldexp(measured.real, k), math.ldexp(measured.imag, k))
        got = discriminate(m, scaled, sigma * unit)
        assert (got.model, got.branch) == (want.model, want.branch)
        if want.delta_t_c_estimate is None:
            assert got.delta_t_c_estimate is None
        else:
            est = want.delta_t_c_estimate
            assert abs(got.delta_t_c_estimate - est) <= 4 * math.ulp(est)
        # Near the bottom of the double range the scaled residual is subnormal
        # and holds fewer bits; two of its ulps, scaled back, allow for that.
        ulps = math.ldexp(2 * math.ulp(got.residual), -k)
        assert math.ldexp(got.residual, -k) == pytest.approx(want.residual, rel=1e-14, abs=ulps)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakprobe import (
    HydrogenPredictions,
    HydrogenScenario,
    OrthogonalPostselection,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    build_hydrogen,
    hydrogen_predictions,
)

amplitudes = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=0.999, allow_infinity=False, allow_nan=False
)


class TestScenario:
    def test_states_normalized(self):
        sc = HydrogenScenario(0.6, 0.8j)
        assert np.linalg.norm(sc.psi_in) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(sc.psi_fin) == pytest.approx(1.0, abs=1e-13)

    def test_amplitude_bound(self):
        with pytest.raises(ValueError, match="amplitude"):
            HydrogenScenario(1.2, 0.5)
        with pytest.raises(ValueError, match="amplitude"):
            HydrogenScenario(0.5, -1.0001)

    def test_hbar_positive(self):
        with pytest.raises(ValueError):
            HydrogenScenario(0.5, 0.5, hbar=0.0)

    def test_flags(self):
        assert HydrogenScenario(0.5, 0.5).flags() == []
        assert any("a = 0" in f for f in HydrogenScenario(0.0, 0.5).flags())
        assert any("b = 0" in f for f in HydrogenScenario(0.5, 0.0).flags())
        assert any("|a| = 1" in f for f in HydrogenScenario(1.0, 0.5).flags())
        # a complex phase does not make the scenario degenerate
        assert HydrogenScenario(0.6j, 0.5).flags() == []

    def test_amplitude_at_unit_circle_allowed(self):
        sc = HydrogenScenario(np.exp(0.3j), 0.5)
        assert np.linalg.norm(sc.psi_in) == pytest.approx(1.0, abs=1e-12)


def checked_traces(a, b, hbar=1.0):
    """The protocol traces of the scenario, checked against their closed forms.

    With ``p = |a|^2`` and ``q = |b|^2``: ``Tr[P S_z rho_in] = hbar p / 2``,
    ``Tr[P rho_in] = p``, ``Tr[rho_fin S_z P] = hbar q / 2``,
    ``Tr[rho_fin P] = q``, ``Tr[S_z rho_in] = hbar (2p - 1) / 2`` and
    ``Tr[S_z P] = hbar / 2``, each to 1e-12 of its scale: ``hbar`` for the
    four traces of ``S_z``, 1 for the two overlaps.
    """
    t = build_hydrogen(a, b, hbar).traces
    p, q = abs(a) ** 2, abs(b) ** 2
    # name: (closed form, its scale)
    closed = {
        "proj_obs_in": (hbar * p / 2, hbar),
        "proj_in": (p, 1.0),
        "fin_obs_proj": (hbar * q / 2, hbar),
        "fin_proj": (q, 1.0),
        "obs_in": (hbar * (2 * p - 1) / 2, hbar),
        "obs_proj": (hbar / 2, hbar),
    }
    for name, (expected, scale) in closed.items():
        assert abs(getattr(t, name) - expected) <= 1e-12 * scale, (name, expected)
    return t


class TestTraces:
    def test_reference_point(self):
        t = checked_traces(np.sqrt(0.5), np.sqrt(0.5))
        assert t.proj_obs_in == pytest.approx(0.25)
        assert t.proj_in == pytest.approx(0.5)
        assert t.fin_obs_proj == pytest.approx(0.25)
        assert t.fin_proj == pytest.approx(0.5)
        assert t.obs_in == pytest.approx(0.0, abs=1e-15)
        assert t.obs_proj == pytest.approx(0.5)

    @given(a=amplitudes, b=amplitudes)
    def test_closed_forms_random(self, a, b):
        t = checked_traces(a, b)
        p, q = abs(a) ** 2, abs(b) ** 2
        assert t.proj_obs_in == pytest.approx(p / 2, abs=1e-12)
        assert t.proj_in == pytest.approx(p, abs=1e-12)
        assert t.fin_obs_proj == pytest.approx(q / 2, abs=1e-12)
        assert t.fin_proj == pytest.approx(q, abs=1e-12)
        assert t.obs_in == pytest.approx((2 * p - 1) / 2, abs=1e-12)
        assert t.obs_proj == pytest.approx(0.5, abs=1e-15)

    def test_hbar_scaling(self):
        t1 = checked_traces(0.6, 0.7)
        t7 = checked_traces(0.6, 0.7, hbar=7.0)
        # observable traces scale, plain overlaps do not
        assert t7.proj_obs_in == pytest.approx(7 * t1.proj_obs_in)
        assert t7.obs_proj == pytest.approx(7 * t1.obs_proj)
        assert t7.proj_in == pytest.approx(t1.proj_in)
        assert t7.fin_proj == pytest.approx(t1.fin_proj)

    @pytest.mark.parametrize("hbar", [1e-20, 1e5, 1e300])
    @pytest.mark.parametrize(
        "a, b", [(np.sqrt(0.5), np.sqrt(0.5)), (0.6 + 0.3j, 0.5 - 0.2j)]
    )
    def test_closed_forms_at_extreme_hbar(self, a, b, hbar):
        # the S_z traces scale with hbar, and so does their rounding
        checked_traces(a, b, hbar)


class TestBuild:
    def test_round_trip_amplitudes(self):
        cfg = build_hydrogen(0.6, 0.8, delta_t_m=2.0, delta_t_c=0.5)
        assert cfg.delta_t_m == 2.0
        assert cfg.delta_t_c == 0.5
        assert cfg.rho_in.mat[0, 0] == pytest.approx(0.36)
        assert cfg.rho_fin.mat[0, 0] == pytest.approx(0.64)

    def test_zero_preparation_rejected_by_protocol(self):
        with pytest.raises(OrthogonalPostselection):
            build_hydrogen(0.0, 0.5)

    def test_zero_postselection_rejected_by_protocol(self):
        with pytest.raises(OrthogonalPostselection):
            build_hydrogen(0.5, 0.0)


class TestPredictions:
    def test_vn_is_half_hbar_always(self):
        for a, b in [(0.3, 0.9), (0.99, 0.1), (0.5j, 0.5)]:
            pred = hydrogen_predictions(HydrogenScenario(a, b), 1.0, 1.0)
            assert pred.vn == pytest.approx(0.5)

    def test_objective_saturated(self):
        pred = hydrogen_predictions(HydrogenScenario(0.6, 0.9), 2.0, 1.0)
        assert pred.objective == pytest.approx(0.36 / 2)

    def test_objective_jitter_branch(self):
        # dtc = dtm/2 sits halfway between the vn value and saturation
        pred = hydrogen_predictions(HydrogenScenario(np.sqrt(0.5), 0.9), 0.5, 1.0)
        assert pred.objective == pytest.approx(0.375)

    def test_reference_gap_is_eighth(self):
        # symmetric preparation, saturated collapse: gap hbar/8... times 2
        pred = hydrogen_predictions(HydrogenScenario(np.sqrt(0.5), np.sqrt(0.5)), 1.0, 1.0)
        assert pred.vn - pred.objective == pytest.approx(0.25)
        halfway = hydrogen_predictions(
            HydrogenScenario(np.sqrt(0.5), np.sqrt(0.5)), 0.5, 1.0
        )
        assert pred.vn - halfway.objective == pytest.approx(0.125)

    def test_degenerate_flag(self):
        assert hydrogen_predictions(HydrogenScenario(1.0, 0.5), 1.0, 1.0).degenerate
        assert not hydrogen_predictions(HydrogenScenario(0.9, 0.5), 1.0, 1.0).degenerate
        deg = hydrogen_predictions(HydrogenScenario(1.0, 0.5), 1.0, 1.0)
        assert deg.vn == deg.objective

    def test_orthogonal_amplitudes_raise(self):
        with pytest.raises(OrthogonalPostselection):
            hydrogen_predictions(HydrogenScenario(0.0, 0.5), 1.0, 1.0)
        with pytest.raises(OrthogonalPostselection):
            hydrogen_predictions(HydrogenScenario(0.5, 0.0), 1.0, 1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            hydrogen_predictions(HydrogenScenario(0.5, 0.5), 0.0, 1.0)

    def test_hbar_scales_predictions(self):
        pred = hydrogen_predictions(HydrogenScenario(0.6, 0.9, hbar=3.0), 0.4, 1.0)
        base = hydrogen_predictions(HydrogenScenario(0.6, 0.9), 0.4, 1.0)
        assert pred.vn == pytest.approx(3 * base.vn)
        assert pred.objective == pytest.approx(3 * base.objective)

    def test_zero_width_weak_window_rejected(self):
        # as ProtocolConfig: analytic and simulate must agree on such windows
        with pytest.raises(ValueError, match="zero width"):
            hydrogen_predictions(HydrogenScenario(0.6, 0.8), 1.0, 1e-20)

    @pytest.mark.parametrize("dtm, dtc", [(1e-20, 1.0), (1.0, 1e300)])
    def test_zero_width_message_matches_protocol_config(self, dtm, dtc):
        # one window builder: both routes refuse with the same words
        with pytest.raises(ValueError, match="zero width") as analytic:
            hydrogen_predictions(HydrogenScenario(0.6, 0.8), dtc, dtm)
        with pytest.raises(ValueError, match="zero width") as simulated:
            build_hydrogen(0.6, 0.8, delta_t_m=dtm, delta_t_c=dtc)
        assert str(analytic.value) == str(simulated.value)

    def test_returns_dataclass(self):
        pred = hydrogen_predictions(HydrogenScenario(0.5, 0.5), 1.0, 1.0)
        assert isinstance(pred, HydrogenPredictions)


class TestAgainstGenericMachinery:
    """The closed forms must match the model-agnostic averaging code."""

    @given(
        a=amplitudes,
        b=amplitudes,
        dtc=st.floats(min_value=0.1, max_value=3.0),
        dtm=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_predictions_match_generic(self, a, b, dtc, dtm):
        sc = HydrogenScenario(a, b)
        pred = hydrogen_predictions(sc, dtc, dtm)
        cfg = build_hydrogen(a, b, delta_t_m=dtm, delta_t_c=dtc)
        assert pred.vn == pytest.approx(averaged_weak_value_vn(cfg), abs=1e-12)
        assert pred.objective == pytest.approx(
            averaged_weak_value_objective(cfg), abs=1e-12
        )

    def test_specific_seeds(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            a = rng.uniform(0.1, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b = rng.uniform(0.1, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            dtc = rng.uniform(0.1, 3.0)
            dtm = rng.uniform(0.1, 3.0)
            pred = hydrogen_predictions(HydrogenScenario(a, b), dtc, dtm)
            cfg = build_hydrogen(a, b, delta_t_m=dtm, delta_t_c=dtc)
            assert abs(pred.vn - averaged_weak_value_vn(cfg)) <= 1e-12
            assert abs(pred.objective - averaged_weak_value_objective(cfg)) <= 1e-12

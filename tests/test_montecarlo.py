import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_config, spin_config
from weakprobe import (
    CHUNK_TRIALS,
    CSV_COLUMNS,
    AveragedResult,
    SimulationSpec,
    analytic_target,
    convergence_report,
    protocol_traces,
    run_simulation,
    to_record,
)
from weakprobe.montecarlo import _objective_draws, _vn_draws


def vn_spec(trials=1000, seed=42, **cfg_kwargs):
    return SimulationSpec(spin_config(**cfg_kwargs), "vn", trials, seed)


def objective_spec(trials=1000, seed=42, **cfg_kwargs):
    return SimulationSpec(spin_config(**cfg_kwargs), "objective", trials, seed)


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            SimulationSpec(spin_config(), "both", 10, 0)

    @pytest.mark.parametrize("trials", [0, -5, 1.5])
    def test_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            SimulationSpec(spin_config(), "vn", trials, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimulationSpec(spin_config(), "vn", 10, seed)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        a = run_simulation(vn_spec(trials=5000, seed=7))
        b = run_simulation(vn_spec(trials=5000, seed=7))
        assert a == b  # exact dataclass equality, no tolerance

    def test_seed_changes_stream(self):
        rng_cfg = random_config(np.random.default_rng(1))
        a = run_simulation(SimulationSpec(rng_cfg, "vn", 5000, 1))
        b = run_simulation(SimulationSpec(rng_cfg, "vn", 5000, 2))
        assert a.mean != b.mean

    def test_prefix_stability_within_chunk(self):
        short = run_simulation(vn_spec(trials=100, seed=3))
        long_report = convergence_report(vn_spec(trials=1, seed=3), [100, 10_000])
        assert short == long_report[0]

    def test_prefix_stability_across_chunks(self):
        n1 = CHUNK_TRIALS - 5
        n2 = CHUNK_TRIALS + 7
        short = run_simulation(objective_spec(trials=n1, seed=11))
        report = convergence_report(objective_spec(trials=1, seed=11), [n1, n2])
        assert short == report[0]
        full = run_simulation(objective_spec(trials=n2, seed=11))
        assert full == report[1]


class TestExactCases:
    def test_symmetric_spin_vn_is_exact(self):
        # both orderings give 0.5, so every trial value is 0.5 exactly
        res = run_simulation(vn_spec(trials=777, seed=5))
        assert res.mean == 0.5 + 0.0j
        assert res.stderr == 0.0
        assert res.stderr_im == 0.0

    def test_identity_observable_exact_both_models(self):
        for model in ("vn", "objective"):
            cfg = spin_config()
            cfg = SimulationSpec(
                cfg.__class__(
                    rho_in=cfg.rho_in,
                    rho_fin=cfg.rho_fin,
                    strong_projector=cfg.strong_projector,
                    weak_observable=np.eye(2),
                    delta_t_m=cfg.delta_t_m,
                    delta_t_c=cfg.delta_t_c,
                ),
                model,
                500,
                9,
            )
            res = run_simulation(cfg)
            assert res.mean == 1.0 + 0.0j
            assert res.stderr == 0.0

    def test_single_trial(self):
        res = run_simulation(vn_spec(trials=1, seed=0, a=0.6, b=0.8))
        assert res.stderr == 0.0 and res.stderr_im == 0.0
        cfg = spin_config(a=0.6, b=0.8)
        from weakprobe import trial_weak_value_strong_first, trial_weak_value_weak_first

        options = {
            complex(trial_weak_value_weak_first(cfg)),
            complex(trial_weak_value_strong_first(cfg)),
        }
        assert res.mean in options


class TestConvergenceToTarget:
    def test_vn_random_config_4sigma(self):
        rng = np.random.default_rng(21)
        cfg = random_config(rng)
        spec = SimulationSpec(cfg, "vn", 1_000_000, 17)
        res = run_simulation(spec)
        target = analytic_target(spec)
        assert res.stderr > 0
        assert abs(res.mean.real - target.real) <= 4 * res.stderr
        assert abs(res.mean.imag - target.imag) <= 4 * res.stderr_im

    @pytest.mark.parametrize("seed", [2, 3])
    def test_objective_random_config_4sigma(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = random_config(rng)
        spec = SimulationSpec(cfg, "objective", 400_000, seed)
        res = run_simulation(spec)
        target = analytic_target(spec)
        assert abs(res.mean.real - target.real) <= 4 * res.stderr
        assert abs(res.mean.imag - target.imag) <= 4 * res.stderr_im

    def test_objective_asymmetric_spin_4sigma(self):
        spec = objective_spec(trials=200_000, seed=31, a=0.6, b=0.9, dtc=0.3)
        res = run_simulation(spec)
        target = analytic_target(spec)
        assert abs(res.mean.real - target.real) <= 4 * res.stderr

    def test_unbiased_across_seeds(self):
        rng = np.random.default_rng(55)
        cfg = random_config(rng)
        target = analytic_target(SimulationSpec(cfg, "objective", 1, 0))
        means = []
        pooled_var = 0.0
        n_seeds = 50
        for seed in range(n_seeds):
            res = run_simulation(SimulationSpec(cfg, "objective", 20_000, seed))
            means.append(res.mean.real)
            pooled_var += res.stderr**2
        grand = float(np.mean(means))
        pooled = np.sqrt(pooled_var) / n_seeds
        assert abs(grand - target.real) <= 3 * pooled


class TestDrawContracts:
    def test_vn_draw_ranges(self):
        t_s, t_w = _vn_draws(vn_spec(trials=50_000, seed=8, dtm=1.7))
        for arr in (t_s, t_w):
            assert arr.min() >= 0.0 and arr.max() <= 1.7

    def test_vn_ordering_fraction_balanced(self):
        n = 100_000
        t_s, t_w = _vn_draws(vn_spec(trials=n, seed=12))
        frac = float(np.mean(t_w > t_s))
        sigma = 0.5 / np.sqrt(n)
        assert abs(frac - 0.5) <= 3 * sigma

    def test_objective_draw_range_is_weak_window(self):
        spec = objective_spec(trials=50_000, seed=14, dtm=1.0, dtc=0.5)
        t_w = _objective_draws(spec)
        w = spec.cfg.weak_window
        assert t_w.min() >= w.lo and t_w.max() <= w.hi
        # all three stretches actually populated
        assert np.any(t_w < 0.0) and np.any(t_w > 0.5)

    def test_uniformity_moments(self):
        t_w = _objective_draws(objective_spec(trials=200_000, seed=15, dtm=1.0, dtc=0.5))
        # window (-0.25, 0.75): mean 0.25, variance 1/12
        assert float(t_w.mean()) == pytest.approx(0.25, abs=3 * 1 / np.sqrt(12 * 200_000))
        assert float(t_w.var()) == pytest.approx(1 / 12, rel=0.02)


class TestConvergenceReport:
    def test_stderr_shrinks_like_sqrt(self):
        rng = np.random.default_rng(61)
        cfg = random_config(rng)
        report = convergence_report(
            SimulationSpec(cfg, "vn", 1, 23), [10_000, 1_000_000]
        )
        ratio = report[0].stderr / report[1].stderr
        assert 10 / 1.5 <= ratio <= 10 * 1.5

    def test_report_entries_track_target(self):
        rng = np.random.default_rng(67)
        cfg = random_config(rng)
        spec = SimulationSpec(cfg, "objective", 1, 29)
        target = analytic_target(spec)
        for res in convergence_report(spec, [1000, 100_000]):
            assert abs(res.mean.real - target.real) <= 5 * res.stderr

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            convergence_report(vn_spec(), [])
        with pytest.raises(ValueError):
            convergence_report(vn_spec(), [100, 100])
        with pytest.raises(ValueError):
            convergence_report(vn_spec(), [100, 50])
        with pytest.raises(ValueError):
            convergence_report(vn_spec(), [0, 10])

    def test_single_trial_checkpoint_has_zero_stderr(self):
        report = convergence_report(vn_spec(seed=77, a=0.6, b=0.8), [1, 100])
        assert report[0].trials == 1
        assert report[0].stderr == 0.0


class TestRecords:
    def test_record_matches_columns(self):
        spec = vn_spec(trials=250, seed=99)
        res = run_simulation(spec)
        rec = to_record(spec, res)
        assert tuple(rec.keys()) == CSV_COLUMNS
        assert rec["model"] == "vn"
        assert rec["N"] == 250
        assert rec["seed"] == 99
        assert rec["mean_re"] == res.mean.real
        assert rec["stderr_re"] == res.stderr

    def test_result_fields(self):
        res = run_simulation(vn_spec(trials=10, seed=4))
        assert isinstance(res, AveragedResult)
        assert res.trials == 10
        assert res.seed == 4


def direct_values(spec):
    """Every trial's value, materialized from the draws in trial order."""
    t = protocol_traces(spec.cfg)
    w1 = t.proj_obs_in / t.proj_in
    w3 = t.fin_obs_proj / t.fin_proj
    if spec.model == "vn":
        t_s, t_w = _vn_draws(spec)
        return np.where(t_w > t_s, w3, w1)
    t_w = _objective_draws(spec)
    dtc = spec.cfg.delta_t_c
    mid = t.obs_in + (t_w / dtc) * (t.obs_proj - t.obs_in)
    return np.select([t_w < 0.0, t_w > dtc], [w1, w3], default=mid)


def assert_matches_two_pass(res, values):
    n = values.size
    mean = complex(values.mean())
    stderr = float(values.real.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    stderr_im = float(values.imag.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    assert res.trials == n
    assert abs(res.mean - mean) <= 1e-12 * abs(mean)
    assert abs(res.stderr - stderr) <= 1e-12 * stderr
    assert abs(res.stderr_im - stderr_im) <= 1e-12 * stderr_im


def generic_spec(model, trials, seed):
    # d = 3 gives complex branch values; dtc = dtm/2 populates all three
    # objective stretches (before, inside and after the collapse).
    cfg = random_config(np.random.default_rng(300 + seed), d=3)
    cfg = replace(cfg, delta_t_c=cfg.delta_t_m / 2)
    return SimulationSpec(cfg, model, trials, seed)


class TestStreamingReduction:
    @pytest.mark.parametrize("model", ["vn", "objective"])
    @pytest.mark.parametrize(
        "trials",
        [1, 2, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 5],
    )
    def test_matches_two_pass_reduction(self, model, trials):
        spec = generic_spec(model, trials, seed=trials % 7)
        assert_matches_two_pass(run_simulation(spec), direct_values(spec))

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_report_matches_two_pass_and_runs(self, model):
        # checkpoints inside chunks and exactly on chunk boundaries
        k = CHUNK_TRIALS
        checkpoints = [1, 1000, k, k + 17, 2 * k, 3 * k + 5]
        spec = generic_spec(model, checkpoints[-1], seed=5)
        values = direct_values(spec)
        report = convergence_report(spec, checkpoints)
        for c, res in zip(checkpoints, report):
            assert_matches_two_pass(res, values[:c])
            assert res == run_simulation(replace(spec, trials=c))

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_memory_independent_of_trials(self, model):
        def peak(trials):
            spec = generic_spec(model, trials, seed=1)
            tracemalloc.start()
            try:
                run_simulation(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1 << 17), peak(1 << 22)
        assert large < 8_000_000
        assert large <= 2 * small

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_extreme_windows_do_not_overflow(self, model):
        spec = generic_spec(model, CHUNK_TRIALS + 3, seed=6)
        spec = replace(spec, cfg=replace(spec.cfg, delta_t_m=1e300, delta_t_c=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_simulation(spec)
        parts = (res.mean.real, res.mean.imag, res.stderr, res.stderr_im)
        assert all(math.isfinite(v) for v in parts)
        assert res.stderr > 0.0  # both branches were sampled, w1 != w3

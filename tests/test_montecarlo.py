import json
import math
import os
import subprocess
import sys
import textwrap
import threading
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
    build_hydrogen,
    convergence_report,
    montecarlo,
    protocol_traces,
    run_simulation,
    to_record,
)
from weakprobe.montecarlo import _EMPTY, _chunk_draws, _chunks, _merge, _result


def vn_spec(trials=1000, seed=42, **cfg_kwargs):
    return SimulationSpec(spin_config(**cfg_kwargs), "vn", trials, seed)


def objective_spec(trials=1000, seed=42, **cfg_kwargs):
    return SimulationSpec(spin_config(**cfg_kwargs), "objective", trials, seed)


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            SimulationSpec(spin_config(), "both", 10, 0)

    # bool is an int subclass, so an isinstance check alone lets True in
    @pytest.mark.parametrize("trials", [0, -5, 1.5, True])
    def test_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            SimulationSpec(spin_config(), "vn", trials, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5, False])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimulationSpec(spin_config(), "vn", 10, seed)

    # trials, seed and checkpoints follow one rule: any integer type but bool
    @pytest.mark.parametrize("model", ["vn", "objective"])
    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_integers(self, model, kind):
        want = SimulationSpec(spin_config(), model, 1000, 7)
        spec = SimulationSpec(want.cfg, model, kind(1000), kind(7))
        assert (type(spec.trials), type(spec.seed)) == (int, int)
        got = run_simulation(spec)
        assert got == run_simulation(want)
        text = json.dumps(to_record(spec, got))
        assert text == json.dumps(to_record(want, run_simulation(want)))
        checkpoints = [10, 1000]
        assert convergence_report(spec, checkpoints) == convergence_report(want, checkpoints)

    def test_largest_numpy_seed(self):
        spec = SimulationSpec(spin_config(), "vn", 10, np.uint64(2**64 - 1))
        assert spec.seed == 2**64 - 1 and type(spec.seed) is int


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
        t = spin_config(a=0.6, b=0.8).traces
        options = {complex(t.weak_first), complex(t.strong_first)}
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


def all_draws(spec):
    """Every trial's draws in trial order: ``t_s, t_w`` interleaved under the
    instantaneous model, ``t_w`` under the objective model."""
    chunks = _chunks(spec.trials)
    rng = montecarlo._generator()
    return np.concatenate(
        [_chunk_draws(spec, j, hi - lo, np.empty(2 * (hi - lo)), rng) for j, lo, hi in chunks]
    )


class TestDrawContracts:
    def test_vn_draw_ranges(self):
        draws = all_draws(vn_spec(trials=50_000, seed=8, dtm=1.7))
        t_s, t_w = draws[0::2], draws[1::2]
        for arr in (t_s, t_w):
            assert arr.min() >= 0.0 and arr.max() <= 1.7

    def test_vn_ordering_fraction_balanced(self):
        n = 100_000
        draws = all_draws(vn_spec(trials=n, seed=12))
        t_s, t_w = draws[0::2], draws[1::2]
        frac = float(np.mean(t_w > t_s))
        sigma = 0.5 / np.sqrt(n)
        assert abs(frac - 0.5) <= 3 * sigma

    def test_objective_draw_range_is_weak_window(self):
        spec = objective_spec(trials=50_000, seed=14, dtm=1.0, dtc=0.5)
        t_w = all_draws(spec)
        w = spec.cfg.weak_window
        assert t_w.min() >= w.lo and t_w.max() <= w.hi
        # all three stretches actually populated
        assert np.any(t_w < 0.0) and np.any(t_w > 0.5)

    def test_uniformity_moments(self):
        t_w = all_draws(objective_spec(trials=200_000, seed=15, dtm=1.0, dtc=0.5))
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
        # not truncated: [2.5, 10.9] used to report 2 and 10 trials
        for checkpoints in ([2.5, 10.9], [10, 20.0], [True, 10]):
            with pytest.raises(ValueError, match="integers"):
                convergence_report(vn_spec(), checkpoints)

    def test_numpy_integer_checkpoints(self):
        report = convergence_report(vn_spec(seed=5), np.array([10, 100]))
        assert [r.trials for r in report] == [10, 100]
        assert all(type(r.trials) is int for r in report)

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
    draws = all_draws(spec)
    if spec.model == "vn":
        t_s, t_w = draws[0::2], draws[1::2]
        return np.where(t_w > t_s, w3, w1)
    t_w = draws
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

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_huge_branch_values_scale_with_the_observable(self, model):
        # squares of branch values near 1e200 overflow a double; this used to
        # raise OverflowError (34, 'Numerical result out of range')
        def run(unit):
            cfg = generic_spec(model, 1, seed=4).cfg
            cfg = replace(cfg, weak_observable=unit * cfg.weak_observable)
            return run_simulation(SimulationSpec(cfg, model, CHUNK_TRIALS + 3, 4))

        huge, big = run(1e200), run(1e150)
        assert huge.stderr > 0.0 and huge.stderr_im > 0.0
        for field in ("mean", "stderr", "stderr_im"):
            assert getattr(huge, field) == pytest.approx(getattr(big, field) * 1e50, rel=1e-12)


# -- The chunk kernel against the uniform-and-mask kernel it replaced ---------------


def philox(seed, j):
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def uniform_draws(spec, j, n):
    """The chunk's draws as ``Generator.uniform`` makes them."""
    if spec.model == "vn":
        return philox(spec.seed, j).uniform(0.0, spec.cfg.delta_t_m, size=2 * n)
    w = spec.cfg.weak_window
    return philox(spec.seed, j).uniform(w.lo, w.hi, n)


def mask_group(spec, branch, draws, n):
    """A chunk's group, with the mid-collapse draws gathered by boolean mask."""
    w1, w3, obs_in, slope = branch
    mid = _EMPTY
    if spec.model == "vn":
        t_s, t_w = draws[0 : 2 * n : 2], draws[1 : 2 * n : 2]
        weak_first = n - int(np.count_nonzero(t_w > t_s))
    else:
        t_w, dtc = draws[:n], spec.cfg.delta_t_c
        weak_first = int(np.count_nonzero(t_w < 0.0))
        x = t_w[(t_w >= 0.0) & (t_w <= dtc)]
        if x.size:
            x /= dtc
            mean_x = float(x.mean())
            x -= mean_x
            m2_x = float(np.square(x, out=x).sum())
            re, im = m2_x * slope.real**2, m2_x * slope.imag**2
            mid = (x.size, obs_in + mean_x * slope, re, im)
    strong_first = (n - weak_first - mid[0], w3, 0.0, 0.0)
    return _merge(_merge((weak_first, w1, 0.0, 0.0), mid), strong_first)


def oracle_stream(spec, checkpoints):
    """``convergence_report`` from a fresh ``uniform`` array per chunk and
    the boolean-mask gather: the kernel before the reused draw buffer."""
    t = spec.cfg.traces
    branch = (t.weak_first, t.strong_first, t.obs_in, t.obs_proj - t.obs_in)
    todo = iter(checkpoints)
    c, total, out = next(todo), _EMPTY, []
    for j, lo, hi in _chunks(checkpoints[-1]):
        draws = uniform_draws(spec, j, hi - lo)
        chunk = mask_group(spec, branch, draws, hi - lo)
        while c is not None and c <= hi:
            part = chunk if c == hi else mask_group(spec, branch, draws, c - lo)
            out.append(_result(_merge(total, part), spec.seed))
            c = next(todo, None)
        total = _merge(total, chunk)
    return out


def ratio_spec(model, ratio, trials, seed):
    # d = 3 gives complex branch values; the mid-collapse share of the
    # objective draws is min(ratio, 1).
    cfg = random_config(np.random.default_rng(700 + seed), d=3)
    cfg = replace(cfg, delta_t_c=ratio * cfg.delta_t_m)
    return SimulationSpec(cfg, model, trials, seed)


RATIOS = [0.05, 0.5, 0.9, 0.95, 1.0, 2.0]
# The objective kernel's two paths, chosen by the ratio: at 0.99 the index
# gather, with nearly every draw mid-collapse; at 1.0 and 2.0 the weak window
# lies inside the collapse, and every trial is reduced without a gather.
PATH_RATIOS = [0.99, 1.0, 2.0]
PATH_CASES = [("vn", 1.0)] + [("objective", r) for r in PATH_RATIOS]

# One trial either side of the kernel's block edges: an objective gather block
# of _BLOCK_TRIALS // 2 mid-collapse trials at a share near 1, and the ends of
# a chunk's first three vn blocks.
_B, _H = montecarlo._BLOCK_TRIALS, CHUNK_TRIALS // 2
BLOCK_EDGES = sorted({m + d for m in (_B // 2, _B, _H, _H + _B) for d in (-1, 0, 1)})


class TestKernelOracle:
    """Results equal, bit for bit, those of the kernel that drew each chunk
    with ``uniform`` into a fresh array and gathered with a boolean mask."""

    @pytest.mark.parametrize("model", ["vn", "objective"])
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize(
        "trials",
        [1, 2, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 5],
    )
    def test_run_matches_oracle(self, model, ratio, trials):
        spec = ratio_spec(model, ratio, trials, seed=trials % 5)
        assert run_simulation(spec) == oracle_stream(spec, [trials])[0]

    @pytest.mark.parametrize("model", ["vn", "objective"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_report_matches_oracle(self, model, ratio):
        # checkpoints inside chunks and exactly on chunk boundaries
        k = CHUNK_TRIALS
        checkpoints = [1, 2, 1000, k - 1, k, k + 17, 2 * k, 3 * k + 5]
        spec = ratio_spec(model, ratio, checkpoints[-1], seed=8)
        assert convergence_report(spec, checkpoints) == oracle_stream(spec, checkpoints)

    @pytest.mark.parametrize("ratio", RATIOS + [0.99])
    def test_either_path_matches_oracle(self, ratio):
        checkpoints = [1, 777, CHUNK_TRIALS, 2 * CHUNK_TRIALS + 3]
        spec = ratio_spec("objective", ratio, checkpoints[-1], seed=9)
        assert convergence_report(spec, checkpoints) == oracle_stream(spec, checkpoints)

    @pytest.mark.parametrize("model, ratio", PATH_CASES)
    @pytest.mark.parametrize("trials", BLOCK_EDGES)
    def test_run_at_block_edges(self, model, ratio, trials):
        spec = ratio_spec(model, ratio, trials, seed=trials % 3)
        assert run_simulation(spec) == oracle_stream(spec, [trials])[0]

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_tiny_blocks_match_oracle(self, model, monkeypatch):
        # Blocks of a few trials put block edges, checkpoints and the end of
        # the dead entries behind the gathered front next to each other in
        # every arrangement.
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 8)
        rng = np.random.default_rng(2020)
        for seed in range(400):
            n = int(rng.integers(1, 80))
            checkpoints = sorted({n, *rng.integers(1, n + 1, size=rng.integers(0, 6)).tolist()})
            spec = ratio_spec(model, float(rng.choice(RATIOS + [0.99])), n, seed)
            assert convergence_report(spec, checkpoints) == oracle_stream(spec, checkpoints)

    @pytest.mark.parametrize("trials", [_H - 1, _H, _H + 1, _H + 9, 2 * CHUNK_TRIALS + _H + 3])
    def test_tiny_vn_blocks_across_halves(self, trials, monkeypatch):
        # Blocks of 8 trials on both sides of mid-chunk, in a run and in a
        # report whose checkpoints sit at, next to and between the block
        # edges there; the longest run shares its chunks with the helper
        # thread.
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 8)
        spec = ratio_spec("vn", 0.5, trials, seed=trials % 7)
        assert run_simulation(spec) == oracle_stream(spec, [trials])[0]
        near = {c for e in (_H - 8, _H, _H + 8) for c in (e - 3, e - 1, e, e + 1, e + 5)}
        checkpoints = sorted({1, 13, *(c for c in near if c < trials), trials})
        assert convergence_report(spec, checkpoints) == oracle_stream(spec, checkpoints)

    @pytest.mark.parametrize("model", ["vn", "objective"])
    @pytest.mark.parametrize("ratio", RATIOS + [0.99])
    def test_report_at_block_edges(self, model, ratio):
        # block edges in the first chunk and in the second; at low shares an
        # inner checkpoint's prefix fits behind the gathered front, at high
        # ones it takes a new array, and at a share of 1 each is a copy of a
        # prefix of the chunk
        checkpoints = BLOCK_EDGES + [CHUNK_TRIALS + e for e in BLOCK_EDGES]
        spec = ratio_spec(model, ratio, checkpoints[-1], seed=10)
        assert convergence_report(spec, checkpoints) == oracle_stream(spec, checkpoints)


def per_trial_law(spec, part):
    """The law of one part (``"real"`` or ``"imag"``) of a trial's value, from
    the traces alone: point masses ``(weight, value)`` at W1 and W3 and, under
    the objective model, a uniform segment ``(weight, y0, y1)``, the values
    ``obs_in + x * slope`` for ``x`` uniform on the mid-collapse part of the
    weak window."""
    t, dtm, dtc = spec.cfg.traces, spec.cfg.delta_t_m, spec.cfg.delta_t_c
    w1, w3 = getattr(t.weak_first, part), getattr(t.strong_first, part)
    if spec.model == "vn":  # t_w and t_s iid uniform: each order has probability 1/2
        return [(0.5, w1), (0.5, w3)], None
    lo, hi = spec.cfg.weak_window.lo, spec.cfg.weak_window.hi
    before, after = max(0.0, min(hi, 0.0) - lo) / dtm, max(0.0, hi - max(lo, dtc)) / dtm
    c, s = getattr(t.obs_in, part), getattr(t.obs_proj - t.obs_in, part)
    x0, x1 = max(lo, 0.0) / dtc, min(hi, dtc) / dtc
    return [(before, w1), (after, w3)], (1.0 - before - after, c + x0 * s, c + x1 * s)


def central_moment(law, k, about):
    """The ``k``-th moment about ``about`` of a law from ``per_trial_law``."""
    points, segment = law
    total = sum(w * (v - about) ** k for w, v in points)
    if segment:
        w, y0, y1 = segment
        y0, y1 = y0 - about, y1 - about
        # (y1^(k+1) - y0^(k+1)) / ((k+1) (y1 - y0)) expanded: no cancellation
        # where the segment is nearly a point, as in a part it leaves flat
        total += w * sum(y0**i * y1 ** (k - i) for i in range(k + 1)) / (k + 1)
    return total


def spread_spec(config, model, ratio, trials, seed):
    """A spec on the hydrogen scenario (``a = 0.6``, ``b = 0.8``) or a random
    d = 3 or d = 4 config, with ``delta_t_c = ratio * delta_t_m``."""
    if config == "hydrogen":
        cfg = build_hydrogen(0.6, 0.8)
    else:
        d = int(config[-1])
        cfg = random_config(np.random.default_rng(900 + d), d=d)
    return SimulationSpec(replace(cfg, delta_t_c=ratio * cfg.delta_t_m), model, trials, seed)


SPREAD_CONFIGS = ["hydrogen", "d=3", "d=4"]
# vn's law does not depend on delta_t_c; the objective one at mid-collapse
# shares 0.5 and 0.9 (the index gather) and with the weak window inside the
# collapse (the whole-window path).
SPREAD_CASES = [(c, "vn", 0.5) for c in SPREAD_CONFIGS] + [
    (c, "objective", r) for c in SPREAD_CONFIGS for r in (0.5, 0.9, 2.0)
]


class TestStderrOracle:
    """``stderr * sqrt(N)``, the sample standard deviation of the per-trial
    values, against the closed-form one of the law they are drawn from: for
    vn two point masses of weight 1/2 at W1 and W3, for the objective model
    the mixture of W1 (weight ``p_wf``), W3 (``p_sf``) and
    ``obs_in + x * (obs_proj - obs_in)`` for ``x`` uniform on
    ``[max(lo, 0), min(hi, delta_t_c)] / delta_t_c``."""

    N = 10**6

    def check(self, spec):
        res = run_simulation(spec)
        for part, stderr in (("real", res.stderr), ("imag", res.stderr_im)):
            law = per_trial_law(spec, part)
            mean = central_moment(law, 1, 0.0)
            assert mean == pytest.approx(getattr(analytic_target(spec), part), abs=1e-12)
            var, mu4 = central_moment(law, 2, mean), central_moment(law, 4, mean)
            if var == 0.0:
                assert stderr == 0.0
                continue
            # The sample variance s^2 has variance (mu4 - var^2) / N to first
            # order, so s is off by at most 5 of its standard errors
            # sqrt(mu4 - var^2) / (2 var sqrt(N)), relative.  That term
            # vanishes for vn's two equal point masses, where s^2 = var
            # (1 - (2 p - 1)^2) for the weak-first share p, off by at most 25 / N
            # when p is within 5 standard errors of 1/2; 25 / N bounds the
            # second order and ddof = 1 in general.
            first = math.sqrt(max(mu4 - var**2, 0.0)) / (2 * var * math.sqrt(self.N))
            rel = 5 * first + 25 / self.N
            assert abs(stderr * math.sqrt(self.N) / math.sqrt(var) - 1) <= rel

    @pytest.mark.parametrize(
        "model, ratio",
        [("vn", 0.5), ("objective", 0.5), ("objective", 2.0)],
        ids=["vn", "index-gather", "whole-window"],
    )
    def test_stderr_matches_closed_form(self, model, ratio):
        self.check(ratio_spec(model, ratio, self.N, seed=11))

    @pytest.mark.parametrize("config, model, ratio", SPREAD_CASES)
    def test_spread_on_each_config(self, config, model, ratio):
        spec = spread_spec(config, model, ratio, self.N, seed=23)
        if model == "vn":
            # the two masses' spread is |W1 - W3| / 2 per part; on hydrogen
            # W1 = W3, so it is exactly 0, and so must the sampled one be
            t = spec.cfg.traces
            for part in ("real", "imag"):
                var = central_moment(per_trial_law(spec, part), 2, getattr(t.vn, part))
                half_gap = abs(getattr(t.weak_first - t.strong_first, part)) / 2
                assert math.sqrt(var) == pytest.approx(half_gap, rel=1e-12, abs=0.0)
        self.check(spec)


class TestDrawOracle:
    """``_chunk_draws`` gives the bits of ``Generator.uniform`` on the chunk's
    Philox stream, into a fresh buffer or a reused one, with a fresh
    generator or a reused one."""

    def check(self, spec, j, n):
        want = uniform_draws(spec, j, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = montecarlo._generator()
            fresh = _chunk_draws(spec, j, n, np.empty(2 * n), rng)
            buf = np.full(2 * CHUNK_TRIALS, np.nan)
            reused = _chunk_draws(spec, j, n, buf, rng)
        assert np.array_equal(fresh, want) and np.array_equal(reused, want)
        assert np.shares_memory(reused, buf)

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_random_windows(self, model):
        rng = np.random.default_rng(808)
        for _ in range(40):
            dtm, dtc = 10.0 ** rng.uniform(-6, 6, size=2)
            cfg = replace(spin_config(), delta_t_m=float(dtm), delta_t_c=float(dtc))
            seed, j = int(rng.integers(2**64, dtype=np.uint64)), int(rng.integers(50))
            spec = SimulationSpec(cfg, model, 1, seed)
            self.check(spec, j, int(rng.integers(1, CHUNK_TRIALS + 1)))

    def test_negative_and_positive_lo(self):
        for dtm, dtc in ((1.0, 0.3), (0.3, 1.0)):
            spec = objective_spec(seed=3, dtm=dtm, dtc=dtc)
            assert (spec.cfg.weak_window.lo < 0.0) == (dtc < dtm)
            self.check(spec, 2, CHUNK_TRIALS)

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_extreme_window(self, model):
        spec = generic_spec(model, 1, seed=6)
        spec = replace(spec, cfg=replace(spec.cfg, delta_t_m=1e300, delta_t_c=1e-300))
        self.check(spec, 0, CHUNK_TRIALS)
        self.check(spec, 1, 5)


class TestMemoryGuard:
    @staticmethod
    def peak(spec, checkpoints=None):
        tracemalloc.start()
        try:
            if checkpoints is None:
                run_simulation(spec)
            else:
                convergence_report(spec, checkpoints)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("model", ["vn", "objective"])
    def test_short_run_buffer_fits_the_run(self, model):
        # a buffer sized to CHUNK_TRIALS would cost 0.5-1 MB here
        assert self.peak(generic_spec(model, 1024, seed=1)) < 64_000

    def test_two_thread_vn_peak_within_one_thread_kernel(self):
        # both threads' one-block buffers, comparison temporaries and the
        # queue stay within what one thread held: a chunk of draws
        # (16 bytes a trial) and its boolean comparison (1 byte a trial); the
        # first two-thread run of a process also imports the executor, once
        spec = generic_spec("vn", 4 * CHUNK_TRIALS, seed=1)
        run_simulation(spec)
        assert self.peak(spec) <= 17 * CHUNK_TRIALS

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_objective_peak_bounded(self, ratio):
        # a chunk of draws (8 bytes a trial), its mask (1 byte a trial) and
        # one gather block's index array and gathered draws, whatever the
        # share of mid-collapse trials
        spec = ratio_spec("objective", ratio, 4 * CHUNK_TRIALS, seed=1)
        assert self.peak(spec) <= 12 * CHUNK_TRIALS

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    def test_objective_report_peak_bounded(self, ratio):
        # A chunk of draws (8 bytes a trial) beside the larger of one gather
        # block's temporaries (16 bytes a mid trial, 2 bytes a chunk trial)
        # and one copy of an inner checkpoint's values (8 bytes a mid-collapse
        # trial of its prefix), with 1 byte a trial to spare.  Below share 1
        # the chunk also has its mask (1 byte a trial); at share 1 it has no
        # mask and no gather, and a second copy held beside the first would
        # exceed the bound.
        checkpoints = [int(c) for c in np.geomspace(1000, 4 * CHUNK_TRIALS, 7)]
        spec = ratio_spec("objective", ratio, checkpoints[-1], seed=1)
        copy = 0
        for c in checkpoints[:-1]:
            j, e = divmod(c, CHUNK_TRIALS)
            t_w = uniform_draws(spec, j, e)
            copy = max(copy, 8 * int(np.count_nonzero((t_w >= 0.0) & (t_w <= spec.cfg.delta_t_c))))
        if ratio < 1.0:
            bound = 10 * CHUNK_TRIALS + max(2 * CHUNK_TRIALS, copy)
        else:
            bound = 9 * CHUNK_TRIALS + copy
        assert self.peak(spec, checkpoints) <= bound

    def test_vn_peak_bounded(self):
        # both threads' one-block buffers (2 * 16 bytes a block trial) and a
        # block's comparison; the first two-thread run imports the executor
        spec = generic_spec("vn", 4 * CHUNK_TRIALS, seed=1)
        run_simulation(spec)
        assert self.peak(spec) <= 10 * CHUNK_TRIALS

    def test_cold_objective_run_takes_few_page_faults(self):
        # Arrays that grow with the mid-collapse share come from fresh pages
        # in a new process: the whole-chunk index gather took ~4,000 minor
        # faults in this run, the block gather takes ~140.
        pytest.importorskip("resource")
        code = """
            import resource
            from weakprobe import SimulationSpec, build_hydrogen, run_simulation
            cfg = build_hydrogen(0.6, 0.8, 1.0, 1.0, 0.9)  # mid-collapse share 0.9
            spec = SimulationSpec(cfg, "objective", 3_000_000, 5)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_simulation(spec)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) <= 1000


# -- Positioned Philox streams and the two-thread vn run -----------------------------


class TestPositionedPhilox:
    """A reused generator positioned through its ``state`` yields the draws
    of a fresh ``Philox(key=[seed, j])`` from the given offset on."""

    def test_tail_of_fresh_stream(self):
        rng = np.random.default_rng(1601)
        reused = montecarlo._generator()
        for _ in range(20):
            seed, j = int(rng.integers(2**64, dtype=np.uint64)), int(rng.integers(2**32))
            fresh = philox(seed, j).random(65540 + 1000)
            for offset in (0, 4, 65536, 65540):
                montecarlo._position(reused, seed, j, offset)
                assert np.array_equal(reused.random(1000), fresh[offset : offset + 1000])

    def test_halves_concatenate_to_uniform_draws(self):
        rng = np.random.default_rng(1602)
        reused, half = montecarlo._generator(), CHUNK_TRIALS // 2
        for n in (half + 1, half + 2, CHUNK_TRIALS - 1, CHUNK_TRIALS):
            dtm = float(10.0 ** rng.uniform(-6, 6))
            cfg = replace(spin_config(), delta_t_m=dtm)
            seed, j = int(rng.integers(2**64, dtype=np.uint64)), int(rng.integers(50))
            spec = SimulationSpec(cfg, "vn", 1, seed)
            first = _chunk_draws(spec, j, half, np.empty(2 * half), reused, 0)
            second = _chunk_draws(spec, j, n - half, np.empty(2 * (n - half)), reused, half)
            assert np.array_equal(np.concatenate([first, second]), uniform_draws(spec, j, n))


THREADINGS = {"two": 1, "one": 2**62}  # _THREAD_TRIALS forcing each path


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test; an executor's workers are
    ``threading.Thread``s too."""
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


class TestTwoThreadVn:
    @pytest.mark.parametrize("threads", sorted(THREADINGS))
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_oracle(self, threads, seed, monkeypatch, thread_starts):
        monkeypatch.setattr(montecarlo, "_THREAD_TRIALS", THREADINGS[threads])
        k = CHUNK_TRIALS
        checkpoints = [k // 2 - 1, k // 2, k // 2 + 1, k, 3 * k // 2, 3 * k + 5]
        spec = ratio_spec("vn", 0.5, checkpoints[-1], seed)
        want = oracle_stream(spec, checkpoints)
        assert convergence_report(spec, checkpoints) == want
        for c, res in zip(checkpoints, want):
            assert run_simulation(replace(spec, trials=c)) == res
        assert len(thread_starts) == (1 + len(checkpoints) if threads == "two" else 0)

    def test_no_thread_left_behind(self, thread_starts):
        before = threading.active_count()
        spec = generic_spec("vn", 4 * CHUNK_TRIALS, seed=2)
        run_simulation(spec)
        convergence_report(spec, [1, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS, spec.trials])
        assert len(thread_starts) == 2
        assert threading.active_count() == before

    def test_no_thread_below_threshold(self, thread_starts):
        spec = generic_spec("vn", montecarlo._THREAD_TRIALS - 1, seed=2)
        run_simulation(spec)
        convergence_report(spec, [1, CHUNK_TRIALS, spec.trials])
        run_simulation(generic_spec("objective", 4 * CHUNK_TRIALS, seed=2))
        convergence_report(generic_spec("objective", 1, seed=2), [1, 4 * CHUNK_TRIALS])
        assert thread_starts == []

    @pytest.mark.parametrize("on_helper", [False, True])
    def test_exception_reaches_caller(self, on_helper, monkeypatch):
        # The other thread's first chunk waits for the failure, so the failing
        # thread takes a chunk whichever thread starts first.
        counts, caller = montecarlo._vn_counts, threading.current_thread()
        failed = threading.Event()

        def failing(spec, rng, buf, j, ends):
            if (threading.current_thread() is not caller) == on_helper:
                failed.set()
                raise RuntimeError("planted")
            failed.wait(timeout=30)
            return counts(spec, rng, buf, j, ends)

        monkeypatch.setattr(montecarlo, "_vn_counts", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="planted"):
            run_simulation(generic_spec("vn", 8 * CHUNK_TRIALS, seed=2))
        assert threading.active_count() == before

    def test_starved_helper_never_stalls_the_caller(self, monkeypatch):
        # The helper's first chunk blocks until the caller has counted every
        # other chunk.  A caller that waited on the helper would sit out the
        # 30 s safety timeout, then leave chunks to it.
        counts, caller = montecarlo._vn_counts, threading.current_thread()
        released = threading.Event()
        spec = generic_spec("vn", 6 * CHUNK_TRIALS + 5, seed=5)
        count = -(-spec.trials // CHUNK_TRIALS)
        blocked, by_caller = [], []

        def starved(spec, rng, buf, j, ends):
            if threading.current_thread() is caller:
                by_caller.append(j)
                if len(by_caller) == count - 1:
                    released.set()
            elif not blocked:
                blocked.append(j)
                released.wait(timeout=30)
            return counts(spec, rng, buf, j, ends)

        monkeypatch.setattr(montecarlo, "_vn_counts", starved)
        assert run_simulation(spec) == oracle_stream(spec, [spec.trials])[0]
        assert len(by_caller) >= count - 1

    @pytest.mark.parametrize("fails", [None, "caller", "helper"])
    def test_each_chunk_counted_once(self, fails, monkeypatch):
        # The starved-helper set-up, in which no chunk may be counted twice.
        # With a planted failure, the failing thread fails in its first chunk
        # once the other holds one; released, the other still has that chunk
        # to count, and takes none after it.
        counts, caller = montecarlo._vn_counts, threading.current_thread()
        spec = generic_spec("vn", 6 * CHUNK_TRIALS + 5, seed=5)
        count = -(-spec.trials // CHUNK_TRIALS)
        counted = {"caller": [], "helper": []}
        holding, released = threading.Event(), threading.Event()
        holder = "caller" if fails == "helper" else "helper"

        def starved(spec, rng, buf, j, ends):
            side = "caller" if threading.current_thread() is caller else "helper"
            counted[side].append(j)
            if side == fails:
                holding.wait(timeout=30)
                released.set()
                raise RuntimeError("planted")
            if side == holder and len(counted[side]) == 1:
                holding.set()
                released.wait(timeout=30)
            elif fails is None and len(counted["caller"]) == count - 1:
                released.set()
            return counts(spec, rng, buf, j, ends)

        monkeypatch.setattr(montecarlo, "_vn_counts", starved)
        if fails:
            with pytest.raises(RuntimeError, match="planted"):
                run_simulation(spec)
            assert len(counted["caller"]) == len(counted["helper"]) == 1
        else:
            assert run_simulation(spec) == oracle_stream(spec, [spec.trials])[0]
            assert sorted(counted["caller"] + counted["helper"]) == list(range(count))

    def test_concurrent_callers(self):
        # more threads than cores, switching often: each call has its own
        # generators, buffers and hand-over
        spec = generic_spec("vn", 3 * CHUNK_TRIALS + 5, seed=7)
        want, got = oracle_stream(spec, [spec.trials]), []
        callers = [threading.Thread(target=lambda: got.append(run_simulation(spec))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want * 4


# -- One generator per thread, reused across calls -----------------------------------


def on_fresh_thread(fn):
    """``fn()`` on a new ``threading.Thread``; what it returns or raises
    reaches the caller."""
    box = []

    def target():
        try:
            box.append((fn(), None))
        except BaseException as exc:  # handed to the caller, which raises it
            box.append((None, exc))

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    value, exc = box[0]
    if exc is not None:
        raise exc
    return value


K = CHUNK_TRIALS
# model, weak-window ratio, checkpoints, seed, and whether the call fails in chunk 1
HISTORY = [
    ("vn", 0.5, [3000], 11, False),
    ("objective", 0.7, [5, 700, K + 9], 12, False),
    ("vn", 0.5, [10, K + 100], 13, True),
    ("objective", 0.3, [1, 2, 1024], 14, False),
    ("objective", 2.0, [2 * K + 7], 15, True),
    ("vn", 0.5, [1, 40, K - 1, K + 3], 16, False),
    ("objective", 0.9, [K], 17, False),
    ("vn", 0.5, [1], 18, False),
]


class TestPerThreadGenerator:
    """Each thread reuses one generator across calls; a vn helper and a call
    nested in another build their own."""

    @staticmethod
    def replay_history(failing):
        """Run ``HISTORY`` in order; each call that does not fail must give
        the oracle's bits, whatever the calls before it drew."""
        for model, ratio, checkpoints, seed, fails in HISTORY:
            spec = ratio_spec(model, ratio, checkpoints[-1], seed)
            want = oracle_stream(spec, checkpoints)
            if fails:
                failing.append(True)
                with pytest.raises(RuntimeError, match="planted"):
                    convergence_report(spec, checkpoints)
                failing.clear()
            elif len(checkpoints) == 1:
                assert run_simulation(spec) == want[0]
            else:
                assert convergence_report(spec, checkpoints) == want

    def test_bits_do_not_depend_on_the_calls_before(self, monkeypatch):
        draws, failing = montecarlo._chunk_draws, []

        def planted(spec, j, n, out, rng, first=0):
            got = draws(spec, j, n, out, rng, first)
            if failing and j == 1:  # after its draws: the generator is mid-stream
                raise RuntimeError("planted")
            return got

        monkeypatch.setattr(montecarlo, "_chunk_draws", planted)
        self.replay_history(failing)
        on_fresh_thread(lambda: self.replay_history(failing))

    def test_one_generator_per_thread(self, monkeypatch):
        generator, built = montecarlo._generator, []

        def counted():
            built.append(generator())
            return built[-1]

        counts, used, caller, worker_ran = montecarlo._vn_counts, {}, [], threading.Event()

        def recorded(spec, rng, buf, j, ends):
            used.setdefault(threading.current_thread(), []).append(rng)
            if threading.current_thread() is not caller[0]:
                worker_ran.set()
            elif spec.trials == montecarlo._THREAD_TRIALS:
                worker_ran.wait(timeout=30)  # else a starved worker might count no chunk
            return counts(spec, rng, buf, j, ends)

        monkeypatch.setattr(montecarlo, "_generator", counted)
        monkeypatch.setattr(montecarlo, "_vn_counts", recorded)

        def calls():
            caller.append(threading.current_thread())
            run_simulation(generic_spec("vn", 1024, seed=1))
            first = len(built)
            run_simulation(generic_spec("objective", 1024, seed=1))
            convergence_report(generic_spec("objective", 1, seed=2), [1, K + 1])
            convergence_report(generic_spec("vn", 1, seed=3), [7, K + 5])
            later = len(built)
            run_simulation(generic_spec("vn", montecarlo._THREAD_TRIALS, seed=4))
            return first, later, len(built)

        assert on_fresh_thread(calls) == (1, 1, 2)
        worker = [t for t in used if t is not caller[0]]
        assert len(worker) == 1
        assert all(rng is built[0] for rng in used[caller[0]])
        assert all(rng is built[1] for rng in used[worker[0]])
        assert built[1] is not built[0]

    def test_nested_call_builds_its_own(self, monkeypatch):
        # A signal handler that runs a simulation on the thread it interrupts,
        # here between positioning and drawing, must not move the outer draws.
        position, fired, nested = montecarlo._position, [], []
        inner, outer = generic_spec("objective", 1000, seed=8), generic_spec("vn", 3000, seed=9)

        def interrupted(rng, seed, j, draw):
            position(rng, seed, j, draw)
            if not fired:
                fired.append(True)
                nested.append(run_simulation(inner))

        monkeypatch.setattr(montecarlo, "_position", interrupted)
        assert run_simulation(outer) == oracle_stream(outer, [outer.trials])[0]
        assert nested == oracle_stream(inner, [inner.trials])

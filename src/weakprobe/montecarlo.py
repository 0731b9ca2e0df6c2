"""Monte Carlo sampling of the timing jitter.

Trial timing is the only random ingredient: under the instantaneous
model each trial draws a collapse time ``t_s`` and a weak-coupling time
``t_w`` independently and uniformly from ``(0, delta_t_m)`` and
contributes the strong-first value when ``t_w > t_s``, the weak-first
value otherwise; under the objective model each trial draws ``t_w``
uniformly from the weak window and contributes the per-trial value of
:func:`weakprobe.weakvalues.objective_weak_value_at`.

Reproducibility contract: the random stream is Philox (counter-based).
Trials are split into fixed chunks of ``CHUNK_TRIALS``; chunk ``j``
owns the generator keyed ``(seed, j)``.  Within a chunk, trial ``i``
consumes draws ``2i`` and ``2i+1`` (``t_s`` then ``t_w``) under the
instantaneous model, or draw ``i`` under the objective model, so the
draws of any trial are fixed by ``(seed, trial index)`` alone: results
are bit-identical for a given spec no matter how the chunks are
evaluated, and prefixes of a stream are stable.

Each chunk reduces to branch counts plus the mean and M2 of
``x = t_w/delta_t_c`` over its mid-collapse trials, where the value is
affine in ``x``; chunks merge in index order by the pairwise update of
Chan, Golub & LeVeque (1983).  Memory is O(``CHUNK_TRIALS``) whatever
the trial count.  This reduction replaced a per-trial value array and
changed result bits once, in the last places; the draws did not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weakvalues import (
    ProtocolConfig,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    protocol_traces,
)

__all__ = [
    "CHUNK_TRIALS",
    "SimulationSpec",
    "AveragedResult",
    "run_simulation",
    "convergence_report",
    "analytic_target",
    "to_record",
    "CSV_COLUMNS",
]

CHUNK_TRIALS = 1 << 16

MODELS = ("vn", "objective")


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """What to simulate: configuration, model, trial count, seed."""

    cfg: ProtocolConfig
    model: str
    trials: int
    seed: int

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError("trials must be a positive integer")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class AveragedResult:
    """Sample mean of the per-trial weak values with standard errors.

    ``stderr`` and ``stderr_im`` are the standard errors of the real and
    imaginary parts (sample standard deviation over sqrt(N); zero by
    convention for a single trial).
    """

    mean: complex
    stderr: float
    stderr_im: float
    trials: int
    seed: int


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(n: int):
    for j in range(0, (n + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
        lo = j * CHUNK_TRIALS
        yield j, lo, min(lo + CHUNK_TRIALS, n)


def _chunk_draws(spec: SimulationSpec, j: int, n: int) -> np.ndarray:
    """Draws of the first ``n`` trials of chunk ``j``: ``t_s, t_w`` interleaved
    under the instantaneous model, ``t_w`` under the objective model."""
    rng = _chunk_rng(spec.seed, j)
    if spec.model == "vn":
        return rng.uniform(0.0, spec.cfg.delta_t_m, size=2 * n)
    return rng.uniform(spec.cfg.weak_window.lo, spec.cfg.weak_window.hi, n)


def _draws(spec: SimulationSpec) -> np.ndarray:
    chunks = _chunks(spec.trials)
    return np.concatenate([_chunk_draws(spec, j, hi - lo) for j, lo, hi in chunks])


def _vn_draws(spec: SimulationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Collapse and weak-coupling times for every instantaneous-model trial."""
    block = _draws(spec)
    return block[0::2], block[1::2]


def _objective_draws(spec: SimulationSpec) -> np.ndarray:
    """Weak-coupling times for every objective-model trial."""
    return _draws(spec)


# A group of trials: (count, mean, M2 of the real part, M2 of the imaginary part).
_EMPTY = (0, 0j, 0.0, 0.0)


def _merge(a, b):
    """Pairwise update of Chan, Golub & LeVeque (1983); ``a`` comes first."""
    if a[0] == 0 or b[0] == 0:
        return b if a[0] == 0 else a
    (na, ma, ra, ia), (nb, mb, rb, ib) = a, b
    n, d = na + nb, mb - ma
    f = na * nb / n
    return n, ma + d * (nb / n), ra + rb + d.real**2 * f, ia + ib + d.imag**2 * f


def _chunk_group(spec: SimulationSpec, branch, draws: np.ndarray, n: int):
    """The group of the first ``n`` trials of a chunk, from the chunk's draws."""
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
            x /= dtc  # mid draws only: x <= 1, while t_w/dtc can overflow elsewhere
            mean_x = float(x.mean())
            x -= mean_x
            m2_x = float(np.square(x, out=x).sum())
            re, im = m2_x * slope.real**2, m2_x * slope.imag**2
            mid = (x.size, obs_in + mean_x * slope, re, im)
    strong_first = (n - weak_first - mid[0], w3, 0.0, 0.0)
    return _merge(_merge((weak_first, w1, 0.0, 0.0), mid), strong_first)


def _result(group, seed: int) -> AveragedResult:
    n, mean, m2_re, m2_im = group
    dof = max(n * (n - 1), 1)  # a single trial has M2 = 0, so zero stderr
    stderr, stderr_im = math.sqrt(m2_re / dof), math.sqrt(m2_im / dof)
    return AveragedResult(complex(mean), stderr, stderr_im, n, seed)


def _stream(spec: SimulationSpec, checkpoints: list[int]) -> list[AveragedResult]:
    """Statistics of the first ``c`` trials for each checkpoint ``c``, in one pass.

    Checkpoint ``c`` in chunk ``j`` merges whole chunks ``0..j-1``, then
    the ``c``-prefix of chunk ``j``: the same order as a run of ``c``.
    """
    t = protocol_traces(spec.cfg)
    w1, w3 = t.proj_obs_in / t.proj_in, t.fin_obs_proj / t.fin_proj
    branch = (w1, w3, t.obs_in, t.obs_proj - t.obs_in)
    todo = iter(checkpoints)
    c, total, out = next(todo), _EMPTY, []
    for j, lo, hi in _chunks(checkpoints[-1]):
        draws = _chunk_draws(spec, j, hi - lo)
        chunk = _chunk_group(spec, branch, draws, hi - lo)
        while c is not None and c <= hi:
            part = chunk if c == hi else _chunk_group(spec, branch, draws, c - lo)
            out.append(_result(_merge(total, part), spec.seed))
            c = next(todo, None)
        total = _merge(total, chunk)
        del draws  # free before the next chunk is drawn: one chunk in memory
    return out


def run_simulation(spec: SimulationSpec) -> AveragedResult:
    """Sample the time-averaged weak value of ``spec.model``."""
    return _stream(spec, [spec.trials])[0]


def analytic_target(spec: SimulationSpec) -> complex:
    """The exact average the simulation estimates."""
    if spec.model == "vn":
        return averaged_weak_value_vn(spec.cfg)
    return averaged_weak_value_objective(spec.cfg)


def convergence_report(
    spec: SimulationSpec, checkpoints: Sequence[int]
) -> list[AveragedResult]:
    """Running estimates at increasing trial counts from one stream.

    ``checkpoints`` must be strictly increasing positive integers; the
    result at checkpoint ``N`` is the statistics of the first ``N``
    trials of the stream defined by ``spec.seed`` and equals
    ``run_simulation`` at ``N`` trials bit for bit, so the entries show
    the ``1/sqrt(N)`` shrink of the standard error on actual data.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise ValueError("checkpoints must be positive integers")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return _stream(spec, checkpoints)


CSV_COLUMNS = ("model", "N", "seed", "mean_re", "mean_im", "stderr_re", "stderr_im")


def to_record(spec: SimulationSpec, result: AveragedResult) -> dict:
    """Flat record of one result, keyed like the CSV columns."""
    return {
        "model": spec.model,
        "N": result.trials,
        "seed": result.seed,
        "mean_re": float(result.mean.real),
        "mean_im": float(result.mean.imag),
        "stderr_re": result.stderr,
        "stderr_im": result.stderr_im,
    }

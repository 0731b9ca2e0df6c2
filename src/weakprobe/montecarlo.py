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

Each call allocates one draw buffer of ``min(trials, CHUNK_TRIALS)``
trials (two doubles per trial under the instantaneous model, one under
the objective model).  Each chunk fills it with ``Generator.random`` and
scales it in place to its window, ``u * (hi - lo) + lo``: the same two
roundings as ``Generator.uniform(lo, hi)``, so every draw has the bits
``uniform`` gives it.

Each chunk reduces to branch counts plus the mean and M2 of
``x = t_w/delta_t_c`` over its mid-collapse trials, where the value is
affine in ``x``; chunks merge in index order by the pairwise update of
Chan, Golub & LeVeque (1983).  The mid-collapse draws are gathered by
index (``flatnonzero`` then ``take``), or by boolean mask when nearly
every draw of the chunk is mid-collapse; both give the same array, so
the choice never changes a result.  Memory is O(``CHUNK_TRIALS``)
whatever the trial count.  This reduction replaced a per-trial value
array and changed result bits once, in the last places; the draws did
not change.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weakvalues import (
    ProtocolConfig,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
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
        # Exactly int: bool is an int subclass, but True trials is a mistake.
        if not (type(self.trials) is int and self.trials >= 1):
            raise ValueError("trials must be a positive integer")
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
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


def _chunk_draws(
    spec: SimulationSpec, j: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Draws of the first ``n`` trials of chunk ``j``: ``t_s, t_w`` interleaved
    under the instantaneous model, ``t_w`` under the objective model.  They
    are written into the front of ``out`` when it is given."""
    size = 2 * n if spec.model == "vn" else n
    if out is None:
        out = np.empty(size)
    draws = out[:size] if size < out.size else out  # no view object on a full chunk
    _chunk_rng(spec.seed, j).random(out=draws)
    if spec.model == "vn":
        draws *= spec.cfg.delta_t_m
    else:
        w = spec.cfg.weak_window
        draws *= w.hi - w.lo
        draws += w.lo
    return draws


# Above this share of mid-collapse draws in a chunk, the objective model
# gathers them with the boolean mask, at or below it by index.  The mask
# gather branches on every draw, so it mispredicts unless nearly all of them
# are mid; the index gather does not branch, but allocates and fills the
# index array.  Whole 3e6-trial runs after a vn run, on a 2-vCPU Xeon KVM
# guest (numpy 2.4.6, medians of 9 interleaved pairs): the index gather is
# 30% faster at a share of 0.5 and 4-8% at 0.86-0.88, the two are within 2%
# from 0.9 to 0.94, and the mask is 2-15% faster from 0.95 to 1.
_MASK_GATHER_SHARE = 0.9

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
        mask = t_w >= 0.0
        weak_first = n - int(np.count_nonzero(mask))
        mask &= t_w <= dtc
        k = int(np.count_nonzero(mask))
        if k:
            if k > _MASK_GATHER_SHARE * n:
                x = t_w[mask]
            else:
                idx = np.flatnonzero(mask)
                del mask  # the peak holds the draws, idx and x, not the mask too
                x = t_w.take(idx)
            x /= dtc  # mid draws only: x <= 1, while t_w/dtc can overflow elsewhere
            mean_x = float(x.mean())
            x -= mean_x
            m2_x = float(np.square(x, out=x).sum())
            re, im = m2_x * slope.real**2, m2_x * slope.imag**2
            mid = (k, obs_in + mean_x * slope, re, im)
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
    t = spec.cfg.traces
    branch = (t.weak_first, t.strong_first, t.obs_in, t.obs_proj - t.obs_in)
    todo = iter(checkpoints)
    c, total, out = next(todo), _EMPTY, []
    draws = None  # chunk 0 is the longest, so its array holds every later chunk
    for j, lo, hi in _chunks(checkpoints[-1]):
        draws = _chunk_draws(spec, j, hi - lo, draws)
        chunk = _chunk_group(spec, branch, draws, hi - lo)
        while c is not None and c <= hi:
            part = chunk if c == hi else _chunk_group(spec, branch, draws, c - lo)
            out.append(_result(_merge(total, part), spec.seed))
            c = next(todo, None)
        total = _merge(total, chunk)
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
    checkpoints = list(checkpoints)
    if not checkpoints or any(
        isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 1
        for c in checkpoints
    ):
        raise ValueError("checkpoints must be positive integers")
    checkpoints = [int(c) for c in checkpoints]
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

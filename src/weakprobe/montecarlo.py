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

Each thread keeps one ``Philox`` for its whole life and reuses it across
calls: before every chunk, or half chunk, it is set through its
documented ``state`` to the key ``(seed, j)`` and the counter of its next
draw, so no call sees what an earlier one drew.  A call holds its
thread's generator while it runs, so a call nested in it (from a signal
handler) builds its own.  Each call draws into one buffer of its own,
freed when it returns.  ``Generator.random`` fills the buffer, which is
scaled in place to its window, ``u * (hi - lo) + lo``: the same two
roundings as ``Generator.uniform(lo, hi)``, so every draw has the bits
``uniform`` gives it on a fresh ``Philox(key=[seed, j])``.  The spec reads
the window once, when it is built.

Each chunk reduces to branch counts plus the mean and M2 of
``x = t_w/delta_t_c`` over its mid-collapse trials, where the value is
affine in ``x``; chunks merge in index order by the pairwise update of
Chan, Golub & LeVeque (1983).  An objective chunk is drawn whole, then
gathered, then reduced.  Gather: if the weak window lies inside
``[0, delta_t_c]``, every trial is mid-collapse and the chunk over
``delta_t_c``, in place, is ``x``.  Else one pass classifies it, which
gives the weak-first and mid-collapse counts of every checkpoint in it,
and its mid-collapse draws are gathered by index (``nonzero`` then
``take``) in blocks of about ``_BLOCK_TRIALS // 2`` mid-collapse trials,
each block's ``x`` written to the front of the chunk's own buffer, over
draws already classified.  Either way the front is the array a gather of
the whole chunk gives, in trial order, so the path, chosen from the
window, changes no result, and the gather's temporaries are block-sized
whatever the share of mid-collapse trials.  Reduce: one loop over the
chunk's checkpoints and its end.  The end reduces the front in place; a
checkpoint inside the chunk reduces a copy of its prefix of the front, in
the dead entries behind the front if it fits there, else in a new array,
freed before the next one is made.  Memory is O(``CHUNK_TRIALS``)
whatever the trial count: a chunk of draws, its mask and one block's
temporaries, 0.73 MB traced at 10^7 trials on the hydrogen scenario.

An instantaneous (vn) chunk reduces to a count of weak-first trials, so
it is drawn and counted in two halves, and each half in blocks of
``_BLOCK_TRIALS`` trials: the generator is positioned once per half and
carries on from block to block.  A vn run of ``2 * CHUNK_TRIALS``
trials or more hands the second halves of the current and the next chunk
to a one-worker ``ThreadPoolExecutor``, which has a ``Philox`` of its
own, while the calling thread counts the first halves.  The caller takes
each second half the worker has finished; one the worker has not started
is cancelled, and one it is running is left to finish, and the caller
counts either itself, so a worker starved of CPU never stalls the run.
Each thread has a buffer of one block, 256 KB, so a two-thread vn run
peaks at 0.57 MB traced.  Counts merge in chunk order, so the results do
not depend on scheduling.  The executor is shut down before the call
returns, which waits only for the half in flight, and what the worker
raises reaches the caller.  Shorter vn runs count both halves on the
calling thread.  The objective model stays on one thread.  A split chunk
need not move bits: the halves' mid-collapse draws, joined in trial
order, are the chunk's gathered array.  A helper thread that draws and
classifies each chunk's second half in the chunk's own buffer keeps the
bits and the traced peak (0.735 MB), but on a shared 2-vCPU host it took
0.87-0.92x the one-thread time only while the host ran slow, and was
level or slower otherwise; in 4 alternating ``mc-large`` benchmark pairs
it won 2, at 70-74M trials/s uncorrected against 81-90M on one thread.
"""

from __future__ import annotations

import math
import numbers
import threading
from bisect import bisect_left, bisect_right
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

# A vn run of at least this many trials counts second halves on a helper thread.
_THREAD_TRIALS = 2 * CHUNK_TRIALS

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
        # The draws' window as (lo, width), read once: a draw u in [0, 1) is
        # scaled to u * width + lo.
        if self.model == "vn":
            window = (0.0, self.cfg.delta_t_m)
        else:
            w = self.cfg.weak_window
            window = (w.lo, w.hi - w.lo)
        object.__setattr__(self, "_window", window)


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


# Seeds the generators, which are positioned before every use: any seed
# would do, and a given one spares the OS entropy of an unseeded one.  Each
# thread builds one, on its first call, and reuses it across calls (``_held``);
# a vn helper builds its own.
_SEEDS = np.random.SeedSequence(0)

# The generator of each thread, while none of its calls holds it.
_held = threading.local()


def _generator() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_SEEDS))


def _chunks(n: int):
    for j in range(0, (n + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
        lo = j * CHUNK_TRIALS
        yield j, lo, min(lo + CHUNK_TRIALS, n)


def _position(rng: np.random.Generator, seed: int, j: int, draw: int) -> None:
    """Set ``rng`` to make draw ``draw`` (a multiple of 4) of chunk ``j`` next.
    Philox steps its counter, then makes four draws: counter ``k`` with an
    empty buffer makes draws ``4k`` to ``4k + 3``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [draw // 4, 0, 0, 0], "key": [seed, j]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _ends(checkpoints: list[int], j: int, n: int) -> list[int]:
    """The checkpoints strictly inside chunk ``j`` of a run of ``n`` trials,
    then the chunk's end, each less the chunk's start."""
    lo = j * CHUNK_TRIALS
    hi = min(lo + CHUNK_TRIALS, n)
    inside = checkpoints[bisect_right(checkpoints, lo) : bisect_left(checkpoints, hi)]
    return [c - lo for c in inside] + [hi - lo]


def _chunk_draws(spec: SimulationSpec, j: int, n: int, out: np.ndarray, rng, first=0):
    """Draws of trials ``first .. first + n - 1`` of chunk ``j``, made with
    ``rng`` into the front of ``out``: ``t_s, t_w`` interleaved under the
    instantaneous model, ``t_w`` under the objective model.  With ``first``
    None, ``rng`` goes on from its last draw: Philox carries on across
    calls, as each double takes one 64-bit output."""
    per_trial = 2 if spec.model == "vn" else 1
    size = per_trial * n
    draws = out[:size] if size < out.size else out  # no view object on a full buffer
    if first is not None:
        _position(rng, spec.seed, j, per_trial * first)
    rng.random(out=draws)
    lo, width = spec._window
    draws *= width
    if lo:  # adding 0.0 to u * width >= 0 leaves its bits
        draws += lo
    return draws


# Trials a vn half draws and counts at a time, which sizes each thread's vn
# buffer (two draws a trial).  An objective gather block holds about half as
# many mid-collapse trials: its temporaries, the index array and the
# gathered draws (16 bytes a mid trial), sit beside a chunk of draws and its
# mask, and fewer, larger blocks cost fewer numpy calls where few trials are mid.
_BLOCK_TRIALS = 1 << 14

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


def _group(branch, n: int, weak_first: int, mid=_EMPTY):
    """The group of ``n`` trials, ``weak_first`` of them weak-first and
    ``mid`` the group of those mid-collapse."""
    strong_first = (n - weak_first - mid[0], branch[1], 0.0, 0.0)
    return _merge(_merge((weak_first, branch[0], 0.0, 0.0), mid), strong_first)


def _mid(branch, x: np.ndarray):
    """The group of the mid-collapse trials of values ``x``, which it overwrites."""
    if not x.size:
        return _EMPTY
    _, _, obs_in, slope = branch
    mean_x = float(x.sum()) / x.size  # what x.mean() does, without its wrapper
    x -= mean_x
    m2_x = float(np.square(x, out=x).sum())
    return x.size, obs_in + mean_x * slope, m2_x * slope.real**2, m2_x * slope.imag**2


def _objective_groups(spec: SimulationSpec, branch, draws: np.ndarray, ends: list[int]):
    """The group of the first ``e`` objective trials of a chunk for each
    chunk-relative ``e`` in ``ends``, from the chunk's draws, which it
    overwrites: gathered, then reduced, as the module docstring says.  After
    the gather the first ``k`` entries of ``draws`` are the values ``x`` of
    the chunk's mid-collapse trials, in trial order, and the ``n - k``
    behind them are dead.
    """
    dtc, n = spec.cfg.delta_t_c, ends[-1]
    lo, width = spec._window
    if lo >= 0.0 and lo + width <= dtc:  # then so is every fl(fl(u * width) + lo)
        np.divide(draws, dtc, out=draws)  # every trial mid-collapse, in order
        weak_first, mids, k = [0] * len(ends), ends, n
    else:
        mask = draws >= 0.0
        weak_first = [e - int(np.count_nonzero(mask[:e])) for e in ends]
        mask &= draws <= dtc
        mids = [int(np.count_nonzero(mask[:e])) for e in ends]
        k, step = 0, -(-n * (_BLOCK_TRIALS // 2) // mids[-1]) if mids[-1] else n
        for s in range(0, n, step):
            # nonzero()[0] is what np.flatnonzero does, without its wrapper
            gathered = draws[s : s + step].take(mask[s : s + step].nonzero()[0])
            # mid draws only: x <= 1, while t_w/dtc can overflow elsewhere
            np.divide(gathered, dtc, out=draws[k : k + gathered.size])
            k += gathered.size
            del gathered  # else the next block's gather would hold it too
        del mask  # an inner end's new array need not sit beside it
    groups = []
    for e, w, m in zip(ends, weak_first, mids):
        if e == n:  # the end: in place
            x = draws[:m]
        elif m <= n - k:  # an inner end: a copy, behind the front if it fits
            x = draws[k : k + m]
            x[...] = draws[:m]
        else:
            x = draws[:m].copy()
        groups.append(_group(branch, e, w, _mid(branch, x)))
        del x  # else the next end's new array would be made beside it
    return groups


def _later(draws: np.ndarray, n: int) -> int:
    """How many of the first ``n`` vn trials of ``draws`` have ``t_w > t_s``."""
    return int(np.count_nonzero(draws[1 : 2 * n : 2] > draws[0 : 2 * n : 2]))


def _half_counts(spec: SimulationSpec, rng, buf, j: int, h: int, ends: list[int]):
    """Weak-first counts among the trials of half ``h`` of chunk ``j`` that
    come before each chunk-relative trial index in ``ends``; the last end is
    the chunk's size.  The half is drawn and counted in blocks of
    ``_BLOCK_TRIALS`` trials, with ``rng`` positioned once, for the first;
    an end inside a block counts that block's prefix."""
    half = CHUNK_TRIALS // 2
    first = h * half
    n = max(min(half, ends[-1] - first), 0)
    if n == 0:  # a chunk of half a chunk or less
        return [0] * len(ends)
    cuts = [min(max(e - first, 0), n) for e in ends]
    later, counts, i = 0, [], 0
    for s in range(0, n, _BLOCK_TRIALS):
        m = min(_BLOCK_TRIALS, n - s)
        draws = _chunk_draws(spec, j, m, buf, rng, None if s else first)
        while cuts[i] < s + m:  # the last cut is n, so this stops
            counts.append(later + (_later(draws, cuts[i] - s) if cuts[i] > s else 0))
            i += 1
        later += _later(draws, m)
    counts += [later] * (len(cuts) - i)
    return [c - x for c, x in zip(cuts, counts)]


def _result(group, seed: int, scale: int = 0) -> AveragedResult:
    """The result of a group carried in units of ``2**scale``."""
    n, mean, m2_re, m2_im = group
    dof = max(n * (n - 1), 1)  # a single trial has M2 = 0, so zero stderr
    stderr, stderr_im = math.sqrt(m2_re / dof), math.sqrt(m2_im / dof)
    mean = complex(math.ldexp(mean.real, scale), math.ldexp(mean.imag, scale))
    stderr, stderr_im = math.ldexp(stderr, scale), math.ldexp(stderr_im, scale)
    return AveragedResult(mean, stderr, stderr_im, n, seed)


def _stream(spec: SimulationSpec, checkpoints: list[int]) -> list[AveragedResult]:
    """Statistics of the first ``c`` trials for each checkpoint ``c``, in one pass.

    Checkpoint ``c`` in chunk ``j`` merges whole chunks ``0..j-1``, then
    the ``c``-prefix of chunk ``j``: the same order as a run of ``c``.
    Branch values from 2**256 up are carried in units of a power of two
    that brings them below it, or squares in M2 would overflow; smaller
    ones are not scaled, so they keep their bits.
    """
    t = spec.cfg.traces
    branch = (t.weak_first, t.strong_first, t.obs_in, t.obs_proj - t.obs_in)
    top = max(max(abs(v.real), abs(v.imag)) for v in branch)
    scale = max(math.frexp(top)[1] - 256, 0)
    if scale:
        branch = [complex(math.ldexp(v.real, -scale), math.ldexp(v.imag, -scale)) for v in branch]
    n_total, vn = checkpoints[-1], spec.model == "vn"
    buf = np.empty(min(2 * n_total, 2 * _BLOCK_TRIALS) if vn else min(n_total, CHUNK_TRIALS))
    total, out, pool, ahead, in_flight = _EMPTY, [], None, {}, None
    if vn and n_total >= _THREAD_TRIALS:  # second halves ahead, on a helper thread
        from concurrent.futures import ThreadPoolExecutor  # ~5 ms cold: import on use

        pool, own = ThreadPoolExecutor(max_workers=1), (_generator(), np.empty(2 * _BLOCK_TRIALS))
    rng, _held.rng = getattr(_held, "rng", None) or _generator(), None
    try:
        for j, lo, hi in _chunks(n_total):
            ends = _ends(checkpoints, j, n_total)
            if vn:
                for k in (j, j + 1) if pool else ():
                    if k * CHUNK_TRIALS < n_total and k not in ahead:
                        ahead[k] = pool.submit(
                            _half_counts, spec, *own, k, 1, _ends(checkpoints, k, n_total)
                        )
                a, b = _half_counts(spec, rng, buf, j, 0, ends), None
                helped = ahead.pop(j, None)
                if helped and helped.done():
                    b = helped.result()
                elif helped and not helped.cancel():  # running: the one half in flight
                    if in_flight:  # done, as the helper runs in order: raise what it raised
                        in_flight.result()
                    in_flight = helped
                if b is None:
                    b = _half_counts(spec, rng, buf, j, 1, ends)
                groups = [_group(branch, e, x + y) for e, x, y in zip(ends, a, b)]
            else:
                draws = _chunk_draws(spec, j, hi - lo, buf, rng)
                groups = _objective_groups(spec, branch, draws, ends)
            reported = bisect_right(checkpoints, hi) - bisect_right(checkpoints, lo)
            out += [_result(_merge(total, g), spec.seed, scale) for g in groups[:reported]]
            total = _merge(total, groups[-1])
    finally:
        _held.rng = rng
        if pool:
            pool.shutdown(cancel_futures=True)
    if in_flight:
        in_flight.result()
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

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
calls: before every block it draws (an objective chunk, or a vn block of
``_BLOCK_TRIALS`` trials) it is set through its documented ``state`` to
the key ``(seed, j)`` and the counter of the block's first draw, so no
draw depends on what an earlier call drew.  A call holds its thread's
generator while it runs, so a call nested in it (from a signal handler)
builds its own.  Each call draws into one buffer of its own,
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
it is drawn and counted in blocks of ``_BLOCK_TRIALS`` trials: the
generator is positioned before every block, whose ``t_w > t_s``
comparison is made once, and every checkpoint's count is read off it.  A
vn run of ``2 * CHUNK_TRIALS`` trials or more shares its chunks with one
helper thread, the worker of a one-worker ``ThreadPoolExecutor``, which
has a ``Philox`` of its own: each thread takes the lowest chunk left
from one lock-guarded queue, and the caller merges the chunks in index
order, so the results do not depend on scheduling.  The caller waits on
the helper only when no chunk is left to take and the next one to merge
is the helper's, so a helper starved of CPU holds the run up by at most
one chunk; the caller's chunks past it wait, a few tuples each, to be
merged.  A failure on either thread stops the queue, so the other
takes no chunk beyond the one in hand, and what the helper raises
reaches the caller.  The executor is shut down before the call returns,
which waits only for the helper's chunk in hand.  Each thread has a
buffer of one block, 256 KB, so a two-thread vn run peaks at 0.57 MB
traced.  Shorter vn runs take every chunk on the calling thread, and so
do objective runs: a helper that splits their chunks keeps the bits, but
its gain could not be told from a shared host's noise (ROADMAP, FOUND
(l)).
"""

from __future__ import annotations

import math
import numbers
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _DEFERRED
from .weakvalues import (
    ProtocolConfig,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
)

__all__ = list(_DEFERRED["montecarlo"])

CHUNK_TRIALS = 1 << 16

# A vn run of at least this many trials shares its chunks with a helper thread.
_THREAD_TRIALS = 2 * CHUNK_TRIALS

MODELS = ("vn", "objective")


def _integer(x, lo: int, hi: float, message: str) -> int:
    """``x`` as an int in ``[lo, hi)``.  Any integer type is taken but bool,
    an int subclass whose ``True`` as a count or seed is a mistake."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not lo <= int(x) < hi:
        raise ValueError(message)
    return int(x)


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
        # Stored as int, so that a numpy integer serialises like the int.
        trials = _integer(self.trials, 1, math.inf, "trials must be a positive integer")
        object.__setattr__(self, "trials", trials)
        seed = _integer(self.seed, 0, 2**64, "seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)
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
    ``rng``, positioned at the first of them, into the front of ``out``:
    ``t_s, t_w`` interleaved under the instantaneous model, ``t_w`` under the
    objective model."""
    per_trial = 2 if spec.model == "vn" else 1
    size = per_trial * n
    draws = out[:size] if size < out.size else out  # no view object on a full buffer
    _position(rng, spec.seed, j, per_trial * first)
    rng.random(out=draws)
    lo, width = spec._window
    draws *= width
    if lo:  # adding 0.0 to u * width >= 0 leaves its bits
        draws += lo
    return draws


# Trials a vn chunk draws and counts at a time, which sizes each thread's vn
# buffer (two draws a trial).  It must stay even: the block from trial ``s``
# starts at draw ``2 * s``, which ``_position`` needs to be a multiple of 4.
# An objective gather block holds about half as many mid-collapse trials: its
# temporaries, the index array and the gathered draws (16 bytes a mid trial),
# sit beside a chunk of draws and its mask, and fewer, larger blocks cost
# fewer numpy calls where few trials are mid.
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


def _vn_counts(spec: SimulationSpec, rng, buf, j: int, ends: list[int]):
    """Weak-first counts among the trials of chunk ``j`` that come before
    each chunk-relative trial index in ``ends``; the last end is the chunk's
    size.  The chunk is drawn in blocks of ``_BLOCK_TRIALS`` trials, ``rng``
    positioned before each, and each block is compared once: an end ``e``
    past its start ``s`` loses the ``t_w > t_s`` trials among the block's
    first ``e - s``."""
    counts, n = ends.copy(), ends[-1]
    for s in range(0, n, _BLOCK_TRIALS):
        draws = _chunk_draws(spec, j, min(_BLOCK_TRIALS, n - s), buf, rng, s)
        later = draws[1::2] > draws[::2]
        for i, e in enumerate(ends):
            if e > s:
                counts[i] -= int(np.count_nonzero(later[: e - s]))
        del later  # else the next block's comparison would be made beside it
    return counts


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
    left = iter(range(-(-n_total // CHUNK_TRIALS)))  # the queue of chunks, lowest first
    lock, stopped, done = threading.Lock(), [], {}  # an entry in stopped empties the queue

    def take():
        """The lowest chunk left, or None once none is or the run has stopped."""
        with lock:
            return None if stopped else next(left, None)

    def groups(rng, buf, j):
        """The group of chunk ``j``'s first ``e`` trials for each of its ends ``e``."""
        ends = _ends(checkpoints, j, n_total)
        if vn:
            counts = _vn_counts(spec, rng, buf, j, ends)
            return [_group(branch, e, w) for e, w in zip(ends, counts)]
        return _objective_groups(spec, branch, _chunk_draws(spec, j, ends[-1], buf, rng), ends)

    def work(rng, buf, j=None):
        """Take the lowest chunk left and count it into ``done``, until chunk
        ``j`` is there or none is left (the helper, given no ``j``: until none is)."""
        while j not in done and (k := take()) is not None:
            done[k] = groups(rng, buf, k)

    total, out, pool = _EMPTY, [], None
    if vn and n_total >= _THREAD_TRIALS:  # chunks shared with a helper thread
        from concurrent.futures import ThreadPoolExecutor  # ~5 ms cold: import on use

        pool = ThreadPoolExecutor(max_workers=1)
        helped = pool.submit(work, _generator(), np.empty(2 * _BLOCK_TRIALS))
        helped.add_done_callback(lambda _: stopped.append(None))  # its failure stops the caller
    rng, _held.rng = getattr(_held, "rng", None) or _generator(), None
    try:
        for j, lo, hi in _chunks(n_total):
            work(rng, buf, j)
            if j not in done:  # the helper holds it: wait for it, or raise what it raised
                helped.result()
            got = done.pop(j)
            reported = bisect_right(checkpoints, hi) - bisect_right(checkpoints, lo)
            out += [_result(_merge(total, g), spec.seed, scale) for g in got[:reported]]
            total = _merge(total, got[-1])
    finally:
        _held.rng = rng
        if pool:
            stopped.append(None)
            pool.shutdown()
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
    message = "checkpoints must be positive integers"
    checkpoints = [_integer(c, 1, math.inf, message) for c in checkpoints]
    if not checkpoints:
        raise ValueError(message)
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

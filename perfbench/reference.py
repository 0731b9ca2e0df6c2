"""Reference kernels: fixed work, independent of weakprobe, that tracks
the host's speed.

On a shared host the same code can run 1.1 to 2.4 times slower for
seconds to minutes at a time.  On the 2-vCPU KVM guest the baseline was
measured on, ten-second means of one ``verdict-sweep`` problem ranged
from 0.50 to 0.82 ms within five minutes, and one cold CLI call from 220
to 300 ms between consecutive runs.  Such swings are wider than any
bound a benchmark could hold a change to.

A workload therefore runs its kernel between batches of operations and
divides the time of every operation by the host's speed factor at that
moment: the mean time of the two kernel runs that bracket its batch,
over the kernel's nominal time.  A host slowdown stretches both and
cancels; a slowdown of weakprobe stretches only the operation and
stays.  The nominal times are the kernels' medians on that guest, so a
reported time is the time the operation takes there at its usual speed.

Each kernel does the kind of work its workload does, because different
work slows differently: pure-Python arithmetic and small numpy products
for the in-process workloads; a fresh interpreter importing numpy for
``cli-cold`` and for the set-up probes, which are fresh interpreters
importing weakprobe; and normal draws and complex products over arrays
larger than L3 for ``mc-large``, set-up included.  Over four minutes of
``mc-large`` rounds, the spread of ten-second window means was 13%
uncorrected, 9% with the interpreter kernel and 4% with the streaming
one.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Medians of each kernel measured on the baseline host (see above).
NOMINAL_S = {"interpreter": 4.4e-3, "cold_import": 0.198, "stream": 0.27}


def interpreter() -> float:
    """Pure-Python arithmetic and 4x4 complex numpy products."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    a = np.eye(4, dtype=complex)
    for _ in range(300):
        a = a @ a
        np.trace(a)
    return time.perf_counter() - start


def cold_import() -> float:
    """A fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


def stream() -> float:
    """Normal draws and complex products over fresh 4e6-element arrays."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4_000_000) + 1j * rng.standard_normal(4_000_000)
    (z * z.conj()).real.mean()
    return time.perf_counter() - start


KERNELS = {"interpreter": interpreter, "cold_import": cold_import, "stream": stream}


def speed_meter(kernel: str):
    """A function that returns the host's speed factor now: the kernel's
    time over its nominal time."""
    return lambda: KERNELS[kernel]() / NOMINAL_S[kernel]

#!/usr/bin/env python3
"""Monte Carlo convergence table for one scenario, model and seed.

Runs a single reproducible stream to the largest checkpoint and reports
the running estimate at log-spaced trial counts, together with the
analytic target and the z-score, so the 1/sqrt(N) shrink of the
standard error is visible on real data:

    python scripts/mc_convergence.py --model objective --dtc 0.5 --seed 3

Identical arguments always produce identical bytes.  The z-score follows
``weakprobe simulate`` (empty where it prints null), and bad input ends
with an ``error:`` line and the same exit codes.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext

import numpy as np

from weakprobe import SimulationSpec, analytic_target, convergence_report, to_record
from weakprobe.cli import add_hydrogen_flags, hydrogen_config, run, z_score

MAX_CHECKPOINTS = 10_000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_hydrogen_flags(p)  # the defaults of weakprobe hydrogen
    p.add_argument("--model", choices=["vn", "objective"], default="objective")
    p.add_argument("--trials", type=int, default=1_000_000, help="largest checkpoint")
    p.add_argument("--per-decade", type=int, default=2, help="checkpoints per decade")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV file (default: stdout)")
    return p.parse_args(argv)


def checkpoints(n_max: int, per_decade: int) -> list[int]:
    if not 1 <= per_decade <= MAX_CHECKPOINTS:
        raise ValueError(f"--per-decade must be in [1, {MAX_CHECKPOINTS}], got {per_decade}")
    size = max(2, int(np.log10(n_max / 100) * per_decade) + 1)
    if size > MAX_CHECKPOINTS:
        raise ValueError(f"{size} checkpoints exceed {MAX_CHECKPOINTS}: lower --per-decade")
    grid = np.geomspace(100, n_max, size)
    out = sorted({int(round(c)) for c in grid} | {n_max})
    return [c for c in out if c <= n_max]


def report(args) -> int:
    spec = SimulationSpec(hydrogen_config(args), args.model, args.trials, args.seed)
    target = analytic_target(spec)
    rows = [
        {**to_record(spec, res), "target_re": target.real, "z": z_score(res, target)}
        for res in convergence_report(spec, checkpoints(args.trials, args.per_decade))
    ]
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as stream:
        writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    return run(report, parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

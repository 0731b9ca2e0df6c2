#!/usr/bin/env python3
"""Sweep the collapse duration and tabulate both model predictions.

For a grid of collapse-to-jitter ratios this writes one CSV row with the
instantaneous-model prediction (constant) and the objective-model
prediction (linear until it saturates), i.e. the data behind the
model-separation curve of the built-in qubit scenario:

    python scripts/hydrogen_sweep.py --a 0.7071 --b 0.7071 --out sweep.csv

The output is fully deterministic.  Bad input ends with an ``error:``
line and the exit codes of ``python -m weakprobe``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext

import numpy as np

from weakprobe import averaged_weak_value_objective, averaged_weak_value_vn, build_hydrogen
from weakprobe.cli import run

MAX_POINTS = 10_000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", type=float, default=2**-0.5, help="preparation amplitude |a|")
    p.add_argument("--b", type=float, default=2**-0.5, help="postselection amplitude |b|")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--dtm", type=float, default=1.0, help="timing-jitter window")
    p.add_argument("--ratio-min", type=float, default=0.05, help="min dtc/dtm")
    p.add_argument("--ratio-max", type=float, default=2.0, help="max dtc/dtm")
    p.add_argument("--points", type=int, default=40, help=f"at most {MAX_POINTS}")
    p.add_argument("--out", help="CSV file (default: stdout)")
    return p.parse_args(argv)


def sweep(args) -> int:
    if not 1 <= args.points <= MAX_POINTS:
        raise ValueError(f"--points must be in [1, {MAX_POINTS}], got {args.points}")
    ratios = np.linspace(args.ratio_min, args.ratio_max, args.points)
    rows = []
    for ratio in ratios:
        dtc = float(ratio) * args.dtm
        cfg = build_hydrogen(args.a, args.b, args.hbar, args.dtm, dtc)
        vn = averaged_weak_value_vn(cfg).real
        objective = averaged_weak_value_objective(cfg).real
        rows.append(
            {
                "dtc_over_dtm": float(ratio),
                "delta_t_c": dtc,
                "prediction_vn": vn,
                "prediction_objective": objective,
                "gap": vn - objective,
            }
        )
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as stream:
        writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    return run(sweep, parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

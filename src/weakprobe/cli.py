"""Command-line frontend.

Subcommands::

    analytic      closed-form predictions for a configuration
    simulate      Monte Carlo estimate with analytic target and z-score
    discriminate  verdict for a measured averaged weak value
    hydrogen      the built-in qubit scenario in detail
    pointer       Gaussian-pointer shift curve and weak-limit slope fit

A configuration comes either from ``--config FILE`` (JSON, see
:mod:`weakprobe.serialization`) or from ``--scenario hydrogen`` with
amplitude flags; exactly one source must be given.  Exit codes: 0 on
success, 2 for configuration or usage problems, 3 when pre/post
selection is orthogonal, 4 when the scenario cannot discriminate the
models.  Output is deterministic: rerunning a command with the same
arguments (and seed) produces byte-identical bytes.

A command imports the Monte Carlo, pointer and JSON modules only when it
runs them, so a cold call does not compile what it never uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateScenario, OrthogonalPostselection
from .hydrogen import (
    PLUS,
    SIGMA_Z,
    HydrogenScenario,
    build_hydrogen,
    hydrogen_predictions,
    hydrogen_traces,
)
from .weakvalues import (
    ProtocolTraces,
    apparent_resolution,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    discriminate,
    trial_weak_value_strong_first,
    trial_weak_value_weak_first,
)

if TYPE_CHECKING:
    from .montecarlo import AveragedResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORTHOGONAL = 3
EXIT_DEGENERATE = 4

MAX_G_POINTS = 10_000

_INV_SQRT2 = 2.0**-0.5


def _add_amplitudes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-re", type=float, default=_INV_SQRT2, help="Re(a) (hydrogen)")
    p.add_argument("--a-im", type=float, default=0.0, help="Im(a) (hydrogen)")
    p.add_argument("--b-re", type=float, default=_INV_SQRT2, help="Re(b) (hydrogen)")
    p.add_argument("--b-im", type=float, default=0.0, help="Im(b) (hydrogen)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar (hydrogen)")


def _add_windows(p: argparse.ArgumentParser, default: float | None) -> None:
    p.add_argument("--dtc", type=float, default=default, help="collapse duration")
    p.add_argument("--dtm", type=float, default=default, help="timing-jitter window")


def _add_config_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON configuration file")
    p.add_argument(
        "--scenario", choices=["hydrogen"], help="built-in scenario instead of --config"
    )
    _add_amplitudes(p)
    _add_windows(p, None)
    p.add_argument("--emit-config", metavar="FILE", help="also write the resolved config")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _resolve_config(args):
    if (args.config is None) == (args.scenario is None):
        raise ValueError("exactly one of --config or --scenario is required")
    if args.config is not None:
        from .serialization import config_from_json

        doc = json.loads(Path(args.config).read_text())
        cfg = config_from_json(doc)
        if args.dtc is not None or args.dtm is not None:
            cfg = replace(
                cfg,
                delta_t_c=args.dtc if args.dtc is not None else cfg.delta_t_c,
                delta_t_m=args.dtm if args.dtm is not None else cfg.delta_t_m,
            )
        return cfg
    a = complex(args.a_re, args.a_im)
    b = complex(args.b_re, args.b_im)
    return build_hydrogen(
        a,
        b,
        hbar=args.hbar,
        delta_t_m=args.dtm if args.dtm is not None else 1.0,
        delta_t_c=args.dtc if args.dtc is not None else 1.0,
    )


def _maybe_emit_config(args, cfg) -> None:
    if args.emit_config:
        from .serialization import config_to_json

        Path(args.emit_config).write_text(_dumps(config_to_json(cfg)))


def _scenario(args) -> HydrogenScenario:
    return HydrogenScenario(
        complex(args.a_re, args.a_im), complex(args.b_re, args.b_im), args.hbar
    )


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _traces(t: ProtocolTraces) -> dict:
    return {f.name: _c(getattr(t, f.name)) for f in fields(t)}


def _dumps(obj) -> str:
    # No NaN or Infinity tokens: they are not JSON (RFC 8259).
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[list]) -> str:
    # repr keeps full double precision and is deterministic.
    def cell(v):
        return repr(v) if isinstance(v, float) else str(v)

    return "\n".join(",".join(cell(v) for v in row) for row in rows) + "\n"


def cmd_analytic(args) -> int:
    cfg = _resolve_config(args)
    _maybe_emit_config(args, cfg)
    report = {
        "delta_t_m": cfg.delta_t_m,
        "delta_t_c": cfg.delta_t_c,
        "hbar": cfg.hbar,
        "apparent_resolution": apparent_resolution(cfg.delta_t_m, cfg.delta_t_c),
        "trial_weak_first": _c(trial_weak_value_weak_first(cfg)),
        "trial_strong_first": _c(trial_weak_value_strong_first(cfg)),
        "prediction_vn": _c(averaged_weak_value_vn(cfg)),
        "prediction_objective": _c(averaged_weak_value_objective(cfg)),
        "traces": _traces(cfg.traces),
    }
    if args.format == "csv":
        rows = [["field", "re", "im"]]
        for key in (
            "prediction_vn",
            "prediction_objective",
            "trial_weak_first",
            "trial_strong_first",
        ):
            rows.append([key, report[key]["re"], report[key]["im"]])
        rows.append(["apparent_resolution", report["apparent_resolution"], 0.0])
        for key, val in report["traces"].items():
            rows.append([f"trace_{key}", val["re"], val["im"]])
        _emit(_csv(rows), args)
    else:
        _emit(_dumps(report), args)
    return EXIT_OK


def z_score(result: AveragedResult, target: complex) -> float | None:
    """Real-part z of a mean; an exact one scores 0 on target, None (null) off it."""
    if result.stderr > 0.0:
        return (result.mean.real - target.real) / result.stderr
    return 0.0 if abs(result.mean - target) <= 1e-12 else None


def cmd_simulate(args) -> int:
    from .montecarlo import (
        CSV_COLUMNS,
        SimulationSpec,
        analytic_target,
        run_simulation,
        to_record,
    )

    cfg = _resolve_config(args)
    _maybe_emit_config(args, cfg)
    spec = SimulationSpec(cfg, args.model, args.trials, args.seed)
    result = run_simulation(spec)
    target = analytic_target(spec)
    if args.format == "csv":
        record = to_record(spec, result)
        rows = [list(CSV_COLUMNS), [record[k] for k in CSV_COLUMNS]]
        _emit(_csv(rows), args)
    else:
        report = dict(to_record(spec, result))
        report["analytic"] = _c(target)
        report["z"] = z_score(result, target)
        _emit(_dumps(report), args)
    return EXIT_OK


def cmd_discriminate(args) -> int:
    cfg = _resolve_config(args)
    _maybe_emit_config(args, cfg)
    measured = complex(args.measured, args.measured_im)
    verdict = discriminate(measured, cfg, args.sigma_meas)
    report = {
        "model": verdict.model,
        "delta_t_c_estimate": verdict.delta_t_c_estimate,
        "branch": verdict.branch,
        "residual": verdict.residual,
        "measured": _c(measured),
        "sigma_meas": args.sigma_meas,
        "prediction_vn": _c(averaged_weak_value_vn(cfg)),
        "prediction_saturated": _c(cfg.traces.saturated),
    }
    if args.format == "csv":
        rows = [
            ["model", "delta_t_c_estimate", "branch", "residual"],
            [
                verdict.model,
                "" if verdict.delta_t_c_estimate is None else verdict.delta_t_c_estimate,
                "" if verdict.branch is None else verdict.branch,
                verdict.residual,
            ],
        ]
        _emit(_csv(rows), args)
    else:
        _emit(_dumps(report), args)
    return EXIT_OK


def cmd_hydrogen(args) -> int:
    scenario = _scenario(args)
    t = hydrogen_traces(scenario)
    pred = hydrogen_predictions(scenario, args.dtc, args.dtm)
    report = {
        "a": _c(scenario.a),
        "b": _c(scenario.b),
        "hbar": scenario.hbar,
        "delta_t_m": args.dtm,
        "delta_t_c": args.dtc,
        "flags": scenario.flags(),
        "prediction_vn": _c(pred.vn),
        "prediction_objective": _c(pred.objective),
        "degenerate": pred.degenerate,
        "traces": _traces(t),
    }
    if args.format == "csv":
        rows = [["field", "re", "im"]]
        rows.append(["prediction_vn", report["prediction_vn"]["re"], 0.0])
        rows.append(
            ["prediction_objective", report["prediction_objective"]["re"], 0.0]
        )
        for key, val in report["traces"].items():
            rows.append([f"trace_{key}", val["re"], val["im"]])
        _emit(_csv(rows), args)
    else:
        _emit(_dumps(report), args)
    return EXIT_OK


def cmd_pointer(args) -> int:
    from .pointer import weak_limit_slope

    scenario = _scenario(args)
    if args.order == "strong-first":
        # The completed strong measurement re-prepares the selected branch.
        psi1, psi2 = PLUS, scenario.psi_fin
    else:
        psi1, psi2 = scenario.psi_in, PLUS
    if args.g_points > MAX_G_POINTS:
        raise ValueError(f"--g-points {args.g_points} exceeds {MAX_G_POINTS}")
    g_grid = np.geomspace(args.g_min, args.g_max, args.g_points)
    fit = weak_limit_slope(psi1, psi2, scenario.hbar / 2.0 * SIGMA_Z, args.sigma, g_grid)
    pairs = [[float(g), s] for g, s in zip(g_grid, fit.shifts)]
    if args.format == "csv":
        _emit(_csv([["g", "shift"], *pairs]), args)
    else:
        report = {
            "sigma": args.sigma,
            "order": args.order,
            "pairs": pairs,
            "slope": fit.slope,
            "weak_value_re": fit.weak_value_re,
            "bound_constant": fit.bound_constant,
        }
        _emit(_dumps(report), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakprobe",
        description="Time-averaged weak values as a probe of collapse dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form predictions for a configuration")
    _add_config_source(p)
    _add_output(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the averaged value")
    _add_config_source(p)
    _add_output(p)
    p.add_argument("--model", choices=["vn", "objective"], required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discriminate", help="verdict for a measured averaged value")
    _add_config_source(p)
    _add_output(p)
    p.add_argument("--measured", type=float, required=True, help="Re of the measurement")
    p.add_argument("--measured-im", type=float, default=0.0, help="Im of the measurement")
    p.add_argument("--sigma-meas", type=float, required=True, help="1-sigma uncertainty")
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("hydrogen", help="built-in qubit scenario in detail")
    _add_amplitudes(p)
    _add_windows(p, 1.0)
    _add_output(p)
    p.set_defaults(func=cmd_hydrogen)

    p = sub.add_parser("pointer", help="pointer shift curve and weak-limit fit")
    _add_amplitudes(p)
    p.add_argument(
        "--order",
        choices=["strong-first", "weak-first"],
        default="strong-first",
        help="which trial ordering the pointer probes",
    )
    p.add_argument("--sigma", type=float, default=1.0, help="pointer spread")
    p.add_argument("--g-min", type=float, default=1e-3)
    p.add_argument("--g-max", type=float, default=1e-2)
    p.add_argument("--g-points", type=int, default=13, help=f"at most {MAX_G_POINTS}")
    _add_output(p)
    p.set_defaults(func=cmd_pointer)

    return parser


def run(command, args) -> int:
    """``command(args)``, its errors mapped to the exit codes and an ``error:`` line."""
    try:
        return command(args)
    except OrthogonalPostselection as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except DegenerateScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, KeyError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())

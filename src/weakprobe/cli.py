"""Command-line frontend.

Subcommands::

    analytic      closed-form predictions for a configuration
    simulate      Monte Carlo estimate with analytic target and z-score
    discriminate  verdict for a measured averaged weak value
    hydrogen      the built-in qubit scenario in detail
    pointer       Gaussian-pointer shift curve and weak-limit slope fit

A configuration comes either from ``--config FILE`` (JSON, see
:mod:`weakprobe.serialization`) or from ``--scenario hydrogen``; exactly
one source must be given.  Exit codes: 0 on success, 2 for configuration
or usage problems, 3 when pre/post selection is orthogonal (for
``pointer``, when no trial survives postselection), 4 when the scenario
cannot discriminate the models.  Output is deterministic:
rerunning a command with the same arguments (and seed) produces
byte-identical bytes.

One flag set describes the hydrogen scenario: the amplitude flags
``--a-re --a-im --b-re --b-im --hbar`` (default ``a = b = 1/sqrt(2)``,
``hbar = 1``) and the window flags ``--dtm --dtc`` (default 1.0).
``pointer`` takes the amplitude flags and no window flags; every other
command takes all seven.  A flag is unset until one resolver fills in
its default, so beside ``--config`` an amplitude flag exits 2 and a
window flag overrides the file's window.

Each command returns one report, the JSON document it prints.  With
``--format csv`` it prints a table read off that report instead, so
every CSV value is a value of the JSON report.

At module level this file imports only the standard library and
:mod:`weakprobe.errors`.  A command imports numpy and the modules it
computes with when it runs them, after the CLI's own checks and after a
``--config`` file is read and parsed, so ``--help``, a usage error or a
missing or malformed config file answers without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DegenerateScenario, OrthogonalPostselection, VanishingPostselection

if TYPE_CHECKING:
    from .hydrogen import HydrogenScenario
    from .montecarlo import AveragedResult
    from .weakvalues import ProtocolConfig, ProtocolTraces

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORTHOGONAL = 3
EXIT_DEGENERATE = 4

MAX_G_POINTS = 10_000

# The hydrogen scenario's amplitude flags by destination, with their defaults.
_AMPLITUDES = {"a_re": 2.0**-0.5, "a_im": 0.0, "b_re": 2.0**-0.5, "b_im": 0.0, "hbar": 1.0}


def _add_amplitudes(p: argparse.ArgumentParser) -> None:
    # No defaults here, so that a scenario flag given beside --config is seen;
    # _scenario fills them in.
    p.add_argument("--a-re", type=float, help="Re(a) (hydrogen)")
    p.add_argument("--a-im", type=float, help="Im(a) (hydrogen)")
    p.add_argument("--b-re", type=float, help="Re(b) (hydrogen)")
    p.add_argument("--b-im", type=float, help="Im(b) (hydrogen)")
    p.add_argument("--hbar", type=float, help="hbar (hydrogen)")


def add_hydrogen_flags(p: argparse.ArgumentParser) -> None:
    """Add the hydrogen scenario's amplitude and window flags, all unset by
    default.  :func:`hydrogen_config` fills in an unset flag's default;
    beside ``--config`` an unset window keeps the file's value."""
    _add_amplitudes(p)
    p.add_argument("--dtc", type=float, help="collapse duration")
    p.add_argument("--dtm", type=float, help="timing-jitter window")


def _add_config_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON configuration file")
    p.add_argument(
        "--scenario", choices=["hydrogen"], help="built-in scenario instead of --config"
    )
    add_hydrogen_flags(p)
    p.add_argument("--emit-config", metavar="FILE", help="also write the resolved config")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _scenario(args) -> HydrogenScenario:
    """The hydrogen scenario of the amplitude flags, each unset one at its default."""
    from .hydrogen import HydrogenScenario

    a_re, a_im, b_re, b_im, hbar = (
        default if getattr(args, dest) is None else getattr(args, dest)
        for dest, default in _AMPLITUDES.items()
    )
    return HydrogenScenario(complex(a_re, a_im), complex(b_re, b_im), hbar)


def hydrogen_config(args) -> ProtocolConfig:
    """The hydrogen scenario's configuration, read off :func:`add_hydrogen_flags`'
    flags, a window flag at 1.0 where unset."""
    from .hydrogen import build_hydrogen

    sc = _scenario(args)
    windows = (1.0 if w is None else w for w in (args.dtm, args.dtc))
    return build_hydrogen(sc.a, sc.b, sc.hbar, *windows)


def _resolve_config(args) -> ProtocolConfig:
    """The configuration of ``--config`` or ``--scenario hydrogen``, written to
    ``--emit-config`` first when that is given."""
    if (args.config is None) == (args.scenario is None):
        raise ValueError("exactly one of --config or --scenario is required")
    if args.scenario is not None:
        cfg = hydrogen_config(args)
    else:
        given = [dest for dest in _AMPLITUDES if getattr(args, dest) is not None]
        if given:
            flag = "--" + given[0].replace("_", "-")
            raise ValueError(f"{flag} sets the hydrogen scenario; it cannot go with --config")
        doc = json.loads(Path(args.config).read_text())
        from .serialization import config_from_json

        cfg = config_from_json(doc)
        if args.dtc is not None or args.dtm is not None:
            from dataclasses import replace

            cfg = replace(
                cfg,
                delta_t_c=args.dtc if args.dtc is not None else cfg.delta_t_c,
                delta_t_m=args.dtm if args.dtm is not None else cfg.delta_t_m,
            )
    if args.emit_config:
        from .serialization import config_to_json

        Path(args.emit_config).write_text(_dumps(config_to_json(cfg)))
    return cfg


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _traces(t: ProtocolTraces) -> dict:
    from dataclasses import fields

    return {f.name: _c(getattr(t, f.name)) for f in fields(t)}


def _dumps(obj) -> str:
    # No NaN or Infinity tokens: they are not JSON (RFC 8259).
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _table(command: str, report: dict) -> list[list]:
    """The CSV table of ``command``, read off its report.

    ``analytic`` and ``hydrogen`` give ``field,re,im`` rows, a real entry
    with im 0.0, followed by the traces; ``simulate`` and ``discriminate``
    a header and one record; ``pointer`` its ``(g, shift)`` pairs.
    """
    if command == "pointer":
        return [["g", "shift"], *report["pairs"]]
    if command in ("simulate", "discriminate"):
        if command == "simulate":
            from .montecarlo import CSV_COLUMNS as keys
        else:
            keys = ("model", "delta_t_c_estimate", "branch", "residual")
        return [list(keys), [report[k] for k in keys]]
    keys = ("prediction_vn", "prediction_objective")
    if command == "analytic":
        keys += ("trial_weak_first", "trial_strong_first", "apparent_resolution")
    rows = [["field", "re", "im"]]
    for key in keys:
        v = report[key]
        rows.append([key, v["re"], v["im"]] if isinstance(v, dict) else [key, v, 0.0])
    rows += ([f"trace_{k}", v["re"], v["im"]] for k, v in report["traces"].items())
    return rows


def _csv(rows: list[list]) -> str:
    # repr keeps full double precision and is deterministic; null is empty.
    def cell(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    return "\n".join(",".join(cell(v) for v in row) for row in rows) + "\n"


def _write_report(args) -> int:
    """Run ``args.func`` and write its report as JSON or as its CSV table."""
    report = args.func(args)
    text = _csv(_table(args.command, report)) if args.format == "csv" else _dumps(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analytic(args) -> dict:
    cfg = _resolve_config(args)
    from .weakvalues import (
        apparent_resolution,
        averaged_weak_value_objective,
        averaged_weak_value_vn,
    )

    t = cfg.traces
    return {
        "delta_t_m": cfg.delta_t_m,
        "delta_t_c": cfg.delta_t_c,
        "hbar": cfg.hbar,
        "apparent_resolution": apparent_resolution(cfg.delta_t_m, cfg.delta_t_c),
        "trial_weak_first": _c(t.weak_first),
        "trial_strong_first": _c(t.strong_first),
        "prediction_vn": _c(averaged_weak_value_vn(cfg)),
        "prediction_objective": _c(averaged_weak_value_objective(cfg)),
        "traces": _traces(t),
    }


def z_score(result: AveragedResult, target: complex) -> float | None:
    """Real-part z of a mean; an exact one scores 0 on target, None (null) off it."""
    if result.stderr > 0.0:
        return (result.mean.real - target.real) / result.stderr
    return 0.0 if abs(result.mean - target) <= 1e-12 else None


def cmd_simulate(args) -> dict:
    cfg = _resolve_config(args)
    from .montecarlo import SimulationSpec, analytic_target, run_simulation, to_record

    spec = SimulationSpec(cfg, args.model, args.trials, args.seed)
    result = run_simulation(spec)
    target = analytic_target(spec)
    return {**to_record(spec, result), "analytic": _c(target), "z": z_score(result, target)}


def cmd_discriminate(args) -> dict:
    cfg = _resolve_config(args)
    from .weakvalues import averaged_weak_value_vn, discriminate

    measured = complex(args.measured, args.measured_im)
    verdict = discriminate(measured, cfg, args.sigma_meas)
    return {
        "model": verdict.model,
        "delta_t_c_estimate": verdict.delta_t_c_estimate,
        "branch": verdict.branch,
        "residual": verdict.residual,
        "measured": _c(measured),
        "sigma_meas": args.sigma_meas,
        "prediction_vn": _c(averaged_weak_value_vn(cfg)),
        "prediction_saturated": _c(cfg.traces.saturated),
    }


def cmd_hydrogen(args) -> dict:
    scenario = _scenario(args)
    cfg = hydrogen_config(args)
    from .weakvalues import averaged_weak_value_objective, averaged_weak_value_vn

    return {
        "a": _c(scenario.a),
        "b": _c(scenario.b),
        "hbar": scenario.hbar,
        "delta_t_m": cfg.delta_t_m,
        "delta_t_c": cfg.delta_t_c,
        "flags": scenario.flags(),
        "prediction_vn": _c(averaged_weak_value_vn(cfg)),
        "prediction_objective": _c(averaged_weak_value_objective(cfg)),
        "degenerate": scenario.degenerate,
        "traces": _traces(cfg.traces),
    }


def cmd_pointer(args) -> dict:
    if args.g_points > MAX_G_POINTS:
        raise ValueError(f"--g-points {args.g_points} exceeds {MAX_G_POINTS}")
    if args.g_points < 2:  # a slope needs two couplings
        raise ValueError(f"--g-points must be at least 2, got {args.g_points}")
    for flag, g in (("--g-min", args.g_min), ("--g-max", args.g_max)):
        if not (math.isfinite(g) and g > 0):  # NaN fails both
            raise ValueError(f"{flag} must be finite and positive, got {g}")
    import numpy as np

    from .hydrogen import PLUS, SIGMA_Z
    from .pointer import weak_limit_slope

    scenario = _scenario(args)
    if args.order == "strong-first":
        # The completed strong measurement re-prepares the selected branch.
        psi1, psi2 = PLUS, scenario.psi_fin
    else:
        psi1, psi2 = scenario.psi_in, PLUS
    g_grid = np.geomspace(args.g_min, args.g_max, args.g_points)
    fit = weak_limit_slope(psi1, psi2, scenario.hbar / 2.0 * SIGMA_Z, args.sigma, g_grid)
    return {
        "sigma": args.sigma,
        "order": args.order,
        "pairs": [[float(g), s] for g, s in zip(g_grid, fit.shifts)],
        "slope": fit.slope,
        "weak_value_re": fit.weak_value_re,
        "bound_constant": fit.bound_constant,
    }


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
    add_hydrogen_flags(p)
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
    except (OrthogonalPostselection, VanishingPostselection) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except DegenerateScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, KeyError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    return run(_write_report, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the benchmark's calls into weakprobe's public functions.

The benchmark never calls weakprobe directly: it calls through an
:class:`Api` namespace.  Untraced, the namespace holds the library
functions themselves, so timed runs pay nothing for tracing.  Traced,
each function is wrapped in a span named ``<module>.<function>``.

Spans are kept in memory as ``[name, start, end, parent, trace_id,
failed]`` and written out once, when the run ends.  Spans come only from
the benchmark's own files; nothing inside ``src/`` is instrumented, so a
span around ``discriminate`` covers the library calls it makes itself.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

# (span name, import path, attribute) for every public function the
# benchmark times.  The span name is the layer metric's prefix.
LAYER_FUNCTIONS = (
    ("operators.validate_density", "weakprobe.operators", "validate_density"),
    ("operators.projector_from_matrix", "weakprobe.operators", "Projector.from_matrix"),
    ("serialization.config_from_json", "weakprobe.serialization", "config_from_json"),
    ("serialization.config_to_json", "weakprobe.serialization", "config_to_json"),
    ("hydrogen.build_hydrogen", "weakprobe.hydrogen", "build_hydrogen"),
    ("hydrogen.hydrogen_predictions", "weakprobe.hydrogen", "hydrogen_predictions"),
    ("weakvalues.ProtocolConfig", "weakprobe.weakvalues", "ProtocolConfig"),
    ("weakvalues.protocol_traces", "weakprobe.weakvalues", "protocol_traces"),
    ("weakvalues.averaged_weak_value_vn", "weakprobe.weakvalues", "averaged_weak_value_vn"),
    (
        "weakvalues.averaged_weak_value_objective",
        "weakprobe.weakvalues",
        "averaged_weak_value_objective",
    ),
    ("weakvalues.discriminate", "weakprobe.weakvalues", "discriminate"),
    ("weakvalues.weak_value", "weakprobe.weakvalues", "weak_value"),
    (
        "weakvalues.objective_weak_value_forward",
        "weakprobe.weakvalues",
        "objective_weak_value_forward",
    ),
    (
        "weakvalues.objective_weak_value_adjoint",
        "weakprobe.weakvalues",
        "objective_weak_value_adjoint",
    ),
    ("superops.collapse_superop", "weakprobe.superops", "collapse_superop"),
    ("superops.compose", "weakprobe.superops", "compose"),
    ("superops.superop_adjoint", "weakprobe.superops", "superop_adjoint"),
    ("superops.apply_superop", "weakprobe.superops", "apply_superop"),
    ("collapse.objective_state_at", "weakprobe.collapse", "objective_state_at"),
    (
        "collapse.projective_ensemble_state_at",
        "weakprobe.collapse",
        "projective_ensemble_state_at",
    ),
    ("pointer.weak_limit_slope", "weakprobe.pointer", "weak_limit_slope"),
    ("pointer.postselected_pointer_mean", "weakprobe.pointer", "postselected_pointer_mean"),
    ("montecarlo.run_simulation", "weakprobe.montecarlo", "run_simulation"),
    ("montecarlo.convergence_report", "weakprobe.montecarlo", "convergence_report"),
    ("montecarlo.analytic_target", "weakprobe.montecarlo", "analytic_target"),
)

# Spans the CLI workload records itself, around subprocesses and
# in-process ``weakprobe.cli.main`` calls.
CLI_SUBCOMMANDS = ("analytic", "simulate", "discriminate", "hydrogen", "pointer")
CLI_SPANS = (
    "cli.interpreter_start",
    "cli.import",
    "cli.invoke",
    *(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS),
)

# Helpers the benchmark needs but does not time: constructors of value
# types and exception classes.
UNTIMED = (
    ("SimulationSpec", "weakprobe.montecarlo", "SimulationSpec"),
    ("HydrogenScenario", "weakprobe.hydrogen", "HydrogenScenario"),
    ("GaussianPointer", "weakprobe.pointer", "GaussianPointer"),
    ("DegenerateScenario", "weakprobe.errors", "DegenerateScenario"),
)


def _resolve(module: str, attr: str):
    obj = __import__(module, fromlist=["_"])
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trace_id = 0

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trace_id, False])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = failed
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(index, failed=True)
                raise
            self.end(index)
            return out

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, names) -> dict[str, float]:
        """``<name>.{calls,self_s,failed}`` for every name, zero if unused."""
        out = {}
        for name in names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.failed"] = 0
        for span, own in zip(self.spans, self.self_times()):
            name, failed = span[0], span[5]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += own
                out[f"{name}.failed"] += int(failed)
        return out

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for (name, start, end, parent, trace_id, failed), self_s in zip(self.spans, own):
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace_id": trace_id,
                            "failed": failed,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


class Api(SimpleNamespace):
    """weakprobe's timed public functions by their short names."""

    def __init__(self, tracer: Tracer | None = None):
        super().__init__()
        for span_name, module, attr in LAYER_FUNCTIONS:
            fn = _resolve(module, attr)
            short = span_name.split(".", 1)[1]
            setattr(self, short, tracer.wrap(span_name, fn) if tracer else fn)
        for short, module, attr in UNTIMED:
            setattr(self, short, _resolve(module, attr))
        self.tracer = tracer

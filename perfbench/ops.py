"""One operation of each workload, and the checks on its output.

A workload object is built from generated inputs.  ``prepare(api)`` does
the per-run set-up, ``run(api, i)`` performs operation ``i`` (inputs are
cycled) and returns an :class:`Outcome`.  Only the calls into weakprobe
are inside the timed interval; the checks that follow compare against
the generator's independent answers or against a second route through
the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import MC_TRIALS

CLI_TIMEOUT_S = 120
SPLIT_REPEATS = 5  # fresh interpreters per cli.interpreter_start and cli.import


@dataclass
class Outcome:
    seconds: float
    work: int = 1
    failures: list = field(default_factory=list)
    label: str | None = None


def _close(got, want, tol) -> bool:
    return bool(abs(complex(got) - complex(want)) <= tol)


def objective_value(prob) -> complex:
    x = min(prob["dtc"] / prob["dtm"], 1.0)
    return (1 - x) * prob["v_vn"] + x * prob["v_sat"]


def check_verdict(prob, model, branch, estimate) -> list[str]:
    want_model, want_branch, want_estimate = prob["expect"]
    if (model, branch) != (want_model, want_branch):
        return [f"verdict {model}/{branch}, expected {want_model}/{want_branch}"]
    if want_estimate is not None and not abs(estimate - want_estimate) <= 1e-9 * prob["dtm"]:
        return [f"dtc estimate {estimate} != {want_estimate}"]
    return []


def check_mc(result, target, label) -> list[str]:
    """4 sigma on both components; zero stderr means an exact mean.

    ``1e-12 * max(1, |target|)`` is added to the bound as the rounding
    floor of a mean over up to 1e7 values; it matters only when every
    trial has the same value.
    """
    floor = 1e-12 * max(1.0, abs(target))
    out = []
    for part, err, name in (
        (result.mean.real - target.real, result.stderr, "re"),
        (result.mean.imag - target.imag, result.stderr_im, "im"),
    ):
        if not abs(part) <= 4 * err + floor:
            out.append(f"{label}: {name} off by {part:.3e} with stderr {err:.3e}")
    return out


def _raised(exc) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def build_config(api, p):
    """The problem's ProtocolConfig, through the route its kind names."""
    if p["kind"] == "qubit":
        return api.build_hydrogen(p["a"], p["b"], p["hbar"], p["dtm"], p["dtc"])
    if p["kind"] == "matrix":
        return api.ProtocolConfig(
            api.validate_density(p["rho_in"]),
            api.validate_density(p["rho_fin"]),
            api.projector_from_matrix(p["proj"]),
            p["obs"],
            p["dtm"],
            p["dtc"],
            p["hbar"],
        )
    return api.config_from_json(json.loads(p["text"]))


class VerdictSweep:
    """Build the config, compute traces and both predictions, discriminate."""

    def __init__(self, data):
        self.problems = data["problems"]

    def prepare(self, api):
        pass

    def n_inputs(self) -> int:
        return len(self.problems)

    def n_fixed(self) -> int:
        return len(self.problems)

    def run(self, api, i) -> Outcome:
        p = self.problems[i % len(self.problems)]
        verdict = None
        start = time.perf_counter()
        try:
            cfg = build_config(api, p)
            traces = api.protocol_traces(cfg)
            v_vn = api.averaged_weak_value_vn(cfg)
            v_obj = api.averaged_weak_value_objective(cfg)
            try:
                verdict = api.discriminate(p["measured"], cfg, p["sigma"])
            except api.DegenerateScenario:
                pass
        except Exception as exc:  # an unexpected raise is a failed operation
            return Outcome(time.perf_counter() - start, failures=_raised(exc))
        seconds = time.perf_counter() - start
        if verdict is None:
            label, failures = "degenerate", check_verdict(p, "degenerate", None, None)
        else:
            label = verdict.branch or verdict.model
            failures = check_verdict(p, verdict.model, verdict.branch, verdict.delta_t_c_estimate)
        try:
            failures += self._check(api, p, cfg, traces, v_vn, v_obj)
        except Exception as exc:
            failures += _raised(exc)
        return Outcome(seconds, failures=failures, label=label)

    def _check(self, api, p, cfg, traces, v_vn, v_obj) -> list[str]:
        out = []
        if p["kind"] == "qubit":
            pred = api.hydrogen_predictions(api.HydrogenScenario(p["a"], p["b"], p["hbar"]), p["dtc"], p["dtm"])
            if not (_close(pred.vn, v_vn, 1e-12) and _close(pred.objective, v_obj, 1e-12)):
                out.append(f"qubit predictions {v_vn}, {v_obj} != oracle {pred.vn}, {pred.objective}")
            if pred.degenerate != (p["expect"][0] == "degenerate"):
                out.append("oracle degeneracy flag disagrees")
            return out
        rin, rfin, proj, obs = cfg.rho_in.mat, cfg.rho_fin.mat, cfg.strong_projector.mat, cfg.weak_observable
        ident = np.eye(cfg.dim)
        route_vn = (api.weak_value(rin, proj, obs) + api.weak_value(proj, rfin, obs)) / 2
        route_sat = (api.weak_value(rin, ident, obs) + api.weak_value(proj, ident, obs)) / 2
        x = min(p["dtc"] / p["dtm"], 1.0)
        scale = 1e-10 * max(1.0, abs(route_vn), abs(route_sat))
        if not _close(v_vn, route_vn, scale):
            out.append(f"v_vn {v_vn} != weak_value route {route_vn}")
        if not _close((traces.obs_in + traces.obs_proj) / 2, route_sat, scale):
            out.append(f"v_sat from traces != weak_value route {route_sat}")
        if not _close(v_obj, (1 - x) * route_vn + x * route_sat, scale):
            out.append(f"v_objective {v_obj} off the weak_value route")
        if p["kind"] == "json" and api.config_to_json(cfg) != json.loads(p["text"]):
            out.append("config_to_json does not round-trip the input document")
        return out

    def peak_mb(self, api) -> float:
        return _largest_op_peak(self, api, min(200, len(self.problems)))


class Crosscheck:
    """Independent routes: matched-window states, superoperator identities,
    forward vs adjoint weak values, the pointer fit, and small Monte Carlo."""

    def __init__(self, data):
        self.problems = data["problems"]
        self.mc_trials = 0
        self.mc_draws = 0

    def prepare(self, api):
        self.cfgs = [build_config(api, p) for p in self.problems]
        self.first = {}

    def n_inputs(self) -> int:
        return len(self.problems)

    def n_fixed(self) -> int:
        return 8 * len(self.problems)

    def run(self, api, i) -> Outcome:
        k = i % len(self.problems)
        p, cfg = self.problems[k], self.cfgs[k]
        model, trials, seed = p["mc"]
        start = time.perf_counter()
        try:
            dtc = cfg.delta_t_c
            t = p["t_frac"] * dtc
            s_obj = api.objective_state_at(cfg.rho_in, cfg.strong_projector, t, dtc)
            s_prj = api.projective_ensemble_state_at(cfg.rho_in, cfg.strong_projector, t, dtc)
            c = api.collapse_superop(cfg.strong_projector)
            cc = api.compose(c, c)
            cd = api.superop_adjoint(c)
            c_b = api.apply_superop(c, p["op_b"])
            cd_a = api.apply_superop(cd, p["op_a"])
            fwd = api.objective_weak_value_forward(cfg, t)
            adj = api.objective_weak_value_adjoint(cfg, t)
            if p["kind"] == "qubit":
                obs = cfg.weak_observable
                fit = api.weak_limit_slope(p["psi_in"], p["psi_fin"], obs, p["ptr_sigma"], p["g_grid"])
                g0 = float(p["g_grid"][0])
                shift = api.postselected_pointer_mean(
                    p["psi_in"], p["psi_fin"], obs, api.GaussianPointer(p["ptr_sigma"], g0)
                )
                w_ptr = api.weak_value(np.outer(p["psi_in"], p["psi_in"].conj()),
                                       np.outer(p["psi_fin"], p["psi_fin"].conj()), obs)
            spec = api.SimulationSpec(cfg, model, trials, seed)
            first = api.run_simulation(spec)
            again = api.run_simulation(spec)
            target = api.analytic_target(spec)
        except Exception as exc:
            return Outcome(time.perf_counter() - start, failures=_raised(exc))
        seconds = time.perf_counter() - start
        self.mc_trials += 2 * trials
        self.mc_draws += 2 * trials * (2 if model == "vn" else 1)
        out = []
        if not np.max(np.abs(s_obj.mat - s_prj.mat)) <= 1e-14:
            out.append("matched-window states differ")
        if not np.max(np.abs(cc.matrix - c.matrix)) <= 1e-12:
            out.append("collapse superoperator is not idempotent")
        a, b = p["op_a"], p["op_b"]
        pair_tol = 1e-10 * (1 + np.linalg.norm(a) * np.linalg.norm(b))
        if not _close(np.vdot(a, c_b), np.vdot(cd_a, b), pair_tol):
            out.append("adjoint pairing <A, C B> != <C^dag A, B>")
        want = np.trace(cfg.strong_projector.mat @ a) * np.eye(cfg.dim)
        if not np.max(np.abs(cd_a - want)) <= 1e-12 * (1 + np.linalg.norm(a)):
            out.append("C^dag A != Tr[P A] I")
        x = t / dtc
        closed = (1 - x) * np.trace(cfg.weak_observable @ cfg.rho_in.mat) + x * np.trace(
            cfg.weak_observable @ cfg.strong_projector.mat
        )
        tol = 1e-10 * max(1.0, abs(closed))
        if not (_close(fwd, adj, tol) and _close(fwd, closed, tol)):
            out.append(f"forward {fwd} / adjoint {adj} / closed form {closed} disagree")
        if p["kind"] == "qubit":
            w = w_ptr.real
            scale = max(1.0, abs(w_ptr))
            if not abs(fit.weak_value_re - w) <= 1e-9 * scale:
                out.append(f"pointer weak value {fit.weak_value_re} != {w}")
            if not (abs(fit.slope - w) <= 1e-3 * scale and abs(shift / g0 - w) <= 1e-3 * scale):
                out.append(f"pointer slope {fit.slope} / shift {shift / g0} far from {w}")
        if first != again or self.first.setdefault(k, first) != first:
            out.append("Monte Carlo rerun with the same seed is not bit-identical")
        out += check_mc(first, target, f"MC {model} N={trials}")
        return Outcome(seconds, failures=out)

    def peak_mb(self, api) -> float:
        return _largest_op_peak(self, api, len(self.problems))


class McLarge:
    """``run_simulation`` vn and objective at 1e7, then ``convergence_report``
    to 1e7; one operation is the round of three calls."""

    def __init__(self, data):
        self.mc = data["mc"]
        self.mc_trials = 0
        self.mc_draws = 0

    def prepare(self, api):
        m = self.mc
        self.cfg = api.build_hydrogen(m["a"], m["b"], m["hbar"], m["dtm"], m["dtc"])
        self.specs = [
            api.SimulationSpec(self.cfg, model, MC_TRIALS, seed)
            for model, seed in zip(("vn", "objective", "objective"), m["seeds"])
        ]
        self.first = None

    def n_inputs(self) -> int:
        return 1

    def n_fixed(self) -> int:
        return 1

    def calls(self, api):
        vn, obj, conv = self.specs
        return (
            lambda: api.run_simulation(vn),
            lambda: api.run_simulation(obj),
            lambda: api.convergence_report(conv, self.mc["checkpoints"]),
        )

    def run(self, api, i) -> Outcome:
        start = time.perf_counter()
        try:
            results = [call() for call in self.calls(api)]
        except Exception as exc:
            return Outcome(time.perf_counter() - start, failures=_raised(exc))
        seconds = time.perf_counter() - start
        self.mc_trials += 3 * MC_TRIALS
        self.mc_draws += 4 * MC_TRIALS  # vn draws two times per trial
        try:
            failures = self._check(api, results)
        except Exception as exc:
            failures = _raised(exc)
        return Outcome(seconds, work=3 * MC_TRIALS, failures=failures)

    def _check(self, api, results) -> list[str]:
        r_vn, r_obj, conv = results
        m = self.mc
        pred = api.hydrogen_predictions(api.HydrogenScenario(m["a"], m["b"], m["hbar"]), m["dtc"], m["dtm"])
        t_vn = api.analytic_target(self.specs[0])
        t_obj = api.analytic_target(self.specs[1])
        out = []
        if not (_close(t_vn, pred.vn, 1e-12) and _close(t_obj, pred.objective, 1e-12)):
            out.append("analytic targets disagree with the hydrogen oracle")
        out += check_mc(r_vn, t_vn, "vn 1e7")
        out += check_mc(r_obj, t_obj, "objective 1e7")
        out += check_mc(conv[-1], t_obj, "convergence 1e7")
        if [r.trials for r in conv] != m["checkpoints"]:
            out.append("convergence checkpoints do not match the request")
        spread = [r.stderr * math.sqrt(r.trials) for r in conv if r.trials >= 10**4]
        if not max(spread) <= 1.1 * min(spread):
            out.append("stderr does not shrink as 1/sqrt(N)")
        if self.first is None:
            self.first = (r_vn, r_obj, conv)
        elif self.first != (r_vn, r_obj, conv):
            out.append("Monte Carlo rerun with the same seed is not bit-identical")
        return out

    def peak_bytes(self, api) -> int:
        """Largest traced peak of the three calls, each traced alone."""
        return max(_traced_peak(call) for call in self.calls(api))

    def peak_mb(self, api) -> float:
        return self.peak_bytes(api) / 1e6


class CliCold:
    """Sequential cold ``python -m weakprobe`` subprocesses."""

    def __init__(self, data, root: Path, workdir: Path):
        self.files = data["files"]
        self.probes = data["probes"]
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.invocations = []
        for item in data["invocations"]:
            argv = [self._path(a) for a in item["argv"]]
            self.invocations.append({**item, "argv": argv})

    def _path(self, arg: str) -> str:
        return str(self.workdir / arg) if arg.endswith(".json") else arg

    def prepare(self, api):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.workdir / name).write_text(text)
        self.reference = {}

    def n_inputs(self) -> int:
        return len(self.invocations)

    def n_fixed(self) -> int:
        return 2 * len(self.invocations)

    def run(self, api, i) -> Outcome:
        k = i % len(self.invocations)
        item = self.invocations[k]
        tracer = api.tracer
        span = tracer.begin("cli.invoke") if tracer else None
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weakprobe", *item["argv"]],
                capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            if span is not None:
                tracer.end(span, failed=True)
            return Outcome(time.perf_counter() - start, failures=_raised(exc))
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.end(span, failed=proc.returncode != item["exit"])
        out = []
        if proc.returncode != item["exit"]:
            out.append(f"{item['argv'][0]} exited {proc.returncode}, documented {item['exit']}")
        emitted = (self.workdir / item["emits"]).read_bytes() if "emits" in item else b""
        if k not in self.reference:
            self.reference[k] = (proc.stdout, emitted)
            if proc.returncode == 0:
                out += self._check(item, proc.stdout.decode(), emitted)
        elif self.reference[k] != (proc.stdout, emitted):
            out.append("rerun output is not byte-identical")
        return Outcome(seconds, failures=out)

    def known_defects(self) -> list[str]:
        """Run each known-defect probe once; describe those that still fail."""
        out = []
        for item in self.probes:
            proc = subprocess.run(
                [sys.executable, "-m", "weakprobe", *item["argv"]],
                capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S,
            )
            if proc.returncode != item["exit"]:
                out.append(f"{' '.join(item['argv'])} exited {proc.returncode}, documented {item['exit']}")
        return out

    def _check(self, item, stdout: str, emitted: bytes) -> list[str]:
        if "--format" in item["argv"]:
            cells = [c for line in stdout.splitlines() for c in line.split(",")]
            bad = [c for c in cells if _is_number(c) and not math.isfinite(float(c))]
            return [f"non-finite CSV cells {bad}"] if bad else []
        try:
            doc = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        out = []
        check = item.get("check", {})
        if "predictions" in check:
            p = check["predictions"]
            tol = 1e-10 * max(1.0, abs(p["v_vn"]), abs(p["v_sat"]))
            if not (_close(_z(doc["prediction_vn"]), p["v_vn"], tol)
                    and _close(_z(doc["prediction_objective"]), objective_value(p), tol)):
                out.append("analytic predictions disagree with the generator")
        if "z" in check and not abs(doc["z"]) <= 4:
            out.append(f"simulate z = {doc['z']}")
        if "verdict" in check:
            out += check_verdict(check["verdict"], doc["model"], doc["branch"], doc["delta_t_c_estimate"])
        if "hydrogen" in check:
            p = check["hydrogen"]
            if not (_close(_z(doc["prediction_objective"]), objective_value(p), 1e-12) and not doc["degenerate"]):
                out.append("hydrogen closed forms disagree with the generator")
        if "pointer" in check:
            w = check["pointer"]["hbar"] / 2
            if not (abs(doc["weak_value_re"] - w) <= 1e-12 and abs(doc["slope"] - w) <= 1e-3 * max(1, w)):
                out.append(f"pointer fit {doc['slope']} / {doc['weak_value_re']} != {w}")
        if "same_doc" in item and json.loads(emitted) != json.loads(self.files[item["same_doc"]]):
            out.append("--emit-config does not reproduce the input config")
        return out

    def split_spans(self, tracer) -> None:
        """Interpreter start, cold import and warm in-process command time."""
        for argv in ([sys.executable, "-c", "pass"], [sys.executable, "-c", "import weakprobe.cli"]):
            name = "cli.interpreter_start" if argv[-1] == "pass" else "cli.import"
            for _ in range(SPLIT_REPEATS):
                tracer.trace_id += 1
                span = tracer.begin(name)
                proc = subprocess.run(argv, capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S)
                tracer.end(span, failed=proc.returncode != 0)
        for item in self.invocations:
            _main_in_process(item["argv"])
        for item in self.invocations:
            tracer.trace_id += 1
            span = tracer.begin(f"cli.main.{item['argv'][0]}")
            code = _main_in_process(item["argv"])
            tracer.end(span, failed=code != item["exit"])

    def peak_mb(self, api) -> float:
        """Largest resident set of any CLI subprocess so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _main_in_process(argv) -> int:
    """A warm ``weakprobe.cli.main`` call with stdout and stderr captured."""
    from weakprobe.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return int(exc.code)


def _z(obj) -> complex:
    return complex(obj["re"], obj["im"])


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _traced_peak(fn) -> int:
    """Peak traced memory while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def _largest_op_peak(wl, api, n: int) -> float:
    """Largest traced peak of operations 0..n-1, each traced alone, in MB."""
    return max(_traced_peak(lambda: wl.run(api, i)) for i in range(n)) / 1e6


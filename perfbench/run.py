"""weakprobe benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload verdict-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` is the timed
run and reports the end-to-end metrics; ``--trace 1`` is the separate
traced run and reports the per-layer metrics.  Each run also writes a
record with the environment and the seed-commit baseline to
``perfbench/out/``; a traced run writes its spans there too.

All workloads are closed loops: one client, one process, no threads.
Timed runs divide every time by the host's speed factor, read with a
reference kernel between batches of operations (``reference.py``).
"""

from __future__ import annotations

import os

# One client, no threads: BLAS would otherwise spin a second thread on the
# 16x16 and 64x64 superoperator products.  Set before numpy loads; every
# subprocess inherits it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from tracing import CLI_SPANS, LAYER_FUNCTIONS, Api, Tracer  # noqa: E402
from workloads import MC_TRIALS, WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Fresh interpreters per set-up measurement; fewer where the first
# operation is a 3e7-trial round.
SETUP_REPEATS = {"mc-large": 3}
# Reference kernel (reference.py) that reads the host's speed during the
# timed operations and around each set-up probe.
OPERATION_KERNEL = {"mc-large": "stream", "verdict-sweep": "interpreter", "crosscheck": "interpreter",
                    "cli-cold": "cold_import"}
SETUP_KERNEL = {"mc-large": "stream", "verdict-sweep": "cold_import", "crosscheck": "cold_import",
                "cli-cold": "cold_import"}
# Operations run in batches of at least this long (one operation where
# one takes longer) between two speed readings; in-process, the kernel
# takes about 4 ms of each 100.
BATCH_S = 0.1
OUTCOMES = ("vn", "jitter", "saturated", "inconclusive", "degenerate")
UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_mb": "MB",
    "montecarlo.trials": "count",
    "montecarlo.draws": "count",
    "montecarlo.peak_bytes_per_trial": "B",
    "trace.overhead_s": "s",
    "latency_tail_ms": "ms",
    "latency_tail_pct": "%",
    "latency_samples": "count",
    "fail_share": "1",
}
SPAN_UNITS = {"calls": "count", "failed": "count", "self_s": "s"}
# What one unit of throughput_per_s and one latency sample are.
WORK_UNIT = {
    "mc-large": ("MC trial", "round of the three 1e7-trial calls"),
    "verdict-sweep": ("verdict problem", "verdict problem"),
    "crosscheck": ("cross-check", "cross-check"),
    "cli-cold": ("CLI invocation", "CLI invocation"),
}


def require_source() -> Path:
    """The checkout root; exit 2 unless weakprobe's sources are in it."""
    root = Path.cwd()
    if not (root / "src" / "weakprobe" / "__init__.py").is_file():
        print(f"error: {root}/src/weakprobe not found; run from the repository root", file=sys.stderr)
        sys.exit(2)
    return root


def make_workload(name: str, data: dict, root: Path, seed: int):
    from ops import CliCold, Crosscheck, McLarge, VerdictSweep

    if name == "cli-cold":
        return CliCold(data, root, OUT / f"cli-seed{seed}")
    return {"mc-large": McLarge, "verdict-sweep": VerdictSweep, "crosscheck": Crosscheck}[name](data)


class Tally:
    """Attempted and failed operations, and what each measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []  # divided by the host's speed factor
        self.raw_latencies: list[float] = []
        self.wall_clock: dict[str, float] = {}  # timed run: the metrics before speed correction
        self.works: list[int] = []
        self.inputs: list[int] = []
        self.outcomes = dict.fromkeys(OUTCOMES, 0)

    def add(self, out, key: int = 0, timed: bool = True, speed: float = 1.0) -> None:
        self.attempted += 1
        if out.failures:
            self.failed += 1
            self.failures.extend(out.failures)
        if timed:
            self.latencies.append(out.seconds / speed)
            self.raw_latencies.append(out.seconds)
            self.works.append(out.work)
            self.inputs.append(key)
        if out.label:
            self.outcomes[out.label] += 1


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of import plus first operation,
    divided by the median speed factor read between them; and the median
    as timed.  Single probes and readings jitter by a third, so they are
    paired by their medians, not one by one."""
    speed = reference.speed_meter(SETUP_KERNEL[workload])
    speeds = [speed()]
    samples = []
    for _ in range(SETUP_REPEATS.get(workload, 7)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        speeds.append(speed())
    raw = statistics.median(samples)
    return raw / statistics.median(speeds), raw


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples), and that percentile."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def cycle_throughput(inputs: list[int], works: list[int], seconds: list[float]) -> float:
    """Work per second of one pass over the inputs, each input timed by the
    median of its repeats.  A stall that hits fewer than half of an
    input's repeats does not move it, nor does where the run stops."""
    by_input: dict[int, list[float]] = {}
    work: dict[int, int] = {}
    for k, w, t in zip(inputs, works, seconds):
        by_input.setdefault(k, []).append(t)
        work[k] = w
    return sum(work.values()) / sum(statistics.median(ts) for ts in by_input.values())


def timed_run(workload: str, wl, api, seconds: float, seed: int):
    """Closed loop for ``seconds``; each batch of operations is bracketed
    by two speed readings and its times are divided by their mean."""
    tally = Tally()
    wl.prepare(api)
    tally.add(wl.run(api, 0), timed=False)  # warm-up
    speed = reference.speed_meter(OPERATION_KERNEL[workload])
    before = speed()
    speeds = [before]
    i = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = []
        end = time.perf_counter() + BATCH_S
        while not batch or time.perf_counter() < end:
            batch.append((wl.run(api, i), i % wl.n_inputs()))
            i += 1
        after = speed()
        speeds.append(after)
        for out, key in batch:
            tally.add(out, key, speed=(before + after) / 2)
        before = after
    peak = wl.peak_mb(api)
    setup_s, raw_setup_s = setup_seconds(workload, seed)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": cycle_throughput(tally.inputs, tally.works, tally.latencies),
        "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
        "peak_mb": peak,
    }
    tally.wall_clock = {
        "setup_s": raw_setup_s,
        "throughput_per_s": cycle_throughput(tally.inputs, tally.works, tally.raw_latencies),
        "latency_p50_ms": 1e3 * statistics.median(tally.raw_latencies),
        "speed_factor_median": statistics.median(speeds),
    }
    return tally, metrics


def fixed_pass(wl, api, tracer=None) -> tuple[Tally, float]:
    tally = Tally()
    start = time.perf_counter()
    for i in range(wl.n_fixed()):
        if tracer is None:
            tally.add(wl.run(api, i))
            continue
        tracer.trace_id = i
        span = tracer.begin("bench.op")
        out = wl.run(api, i)
        tracer.end(span, failed=bool(out.failures))
        tally.add(out)
    return tally, time.perf_counter() - start


def traced_run(workload: str, wl, seed: int):
    """Untraced then traced pass over the same fixed operations."""
    api = Api()
    wl.prepare(api)
    wl.run(api, 0)  # warm-up
    plain, plain_wall = fixed_pass(wl, api)
    tracer = Tracer()
    wl.mc_trials = wl.mc_draws = 0  # count the traced pass only
    tally, traced_wall = fixed_pass(wl, Api(tracer), tracer)
    if workload == "cli-cold":
        wl.split_spans(tracer)
    names = [name for name, _, _ in LAYER_FUNCTIONS] + list(CLI_SPANS) + ["bench.op"]
    metrics = tracer.layer_metrics(names)
    metrics["montecarlo.trials"] = wl.mc_trials
    metrics["montecarlo.draws"] = wl.mc_draws
    metrics["montecarlo.peak_bytes_per_trial"] = (
        wl.peak_bytes(api) / MC_TRIALS if workload == "mc-large" else 0.0
    )
    for label, count in tally.outcomes.items():
        metrics[f"verdict.outcome.{label}"] = count
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    tail_s, tail_pct = tail(plain.latencies)
    metrics["latency_tail_ms"] = 1e3 * tail_s
    metrics["latency_tail_pct"] = tail_pct
    metrics["latency_samples"] = len(plain.latencies)
    metrics["fail_share"] = tally.failed / tally.attempted
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    # Both passes ran and checked the operations; count both.
    plain.attempted += tally.attempted
    plain.failed += tally.failed
    plain.failures += tally.failures
    return plain, metrics


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("verdict.outcome."):
        return "count"
    return SPAN_UNITS[name.rsplit(".", 1)[1]]


def environment(root: Path) -> dict:
    import numpy as np

    def read(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if read(index / "level") == "3":
            l3 = read(index / "size")
    commit = None
    head = read(root / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(root / ".git" / head[5:])
    elif head:
        commit = head
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3": l3,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    OUT.mkdir(exist_ok=True)
    wl = make_workload(workload, generate(workload, seed), root, seed)
    if trace:
        tally, metrics = traced_run(workload, wl, seed)
    else:
        tally, metrics = timed_run(workload, wl, Api(), seconds, seed)
    defects = wl.known_defects() if workload == "cli-cold" else []
    if trace:
        metrics["cli.known_defect_probe.calls"] = len(wl.probes) if workload == "cli-cold" else 0
        metrics["cli.known_defect_probe.failed"] = len(defects)
    baseline = json.loads((HERE / "baseline.json").read_text())
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "baseline": baseline["workloads"].get(workload, {}),
        "baseline_notes": baseline["roadmap_notes"],
        "failures": tally.failures[:20],
        "known_defects": defects,
        "wall_clock": tally.wall_clock,
        "result": {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        },
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    base = record["baseline"].get("end_to_end" if not trace else "per_layer", {})
    print(f"# {workload} seed={seed} trace={int(trace)} one unit = {WORK_UNIT[workload][0]}, "
          f"one latency sample = {WORK_UNIT[workload][1]}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, m in record["result"]["metrics"].items():
        ref = f"  (seed-commit baseline {base[name]:.6g})" if name in base else ""
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}{ref}")
    for name, value in tally.wall_clock.items():
        print(f"{workload}  wall clock, not speed-corrected: {name} = {value:.6g}")
    for line in record["failures"]:
        print(f"{workload}  FAILED: {line}")
    for line in defects:
        print(f"{workload}  known defect, not an operation: {line}")
    return record["result"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = require_source()
    if args.workload != "all":
        sys.path.insert(0, str(root / "src"))
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace), root)))
        return 0
    # One process per workload, so that no workload's memory or child
    # processes show in another's peak.
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up time of one workload, measured in a fresh interpreter.

Run from the repository root as ``python3 perfbench/probe.py WORKLOAD
SEED``.  Prints one JSON line: the time to ``import weakprobe`` (numpy
included), and the time of the workload's preparation plus its first
operation.  ``run.py`` starts several of these and reports the median
sum, divided by the host's speed factor, as ``setup_s``.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")
import weakprobe  # noqa: E402,F401

import_s = time.perf_counter() - start

import json  # noqa: E402

from run import make_workload, require_source  # noqa: E402
from tracing import Api  # noqa: E402
from workloads import generate  # noqa: E402


def main() -> None:
    root = require_source()
    workload, seed = sys.argv[1], int(sys.argv[2])
    wl = make_workload(workload, generate(workload, seed, first_only=True), root, seed)
    api = Api()
    start = time.perf_counter()
    wl.prepare(api)
    wl.run(api, 0)
    first_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_s": first_s, "setup_s": import_s + first_s}))


if __name__ == "__main__":
    main()

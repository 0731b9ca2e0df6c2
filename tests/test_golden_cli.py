"""Golden CLI set: fixed invocations whose output must stay byte-identical.

``golden_cli.json`` holds two generic configurations and, for each
invocation, its argv, exit code, stdout and stderr text (and the text of
an ``--emit-config`` file), recorded from ``weakprobe.cli.main`` run in
process.  A placeholder ``{A}``, ``{B}`` or ``{emit}`` in an argv is a
file in a temporary directory.  A change that is meant to alter the
output regenerates the file with
``PYTHONPATH=src python tests/test_golden_cli.py`` from the repository
root, and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from weakprobe.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
_DATA = json.loads(GOLDEN.read_text())

# Every subcommand in JSON and CSV, the hydrogen scenario and both generic
# configs, --emit-config, and the documented exits 2, 3 and 4.
INVOCATIONS = {
    "analytic-hydrogen": ["analytic", "--scenario", "hydrogen"],
    "analytic-hydrogen-csv": ["analytic", "--scenario", "hydrogen", "--format", "csv"],
    "analytic-hydrogen-complex": [
        "analytic", "--scenario", "hydrogen", "--a-re", "0.6", "--a-im", "0.3",
        "--b-re", "0.5", "--b-im", "-0.2", "--hbar", "2", "--dtc", "0.3",
    ],
    "analytic-A": ["analytic", "--config", "{A}"],
    "analytic-A-csv": ["analytic", "--config", "{A}", "--format", "csv"],
    "analytic-B": ["analytic", "--config", "{B}"],
    "analytic-B-dtc-csv": ["analytic", "--config", "{B}", "--dtc", "0.1", "--format", "csv"],
    "analytic-A-emit": ["analytic", "--config", "{A}", "--emit-config", "{emit}"],
    "analytic-hydrogen-emit": [
        "analytic", "--scenario", "hydrogen", "--a-re", "0.8", "--b-im", "0.5",
        "--emit-config", "{emit}",
    ],
    "simulate-hydrogen-vn": [
        "simulate", "--scenario", "hydrogen", "--model", "vn", "--trials", "20000",
        "--seed", "3",
    ],
    "simulate-hydrogen-objective-csv": [
        "simulate", "--scenario", "hydrogen", "--model", "objective", "--trials",
        "20000", "--seed", "3", "--dtc", "0.5", "--format", "csv",
    ],
    "simulate-A-objective": [
        "simulate", "--config", "{A}", "--model", "objective", "--trials", "5000",
        "--seed", "1",
    ],
    "simulate-B-vn-csv": [
        "simulate", "--config", "{B}", "--model", "vn", "--trials", "5000", "--seed",
        "2", "--format", "csv",
    ],
    "discriminate-hydrogen-jitter": [
        "discriminate", "--scenario", "hydrogen", "--dtc", "0.5", "--measured",
        "0.375", "--sigma-meas", "0.01",
    ],
    "discriminate-hydrogen-jitter-csv": [
        "discriminate", "--scenario", "hydrogen", "--dtc", "0.5", "--measured",
        "0.375", "--sigma-meas", "0.01", "--format", "csv",
    ],
    "discriminate-hydrogen-vn": [
        "discriminate", "--scenario", "hydrogen", "--measured", "0.5",
        "--sigma-meas", "0.01",
    ],
    "discriminate-hydrogen-saturated-csv": [
        "discriminate", "--scenario", "hydrogen", "--measured", "0.25",
        "--sigma-meas", "0.01", "--format", "csv",
    ],
    "discriminate-A": [
        "discriminate", "--config", "{A}", "--measured", "0.7", "--measured-im",
        "-0.57", "--sigma-meas", "0.01",
    ],
    "discriminate-B-csv": [
        "discriminate", "--config", "{B}", "--measured", "1.645", "--sigma-meas",
        "0.05", "--format", "csv",
    ],
    "discriminate-B-emit": [
        "discriminate", "--config", "{B}", "--dtm", "3", "--measured", "2.0",
        "--sigma-meas", "0.05", "--emit-config", "{emit}",
    ],
    "hydrogen": ["hydrogen"],
    "hydrogen-csv": ["hydrogen", "--format", "csv"],
    "hydrogen-complex": [
        "hydrogen", "--a-re", "0.8", "--a-im", "0.1", "--b-re", "0.3", "--dtc",
        "0.25", "--dtm", "2", "--hbar", "0.5",
    ],
    "hydrogen-degenerate-flags": ["hydrogen", "--a-re", "1", "--b-re", "0.5"],
    "pointer": ["pointer"],
    "pointer-csv": ["pointer", "--format", "csv"],
    "pointer-weak-first": [
        "pointer", "--order", "weak-first", "--a-re", "0.6", "--a-im", "0.2",
        "--b-re", "0.4", "--sigma", "2", "--g-points", "7",
    ],
    "exit2-nan-window": ["analytic", "--scenario", "hydrogen", "--dtc", "nan"],
    "exit2-no-source": ["analytic"],
    "exit2-nan-measurement": [
        "discriminate", "--scenario", "hydrogen", "--measured", "nan",
        "--sigma-meas", "0.01",
    ],
    "exit2-g-points": ["pointer", "--g-points", "20000"],
    "exit3-orthogonal-analytic": ["analytic", "--scenario", "hydrogen", "--b-re", "0"],
    "exit3-orthogonal-hydrogen": ["hydrogen", "--a-re", "0"],
    "exit4-degenerate": [
        "discriminate", "--scenario", "hydrogen", "--a-re", "1", "--measured", "0.4",
        "--sigma-meas", "0.001",
    ],
}


def invoke(argv: list[str], workdir: Path) -> dict:
    """Run ``main`` on ``argv`` with its placeholders resolved in ``workdir``."""
    paths = {"{emit}": workdir / "emitted.json"}
    for name, doc in _DATA["configs"].items():
        paths["{" + name + "}"] = workdir / f"{name}.json"
        paths["{" + name + "}"].write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(paths.get(a, a)) for a in argv])
    emitted = paths["{emit}"]
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "emitted": emitted.read_text() if emitted.exists() else None,
    }


def test_golden_set_is_complete():
    assert set(_DATA["cases"]) == set(INVOCATIONS)
    assert {c["exit"] for c in _DATA["cases"].values()} == {0, 2, 3, 4}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_is_golden(name, tmp_path):
    expected = _DATA["cases"][name]
    assert expected["argv"] == INVOCATIONS[name]
    got = invoke(INVOCATIONS[name], tmp_path)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]
    assert got["emitted"] == expected["emitted"]


if __name__ == "__main__":
    # Recapture every case from the current code; the configs are kept.
    cases = {}
    for name, argv in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = {"argv": argv, **invoke(argv, Path(tmp))}
    _DATA["cases"] = cases
    GOLDEN.write_text(json.dumps(_DATA, indent=1) + "\n")

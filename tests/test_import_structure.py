"""What a cold ``import weakprobe`` and each cold command load.

Every module of the package loads on first use: ``import weakprobe``
loads none of them and no numpy, and ``weakprobe.cli`` imports numpy and
the modules a command computes with only when the command runs them,
after its own checks.  pytest has long since imported every module, so
each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# What every command on the hydrogen scenario loads besides the CLI.
CORE = {"errors", "operators", "weakvalues", "hydrogen"}

# Every public name of the package before its modules were deferred, by the
# module that defines it.
PUBLIC = {
    "collapse": (
        "objective_state_at",
        "projective_ensemble_state_at",
        "strong_statistics",
    ),
    "errors": (
        "DegenerateScenario",
        "DensityValidationError",
        "DimensionMismatch",
        "HermiticityViolation",
        "InvalidProjector",
        "NegativeEigenvalue",
        "NoExactSolution",
        "OrthogonalPostselection",
        "TraceViolation",
        "VanishingPostselection",
    ),
    "hydrogen": (
        "HydrogenPredictions",
        "HydrogenScenario",
        "build_hydrogen",
        "hydrogen_predictions",
    ),
    "montecarlo": (
        "CHUNK_TRIALS",
        "CSV_COLUMNS",
        "AveragedResult",
        "SimulationSpec",
        "analytic_target",
        "convergence_report",
        "run_simulation",
        "to_record",
    ),
    "operators": (
        "DensityOperator",
        "ObservableSpectral",
        "Projector",
        "hs_inner",
        "spectral_decompose",
        "validate_density",
    ),
    "pointer": (
        "GaussianPointer",
        "SlopeFit",
        "postselected_pointer_mean",
        "postselected_pointer_momentum_mean",
        "weak_limit_slope",
    ),
    "serialization": (
        "config_from_json",
        "config_to_json",
        "operator_to_json",
    ),
    "superops": (
        "CompletionResult",
        "SuperOp",
        "apply_superop",
        "backward_state",
        "collapse_superop",
        "compose",
        "solve_completion",
        "superop_adjoint",
    ),
    "weakvalues": (
        "DiscriminationVerdict",
        "ProtocolConfig",
        "ProtocolTraces",
        "UniformTiming",
        "apparent_resolution",
        "averaged_weak_value_objective",
        "averaged_weak_value_vn",
        "discriminate",
        "objective_weak_value_adjoint",
        "objective_weak_value_at",
        "objective_weak_value_forward",
        "protocol_traces",
        "weak_value",
    ),
}


def run_fresh(code: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter; check that it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def last_line(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter."""
    return run_fresh(code).stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The weakprobe submodules a fresh interpreter holds after ``code``, and
    ``concurrent.futures`` if it holds that: the vn executor's ~5 ms import."""
    last = last_line(
        code
        + "\nimport sys\n"
        + "print(' '.join(m for m in sys.modules"
        + " if m.startswith('weakprobe.') or m == 'concurrent.futures'))"
    )
    return {name.removeprefix("weakprobe.") for name in last.split()}


def loaded_by_command(*argv: str) -> set[str]:
    return loaded_after(
        f"""
import contextlib, io
from weakprobe.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({list(argv)!r}) == 0
"""
    )


def test_import_loads_no_module():
    assert loaded_after("import weakprobe") == set()
    assert last_line("import sys, weakprobe\nprint('numpy' in sys.modules)") == "False"


def cold_command(cwd: Path, *argv: str) -> tuple[int, str, bool]:
    """``python -m weakprobe *argv`` in a fresh interpreter: its exit code,
    its stderr, and whether it loaded numpy."""
    proc = run_fresh(
        f"""
import runpy, sys
sys.argv = ["weakprobe", *{list(argv)!r}]
try:
    runpy.run_module("weakprobe", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
""",
        cwd=cwd,
    )
    code, numpy = proc.stdout.splitlines()[-1].split()
    return int(code), proc.stderr, numpy == "True"


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (("--help",), 0, ""),
        (("analytic", "--help"), 0, ""),
        (
            ("simulate", "--scenario", "hydrogen"),
            2,
            "weakprobe simulate: error: the following arguments are required: --model\n",
        ),
        (
            ("analytic", "--config", "missing.json"),
            2,
            "error: [Errno 2] No such file or directory: 'missing.json'\n",
        ),
        (
            ("analytic", "--config", "malformed.json"),
            2,
            "error: Expecting property name enclosed in double quotes:"
            " line 1 column 17 (char 16)\n",
        ),
        (("analytic",), 2, "error: exactly one of --config or --scenario is required\n"),
        (("pointer", "--g-points", "20000"), 2, "error: --g-points 20000 exceeds 10000\n"),
    ],
    ids=["help", "analytic-help", "usage", "missing", "malformed", "no-source", "g-points"],
)
def test_answers_that_compute_nothing_load_no_numpy(argv, code, stderr, tmp_path):
    (tmp_path / "malformed.json").write_text('{"delta_t_m": 1,')
    got_code, got_stderr, numpy = cold_command(tmp_path, *argv)
    assert got_code == code
    # argparse's usage lines come first; the error line is the last
    if got_stderr.startswith("usage: "):
        got_stderr = got_stderr.splitlines(keepends=True)[-1]
    assert got_stderr == stderr
    assert not numpy


@pytest.mark.parametrize(
    "argv",
    [
        ("analytic", "--scenario", "hydrogen"),
        ("analytic", "--scenario", "hydrogen", "--format", "csv"),
        ("discriminate", "--scenario", "hydrogen", "--measured", "0.4", "--sigma-meas", "0.01"),
        ("hydrogen",),
    ],
)
def test_analytic_commands_load_no_deferred_module(argv):
    loaded = loaded_by_command(*argv)
    assert loaded == CORE | {"cli"}
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("trials, executor", [("100000", False), ("200000", True)])
def test_only_a_long_vn_simulate_loads_the_executor(trials, executor):
    # 2 * CHUNK_TRIALS = 131072 trials start the helper; every cold simulate
    # in the benchmark is shorter
    argv = ("simulate", "--scenario", "hydrogen", "--model", "vn", "--trials", trials)
    assert ("concurrent.futures" in loaded_by_command(*argv)) == executor


def test_simulate_loads_montecarlo_only():
    argv = ("simulate", "--scenario", "hydrogen", "--model", "vn", "--trials", "1000")
    loaded = loaded_by_command(*argv)
    assert "montecarlo" in loaded
    assert not loaded & {"pointer", "collapse", "superops"}


def test_objective_simulate_loads_neither_collapse_nor_superops():
    # the objective model reads cfg.weak_window, a weakvalues.UniformTiming
    loaded = loaded_by_command("simulate", "--scenario", "hydrogen", "--model", "objective")
    assert "montecarlo" in loaded
    assert not loaded & {"pointer", "collapse", "superops"}


def test_collapse_loads_no_superops():
    assert "superops" not in loaded_after("import weakprobe.collapse")


def test_pointer_loads_pointer_only():
    loaded = loaded_by_command("pointer", "--g-points", "5")
    assert "pointer" in loaded
    assert not loaded & {"montecarlo", "collapse", "superops", "serialization"}


def test_config_file_loads_serialization(tmp_path):
    from weakprobe import build_hydrogen, config_to_json

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_json(build_hydrogen(0.6, 0.8, 1.0, 1.0, 0.5))))
    loaded = loaded_by_command("analytic", "--config", str(path))
    assert loaded == {"cli", "errors", "operators", "weakvalues", "serialization"}


def test_public_names_unchanged():
    # getattr on the package, then on the module, so each name resolves lazily
    # before its module is read directly.
    last = last_line(
        f"""
import importlib, weakprobe
public = {PUBLIC!r}
for module, names in public.items():
    for name in names:
        got = getattr(weakprobe, name)
        assert got is getattr(importlib.import_module("weakprobe." + module), name), name
        assert name in dir(weakprobe), name
    assert getattr(weakprobe, module) is importlib.import_module("weakprobe." + module)
    assert module in dir(weakprobe), module
expected = {{n for names in public.values() for n in names}} | set(public)
listed = {{n for n in dir(weakprobe) if not n.startswith("_")}}
assert listed == expected, listed ^ expected
print("ok")
"""
    )
    assert last == "ok"


def test_star_import_binds_every_public_name():
    last = last_line(
        f"""
namespace = {{}}
exec("from weakprobe import *", namespace)
expected = {{n for names in {PUBLIC!r}.values() for n in names}} | {set(PUBLIC)!r}
missing = expected - namespace.keys()
assert not missing, missing
print("ok")
"""
    )
    assert last == "ok"


@pytest.mark.parametrize(
    "name",
    [
        "no_such_name",
        "vectorize",
        "_LAZY_MISSING",
        "reconstruct_superop",
        "density_operator_basis",
        "selective_projection",
        "superop_to_json",
        "superop_from_json",
        "ZeroProbability",
        "RankDeficient",
        "trial_weak_value_strong_first",
        "trial_weak_value_weak_first",
        "hydrogen_traces",
        "evolution_superop_objective",
        "operator_from_json",
    ],
)
def test_unknown_attribute_raises(name):
    # vectorize is public in superops, but never was in the package; the
    # others were public once and were removed
    last = last_line(
        f"""
import weakprobe
try:
    getattr(weakprobe, {name!r})
except AttributeError as exc:
    print(type(exc).__name__)
"""
    )
    assert last == "AttributeError"

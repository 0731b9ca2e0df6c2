"""What a cold ``import weakprobe`` and each cold command load.

The package imports its analytic core eagerly and the other modules on
first use.  pytest has long since imported every module, so each check
runs in a fresh interpreter.
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


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The weakprobe submodules a fresh interpreter holds after ``code``, and
    ``concurrent.futures`` if it holds that: the vn executor's ~5 ms import."""
    last = run_fresh(
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


def test_import_loads_the_core_only():
    assert loaded_after("import weakprobe") == CORE


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
    assert loaded == CORE | {"cli", "serialization"}


def test_public_names_unchanged():
    # getattr on the package, then on the module, so each name resolves lazily
    # before its module is read directly.
    last = run_fresh(
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
    last = run_fresh(
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
    last = run_fresh(
        f"""
import weakprobe
try:
    getattr(weakprobe, {name!r})
except AttributeError as exc:
    print(type(exc).__name__)
"""
    )
    assert last == "AttributeError"

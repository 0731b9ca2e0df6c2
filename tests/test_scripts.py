"""Smoke tests of the experiment scripts in ``scripts/``."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(name, argv, capsys):
    assert load(name).main(argv) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("hydrogen_sweep", ["--points", "0"], 2),
        ("hydrogen_sweep", ["--points", "-3"], 2),
        ("hydrogen_sweep", ["--points", "10001"], 2),
        ("hydrogen_sweep", ["--points", "200000"], 2),
        ("hydrogen_sweep", ["--a", "2"], 2),
        ("hydrogen_sweep", ["--hbar", "nan"], 2),
        ("hydrogen_sweep", ["--a", "0"], 3),
        ("mc_convergence", ["--trials", "0"], 2),
        ("mc_convergence", ["--dtc", "inf"], 2),
        ("mc_convergence", ["--a-re", "0"], 3),
        ("mc_convergence", ["--trials", "1000", "--per-decade", "10000"], 2),
        ("mc_convergence", ["--per-decade", "1000000000"], 2),
        ("mc_convergence", ["--per-decade", "0"], 2),
        ("mc_convergence", ["--per-decade", "-3"], 2),
        ("mc_convergence", ["--per-decade", "1" + "0" * 400], 2),
    ],
)
def test_bad_input_exit_codes(name, argv, code, capsys):
    # the same exit codes and one-line message as python -m weakprobe
    assert load(name).main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_hydrogen_sweep(capsys):
    rows = run("hydrogen_sweep", ["--a", "0.6", "--b", "0.8", "--points", "5"], capsys)
    assert len(rows) == 5
    for row in rows:
        assert float(row["prediction_vn"]) == pytest.approx(0.5)
        ratio = min(float(row["dtc_over_dtm"]), 1.0)
        assert float(row["prediction_objective"]) == pytest.approx(
            0.5 * (1.0 - ratio * (1.0 - 0.36))
        )


def test_hydrogen_sweep_points_bound(capsys):
    sweep = load("hydrogen_sweep")
    assert sweep.MAX_POINTS == 10_000
    rows = run("hydrogen_sweep", ["--points", str(sweep.MAX_POINTS)], capsys)
    assert len(rows) == 10_000


def test_mc_convergence(capsys, tmp_path):
    argv = ["--model", "objective", "--dtc", "0.5", "--trials", "2000", "--seed", "3"]
    rows = run("mc_convergence", argv, capsys)
    assert [int(r["N"]) for r in rows] == [100, 447, 2000]
    for row in rows:
        assert float(row["target_re"]) == pytest.approx(0.375)
        assert abs(float(row["z"])) < 5
    # the same arguments give the same rows, written to a file this time
    out = tmp_path / "conv.csv"
    assert load("mc_convergence").main([*argv, "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        assert list(csv.DictReader(fh)) == rows


def test_mc_convergence_checkpoint_bound(capsys):
    # one decade at 9999 per decade is a grid of MAX_CHECKPOINTS points; 10000
    # per decade is one more and is refused above
    script = load("mc_convergence")
    assert script.MAX_CHECKPOINTS == 10_000
    rows = run("mc_convergence", ["--trials", "1000", "--per-decade", "9999"], capsys)
    assert [int(r["N"]) for r in rows] == list(range(100, 1001))


def test_mc_convergence_z_matches_simulate(capsys):
    # one trial has zero stderr and misses the 0.375 target: simulate prints
    # "z": null, and the script leaves the cell empty instead of writing 0.0
    rows = run("mc_convergence", ["--trials", "1", "--dtc", "0.5"], capsys)
    assert [(r["N"], r["mean_re"], r["z"]) for r in rows] == [("1", "0.5", "")]

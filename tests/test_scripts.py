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


def test_hydrogen_sweep(capsys):
    rows = run("hydrogen_sweep", ["--a", "0.6", "--b", "0.8", "--points", "5"], capsys)
    assert len(rows) == 5
    for row in rows:
        assert float(row["prediction_vn"]) == pytest.approx(0.5)
        ratio = min(float(row["dtc_over_dtm"]), 1.0)
        assert float(row["prediction_objective"]) == pytest.approx(
            0.5 * (1.0 - ratio * (1.0 - 0.36))
        )


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

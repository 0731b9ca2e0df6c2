import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import line_end_overflow, spin_config
from weakprobe import config_from_json, config_to_json, operator_to_json
from weakprobe.cli import main
from test_golden_cli import INVOCATIONS, invoke
from test_import_structure import cold_command

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, check_exit=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "weakprobe", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if check_exit is not None:
        assert proc.returncode == check_exit, proc.stderr
    return proc


class TestAnalytic:
    def test_default_hydrogen_scenario(self):
        proc = run_cli("analytic", "--scenario", "hydrogen", check_exit=0)
        report = json.loads(proc.stdout)
        assert report["prediction_vn"]["re"] == pytest.approx(0.5)
        # default windows are equal, so the objective prediction saturates
        assert report["prediction_objective"]["re"] == pytest.approx(0.25)
        assert report["apparent_resolution"] == 1.0

    def test_short_collapse(self):
        proc = run_cli(
            "analytic", "--scenario", "hydrogen", "--dtc", 0.5, check_exit=0
        )
        report = json.loads(proc.stdout)
        assert report["prediction_objective"]["re"] == pytest.approx(0.375)
        assert report["delta_t_c"] == 0.5

    def test_traces_present(self):
        proc = run_cli("analytic", "--scenario", "hydrogen", check_exit=0)
        traces = json.loads(proc.stdout)["traces"]
        assert traces["proj_in"]["re"] == pytest.approx(0.5)
        assert traces["obs_proj"]["re"] == pytest.approx(0.5)

    def test_csv_format(self):
        proc = run_cli(
            "analytic", "--scenario", "hydrogen", "--format", "csv", check_exit=0
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "field,re,im"
        table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert table["prediction_vn"] == pytest.approx(0.5)

    def test_config_file_identity_observable(self, tmp_path):
        cfg = spin_config()
        doc = config_to_json(cfg)
        doc["weak_observable"] = {
            "dim": 2,
            "re": [[1.0, 0.0], [0.0, 1.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analytic", "--config", path, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["prediction_vn"]["re"] == pytest.approx(1.0)
        assert report["prediction_objective"]["re"] == pytest.approx(1.0)

    def test_config_file_window_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_json(spin_config(dtm=1.0, dtc=0.5))))
        proc = run_cli("analytic", "--config", path, "--dtc", 0.125, check_exit=0)
        assert json.loads(proc.stdout)["delta_t_c"] == 0.125

    def test_emit_config_round_trip(self, tmp_path):
        emitted = tmp_path / "emitted.json"
        first = run_cli(
            "analytic",
            "--scenario",
            "hydrogen",
            "--dtc",
            0.5,
            "--emit-config",
            emitted,
            check_exit=0,
        )
        cfg = config_from_json(json.loads(emitted.read_text()))
        assert cfg.delta_t_c == 0.5
        second = run_cli("analytic", "--config", emitted, check_exit=0)
        assert second.stdout == first.stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "analytic", "--scenario", "hydrogen", "--out", out, check_exit=0
        )
        assert proc.stdout == ""
        assert json.loads(out.read_text())["prediction_vn"]["re"] == pytest.approx(0.5)


class TestConfigSourceErrors:
    def test_both_sources(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_json(spin_config())))
        proc = run_cli(
            "analytic", "--config", path, "--scenario", "hydrogen", check_exit=2
        )
        assert "exactly one" in proc.stderr

    def test_no_source(self):
        proc = run_cli("analytic", check_exit=2)
        assert "exactly one" in proc.stderr

    def test_missing_file(self):
        run_cli("analytic", "--config", "/nonexistent/cfg.json", check_exit=2)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        run_cli("analytic", "--config", path, check_exit=2)

    def test_invalid_config_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"delta_t_m": 1.0}))
        run_cli("analytic", "--config", path, check_exit=2)

    def test_bool_dim_config_exit_code(self, tmp_path):
        # JSON true used to pass as dim 1, and this document as a 1x1 config
        op = {"dim": True, "re": [[1.0]], "im": [[0.0]]}
        keys = ("rho_in", "rho_fin", "strong_projector", "weak_observable")
        doc = {**dict.fromkeys(keys, op), "delta_t_m": 1.0, "delta_t_c": 0.5, "hbar": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analytic", "--config", path, check_exit=2)
        assert proc.stdout == ""
        assert "rho_in: dim must be a positive integer, got True" in proc.stderr

    @pytest.mark.parametrize(
        "key, part, entries",
        [
            ("rho_in", "im", [["0", "0"], ["0", "0"]]),
            ("strong_projector", "re", [[True, 0], [0, 0]]),
        ],
        ids=["string", "true"],
    )
    def test_non_number_entry_exit_code(self, key, part, entries, tmp_path):
        # numpy read "0" and true as floats, and this document exited 0
        doc = config_to_json(spin_config(a=0.6, b=0.8))
        doc[key][part] = entries
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analytic", "--config", path, check_exit=2)
        assert proc.stdout == ""
        assert proc.stderr == f"error: {key}: entries must be JSON numbers\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("analytic",),
            ("simulate", "--model", "vn", "--trials", "10"),
            ("discriminate", "--measured", "0.4", "--sigma-meas", "0.01"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("flag", ["--a-re", "--a-im", "--b-re", "--b-im", "--hbar"])
    def test_scenario_flag_with_config(self, argv, flag, tmp_path, capsys):
        # Each used to exit 0 with the config's numbers, the flag dropped.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_json(spin_config())))
        assert main([*argv, "--config", str(path), flag, "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} ") and len(err.splitlines()) == 1

    def test_orthogonal_postselection_exit_code(self):
        proc = run_cli(
            "analytic", "--scenario", "hydrogen", "--b-re", 0.0, check_exit=3
        )
        assert "error" in proc.stderr

    def test_unknown_command_usage_error(self):
        run_cli("frobnicate", check_exit=2)


class TestNonFiniteInput:
    # Each used to exit 0 and print NaN or Infinity tokens.
    @pytest.mark.parametrize(
        "argv",
        [
            ("analytic", "--scenario", "hydrogen", "--dtc", "inf"),
            ("discriminate", "--scenario", "hydrogen", "--measured", "nan", "--sigma-meas", 0.01),
            ("discriminate", "--scenario", "hydrogen", "--measured", 0.3, "--sigma-meas", "inf"),
            ("hydrogen", "--dtc", "inf"),
            ("hydrogen", "--dtc", "inf", "--format", "csv"),
            ("pointer", "--hbar", "inf", "--format", "csv"),
            ("pointer", "--a-re", "nan"),
        ],
    )
    def test_exit_2_without_output(self, argv):
        proc = run_cli(*argv, check_exit=2)
        assert proc.stdout == ""
        assert "error" in proc.stderr

    # A weak window below the resolution of the collapse window has zero
    # width; analytic, hydrogen and discriminate used to exit 0 on it.
    @pytest.mark.parametrize(
        "argv",
        [
            ("analytic", "--scenario", "hydrogen"),
            ("hydrogen",),
            ("discriminate", "--scenario", "hydrogen", "--measured", 0.4, "--sigma-meas", 0.1),
            ("simulate", "--scenario", "hydrogen", "--model", "objective", "--trials", 100),
            ("simulate", "--scenario", "hydrogen", "--model", "vn", "--trials", 100),
        ],
    )
    def test_zero_width_weak_window(self, argv):
        proc = run_cli(*argv, "--dtm", "1e-20", "--dtc", "1", check_exit=2)
        assert proc.stdout == ""
        assert "zero width" in proc.stderr

    # Finite entries whose sums or products overflow; each used to print
    # RuntimeWarnings before its error line, the state a NaN defect.
    @pytest.mark.parametrize(
        "key, re, message",
        [
            ("rho_in", [[0.5, 1e308], [1e308, 0.5]], "error: negative eigenvalue (defect 1.000e+308)"),
            ("strong_projector", [[1.0, 1e200], [1e200, 0.0]], "error: not idempotent (defect inf)"),
            ("weak_observable", [[1e308, 1e308], [1e308, 1e308]], "error: trace obs_in = (inf+0j)"),
        ],
    )
    def test_overflowing_config_single_error_line(self, tmp_path, key, re, message):
        doc = config_to_json(spin_config())
        doc[key]["re"] = re
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analytic", "--config", path, check_exit=2)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(message)

    def test_json_output_is_strict(self):
        from weakprobe.cli import _dumps

        with pytest.raises(ValueError):
            _dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            _dumps({"x": float("inf")})


class TestOutOfRangeAnswers:
    # Inputs whose answer lies past the double range.  The CSV forms used to
    # print inf or nan and exit 0, the JSON forms to exit 2 with the JSON
    # encoder's message; both now exit 2 naming the input.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("analytic", "--config", "CFG"), "error: prediction vn = "),
            (
                ("discriminate", "--config", "CFG", "--measured", 0.0, "--sigma-meas", 1.0),
                "error: prediction vn = ",
            ),
            (
                ("discriminate", "--scenario", "hydrogen", "--hbar", 1.7e308,
                 "--measured=-1.7e308", "--sigma-meas", 1.0),
                "error: measured value ",
            ),
            (
                ("discriminate", "--scenario", "hydrogen", "--measured", 1.7e308,
                 "--measured-im", 1.7e308, "--sigma-meas", 1.0),
                "error: measured value ",
            ),
        ],
    )
    def test_exit_2_in_both_formats(self, argv, message, tmp_path, capsys):
        doc = {
            k: v if isinstance(v, float) else operator_to_json(getattr(v, "mat", v))
            for k, v in line_end_overflow("vn").items()
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "hbar": 1.0}))
        argv = [str(path) if a == "CFG" else str(a) for a in argv]
        for fmt in ("json", "csv"):
            assert main([*argv, "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(message) and len(err.splitlines()) == 1


class TestSimulate:
    def test_symmetric_vn_exact(self):
        proc = run_cli(
            "simulate",
            "--scenario",
            "hydrogen",
            "--model",
            "vn",
            "--trials",
            20000,
            "--seed",
            1,
            check_exit=0,
        )
        report = json.loads(proc.stdout)
        assert report["mean_re"] == pytest.approx(0.5)
        assert report["z"] == 0.0

    def test_objective_z_within_4(self):
        proc = run_cli(
            "simulate",
            "--scenario",
            "hydrogen",
            "--a-re",
            0.6,
            "--b-re",
            0.9,
            "--dtc",
            0.5,
            "--model",
            "objective",
            "--trials",
            50000,
            "--seed",
            3,
            check_exit=0,
        )
        report = json.loads(proc.stdout)
        assert report["stderr_re"] > 0
        assert abs(report["z"]) <= 4.0
        assert report["analytic"]["re"] == pytest.approx(
            report["mean_re"], abs=5 * report["stderr_re"]
        )

    def test_huge_hbar_scales_the_report(self, capsys):
        # M2 squares values near 1e200 here; this used to exit 2 with
        # "error: (34, 'Numerical result out of range')"
        def report(hbar):
            argv = ["simulate", "--scenario", "hydrogen", "--hbar", hbar]
            assert main([*argv, "--model", "objective", "--dtc", "0.5"]) == 0
            return json.loads(capsys.readouterr().out)

        huge, big = report("1e200"), report("1e150")
        assert huge["stderr_re"] > 0.0
        for key in ("mean_re", "stderr_re"):
            assert huge[key] == pytest.approx(big[key] * 1e50, rel=1e-12)

    def test_byte_identical_reruns(self):
        argv = (
            "simulate",
            "--scenario",
            "hydrogen",
            "--a-re",
            0.6,
            "--model",
            "objective",
            "--dtc",
            0.3,
            "--trials",
            10000,
            "--seed",
            7,
        )
        a = run_cli(*argv, check_exit=0)
        b = run_cli(*argv, check_exit=0)
        assert a.stdout == b.stdout

    def test_csv_columns(self):
        proc = run_cli(
            "simulate",
            "--scenario",
            "hydrogen",
            "--model",
            "vn",
            "--trials",
            100,
            "--seed",
            0,
            "--format",
            "csv",
            check_exit=0,
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "model,N,seed,mean_re,mean_im,stderr_re,stderr_im"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "vn"
        assert cells[1] == "100"
        assert cells[2] == "0"
        float(cells[3])  # parseable full-precision floats

    def test_exact_mean_off_target_is_strict_json(self):
        # one objective trial: zero stderr, mean off the analytic target
        proc = run_cli(
            "simulate",
            "--scenario",
            "hydrogen",
            "--a-re",
            0.6,
            "--b-re",
            0.8,
            "--dtc",
            0.5,
            "--model",
            "objective",
            "--trials",
            1,
            check_exit=0,
        )

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        report = json.loads(proc.stdout, parse_constant=reject)
        assert report["stderr_re"] == 0.0
        assert report["mean_re"] != pytest.approx(report["analytic"]["re"])
        assert report["z"] is None

    def test_model_required(self):
        run_cli("simulate", "--scenario", "hydrogen", check_exit=2)

    def test_bad_model_choice(self):
        run_cli(
            "simulate", "--scenario", "hydrogen", "--model", "magic", check_exit=2
        )

    def test_bad_trials(self):
        run_cli(
            "simulate",
            "--scenario",
            "hydrogen",
            "--model",
            "vn",
            "--trials",
            0,
            check_exit=2,
        )


class TestDiscriminate:
    BASE = ("discriminate", "--scenario", "hydrogen", "--sigma-meas", 0.001)

    def test_vn_verdict(self):
        proc = run_cli(*self.BASE, "--measured", 0.5, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["model"] == "vn"
        assert report["delta_t_c_estimate"] is None

    def test_objective_jitter_verdict(self):
        proc = run_cli(*self.BASE, "--measured", 0.375, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["model"] == "objective"
        assert report["branch"] == "jitter"
        assert report["delta_t_c_estimate"] == pytest.approx(0.5, abs=1e-9)
        assert report["prediction_vn"]["re"] == pytest.approx(0.5)
        assert report["prediction_saturated"]["re"] == pytest.approx(0.25)

    def test_saturated_verdict(self):
        proc = run_cli(*self.BASE, "--measured", 0.25, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["model"] == "objective"
        assert report["branch"] == "saturated"

    def test_inconclusive_verdict(self):
        proc = run_cli(*self.BASE, "--measured", 0.8, check_exit=0)
        assert json.loads(proc.stdout)["model"] == "inconclusive"

    def test_degenerate_scenario_exit_code(self):
        proc = run_cli(
            "discriminate",
            "--scenario",
            "hydrogen",
            "--a-re",
            1.0,
            "--measured",
            0.4,
            "--sigma-meas",
            0.001,
            check_exit=4,
        )
        assert "error" in proc.stderr

    def test_si_scale_hbar(self):
        # the degeneracy test had an absolute floor; this used to exit 4 with
        # "instantaneous and objective predictions coincide"
        proc = run_cli(
            "discriminate", "--scenario", "hydrogen", "--a-re", 0.6, "--b-re", 0.8,
            "--hbar", 1e-13, "--measured", 3e-14, "--sigma-meas", 1e-16, check_exit=0,
        )
        report = json.loads(proc.stdout)
        assert (report["model"], report["branch"]) == ("objective", "jitter")
        assert report["delta_t_c_estimate"] == pytest.approx(0.625, rel=1e-12)

    def test_huge_predictions(self):
        # |span|^2 overflows here; this used to exit 2 with
        # "error: (34, 'Numerical result out of range')"
        proc = run_cli(
            "discriminate", "--scenario", "hydrogen", "--hbar", 1e308,
            "--measured", 1e308, "--sigma-meas", 1e-3, check_exit=0,
        )
        report = json.loads(proc.stdout)
        assert (report["model"], report["residual"]) == ("inconclusive", 5e307)

    def test_csv_format(self):
        proc = run_cli(
            *self.BASE, "--measured", 0.375, "--format", "csv", check_exit=0
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "model,delta_t_c_estimate,branch,residual"
        assert lines[1].startswith("objective,")


class TestHydrogenCommand:
    def test_report(self):
        proc = run_cli("hydrogen", "--dtc", 0.5, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["prediction_vn"]["re"] == pytest.approx(0.5)
        assert report["prediction_objective"]["re"] == pytest.approx(0.375)
        assert report["degenerate"] is False
        assert report["flags"] == []

    def test_degenerate_flagged_not_fatal(self):
        proc = run_cli("hydrogen", "--a-re", 1.0, check_exit=0)
        report = json.loads(proc.stdout)
        assert report["degenerate"] is True
        assert any("|a| = 1" in f for f in report["flags"])

    def test_orthogonal_exit(self):
        run_cli("hydrogen", "--a-re", 0.0, check_exit=3)

    def test_csv(self):
        proc = run_cli("hydrogen", "--format", "csv", check_exit=0)
        assert proc.stdout.splitlines()[0] == "field,re,im"

    @pytest.mark.parametrize("hbar", ["1e-20", "1e5", "1e300"])
    def test_traces_at_extreme_hbar_match_analytic(self, hbar, capsys):
        # the observable traces scale with hbar, and so does their rounding
        def traces(*argv):
            assert main([*argv, "--hbar", hbar]) == 0
            return json.loads(capsys.readouterr().out)["traces"]

        assert traces("hydrogen") == traces("analytic", "--scenario", "hydrogen")


class TestPointerCommand:
    def test_json_report(self):
        proc = run_cli("pointer", "--g-points", 7, check_exit=0)
        report = json.loads(proc.stdout)
        assert len(report["pairs"]) == 7
        # strong-first ordering postselects a single branch: exact linearity
        assert report["slope"] == pytest.approx(0.5, abs=1e-12)
        assert report["weak_value_re"] == pytest.approx(0.5, abs=1e-12)
        g, shift = report["pairs"][0]
        assert shift == pytest.approx(0.5 * g, abs=1e-12)

    def test_weak_first_order(self):
        proc = run_cli("pointer", "--order", "weak-first", check_exit=0)
        report = json.loads(proc.stdout)
        assert report["order"] == "weak-first"
        assert report["slope"] == pytest.approx(0.5, abs=1e-12)

    def test_csv_curve(self):
        proc = run_cli("pointer", "--format", "csv", "--g-points", 5, check_exit=0)
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "g,shift"
        assert len(lines) == 6
        gs = [float(line.split(",")[0]) for line in lines[1:]]
        assert gs == sorted(gs)
        np.testing.assert_allclose(gs[0], 1e-3)

    def test_grid_validation_propagates(self):
        run_cli("pointer", "--g-min", 0.5, "--g-max", 0.9, check_exit=2)

    def test_g_points_bound(self):
        from weakprobe.cli import MAX_G_POINTS

        # a 10^8-point grid used to run for minutes before any check
        proc = run_cli("pointer", "--g-points", 100_000_000, check_exit=2, timeout=20)
        assert proc.stdout == ""
        assert f"exceeds {MAX_G_POINTS}" in proc.stderr
        run_cli("pointer", "--g-points", MAX_G_POINTS + 1, check_exit=2)
        proc = run_cli("pointer", "--g-points", MAX_G_POINTS, "--format", "csv")
        assert len(proc.stdout.splitlines()) == MAX_G_POINTS + 1

    @pytest.mark.parametrize("points", [-5, 0, 1])
    def test_g_points_below_two(self, points, tmp_path):
        # -5 failed in numpy's geomspace, 0 and 1 in the library's grid check:
        # neither message named the flag
        stderr = f"error: --g-points must be at least 2, got {points}\n"
        assert cold_command(tmp_path, "pointer", "--g-points", str(points)) == (2, stderr, False)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--g-min", "-1"),
            ("--g-min", "0"),
            ("--g-min", "nan"),
            ("--g-max", "inf"),
            ("--g-max", "-inf"),
            ("--g-max", "0"),
        ],
    )
    def test_g_bounds_finite_and_positive(self, flag, value, tmp_path):
        # -1 and inf printed numpy's RuntimeWarning before the error line, and
        # 0 failed in numpy's geomspace: neither message named the flag
        stderr = f"error: {flag} must be finite and positive, got {float(value)}\n"
        assert cold_command(tmp_path, "pointer", f"{flag}={value}") == (2, stderr, False)

    def test_descending_g_range_kept(self):
        # no order rule: a grid from g_max down to g_min fits the same slope
        proc = run_cli("pointer", "--g-min", 1e-2, "--g-max", 1e-3, "--g-points", 3, check_exit=0)
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert [g for g, _ in report["pairs"]] == [0.01, 0.0031622776601683794, 0.001]
        assert report["slope"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "order, zero", [("weak-first", ("--a-re", 0, "--a-im", 0)),
                        ("strong-first", ("--b-re", 0, "--b-im", 0))]
    )
    def test_orthogonal_selection_exit_code(self, order, zero):
        # no trial survives postselection: this used to exit 2, where every
        # other command exits 3 on orthogonal selections
        proc = run_cli("pointer", "--order", order, *zero, check_exit=3)
        assert proc.stdout == ""
        assert proc.stderr == "error: postselection probability 0.000e+00 below tolerance\n"

    def test_sigma_underflow_rejected_without_warning(self):
        # 8 sigma^2 underflows to 0 here; it used to print a RuntimeWarning
        # and fail later on a NaN postselection probability
        proc = run_cli(
            "pointer", "--sigma", 1e-300, "--g-min", 1e-310, "--g-max", 1e-305,
            check_exit=2,
        )
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: sigma = 1e-300 is out of range")
        assert "Warning" not in proc.stderr

    def test_bound_scale_underflow_rejected(self):
        # (g_max / sigma)^2 underflows to 0 here; this used to exit 2 with
        # "error: float division by zero"
        proc = run_cli(
            "pointer", "--sigma", 1e150, "--g-min", 1e-160, "--g-max", 1e-150,
            check_exit=2,
        )
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: g_max / sigma = 1e-150 / 1e+150 is out of range")

    def test_no_nan_shift_with_exit_0(self):
        # 8 sigma^2 underflows to 0 here, so the kernel exponent is 0/0; the
        # NaN probability used to pass the `den <= ZERO_TOL` guard and the
        # CSV curve printed NaN shifts with exit 0
        proc = run_cli(
            "pointer", "--sigma", 1e-300, "--g-min", 1e-310, "--g-max", 1e-305,
            "--format", "csv",
        )
        assert (proc.returncode, proc.stdout) == (2, "") or (
            proc.returncode == 0 and "nan" not in proc.stdout
        )


CSV_CASES = sorted(name for name, argv in INVOCATIONS.items() if "csv" in argv)


def assert_cell(cell: str, value) -> None:
    """A CSV cell holds the report's value: null is an empty cell."""
    if value is None:
        assert cell == ""
    elif isinstance(value, str):
        assert cell == value
    else:
        assert type(value)(cell) == value


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_is_a_projection_of_the_json_report(name, tmp_path):
    argv = INVOCATIONS[name]
    i = argv.index("--format")
    as_csv = invoke(argv, tmp_path)
    as_json = invoke(argv[:i] + argv[i + 2 :], tmp_path)
    assert as_csv["exit"] == as_json["exit"] == 0
    report = json.loads(as_json["stdout"])
    header, *rows = [line.split(",") for line in as_csv["stdout"].splitlines()]
    assert rows
    if header == ["field", "re", "im"]:
        for field, re, im in rows:
            key = field.removeprefix("trace_")
            value = report["traces"][key] if key != field else report[field]
            if not isinstance(value, dict):
                value = {"re": value, "im": 0.0}
            assert_cell(re, value["re"])
            assert_cell(im, value["im"])
    elif header == ["g", "shift"]:
        assert len(rows) == len(report["pairs"])
        for row, pair in zip(rows, report["pairs"]):
            for cell, value in zip(row, pair, strict=True):
                assert_cell(cell, value)
    else:
        (record,) = rows
        for key, cell in zip(header, record, strict=True):
            assert_cell(cell, report[key])

"""One flag set, one resolver: every command that reads the hydrogen
scenario's flags resolves the same scenario and windows from them."""

from __future__ import annotations

import json

import numpy as np
import pytest

import weakprobe.hydrogen as hydrogen
from test_scripts import load
from weakprobe.cli import main

AMPLITUDES = ("--a-re", "--a-im", "--b-re", "--b-im", "--hbar")
WINDOWS = ("--dtm", "--dtc")
DEFAULTS = dict.fromkeys(AMPLITUDES + WINDOWS, 1.0) | {
    "--a-re": 2**-0.5,
    "--a-im": 0.0,
    "--b-re": 2**-0.5,
    "--b-im": 0.0,
}

# What each config command needs beside its source.
REQUIRED = {
    "analytic": [],
    "discriminate": ["--measured", "0.4", "--sigma-meas", "0.01"],
    "simulate": ["--model", "objective", "--trials", "100"],
}


def random_flags(seed: int) -> dict[str, float]:
    """About half of the seven flags, at values that keep ``0 < |a|, |b| < 1``;
    seed 0 gives none."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        return {}
    values = {f: rng.choice([-1, 1]) * rng.uniform(0.1, 0.7) for f in AMPLITUDES[:4]}
    values |= {"--hbar": 2.0 ** rng.integers(-20, 7)}  # pointer: g_max hbar <= sigma
    values |= {f: rng.uniform(0.1, 2.0) for f in WINDOWS}
    return {f: float(v) for f, v in values.items() if rng.random() < 0.5}


def argv(flags: dict[str, float]) -> list[str]:
    return [s for flag, v in flags.items() for s in (flag, repr(v))]


@pytest.mark.parametrize("seed", range(12))
def test_every_command_resolves_one_scenario(seed, monkeypatch, capsys, tmp_path):
    flags = random_flags(seed)
    v = DEFAULTS | flags
    a, b = complex(v["--a-re"], v["--a-im"]), complex(v["--b-re"], v["--b-im"])
    scenario = (a, b, v["--hbar"])
    windows = (v["--dtm"], v["--dtc"])

    # Every HydrogenScenario and build_hydrogen call a command makes, seen
    # through the module the CLI and the script import them from.
    built, calls = [], []

    class Spy(hydrogen.HydrogenScenario):
        def __post_init__(self):
            built.append((self.a, self.b, self.hbar))
            super().__post_init__()

    def build(a, b, hbar=1.0, delta_t_m=1.0, delta_t_c=1.0, real=hydrogen.build_hydrogen):
        calls.append((delta_t_m, delta_t_c))
        return real(a, b, hbar, delta_t_m, delta_t_c)

    monkeypatch.setattr(hydrogen, "HydrogenScenario", Spy)
    monkeypatch.setattr(hydrogen, "build_hydrogen", build)

    def resolved(run, given: dict, *command: str) -> tuple[set, list]:
        built.clear()
        calls.clear()
        assert run([*command, *argv(given)]) == 0
        return set(built), calls[:]

    emitted = tmp_path / "cfg.json"
    source = ("--scenario", "hydrogen")
    got = resolved(main, flags, "analytic", *source, "--emit-config", str(emitted))
    assert got == ({scenario}, [windows])
    analytic = json.loads(capsys.readouterr().out)
    assert (analytic["delta_t_m"], analytic["delta_t_c"]) == windows
    for command in ("discriminate", "simulate"):
        got = resolved(main, flags, command, *source, *REQUIRED[command])
        assert got == ({scenario}, [windows]), command
    capsys.readouterr()
    # hydrogen prints what analytic prints for the same flags, bit for bit
    assert resolved(main, flags, "hydrogen") == ({scenario}, [windows])
    report = json.loads(capsys.readouterr().out)
    assert (report["delta_t_m"], report["delta_t_c"]) == windows
    for key in ("prediction_vn", "prediction_objective", "traces"):
        assert json.dumps(report[key]) == json.dumps(analytic[key]), key
    # pointer takes no window flags
    amplitude_flags = {f: x for f, x in flags.items() if f in AMPLITUDES}
    assert resolved(main, amplitude_flags, "pointer") == ({scenario}, [])
    script = load("mc_convergence").main
    assert resolved(script, flags, "--trials", "100") == ({scenario}, [windows])
    capsys.readouterr()

    # an amplitude flag beside --config exits 2 and names the first one given
    for command, extra in REQUIRED.items():
        code = main([command, "--config", str(emitted), *extra, *argv(flags)])
        out, err = capsys.readouterr()
        if amplitude_flags:
            assert (code, out) == (2, "")
            first = next(iter(amplitude_flags))  # in the order of AMPLITUDES
            assert err == f"error: {first} sets the hydrogen scenario; it cannot go with --config\n"
        else:
            assert (code, err) == (0, "")

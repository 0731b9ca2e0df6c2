"""Seeded input generator for the four workloads.

Everything here is plain numpy and json: the generator never calls
weakprobe, so the expected answers it attaches to each problem (model
predictions from the six traces, known-answer verdicts, closed forms of
the qubit scenario) are computed independently of the code under test.
The same ``(workload, seed)`` always yields the same inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("mc-large", "verdict-sweep", "crosscheck", "cli-cold")

VERDICT_PROBLEMS = 3000
CROSSCHECK_PROBLEMS = 24
MC_TRIALS = 10**7
CLI_TRIALS = 100_000
GENERIC_DIMS = (2, 3, 4, 8)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# -- operators ---------------------------------------------------------------


def _ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _pure(v):
    return np.outer(v, v.conj())


def _mixed(rng, d):
    # The 0.1 floor keeps every eigenvalue clearly positive, so validation
    # passes the matrix through unchanged and a JSON round trip is exact.
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + 0.1 * np.eye(d)
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def operator_doc(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _tr(m) -> complex:
    return complex(np.trace(m))


def predictions(rho_in, rho_fin, proj, obs) -> tuple[complex, complex]:
    """Instantaneous-model and saturated objective values from the traces."""
    w1 = _tr(proj @ obs @ rho_in) / _tr(proj @ rho_in)
    w3 = _tr(rho_fin @ obs @ proj) / _tr(rho_fin @ proj)
    return (w1 + w3) / 2.0, (_tr(obs @ rho_in) + _tr(obs @ proj)) / 2.0


# -- known-answer verdicts -------------------------------------------------------


def _windows(rng):
    dtm = float(rng.uniform(0.2, 2.0))
    ratio = float(rng.uniform(0.05, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 3.0))
    return dtm, ratio * dtm


def known_answer(rng, v_vn: complex, v_sat: complex, dtm: float, dtc: float) -> dict:
    """A measurement whose verdict is known before ``discriminate`` runs.

    Most measurements sit on the objective curve at the problem's own
    ``dtc`` (a ``jitter`` verdict with ``dtc`` as the estimate below the
    branch point, ``saturated`` above it); the rest sit next to the
    instantaneous prediction or well off the line.
    """
    span = v_sat - v_vn
    u = span / abs(span)
    sigma = float(abs(span) * 10 ** rng.uniform(-4, -2))
    perp = 0.3 * sigma * 1j * u
    roll = rng.random()
    if roll < 0.7 and dtc < dtm:
        x = dtc / dtm
        measured = (1 - x) * v_vn + x * v_sat + perp
        expect = ["objective", "jitter", dtc]
    elif roll < 0.7:
        measured = v_sat + 0.5 * sigma * u + perp
        expect = ["objective", "saturated", None]
    elif roll < 0.85:
        measured = v_vn + 0.5 * sigma * np.exp(1j * rng.uniform(0, 2 * np.pi))
        expect = ["vn", None, None]
    else:
        measured = v_vn + 0.5 * span + 10 * sigma * 1j * u
        expect = ["inconclusive", None, None]
    return {"measured": complex(measured), "sigma": sigma, "expect": expect}


# -- problems ----------------------------------------------------------------------


def _amplitude(rng, lo, hi):
    return complex(math.sqrt(rng.uniform(lo, hi)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def qubit_states(a: complex, b: complex):
    psi_in = np.array([a, math.sqrt(max(0.0, 1 - abs(a) ** 2))], dtype=complex)
    psi_fin = np.array([b, math.sqrt(max(0.0, 1 - abs(b) ** 2))], dtype=complex)
    return psi_in, psi_fin


def qubit_problem(rng, degenerate: bool = False) -> dict:
    """The hydrogen scenario with complex ``a`` and ``b``.

    Closed forms: ``vn = hbar/2``, saturated objective ``hbar |a|^2 / 2``.
    ``|a| = 1`` makes the two coincide, so the expected verdict is
    ``degenerate``.
    """
    a = complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) if degenerate else _amplitude(rng, 0.05, 0.95)
    b = _amplitude(rng, 0.04, 1.0)
    hbar = float(rng.uniform(0.5, 3.0))
    dtm, dtc = _windows(rng)
    v_vn, v_sat = complex(hbar / 2), complex(hbar * abs(a) ** 2 / 2)
    prob = {"kind": "qubit", "a": a, "b": b, "hbar": hbar, "dtm": dtm, "dtc": dtc}
    prob.update(v_vn=v_vn, v_sat=v_sat)
    if degenerate:
        prob.update(measured=complex(hbar / 2), sigma=1e-3, expect=["degenerate", None, None])
    else:
        prob.update(known_answer(rng, v_vn, v_sat, dtm, dtc))
    return prob


def generic_problem(rng, kind: str, d: int | None = None) -> dict:
    """A random configuration on ``d`` in {2, 3, 4, 8} (drawn when not given).

    ``kind="matrix"`` hands over raw matrices (some states pure, which
    exercises the positivity repair); ``kind="json"`` hands over a JSON
    document with full-rank states.  Selection overlaps stay >= 0.05 and
    the two model predictions stay apart, so every verdict is decidable.
    """
    if d is None:
        d = int(rng.choice(GENERIC_DIMS))
    while True:
        pure = kind == "matrix" and rng.random() < 0.5
        rho_in = _pure(_ket(rng, d)) if pure else _mixed(rng, d)
        rho_fin = _mixed(rng, d)
        proj = _pure(_ket(rng, d))
        obs = _hermitian(rng, d)
        if min(_tr(proj @ rho_in).real, _tr(proj @ rho_fin).real) < 0.05:
            continue
        v_vn, v_sat = predictions(rho_in, rho_fin, proj, obs)
        if abs(v_sat - v_vn) >= 1e-2:
            break
    hbar = float(rng.uniform(0.5, 2.0))
    dtm, dtc = _windows(rng)
    prob = {"kind": kind, "dim": d, "hbar": hbar, "dtm": dtm, "dtc": dtc}
    if kind == "matrix":
        prob.update(rho_in=rho_in, rho_fin=rho_fin, proj=proj, obs=obs)
    else:
        doc = {
            "rho_in": operator_doc(rho_in),
            "rho_fin": operator_doc(rho_fin),
            "strong_projector": operator_doc(proj),
            "weak_observable": operator_doc(obs),
            "delta_t_m": dtm,
            "delta_t_c": dtc,
            "hbar": hbar,
        }
        prob["text"] = json.dumps(doc)
    prob.update(v_vn=v_vn, v_sat=v_sat)
    prob.update(known_answer(rng, v_vn, v_sat, dtm, dtc))
    return prob


def verdict_problems(rng, n: int) -> list[dict]:
    """Half qubit points (one in twenty degenerate), half generic configs,
    the generic half split evenly between matrices and JSON."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(qubit_problem(rng, degenerate=rng.random() < 0.05))
        else:
            out.append(generic_problem(rng, "matrix" if i % 4 == 1 else "json"))
    return out


def crosscheck_problems(rng, n: int) -> list[dict]:
    """Non-degenerate problems plus the inputs of each independent route.

    Problem ``i`` carries a small Monte Carlo spec from a fixed ladder of
    trial counts, log-spaced from 2^10 to 2^13, with models alternating in
    pairs so that qubit and generic problems see both.  The last problem
    runs 2^16 + 2^12 trials, which crosses the chunk boundary.  Small
    counts keep per-call overhead, not per-trial work, the larger part of
    the cost.  Only the configs and Monte Carlo seeds depend on the seed,
    so every seed costs about the same.  Qubit problems also carry a
    pointer grid that keeps ``g * spread <= 1e-2 sigma``, with pre/post
    overlap >= 0.3.

    Two in three problems are qubits.  Their pointer fit makes them the
    slower kind, so the median operation falls inside that group rather
    than in the gap between the two kinds.
    """
    counts = [int(round(2 ** (10 + 3 * k / (n - 2)))) for k in range(n - 1)] + [2**16 + 2**12]
    ladder = [("vn" if (k // 2) % 2 else "objective", count) for k, count in enumerate(counts)]
    out = []
    for i in range(n):
        if i % 3 != 2:
            while True:
                prob = qubit_problem(rng)
                psi_in, psi_fin = qubit_states(prob["a"], prob["b"])
                if abs(np.vdot(psi_fin, psi_in)) >= 0.3:
                    break
            sigma = float(rng.uniform(0.5, 2.0))
            g_max = 1e-2 * sigma / prob["hbar"]
            prob.update(psi_in=psi_in, psi_fin=psi_fin, ptr_sigma=sigma, g_grid=np.geomspace(g_max / 10, g_max, 13))
        else:
            # Dimensions cycle so that every seed has the same costs and
            # memory peaks; the last, largest Monte Carlo run gets d = 8.
            prob = generic_problem(rng, "matrix" if i % 6 == 2 else "json", GENERIC_DIMS[(i // 3) % 4])
        d = prob.get("dim", 2)
        prob["t_frac"] = float(rng.uniform(0.0, 1.0))
        prob["op_a"] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        prob["op_b"] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        model, trials = ladder[i]
        prob["mc"] = (model, trials, int(rng.integers(2**63)))
        out.append(prob)
    return out


def mc_problem(rng) -> dict:
    """The hydrogen scenario at ``dtc = dtm / 2``, so objective trials fall
    before, inside and after the collapse window."""
    a = _amplitude(rng, 0.1, 0.9)
    b = _amplitude(rng, 0.1, 1.0)
    hbar = float(rng.uniform(0.5, 2.0))
    dtm = float(rng.uniform(0.5, 2.0))
    seeds = [int(s) for s in rng.integers(2**63, size=3)]
    checkpoints = sorted({int(round(c)) for c in np.geomspace(1e3, MC_TRIALS, 9)})
    return {"a": a, "b": b, "hbar": hbar, "dtm": dtm, "dtc": dtm / 2, "seeds": seeds, "checkpoints": checkpoints}


# -- CLI invocations -----------------------------------------------------------------


# Non-finite input, for which the README documents exit 2 (bad
# configuration).  At the seed commit both exit 0 with NaN output.  Each
# run makes them once, outside the timed operations, and reports how many
# still fail; they are kept out of ``attempted`` and ``failed`` so that a
# workload's operations all succeed.
KNOWN_DEFECT_PROBES = (
    {"argv": ["discriminate", "--scenario", "hydrogen", "--measured", "nan", "--sigma-meas", "0.01"], "exit": 2},
    {"argv": ["analytic", "--scenario", "hydrogen", "--dtc", "inf"], "exit": 2},
)


def _opt(name: str, value: float) -> str:
    # One token, so argparse reads a negative value in exponent notation
    # as a value, not as an option.
    return f"--{name}={value!r}"


def _amp_args(a: complex, b: complex, hbar: float) -> list[str]:
    return [_opt("a-re", a.real), _opt("a-im", a.imag), _opt("b-re", b.real), _opt("b-im", b.imag),
            _opt("hbar", hbar)]


def cli_invocations(rng) -> tuple[list[dict], dict[str, str]]:
    """Cold ``python -m weakprobe`` calls over all five subcommands.

    Returns the invocations and the config files they read.  Each
    invocation carries its documented exit code and what its output must
    show.  Four take the documented error exits 2, 3 and 4.
    """
    files = {}
    cfgs = []
    for name in ("cfg_a.json", "cfg_b.json"):
        prob = generic_problem(rng, "json")
        files[name] = prob["text"]
        cfgs.append((name, prob))
    q = [qubit_problem(rng) for _ in range(6)]

    def scen(p, *extra):
        return ["--scenario", "hydrogen", *hyd(p), *extra]

    def hyd(p):
        return [*_amp_args(p["a"], p["b"], p["hbar"]), _opt("dtm", p["dtm"]), _opt("dtc", p["dtc"])]

    def measure(p):
        m = p["measured"]
        return [_opt("measured", m.real), _opt("measured-im", m.imag), _opt("sigma-meas", p["sigma"])]

    seeds = [str(int(s)) for s in rng.integers(2**31, size=3)]
    ca, cb = cfgs
    sigma_ptr = float(rng.uniform(0.5, 2.0))
    inv = [
        {"argv": ["analytic", *scen(q[0])], "check": {"predictions": q[0]}},
        {"argv": ["analytic", *scen(q[1]), "--format", "csv"]},
        {"argv": ["analytic", "--config", ca[0]], "check": {"predictions": ca[1]}},
        {"argv": ["analytic", "--config", cb[0], "--format", "csv", "--emit-config", "emit_b.json"],
         "emits": "emit_b.json", "same_doc": cb[0]},
        {"argv": ["analytic", *scen(q[2]), "--emit-config", "emit_q.json"], "emits": "emit_q.json",
         "check": {"predictions": q[2]}},
        {"argv": ["simulate", *scen(q[0]), "--model", "objective", "--trials", str(CLI_TRIALS),
                  "--seed", seeds[0]], "check": {"z": True}},
        {"argv": ["simulate", *scen(q[3]), "--model", "vn", "--trials", str(CLI_TRIALS),
                  "--seed", seeds[1], "--format", "csv"]},
        {"argv": ["simulate", "--config", ca[0], "--model", "objective", "--trials", str(CLI_TRIALS),
                  "--seed", seeds[2]], "check": {"z": True}},
        {"argv": ["discriminate", *scen(q[4]), *measure(q[4])], "check": {"verdict": q[4]}},
        {"argv": ["discriminate", *scen(q[5]), *measure(q[5]), "--format", "csv"]},
        {"argv": ["discriminate", "--config", ca[0], *measure(ca[1])], "check": {"verdict": ca[1]}},
        {"argv": ["hydrogen", *hyd(q[1])], "check": {"hydrogen": q[1]}},
        {"argv": ["hydrogen", *hyd(q[2]), "--format", "csv"]},
        {"argv": ["pointer", *_amp_args(q[3]["a"], q[3]["b"], q[3]["hbar"]), "--order", "strong-first",
                  _opt("sigma", sigma_ptr)], "check": {"pointer": q[3]}},
        {"argv": ["pointer", *_amp_args(q[4]["a"], q[4]["b"], 1.0), "--order", "weak-first"],
         "check": {"pointer": {**q[4], "hbar": 1.0}}},
        {"argv": ["pointer", "--g-points", "9", "--format", "csv"]},
        {"argv": ["analytic", "--config", "missing.json"], "exit": 2},
        {"argv": ["simulate", "--scenario", "hydrogen"], "exit": 2},
        {"argv": ["analytic", "--scenario", "hydrogen", "--a-re", "0", "--a-im", "0"], "exit": 3},
        {"argv": ["discriminate", "--scenario", "hydrogen", "--a-re", "1", "--a-im", "0",
                  "--measured", "0.3", "--sigma-meas", "0.01"], "exit": 4},
    ]
    for item in inv:
        item.setdefault("exit", 0)
    return inv, files


def generate(workload: str, seed: int, first_only: bool = False) -> dict:
    """The workload's inputs; ``first_only`` stops after the first problem,
    which is the same problem either way."""
    rng = rng_for(workload, seed)
    if workload == "mc-large":
        return {"mc": mc_problem(rng)}
    if workload == "verdict-sweep":
        return {"problems": verdict_problems(rng, 1 if first_only else VERDICT_PROBLEMS)}
    if workload == "crosscheck":
        return {"problems": crosscheck_problems(rng, CROSSCHECK_PROBLEMS)[: 1 if first_only else None]}
    if workload == "cli-cold":
        inv, files = cli_invocations(rng)
        return {"invocations": inv, "files": files, "probes": list(KNOWN_DEFECT_PROBES)}
    raise ValueError(f"unknown workload {workload!r}")

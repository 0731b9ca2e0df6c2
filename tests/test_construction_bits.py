"""Bit-exact oracles for the construction path.

``ProtocolConfig`` takes its six traces from two stacked products, and
``validate_density`` returns an unclipped state without the repair
arithmetic.  ``config_from_json`` decodes its four operators as one stack
and validates both states with one ``eigh``.  ``spectral_decompose`` takes
one adjoint and reads its eigenvalues as Python floats.  Each must give exactly the
bits, and the errors, of the plain code it replaced, which is copied here
as test-local oracles: every comparison is ``==``, ``np.array_equal`` or a
byte comparison, never a tolerance.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from conftest import random_hermitian, random_ket, spin_config
from weakprobe import (
    DensityOperator,
    HydrogenScenario,
    Projector,
    ProtocolConfig,
    build_hydrogen,
    config_from_json,
    config_to_json,
    operator_to_json,
    spectral_decompose,
    validate_density,
)
from weakprobe.errors import (
    HermiticityViolation,
    NegativeEigenvalue,
    TraceViolation,
)
from weakprobe.operators import (
    DEGENERACY_TOL,
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    _check_hermitian,
    _max_abs,
    _trusted,
    _validate_states,
    as_operator,
    dagger,
)
from weakprobe.serialization import _stack_from_json

DIMS = [2, 3, 4, 5, 8, 16]


def hermiticity_defect(a) -> float:
    """Max-norm distance between ``a`` and its adjoint; NaN or inf for a
    non-finite entry, which ``_check_hermitian`` rejects."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore", over="ignore"):
        return _max_abs(a - a.conj().T)


def oracle_traces(cfg: ProtocolConfig) -> tuple[complex, ...]:
    """The six traces as single ``np.trace`` products, in field order."""
    p, rin, rfin = cfg.strong_projector.mat, cfg.rho_in.mat, cfg.rho_fin.mat
    obs = cfg.weak_observable
    return (
        complex(np.trace(p @ obs @ rin)),
        complex(np.trace(p @ rin)),
        complex(np.trace(rfin @ obs @ p)),
        complex(np.trace(rfin @ p)),
        complex(np.trace(obs @ rin)),
        complex(np.trace(obs @ p)),
    )


def oracle_validate_density(m) -> tuple[np.ndarray, float]:
    """The eigendecomposition, clip and repair of ``validate_density``, with
    no early return; gives the state's matrix and ``psd_adjustment``."""
    m = as_operator(m)
    _check_hermitian(hermiticity_defect(m), "matrix")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise TraceViolation("trace differs from 1", abs(tr - 1.0))
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    if not w[0] >= -PSD_TOL:
        raise NegativeEigenvalue("negative eigenvalue", abs(float(w[0])))
    clipped = np.clip(w, 0.0, None)
    adjustment = float(np.sum(clipped - w))
    if adjustment > 0.0:
        repaired = (v * clipped) @ dagger(v)
        return repaired / np.trace(repaired).real, adjustment
    return m, 0.0


def assert_traces_exact(cfg: ProtocolConfig) -> None:
    t = cfg.traces
    got = (t.proj_obs_in, t.proj_in, t.fin_obs_proj, t.fin_proj, t.obs_in, t.obs_proj)
    assert got == oracle_traces(cfg)
    assert all(type(v) is complex for v in got)


def assert_state_exact(m) -> DensityOperator:
    state = validate_density(m)
    mat, adjustment = oracle_validate_density(m)
    assert np.array_equal(state.mat, mat)
    assert state.psd_adjustment == adjustment
    return state


def random_mixed(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def pure(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


@pytest.mark.parametrize("d", DIMS)
class TestTracesBitExact:
    def test_mixed_states(self, d):
        rng = np.random.default_rng(700 + d)
        for _ in range(40):
            cfg = ProtocolConfig(
                rho_in=DensityOperator(random_mixed(rng, d)),
                rho_fin=DensityOperator(random_mixed(rng, d)),
                strong_projector=Projector.onto(random_ket(rng, d)),
                weak_observable=random_hermitian(rng, d) * 10.0 ** rng.uniform(-6, 6),
                delta_t_m=1.0,
                delta_t_c=0.5,
            )
            assert_traces_exact(cfg)

    def test_pure_states(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(40):
            cfg = ProtocolConfig(
                rho_in=DensityOperator.pure(random_ket(rng, d)),
                rho_fin=DensityOperator.pure(random_ket(rng, d)),
                strong_projector=Projector.onto(random_ket(rng, d)),
                weak_observable=random_hermitian(rng, d),
                delta_t_m=2.0,
                delta_t_c=0.25,
            )
            assert_traces_exact(cfg)


@pytest.mark.parametrize(
    "a, b, hbar",
    [
        (2**-0.5, 2**-0.5, 1.0),
        (0.6 + 0.3j, 0.5 - 0.2j, 2.0),
        (1.0, 0.3, 0.5),
        (1e-3, 1j, 7.0),
    ],
)
def test_hydrogen_traces_bit_exact(a, b, hbar):
    assert_traces_exact(build_hydrogen(a, b, hbar, 1.0, 0.5))
    sc = HydrogenScenario(complex(a), complex(b), hbar)
    assert_state_exact(pure(sc.psi_in))
    assert_state_exact(pure(sc.psi_fin))


@pytest.mark.parametrize("d", DIMS)
class TestValidateDensityBitExact:
    def test_mixed_states(self, d):
        rng = np.random.default_rng(900 + d)
        for _ in range(40):
            assert assert_state_exact(random_mixed(rng, d)).psd_adjustment == 0.0

    def test_pure_states(self, d):
        # A pure state's d - 1 zero eigenvalues come out of eigh as +-1e-17:
        # one negative takes the repair branch, all nonnegative return as given.
        rng = np.random.default_rng(1000 + d)
        adjustments = [
            assert_state_exact(pure(random_ket(rng, d))).psd_adjustment
            for _ in range(60)
        ]
        assert any(x > 0.0 for x in adjustments)
        if d == 2:  # at d = 2 a single sign decides, so both branches are hit
            assert any(x == 0.0 for x in adjustments)

    def test_exact_zero_eigenvalue(self, d):
        diag = np.zeros(d)
        diag[1:] = 1.0 / (d - 1)
        assert assert_state_exact(np.diag(diag)).psd_adjustment == 0.0
        assert assert_state_exact(pure(np.eye(d)[d - 1])).psd_adjustment == 0.0


# -- the one-pass JSON construction ------------------------------------------

OPERATOR_KEYS = ("rho_in", "rho_fin", "strong_projector", "weak_observable")
SCALAR_KEYS = ("delta_t_m", "delta_t_c", "hbar")


def parent_matrix_from_json(obj, what: str) -> np.ndarray:
    """The per-operator decode that the stacked one replaced, with one change
    made on purpose: a bool ``dim`` is rejected (``type(d) is int``)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = {"dim", "re", "im"} - obj.keys()
    if missing:
        raise ValueError(f"{what}: missing keys {sorted(missing)}")
    d = obj["dim"]
    if not (type(d) is int and d >= 1):
        raise ValueError(f"{what}: dim must be a positive integer, got {d!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(
            f"{what}: re/im shapes {re.shape}/{im.shape} do not match dim {d}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{what}: entries must be finite")
    return re + 1j * im


def parent_validate_density(m) -> tuple[np.ndarray, float, bool]:
    """The one-matrix ``validate_density`` that the stacked check replaced:
    the state's matrix, its ``psd_adjustment`` and whether it was repaired."""
    m = as_operator(m)
    adj = dagger(m)
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.abs(m - adj).max()) if m.size else 0.0
        tr = complex(np.trace(m))
        herm = (m + adj) / 2
    if not defect <= HERM_TOL:
        raise HermiticityViolation("matrix is non-finite or not Hermitian", defect)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise TraceViolation("trace differs from 1", abs(tr - 1.0))
    w, v = np.linalg.eigh(herm)
    if not w[0] >= -PSD_TOL:
        if np.isnan(w[0]):
            w = np.linalg.eigvalsh(m / 2 + adj / 2)
        raise NegativeEigenvalue("negative eigenvalue", abs(float(w[0])))
    if w[0] >= 0.0:
        return m, 0.0, False
    clipped = np.clip(w, 0.0, None)
    repaired = (v * clipped) @ dagger(v)
    repaired = repaired / np.trace(repaired).real
    return repaired, float(np.sum(clipped - w)), True


def parent_config_from_json(obj) -> ProtocolConfig:
    """``config_from_json`` as it was: four decodes, then the scalars, then
    ``rho_in``, ``rho_fin``, the projector and ``ProtocolConfig``."""
    if not isinstance(obj, dict):
        raise ValueError(f"config: expected an object, got {type(obj).__name__}")
    missing = set(OPERATOR_KEYS + SCALAR_KEYS) - obj.keys()
    if missing:
        raise ValueError(f"config: missing keys {sorted(missing)}")
    mats = {k: parent_matrix_from_json(obj[k], k) for k in OPERATOR_KEYS}
    scalars = {}
    for k in SCALAR_KEYS:
        v = obj[k]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"config: {k} must be a number, got {v!r}")
        scalars[k] = float(v)
    states = [
        _trusted(DensityOperator, mat, psd_adjustment=adjustment)
        for mat, adjustment, _ in (parent_validate_density(mats[k]) for k in OPERATOR_KEYS[:2])
    ]
    return ProtocolConfig(
        *states, Projector.from_matrix(mats["strong_projector"]), mats["weak_observable"], **scalars
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: ``-0.0`` and ``0.0`` differ here."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_mixed_pure(rng: np.random.Generator, d: int, pure_state: bool) -> np.ndarray:
    return pure(random_ket(rng, d)) if pure_state else random_mixed(rng, d)


def random_doc(rng: np.random.Generator, d: int, pure_in: bool, pure_fin: bool) -> dict:
    """A valid config document that has been through ``json`` text, so its
    numbers are the shortest-repr floats a file holds."""
    while True:
        rho_in = random_mixed_pure(rng, d, pure_in)
        rho_fin = random_mixed_pure(rng, d, pure_fin)
        proj = pure(random_ket(rng, d))
        if min(np.trace(proj @ rho_in).real, np.trace(proj @ rho_fin).real) > 1e-3:
            break
    obs = random_hermitian(rng, d)
    obs[0, 0] = -0.0  # a signed zero, whose bit the decode must keep
    doc = {
        "rho_in": operator_to_json(rho_in),
        "rho_fin": operator_to_json(rho_fin),
        "strong_projector": operator_to_json(proj),
        "weak_observable": operator_to_json(obs),
        "delta_t_m": 1.0,
        "delta_t_c": 0.5,
        "hbar": 1.0,
    }
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("d", DIMS)
class TestOnePassConstructionBitExact:
    def test_stacked_decode_is_four_decodes(self, d):
        rng = np.random.default_rng(1100 + d)
        for i in range(20):
            doc = random_doc(rng, d, i % 2 == 0, i % 3 == 0)
            want = np.array([parent_matrix_from_json(doc[k], k) for k in OPERATOR_KEYS])
            assert same_bits(_stack_from_json(doc), want)

    @pytest.mark.parametrize("kinds", [(False, False), (True, True), (True, False), (False, True)])
    def test_paired_validation_is_two_validations(self, d, kinds):
        # Pure states take the repair branch whenever eigh gives one of their
        # zero eigenvalues as -1e-17; the unrepaired state is a view of the stack.
        rng = np.random.default_rng(1200 + d)
        repaired = []
        for _ in range(30):
            stack = np.array([random_mixed_pure(rng, d, k) for k in kinds])
            want = [parent_validate_density(m) for m in stack]
            got = _validate_states(stack.copy())
            for state, (mat, adjustment, was_repaired) in zip(got, want):
                assert same_bits(state.mat, mat)
                assert state.psd_adjustment == adjustment
                assert (state.mat.base is None) == was_repaired
                repaired.append(was_repaired)
        if any(kinds):
            assert any(repaired)
        if not all(kinds):
            assert not all(repaired)

    def test_config_from_json_is_the_parent_route(self, d):
        rng = np.random.default_rng(1300 + d)
        for i in range(20):
            doc = random_doc(rng, d, i % 2 == 0, i % 4 < 2)
            got, want = config_from_json(doc), parent_config_from_json(doc)
            for g, w in (
                (got.rho_in, want.rho_in),
                (got.rho_fin, want.rho_fin),
                (got.strong_projector, want.strong_projector),
            ):
                assert same_bits(g.mat, w.mat)
            assert got.rho_in.psd_adjustment == want.rho_in.psd_adjustment
            assert got.rho_fin.psd_adjustment == want.rho_fin.psd_adjustment
            assert same_bits(got.weak_observable, want.weak_observable)
            assert got.traces == want.traces


def test_single_validation_is_the_parent_code():
    rng = np.random.default_rng(1400)
    for d in DIMS:
        for k in (False, True) * 10:
            m = random_mixed_pure(rng, d, k)
            mat, adjustment, _ = parent_validate_density(m)
            state = validate_density(m)
            assert same_bits(state.mat, mat)
            assert state.psd_adjustment == adjustment


def _base_doc() -> dict:
    return json.loads(json.dumps(config_to_json(spin_config(a=0.6, b=0.8))))


def _with(**changes):
    """The base document with ``changes``; ``"key.field"`` sets a field of an
    operator, and a value of ``...`` deletes the key."""

    def make():
        doc = _base_doc()
        for path, value in changes.items():
            *outer, last = path.split(".")
            target = doc[outer[0]] if outer else doc
            if value is ...:
                del target[last]
            else:
                target[last] = value
        return doc

    return make


STATE3 = {"dim": 3, "re": [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.25]], "im": [[0] * 3] * 3}
BIG = [[0.5, 1e308], [1e308, 0.5]]
ZERO2 = [[0.0, 0.0], [0.0, 0.0]]

# Malformed documents: each must fail as the parent code failed.
MALFORMED = {
    "not an object": lambda: [1, 2],
    "missing scalar": _with(hbar=...),
    "missing operator": _with(rho_fin=...),
    "operator missing im": _with(**{"weak_observable.im": ...}),
    "operator not an object": _with(strong_projector=[[1.0, 0.0], [0.0, 0.0]]),
    "operator is a string": _with(rho_in="rho"),
    "dim zero": _with(**{"rho_in.dim": 0}),
    "dim negative": _with(**{"rho_fin.dim": -2}),
    "dim string": _with(**{"strong_projector.dim": "2"}),
    "dim float": _with(**{"weak_observable.dim": 2.0}),
    "dim null": _with(**{"rho_fin.dim": None}),
    "dim true on 2x2": _with(**{"rho_fin.dim": True}),
    "dim true on 1x1": lambda: {
        **dict.fromkeys(OPERATOR_KEYS, {"dim": True, "re": [[1.0]], "im": [[0.0]]}),
        "delta_t_m": 1.0,
        "delta_t_c": 0.5,
        "hbar": 1.0,
    },
    "dim larger than re": _with(**{"weak_observable.dim": 3}),
    "dims differ": _with(rho_in=STATE3),
    "dims differ, rho_fin bad trace": _with(
        rho_in=STATE3, **{"rho_fin.re": [[2.0, 0.0], [0.0, 0.0]]}
    ),
    "dims differ, bad scalar": _with(rho_in=STATE3, delta_t_c="0.5"),
    "ragged re": _with(**{"weak_observable.re": [[1.0, 0.0], [0.0]]}),
    "mis-shaped re": _with(**{"rho_in.re": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}),
    "mis-shaped im": _with(**{"rho_fin.im": [0.0, 0.0]}),
    "scalar re": _with(**{"strong_projector.re": 1.0}),
    "NaN entry": _with(**{"rho_in.re": [[float("nan"), 0.0], [0.0, 0.5]]}),
    "Infinity entry": _with(**{"strong_projector.im": [[0.0, float("inf")], [0.0, 0.0]]}),
    "-Infinity entry": _with(**{"weak_observable.re": [[float("-inf"), 0.0], [0.0, 1.0]]}),
    "NaN in a later operator than a bad state": _with(
        **{"rho_in.re": [[2.0, 0.0], [0.0, 0.0]], "rho_fin.re": [[float("nan"), 0], [0, 1]]}
    ),
    "string entry": _with(**{"rho_fin.re": [["abc", 0.0], [0.0, 0.5]]}),
    "null entry": _with(**{"rho_fin.im": [[None, 0.0], [0.0, 0.0]]}),
    "int entry beyond float": _with(**{"rho_in.re": [[10**400, 0], [0, 0]]}),
    "1e308 in rho_in": _with(**{"rho_in.re": BIG, "rho_in.im": ZERO2}),
    "1e308 in rho_fin": _with(**{"rho_fin.re": BIG, "rho_fin.im": ZERO2}),
    "1e308j in rho_fin": _with(
        **{"rho_fin.re": [[0.5, 0.0], [0.0, 0.5]], "rho_fin.im": [[0.0, 1e308], [-1e308, 0.0]]}
    ),
    "1e308 in rho_in, rho_fin not Hermitian": _with(
        **{"rho_in.re": BIG, "rho_in.im": ZERO2, "rho_fin.im": [[0.0, 0.5], [0.5, 0.0]]}
    ),
    "rho_in not Hermitian": _with(**{"rho_in.im": [[0.0, 0.1], [0.1, 0.0]]}),
    "rho_in bad trace": _with(**{"rho_in.re": [[0.9, 0.0], [0.0, 0.9]], "rho_in.im": ZERO2}),
    "rho_in negative, rho_fin not Hermitian": _with(
        **{
            "rho_in.re": [[1.5, 0.0], [0.0, -0.5]],
            "rho_in.im": ZERO2,
            "rho_fin.im": [[0.0, 0.5], [0.5, 0.0]],
        }
    ),
    "rho_fin negative": _with(**{"rho_fin.re": [[1.5, 0.0], [0.0, -0.5]], "rho_fin.im": ZERO2}),
    "bad scalar and bad state": _with(hbar="1", **{"rho_in.im": [[0.0, 0.1], [0.1, 0.0]]}),
    "bool scalar": _with(delta_t_m=True),
    "projector not idempotent": _with(**{"strong_projector.re": [[0.5, 0.0], [0.0, 0.0]]}),
    "observable not Hermitian": _with(**{"weak_observable.im": [[1.0, 0.0], [0.0, 0.0]]}),
    "orthogonal postselection": _with(
        **{"rho_in.re": [[0.0, 0.0], [0.0, 1.0]], "rho_in.im": ZERO2}
    ),
}


def _outcome(parse, doc):
    try:
        parse(doc)
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_fails_as_before(case):
    want = _outcome(parent_config_from_json, MALFORMED[case]())
    assert want is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(config_from_json, MALFORMED[case]())
    assert got == want


def _mutate(a) -> None:
    """Overwrite every number in ``a``, an array or nested lists, with 7."""
    if isinstance(a, np.ndarray):
        a[...] = 7.0
    elif isinstance(a, list):
        for i, x in enumerate(a):
            if isinstance(x, list):
                _mutate(x)
            else:
                a[i] = 7.0


def _config_matrices(cfg):
    return [cfg.rho_in.mat, cfg.rho_fin.mat, cfg.strong_projector.mat, cfg.weak_observable]


# route -> (make the caller's input, build from it, the stored matrices)
KET = np.array([0.6, 0.8j])
MIXED = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
PURE = np.outer(KET, KET.conj())  # its zero eigenvalue may take the repair branch
ALIASING_ROUTES = {
    "validate_density mixed": (lambda: MIXED.copy(), validate_density, lambda s: [s.mat]),
    "validate_density pure": (lambda: PURE.copy(), validate_density, lambda s: [s.mat]),
    "DensityOperator": (lambda: MIXED.copy(), DensityOperator, lambda s: [s.mat]),
    "DensityOperator.pure": (lambda: KET.copy(), DensityOperator.pure, lambda s: [s.mat]),
    "Projector.from_matrix": (
        lambda: np.diag([1.0, 0.0]).astype(complex),
        Projector.from_matrix,
        lambda p: [p.mat],
    ),
    "Projector.onto": (lambda: KET.copy(), Projector.onto, lambda p: [p.mat]),
    "spectral_decompose": (
        lambda: np.array([[1.0, 2j, 0.0], [-2j, 1.0, 0.0], [0.0, 0.0, 3.0]]),
        spectral_decompose,
        lambda o: [o.observable, *(p.mat for _, p in o.pairs)],
    ),
    "ProtocolConfig.weak_observable": (
        lambda: np.diag([0.5, -0.5]).astype(complex),
        lambda obs: ProtocolConfig(
            DensityOperator.pure([0.6, 0.8]),
            DensityOperator.pure([0.8, 0.6]),
            Projector.onto([1.0, 0.0]),
            obs,
            1.0,
            0.5,
        ),
        lambda cfg: [cfg.weak_observable],
    ),
    "config_from_json": (_base_doc, config_from_json, _config_matrices),
}


@pytest.mark.parametrize("route", sorted(ALIASING_ROUTES))
def test_stored_matrices_are_read_only_and_unaliased(route):
    make, build, stored = ALIASING_ROUTES[route]
    given = make()
    obj = build(given)
    mats = stored(obj)
    before = [m.copy() for m in mats]
    for m in mats:
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
    if isinstance(given, dict):
        for k in OPERATOR_KEYS:
            _mutate(given[k]["re"])
            _mutate(given[k]["im"])
    elif not isinstance(given, int):
        _mutate(given)
    for m, b in zip(stored(obj), before):
        assert same_bits(m, b)


# -- spectral_decompose ----------------------------------------------------------


def parent_spectral_decompose(a) -> tuple[np.ndarray, list[tuple[float, np.ndarray, int]]]:
    """The replaced body: the observable, then ``(value, projector, rank)``
    per level, each value the ``np.mean`` of its cluster."""
    a = as_operator(a)
    _check_hermitian(hermiticity_defect(a), "observable")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    levels = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > DEGENERACY_TOL:
            block = v[:, start:i]
            levels.append((float(np.mean(w[start:i])), block @ dagger(block), i - start))
            start = i
    return a.copy(), levels


def assert_spectral_exact(a) -> None:
    got = spectral_decompose(a)
    observable, levels = parent_spectral_decompose(a)
    assert same_bits(got.observable, observable)
    assert len(got.pairs) == len(levels)
    for (value, proj), (want, mat, rank) in zip(got.pairs, levels):
        assert type(value) is float
        assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)
        assert same_bits(proj.mat, mat)
        assert proj.rank == rank


def degenerate_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """``U diag(levels) U^dag`` with repeated levels, some split by less than
    ``DEGENERACY_TOL`` so that they cluster."""
    levels = rng.choice([-1.5, 0.0, 2.0], size=d) + rng.choice([0.0, 3e-10], size=d)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return (u * levels) @ u.conj().T


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
class TestSpectralDecomposeBitExact:
    def test_random_observables(self, d):
        rng = np.random.default_rng(1500 + d)
        for _ in range(20):
            assert_spectral_exact(random_hermitian(rng, d) * 10.0 ** rng.uniform(-6, 6))

    def test_degenerate_clusters(self, d):
        rng = np.random.default_rng(1600 + d)
        for _ in range(20):
            assert_spectral_exact(degenerate_hermitian(rng, d))
        assert_spectral_exact(np.eye(d))
        assert_spectral_exact(np.diag(np.arange(d) * 0.5e-9))  # one chained cluster

    def test_signed_zero_diagonals(self, d):
        rng = np.random.default_rng(1700 + d)
        for _ in range(20):
            diag = rng.choice([-0.0, 0.0, -0.0, 1.0, -2.0], size=d)
            assert_spectral_exact(np.diag(diag))
            assert_spectral_exact(np.diag(diag).astype(complex))
        assert_spectral_exact(np.diag(np.full(d, -0.0)))

    def test_hermitian_within_tolerance(self, d):
        rng = np.random.default_rng(1800 + d)
        for _ in range(20):
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert_spectral_exact(random_hermitian(rng, d) + 1e-12 * noise)

    def test_rejected_input_fails_as_before(self, d):
        nan = np.eye(d, dtype=complex)
        nan[0, -1] = math.nan
        inf = np.eye(d, dtype=complex)
        inf[-1, -1] = math.inf
        cases = [nan, inf, np.ones((d, d + 1))]
        if d > 1:
            skew = np.eye(d, dtype=complex)
            skew[0, 1] = 1e-3
            cases.append(skew)
        for a in cases:
            want = _outcome(parent_spectral_decompose, a)
            assert want is not None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(spectral_decompose, a) == want

import cmath
import importlib
import inspect
import json
import math
import operator
import pkgutil
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import weakprobe

from conftest import random_hermitian
from weakprobe import (
    DensityOperator,
    DimensionMismatch,
    GaussianPointer,
    HermiticityViolation,
    HydrogenScenario,
    InvalidProjector,
    NegativeEigenvalue,
    ObservableSpectral,
    Projector,
    ProtocolConfig,
    SuperOp,
    TraceViolation,
    UniformTiming,
    apparent_resolution,
    apply_superop,
    averaged_weak_value_objective,
    averaged_weak_value_vn,
    backward_state,
    build_hydrogen,
    collapse_superop,
    compose,
    config_from_json,
    config_to_json,
    discriminate,
    hs_inner,
    hydrogen_predictions,
    objective_state_at,
    objective_weak_value_adjoint,
    objective_weak_value_at,
    objective_weak_value_forward,
    postselected_pointer_mean,
    postselected_pointer_momentum_mean,
    projective_ensemble_state_at,
    solve_completion,
    spectral_decompose,
    validate_density,
    weak_limit_slope,
    weak_value,
)
from weakprobe.operators import (
    DEGENERACY_TOL,
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    ZERO_TOL,
    _eigh,
    unit_ket,
)
from weakprobe.superops import vectorize

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def small_floats():
    return st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def complex_matrix(draw, d=2):
    re = draw(
        st.lists(st.lists(small_floats(), min_size=d, max_size=d), min_size=d, max_size=d)
    )
    im = draw(
        st.lists(st.lists(small_floats(), min_size=d, max_size=d), min_size=d, max_size=d)
    )
    return np.array(re) + 1j * np.array(im)


class TestHsInner:
    def test_identity_with_itself(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        for a in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            for b in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                expected = 2.0 if a is b else 0.0
                assert hs_inner(a, b) == pytest.approx(expected, abs=1e-14)

    def test_matches_elementwise_double_sum(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        oracle = sum(
            a[i, j].conjugate() * b[i, j] for i in range(3) for j in range(3)
        )
        assert hs_inner(a, b) == pytest.approx(oracle, abs=1e-12)

    @given(complex_matrix(), complex_matrix())
    def test_conjugate_symmetry(self, a, b):
        assert hs_inner(a, b) == pytest.approx(hs_inner(b, a).conjugate(), abs=1e-12)

    @given(complex_matrix())
    def test_positivity_on_diagonal(self, a):
        v = hs_inner(a, a)
        assert v.imag == pytest.approx(0.0, abs=1e-12)
        assert v.real >= -1e-12
        assert v.real == pytest.approx(np.linalg.norm(a) ** 2, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hs_inner(np.eye(2), np.eye(3))


def eigenvalues(spec):
    """The eigenvalues of ``spec.pairs``, in order."""
    return tuple(a for a, _ in spec.pairs)


class TestSpectralDecompose:
    def test_sigma_z(self):
        spec = spectral_decompose(SIGMA_Z)
        assert eigenvalues(spec) == pytest.approx((-1.0, 1.0))
        np.testing.assert_allclose(
            spec.pairs[0][1].mat, np.diag([0.0, 1.0]), atol=1e-14
        )
        np.testing.assert_allclose(
            spec.pairs[1][1].mat, np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_spin_z_with_hbar(self):
        spec = spectral_decompose(0.5 * SIGMA_Z)
        assert eigenvalues(spec) == pytest.approx((-0.5, 0.5))

    def test_identity_is_one_degenerate_level(self):
        spec = spectral_decompose(np.eye(2))
        assert len(spec.pairs) == 1
        value, proj = spec.pairs[0]
        assert value == pytest.approx(1.0)
        assert proj.rank == 2
        np.testing.assert_allclose(proj.mat, np.eye(2), atol=1e-14)

    def test_near_degenerate_levels_merge(self):
        a = np.diag([0.0, 1.0, 1.0 + 1e-12]).astype(complex)
        spec = spectral_decompose(a)
        assert len(spec.pairs) == 2
        assert spec.pairs[1][1].rank == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        a = random_hermitian(rng, d)
        spec = spectral_decompose(a)
        rebuilt = sum(v * p.mat for v, p in spec.pairs)
        assert np.max(np.abs(rebuilt - a)) <= 1e-9
        # mutual orthogonality and completeness
        total = np.zeros((d, d), dtype=complex)
        for i, (_, pi) in enumerate(spec.pairs):
            total += pi.mat
            for j, (_, pj) in enumerate(spec.pairs):
                if i != j:
                    assert np.max(np.abs(pi.mat @ pj.mat)) <= 1e-10
        np.testing.assert_allclose(total, np.eye(d), atol=1e-10)

    def test_ascending_order(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 4)
        spec = spectral_decompose(a)
        values = eigenvalues(spec)
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_overflowing_symmetrisation(self):
        # a + a^dag overflows; that used to warn and merge both levels into
        # one with eigenvalue NaN
        spec = spectral_decompose(np.diag([1e308, -1e308]))
        assert eigenvalues(spec) == (-1e308, 1e308)
        assert [p.rank for _, p in spec.pairs] == [1, 1]

    @pytest.mark.parametrize(
        "a, levels",
        [
            (1e308 * np.eye(2), [1e308]),
            (np.diag([1e308, 1e308, -1e308]), [-1e308, 1e308]),
        ],
    )
    def test_cluster_near_float_limit_is_finite(self, a, levels):
        # the sum of a degenerate cluster overflows where its mean does not;
        # that used to warn and report the level at inf
        spec = spectral_decompose(a)
        assert eigenvalues(spec) == pytest.approx(tuple(levels), rel=1e-15)
        assert all(map(math.isfinite, eigenvalues(spec)))
        assert sum(p.rank for _, p in spec.pairs) == len(a)


def eigh_outcome(eigh, h):
    """What ``eigh(h)`` gives: the bytes, dtypes, shapes and types of both
    arrays, or the exception's type, with every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = [(type(x), x.dtype, x.shape, x.tobytes()) for x in eigh(h)]
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            out = type(exc)
    return out, [(w.category, str(w.message)) for w in caught]


BIG = 1.7e308
# Non-finite and overflowing Hermitian inputs, and the empty stacks that
# _validate_states passes when its first state fails a cheap check.
EIGH_EDGE_CASES = {
    "nan diagonal": [[math.nan, 0], [0, 1]],
    "nan off the diagonal": [[1, math.nan], [math.nan, 1]],
    "inf diagonal": [[math.inf, 0], [0, 1]],
    "-inf diagonal": [[-math.inf, 0], [0, 1]],
    "inf off the diagonal": [[1, math.inf], [math.inf, 1]],
    "overflowed sum": [[math.inf, math.inf], [math.inf, math.inf]],
    "entries near the limit": [[BIG, BIG], [BIG, BIG]],
    "eigenvalues past the limit": [[0, BIG], [BIG, 0]],
    "imaginary entries near the limit": [[0, 1j * BIG], [-1j * BIG, 0]],
    "a stack with a nan state": [np.eye(2), np.full((2, 2), math.nan)],
    "an empty stack": np.zeros((0, 2, 2)),
    "a stack of 0 x 0 states": np.zeros((1, 0, 0)),
}


class TestEighKernel:
    # operators._eigh calls the gufunc np.linalg.eigh calls, under its
    # errstate; these pin it to numpy's wrapper on whichever numpy runs them

    @pytest.mark.parametrize("d", range(1, 17))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_bits_as_numpy(self, d, k):
        rng = np.random.default_rng(1000 * k + d)
        for scale in (1.0, 1e-200, 1e150):
            a = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
            h = scale * (a + a.conj().swapaxes(1, 2)) / 2
            for stack in (h, h[0]):
                assert eigh_outcome(_eigh, stack) == eigh_outcome(np.linalg.eigh, stack)

    @pytest.mark.parametrize("case", sorted(EIGH_EDGE_CASES))
    def test_same_outcome_as_numpy_on_edge_cases(self, case):
        h = np.array(EIGH_EDGE_CASES[case], dtype=complex)
        assert eigh_outcome(_eigh, h) == eigh_outcome(np.linalg.eigh, h)
        # the kernel's errstate is its own, whatever the caller's
        with np.errstate(all="raise"):
            assert eigh_outcome(_eigh, h) == eigh_outcome(np.linalg.eigh, h)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        out = validate_density(np.eye(2) / 2)
        assert out.psd_adjustment == 0.0

    def test_trace_violation(self):
        with pytest.raises(TraceViolation) as exc:
            validate_density(SIGMA_X)  # trace 0
        assert exc.value.defect == pytest.approx(1.0)

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue) as exc:
            validate_density(np.diag([1.2, -0.2]))
        assert exc.value.defect == pytest.approx(0.2)

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(HermiticityViolation):
            validate_density(m)

    def test_clipping_inside_tolerance(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        out = validate_density(m)
        assert out.psd_adjustment == pytest.approx(5e-11, rel=1e-3)
        w = np.linalg.eigvalsh(out.mat)
        assert w.min() >= 0.0
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-14)

    # A unit-trace Hermitian matrix with an entry above 1 in modulus is not
    # positive.  Here m + m^dag overflows; that used to print RuntimeWarnings
    # (errors in this suite) and then report a NaN defect.
    @pytest.mark.parametrize(
        "m, defect",
        [
            ([[0.5, 1e308], [1e308, 0.5]], 1e308),
            ([[0.5, 1e308j], [-1e308j, 0.5]], 1e308),
            (np.diag([1.7e308, -1.7e308, 1.0]), 1.7e308),
        ],
    )
    def test_overflowing_entries_rejected_without_warning(self, m, defect):
        with pytest.raises(NegativeEigenvalue) as exc:
            validate_density(np.array(m))
        assert exc.value.defect == pytest.approx(defect)

    def test_overflowing_trace_rejected_without_warning(self):
        with pytest.raises(TraceViolation) as exc:
            validate_density(np.diag([1e308, 1e308]))
        assert exc.value.defect == math.inf

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
    def test_accepts_any_normalized_mixture(self, weights):
        w = np.array(weights) / sum(weights)
        rng = np.random.default_rng(0)
        d = len(w)
        kets = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        m = sum(wi * np.outer(kets[:, i], kets[:, i].conj()) for i, wi in enumerate(w))
        out = validate_density(m)
        assert out.psd_adjustment == 0.0


class TestProjector:
    def test_from_matrix_validates(self):
        p = Projector.from_matrix(np.diag([1.0, 0.0, 1.0]))
        assert p.rank == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(Exception, match="idempotent"):
            Projector.from_matrix(np.diag([0.5, 0.0]))

    # p @ p overflows; the defect is inf, never NaN, and nothing warns
    @pytest.mark.parametrize(
        "m", [[[1, 1e200], [1e200, 0]], [[1e200, 1e200], [1e200, -1e200]]]
    )
    def test_overflowing_square_rejected_without_warning(self, m):
        with pytest.raises(InvalidProjector, match=r"not idempotent \(defect inf\)"):
            Projector.from_matrix(np.array(m))

    def test_rejects_zero(self):
        with pytest.raises(Exception, match="zero projector"):
            Projector.from_matrix(np.zeros((2, 2)))

    def test_constructor_derives_rank(self):
        assert Projector(np.diag([1.0, 0.0])).rank == 1
        assert Projector(np.diag([1.0, 0.0, 1.0])).rank == 2
        with pytest.raises(TypeError):
            Projector(np.diag([1.0, 0.0]), 2)  # a rank is not taken on trust

    @pytest.mark.parametrize("m", [np.diag([math.inf, 0.0]), np.diag([math.nan, 1.0])])
    def test_constructor_rejects_non_finite_trace(self, m):
        with pytest.raises(InvalidProjector, match="not Hermitian"):
            Projector(m)

    def test_constructor_rejects_zero(self):
        with pytest.raises(InvalidProjector, match="zero projector"):
            Projector(np.zeros((2, 2)))

    def test_frozen_matrices(self):
        p = Projector.onto([1, 0])
        with pytest.raises(ValueError):
            p.mat[0, 0] = 5.0


def bits(value):
    """``value`` in a form whose ``==`` compares bits: an array by dtype,
    shape and bytes, a float by its repr (so -0.0 differs from 0.0)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    if hasattr(value, "__dict__"):
        return type(value), {k: bits(v) for k, v in vars(value).items()}
    return type(value), repr(value)


def outcome(build, m):
    """What ``build(m)`` gives: the bits of its result, or the type and
    message of what it raises."""
    try:
        return bits(build(m))
    except Exception as exc:
        return type(exc), str(exc)


K_X = collapse_superop(Projector.onto([1, 1]))
# Each entry point that takes an operator, given a state and a projector.
OPERATOR_ENTRY_POINTS = {
    "weak_value": lambda rho, p: weak_value(rho, p, SIGMA_Y),
    "hs_inner": hs_inner,
    "apply_superop": lambda rho, p: (apply_superop(K_X, rho), apply_superop(K_X, p)),
    "backward_state": lambda rho, p: (backward_state(K_X, rho), backward_state(K_X, p)),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_ENTRY_POINTS))
def test_state_and_projector_are_taken_as_their_matrices(name):
    call = OPERATOR_ENTRY_POINTS[name]
    rho, p = DensityOperator.pure([0.6, 0.8j]), Projector.onto([1, 1j])
    assert bits(call(rho, p)) == bits(call(rho.mat, p.mat))


@st.composite
def operator_matrices(draw):
    """A d = 1-5 matrix near one of the three kinds: a state (some with an
    eigenvalue in [-PSD_TOL, 0), which the check clips), a projector or an
    observable with a near-degenerate level, off its kind by a Hermitian or
    non-Hermitian perturbation of a size on either side of the tolerances."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    kind = draw(st.sampled_from(["state", "near state", "projector", "observable"]))
    if kind == "projector":
        w = (rng.random(d) < 0.5).astype(float)
    elif kind == "observable":
        w = rng.normal(size=d)
        w[-1] = w[0] + draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    else:
        w = rng.random(d) + 0.01
        if kind == "near state" and d > 1:
            w[0] = -rng.uniform(0.0, 0.99 * PSD_TOL) * w[1:].sum()
        w /= w.sum()
    m = (u * w) @ u.conj().T
    size = draw(st.sampled_from([0.0, 1e-13, 1e-9, 0.1]))
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if draw(st.booleans()):
        noise = noise + noise.conj().T
    return m + size * noise


# Each public constructor next to the checking function it must agree with.
CONSTRUCTORS = {
    "DensityOperator": (DensityOperator, validate_density),
    "Projector": (Projector, Projector.from_matrix),
    "ObservableSpectral": (ObservableSpectral, spectral_decompose),
}


class TestCheckedConstructors:
    """A public constructor takes only the matrix and runs its type's check."""

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue):
            DensityOperator(np.array([[2, 0], [0, -1]]))

    def test_density_takes_no_adjustment(self):
        with pytest.raises(TypeError):
            DensityOperator(np.eye(2) / 2, psd_adjustment=0.25)

    def test_observable_takes_no_pairs(self):
        with pytest.raises(TypeError):
            ObservableSpectral(SIGMA_Z, ((5.0, Projector.onto([1, 0])),))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(InvalidProjector, match="not idempotent"):
            Projector(np.array([[1, 0.5], [0.5, 0]]))

    @given(m=operator_matrices())
    @example(m=np.array([[2, 0], [0, -1]]))
    @example(m=np.diag([1.0 + 5e-11, -5e-11]))
    @example(m=np.array([[1, 0.5], [0.5, 0]]))
    @example(m=np.diag([1.0, 1.0 + 1e-12, 0.0]))
    def test_constructor_is_its_check(self, m):
        before = m.tobytes()
        for construct, check in CONSTRUCTORS.values():
            assert outcome(construct, m) == outcome(check, m)
            assert m.flags.writeable and m.tobytes() == before  # the input is not taken


class TestUnitKet:
    @pytest.mark.parametrize(
        "ket, unit",
        [
            ([1e200, 1e200], [2**-0.5, 2**-0.5]),
            ([0.6e300, 0.8e300j], [0.6, 0.8j]),
            ([6e-201, 8e-201j], [0.6, 0.8j]),
            ([5e-324, 5e-324], [2**-0.5, 2**-0.5]),
        ],
    )
    def test_norm_out_of_range_is_accepted(self, ket, unit):
        # the plain norm of each overflows to inf or underflows to 0
        unit = np.array(unit)
        assert np.allclose(unit_ket(ket), unit, rtol=1e-15, atol=0)
        assert np.allclose(DensityOperator.pure(ket).mat, np.outer(unit, unit.conj()))
        assert Projector.onto(ket).rank == 1

    def test_other_kets_keep_their_bits(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 3, 8, 33):
            for scale in (1.0, 1e-140, 1e140):
                v = (rng.normal(size=d) + 1j * rng.normal(size=d)) * scale
                assert np.array_equal(unit_ket(v), v / np.linalg.norm(v))

    def test_strided_ket(self):
        m = np.array([[1.0, 1e200], [0.0, 1e200]])
        assert np.allclose(unit_ket(m[:, 1]), [2**-0.5, 2**-0.5])

    @pytest.mark.parametrize("ket", [[0.0, 0.0], [], [math.nan, 1e200], [math.inf, 1.0]])
    def test_zero_or_non_finite_ket_rejected(self, ket):
        with pytest.raises(ValueError, match="ket norm"):
            unit_ket(ket)


def public_callables():
    """Every callable a module lists in ``__all__``, and the public methods of
    the classes among them (``Projector.from_matrix`` included)."""
    for info in pkgutil.iter_modules(weakprobe.__path__):
        module = importlib.import_module(f"weakprobe.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(getattr(obj, attr)):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


class TestNumericalPolicy:
    def test_constant_values(self):
        assert HERM_TOL == TRACE_TOL == PSD_TOL == 1e-10
        assert ZERO_TOL == 1e-12
        assert DEGENERACY_TOL == 1e-9

    def test_no_tolerance_parameters(self):
        checked = {}
        for qualname, obj in public_callables():
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # builtin base classes expose no signature
                continue
            checked[qualname] = [p for p in params if "tol" in p.lower()]
        assert "operators.Projector.from_matrix" in checked
        assert "operators.validate_density" in checked
        assert {k: v for k, v in checked.items() if v} == {}


# The boundary policy: every public entry point rejects a non-finite
# scalar, ket or matrix with a ValueError subclass, never with a NaN
# result, a ZeroDivisionError or a RuntimeWarning (the suite runs with
# warnings as errors).

RHO = DensityOperator.pure([0.6, 0.8])
P_UP = Projector.onto([1.0, 0.0])
PSI1 = np.array([0.6, 0.8])
PSI2 = np.array([0.8, 0.6])
CFG = build_hydrogen(0.6, 0.8, delta_t_m=1.0, delta_t_c=0.5)
HUGE_CFG = build_hydrogen(0.6, 0.8, hbar=1e308, delta_t_m=1.0, delta_t_c=0.5)
GRID = np.geomspace(1e-3, 1e-2, 5)
SCENARIO = HydrogenScenario(0.6, 0.8)


def config_with(**kw):
    base = dict(
        rho_in=RHO,
        rho_fin=DensityOperator.pure(PSI2),
        strong_projector=P_UP,
        weak_observable=SIGMA_Z,
        delta_t_m=1.0,
        delta_t_c=0.5,
    )
    return ProtocolConfig(**{**base, **kw})


# (public callable, float parameter) -> call with that parameter set to x
SCALAR_BOUNDARIES = {
    ("weakvalues.UniformTiming", "lo"): lambda x: UniformTiming(x, 1.0),
    ("weakvalues.UniformTiming", "hi"): lambda x: UniformTiming(0.0, x),
    ("collapse.objective_state_at", "t"): lambda x: objective_state_at(RHO, P_UP, x, 1.0),
    ("collapse.objective_state_at", "delta_t_c"): (
        lambda x: objective_state_at(RHO, P_UP, x, x)
    ),
    ("collapse.projective_ensemble_state_at", "t"): (
        lambda x: projective_ensemble_state_at(RHO, P_UP, x, 1.0)
    ),
    ("collapse.projective_ensemble_state_at", "delta_t_m"): (
        lambda x: projective_ensemble_state_at(RHO, P_UP, 0.0, x)
    ),
    ("hydrogen.HydrogenScenario", "hbar"): lambda x: HydrogenScenario(0.6, 0.8, x),
    ("hydrogen.build_hydrogen", "hbar"): lambda x: build_hydrogen(0.6, 0.8, hbar=x),
    ("hydrogen.build_hydrogen", "delta_t_m"): (
        lambda x: build_hydrogen(0.6, 0.8, delta_t_m=x)
    ),
    ("hydrogen.build_hydrogen", "delta_t_c"): (
        lambda x: build_hydrogen(0.6, 0.8, delta_t_c=x)
    ),
    ("hydrogen.hydrogen_predictions", "delta_t_c"): (
        lambda x: hydrogen_predictions(SCENARIO, x, 1.0)
    ),
    ("hydrogen.hydrogen_predictions", "delta_t_m"): (
        lambda x: hydrogen_predictions(SCENARIO, 1.0, x)
    ),
    ("pointer.GaussianPointer", "sigma"): lambda x: GaussianPointer(x, 0.1),
    ("pointer.GaussianPointer", "g"): lambda x: GaussianPointer(1.0, x),
    ("pointer.postselected_pointer_momentum_mean", "hbar"): (
        lambda x: postselected_pointer_momentum_mean(
            PSI1, PSI2, SIGMA_Z, GaussianPointer(1.0, 0.1), hbar=x
        )
    ),
    ("pointer.weak_limit_slope", "sigma"): (
        lambda x: weak_limit_slope(PSI1, PSI2, SIGMA_Z, x, GRID)
    ),
    ("weakvalues.ProtocolConfig", "delta_t_m"): lambda x: config_with(delta_t_m=x),
    ("weakvalues.ProtocolConfig", "delta_t_c"): lambda x: config_with(delta_t_c=x),
    ("weakvalues.ProtocolConfig", "hbar"): lambda x: config_with(hbar=x),
    ("weakvalues.objective_weak_value_at", "t_w"): (
        lambda x: objective_weak_value_at(x, CFG)
    ),
    ("weakvalues.objective_weak_value_forward", "t_w"): (
        lambda x: objective_weak_value_forward(CFG, x)
    ),
    ("weakvalues.objective_weak_value_adjoint", "t_w"): (
        lambda x: objective_weak_value_adjoint(CFG, x)
    ),
    ("weakvalues.apparent_resolution", "delta_t_m"): lambda x: apparent_resolution(x, 1),
    ("weakvalues.apparent_resolution", "delta_t_c"): lambda x: apparent_resolution(1, x),
    ("weakvalues.discriminate", "sigma_meas"): lambda x: discriminate(0.4, CFG, x),
}

# Public float parameters that are not inputs to check.
SCALAR_EXEMPT = {
    # result records: the library fills them in from checked inputs
    ("weakvalues.DiscriminationVerdict", "delta_t_c_estimate"),
    ("weakvalues.DiscriminationVerdict", "residual"),
    ("montecarlo.AveragedResult", "stderr"),
    ("montecarlo.AveragedResult", "stderr_im"),
    ("pointer.SlopeFit", "slope"),
    ("pointer.SlopeFit", "weak_value_re"),
    ("pointer.SlopeFit", "bound_constant"),
    ("superops.CompletionResult", "residual"),
    # a predicate: a NaN time is simply not inside the window
    ("weakvalues.UniformTiming.contains", "t"),
}

NAN_KET = [math.nan, 1.0]
INF_KET = [math.inf, 1.0]
NAN_OBS = np.array([[math.nan, 0.0], [0.0, 1.0]])
INF_OBS = np.array([[1.0, math.inf], [math.inf, 1.0]])


def _doc(token):
    text = f'{{"dim": 1, "re": [[{token}]], "im": [[0]]}}'
    return json.loads(text)


# Calls that feed a ket, matrix or JSON document with non-finite entries.
ARRAY_BOUNDARIES = {
    "DensityOperator.pure nan": lambda: DensityOperator.pure(NAN_KET),
    "DensityOperator.pure inf": lambda: DensityOperator.pure(INF_KET),
    "Projector.onto nan": lambda: Projector.onto(NAN_KET),
    "Projector.onto inf": lambda: Projector.onto(INF_KET),
    "pointer mean psi1 nan": lambda: postselected_pointer_mean(
        NAN_KET, PSI2, SIGMA_Z, GaussianPointer(1.0, 0.1)
    ),
    "pointer mean psi2 inf": lambda: postselected_pointer_mean(
        PSI1, INF_KET, SIGMA_Z, GaussianPointer(1.0, 0.1)
    ),
    "pointer momentum psi1 nan": lambda: postselected_pointer_momentum_mean(
        NAN_KET, PSI2, SIGMA_Z, GaussianPointer(1.0, 0.1)
    ),
    "weak_limit_slope psi2 inf": (
        lambda: weak_limit_slope(PSI1, INF_KET, SIGMA_Z, 1.0, GRID)
    ),
    "weak_limit_slope obs nan": lambda: weak_limit_slope(PSI1, PSI2, NAN_OBS, 1.0, GRID),
    "validate_density nan": lambda: validate_density(np.full((2, 2), math.nan)),
    "validate_density inf": lambda: validate_density(INF_OBS / 2),
    "Projector.from_matrix nan": lambda: Projector.from_matrix(NAN_OBS),
    "Projector.from_matrix inf": lambda: Projector.from_matrix(np.diag([math.inf, 0.0])),
    "spectral_decompose nan": lambda: spectral_decompose(NAN_OBS),
    "spectral_decompose inf": lambda: spectral_decompose(INF_OBS),
    "DensityOperator nan": lambda: DensityOperator(np.full((2, 2), math.nan)),
    "DensityOperator inf": lambda: DensityOperator(INF_OBS / 2),
    "Projector nan": lambda: Projector(NAN_OBS),
    "Projector inf": lambda: Projector(np.diag([math.inf, 0.0])),
    "ObservableSpectral nan": lambda: ObservableSpectral(NAN_OBS),
    "ObservableSpectral inf": lambda: ObservableSpectral(INF_OBS),
    "SuperOp nan": lambda: SuperOp(1, [[math.nan]]),
    "SuperOp inf": lambda: SuperOp(2, np.diag([1.0, math.inf, 1.0, 1.0])),
    "hs_inner nan": lambda: hs_inner(NAN_OBS, np.eye(2)),
    "hs_inner inf": lambda: hs_inner(np.eye(2), INF_OBS),
    "apply_superop nan": lambda: apply_superop(SuperOp(1, [[1.0]]), [[math.nan]]),
    "apply_superop inf": lambda: apply_superop(SuperOp(2, np.eye(4)), INF_OBS),
    "backward_state nan": lambda: backward_state(SuperOp(1, [[1.0]]), [[math.nan]]),
    "backward_state inf": lambda: backward_state(SuperOp(2, np.eye(4)), INF_OBS),
    "vectorize nan": lambda: vectorize([[math.nan]]),
    "vectorize inf": lambda: vectorize(INF_OBS),
    # finite operands whose products or sums overflow
    "hs_inner overflow": lambda: hs_inner(1e200 * np.eye(2), 1e200 * np.eye(2)),
    "compose overflow": lambda: compose(SuperOp(1, [[1e200]]), SuperOp(1, [[1e200]])),
    "solve_completion overflow": lambda: solve_completion(
        SuperOp(2, np.full((4, 4), 1.7e308)), SuperOp(2, np.full((4, 4), 1.7e308))
    ),
    "ProtocolConfig weak_observable nan": lambda: config_with(weak_observable=NAN_OBS),
    "ProtocolConfig weak_observable inf": lambda: config_with(weak_observable=INF_OBS),
    "weak_value rho1 nan": lambda: weak_value(NAN_OBS, RHO.mat, SIGMA_Z),
    "weak_value rho2 inf": lambda: weak_value(RHO.mat, INF_OBS, SIGMA_Z),
    "weak_value obs nan": lambda: weak_value(RHO.mat, RHO.mat, NAN_OBS),
    "weak_value obs inf": lambda: weak_value(RHO.mat, RHO.mat, INF_OBS),
    "config_from_json rho_in NaN": lambda: config_from_json(
        {**config_to_json(CFG), "rho_in": _doc("NaN")}
    ),
    "config_from_json rho_in Infinity": lambda: config_from_json(
        {**config_to_json(CFG), "rho_in": _doc("Infinity")}
    ),
    "config_from_json rho_fin NaN": lambda: config_from_json(
        {**config_to_json(CFG), "rho_fin": _doc("NaN")}
    ),
    "config_from_json rho_fin Infinity": lambda: config_from_json(
        {**config_to_json(CFG), "rho_fin": _doc("Infinity")}
    ),
    "config_from_json strong_projector NaN": lambda: config_from_json(
        {**config_to_json(CFG), "strong_projector": _doc("NaN")}
    ),
    "config_from_json strong_projector Infinity": lambda: config_from_json(
        {**config_to_json(CFG), "strong_projector": _doc("Infinity")}
    ),
    "config_from_json weak_observable NaN": lambda: config_from_json(
        {**config_to_json(CFG), "weak_observable": _doc("NaN")}
    ),
    "config_from_json weak_observable Infinity": lambda: config_from_json(
        {**config_to_json(CFG), "weak_observable": _doc("Infinity")}
    ),
    "discriminate measured nan": lambda: discriminate(complex(0.4, math.nan), CFG, 0.1),
}


def extreme_floats():
    """Non-finite floats, zeros and magnitudes within a few decades of the
    largest and the smallest double, of either sign."""
    magnitudes = st.floats(1e300, sys.float_info.max) | st.floats(5e-324, 1e-300)
    return (
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
        | magnitudes
        | magnitudes.map(operator.neg)
    )


class TestBoundaryPolicy:
    @pytest.mark.parametrize("key", sorted(SCALAR_BOUNDARIES), ids="{0[0]}:{0[1]}".format)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar(self, key, value):
        with pytest.raises(ValueError):
            SCALAR_BOUNDARIES[key](value)

    @pytest.mark.parametrize("case", sorted(ARRAY_BOUNDARIES))
    def test_non_finite_entries(self, case):
        with pytest.raises(ValueError):
            ARRAY_BOUNDARIES[case]()

    def test_table_accepts_finite_input(self):
        # every scalar case is a valid call at some finite value, so the
        # table checks the guard, not an unrelated failure
        for key, call in SCALAR_BOUNDARIES.items():
            call(0.5)

    def test_every_float_parameter_is_covered(self):
        found = set()
        for qualname, obj in public_callables():
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # builtin base classes expose no signature
                continue
            found |= {
                (qualname, name)
                for name, p in params.items()
                if p.annotation in ("float", "float | None")
            }
        assert found - SCALAR_BOUNDARIES.keys() - SCALAR_EXEMPT == set()
        # no stale entries either
        assert SCALAR_BOUNDARIES.keys() | SCALAR_EXEMPT <= found

    @given(
        field=st.sampled_from(["delta_t_m", "delta_t_c", "hbar"]), value=extreme_floats()
    )
    @example(field="delta_t_m", value=sys.float_info.max)  # 2*dtm used to overflow
    def test_protocol_config_scalars(self, field, value):
        try:
            cfg = config_with(**{field: value})
        except ValueError as exc:
            if math.isfinite(value) and value > 0:
                # the one other rule: a weak window of zero width in doubles
                windows = {"delta_t_m": 1.0, "delta_t_c": 0.5, field: value}
                half, center = windows["delta_t_m"] / 2, windows["delta_t_c"] / 2
                assert (center + half) - (center - half) == 0.0
                assert "zero width" in str(exc)
            return
        vn, sat = averaged_weak_value_vn(cfg), cfg.traces.saturated
        objective = averaged_weak_value_objective(cfg)
        assert cmath.isfinite(vn) and cmath.isfinite(objective)
        # the objective prediction moves from vn to the plateau as dtc/dtm goes 0 -> 1
        f = min(cfg.delta_t_c / cfg.delta_t_m, 1.0)
        assert abs(objective - ((1 - f) * vn + f * sat)) <= 1e-12

    @given(
        cfg=st.sampled_from([CFG, HUGE_CFG]),
        measured=extreme_floats() | st.builds(complex, extreme_floats(), extreme_floats()),
        sigma_meas=extreme_floats(),
    )
    # |measured - v_vn| overflows; these used to raise OverflowError, to
    # report an infinite residual, and to read "vn" with one
    @example(cfg=CFG, measured=1.7e308 + 1.7e308j, sigma_meas=1.0)
    @example(cfg=HUGE_CFG, measured=-1.7e308, sigma_meas=1.0)
    @example(cfg=HUGE_CFG, measured=-1.5e308, sigma_meas=1e308)
    def test_discriminate(self, cfg, measured, sigma_meas):
        try:
            verdict = discriminate(measured, cfg, sigma_meas)
        except ValueError as exc:
            m = complex(measured)
            ok = cmath.isfinite(m) and math.isfinite(sigma_meas) and sigma_meas > 0
            if ok:
                # the one other refusal: a measurement a double range away
                # from the line, whose distance overflows
                assert "measured value" in str(exc)
                v = cfg.traces.vn
                exact = (F(m.real) - F(v.real)) ** 2 + (F(m.imag) - F(v.imag)) ** 2
                assert exact > (F(sys.float_info.max) * (1 - F(2) ** -50)) ** 2
            return
        assert math.isfinite(verdict.residual)
        estimate = verdict.delta_t_c_estimate
        assert estimate is None or math.isfinite(estimate)

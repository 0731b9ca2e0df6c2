import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

import weakprobe

from conftest import rank_by_elimination, random_density, random_hermitian, random_ket
from weakprobe import (
    DensityOperator,
    DimensionMismatch,
    HermiticityViolation,
    NegativeEigenvalue,
    Projector,
    TraceViolation,
    ZeroProbability,
    density_operator_basis,
    hs_inner,
    selective_projection,
    spectral_decompose,
    validate_density,
)
from weakprobe.operators import (
    DEGENERACY_TOL,
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    ZERO_TOL,
)

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


class TestSpectralDecompose:
    def test_sigma_z(self):
        spec = spectral_decompose(SIGMA_Z)
        assert spec.eigenvalues == pytest.approx((-1.0, 1.0))
        np.testing.assert_allclose(
            spec.projectors[0].mat, np.diag([0.0, 1.0]), atol=1e-14
        )
        np.testing.assert_allclose(
            spec.projectors[1].mat, np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_spin_z_with_hbar(self):
        spec = spectral_decompose(0.5 * SIGMA_Z)
        assert spec.eigenvalues == pytest.approx((-0.5, 0.5))

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
        values = spec.eigenvalues
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSelectiveProjection:
    def test_maximally_mixed_onto_plus(self):
        rho = DensityOperator.maximally_mixed(2)
        p = Projector.onto([1, 0])
        out = selective_projection(rho, p)
        np.testing.assert_allclose(out.mat, p.mat, atol=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.9, 0.5**0.5])
    def test_rank1_result_is_the_projector(self, a):
        ket = np.array([a, np.sqrt(1 - a**2)], dtype=complex)
        rho = DensityOperator.pure(ket)
        p = Projector.onto([1, 0])
        out = selective_projection(rho, p)
        assert np.max(np.abs(out.mat - p.mat)) <= 1e-12

    def test_random_rank1_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            p = Projector.onto(random_ket(rng, d))
            out = selective_projection(rho, p)
            assert np.max(np.abs(out.mat - p.mat)) <= 1e-12

    def test_orthogonal_outcome_raises(self):
        rho = DensityOperator.pure([1, 0])
        p = Projector.onto([0, 1])
        with pytest.raises(ZeroProbability):
            selective_projection(rho, p)


class TestDensityOperatorBasis:
    def test_d1(self):
        basis = density_operator_basis(1)
        assert len(basis) == 1
        np.testing.assert_allclose(basis[0].mat, [[1.0]])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_spans_operator_space(self, d):
        basis = density_operator_basis(d)
        assert len(basis) == d * d
        stacked = np.column_stack([b.mat.reshape(-1) for b in basis])
        assert rank_by_elimination(stacked) == d * d

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_element_is_a_state(self, d):
        for b in density_operator_basis(d):
            out = validate_density(b.mat)
            assert out.psd_adjustment == 0.0

    def test_d2_coherence_elements(self):
        basis = density_operator_basis(2)
        np.testing.assert_allclose(
            basis[2].mat, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15
        )
        np.testing.assert_allclose(
            basis[3].mat, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-15
        )


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

    def test_rejects_zero(self):
        with pytest.raises(Exception, match="zero projector"):
            Projector.from_matrix(np.zeros((2, 2)))

    def test_frozen_matrices(self):
        p = Projector.onto([1, 0])
        with pytest.raises(ValueError):
            p.mat[0, 0] = 5.0


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

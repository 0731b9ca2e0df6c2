import re

import numpy as np
import pytest

from conftest import (
    random_density,
    random_hermitian,
    random_ket,
    random_rank1_projector,
    random_superop,
)
from weakprobe import (
    CompletionResult,
    DensityOperator,
    DimensionMismatch,
    NoExactSolution,
    Projector,
    RankDeficient,
    SuperOp,
    apply_superop,
    backward_state,
    collapse_superop,
    compose,
    density_operator_basis,
    hs_inner,
    reconstruct_superop,
    solve_completion,
    superop_adjoint,
)
from weakprobe.collapse import evolution_superop_objective

PLUS = np.array([1.0, 0.0], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def conjugation_superop(u: np.ndarray) -> SuperOp:
    """X -> U X U^dag as a column-stacked matrix: kron(conj(U), U)."""
    return SuperOp(u.shape[0], np.kron(u.conj(), u))


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyCompose:
    def test_identity_superop(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(rng, 3)
        out = apply_superop(SuperOp.identity(3), x)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_collapse_on_mixed_state(self):
        c = collapse_superop(Projector.onto(PLUS))
        out = apply_superop(c, np.eye(2) / 2)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_collapse_on_traceless(self):
        c = collapse_superop(Projector.onto(PLUS))
        out = apply_superop(c, SIGMA_X)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_collapse_scales_with_trace(self):
        c = collapse_superop(Projector.onto(PLUS))
        out = apply_superop(c, 3.0 * np.eye(2))
        np.testing.assert_allclose(out, np.diag([6.0, 0.0]), atol=1e-14)

    def test_collapse_idempotent(self):
        c = collapse_superop(Projector.onto(PLUS))
        assert np.max(np.abs(compose(c, c).matrix - c.matrix)) <= 1e-12

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(5)
        k1 = random_superop(rng, 2)
        k2 = random_superop(rng, 2)
        both = compose(k2, k1)
        for b in density_operator_basis(2):
            oracle = apply_superop(k2, apply_superop(k1, b.mat))
            np.testing.assert_allclose(apply_superop(both, b.mat), oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_superop(SuperOp.identity(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            compose(SuperOp.identity(2), SuperOp.identity(3))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        k = SuperOp.identity(3)
        assert np.max(np.abs(superop_adjoint(k).matrix - k.matrix)) == 0.0

    def test_pairing_random(self):
        rng = np.random.default_rng(9)
        k = random_superop(rng, 2)
        kd = superop_adjoint(k)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            lhs = hs_inner(a, apply_superop(k, b))
            rhs = hs_inner(apply_superop(kd, a), b)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pairing_many_triples(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            k = random_superop(rng, d)
            kd = superop_adjoint(k)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            lhs = hs_inner(a, apply_superop(k, b))
            rhs = hs_inner(apply_superop(kd, a), b)
            assert abs(lhs - rhs) <= 1e-10

    def test_collapse_adjoint_action(self):
        rng = np.random.default_rng(21)
        p = Projector.onto(PLUS)
        cd = superop_adjoint(collapse_superop(p))
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            expected = np.trace(p.mat @ a) * np.eye(2)
            assert np.max(np.abs(apply_superop(cd, a) - expected)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(31)
        k = random_superop(rng, 3)
        back = superop_adjoint(superop_adjoint(k))
        assert np.max(np.abs(back.matrix - k.matrix)) == 0.0


class TestCollapseSuperop:
    def test_matrix_matches_tomographic_reconstruction(self):
        # Oracle: assemble the same map from its action on a basis of states.
        p = Projector.onto([0.6, 0.8])
        c = collapse_superop(p)
        basis = density_operator_basis(2)
        outputs = [np.trace(b.mat) * p.mat for b in basis]
        rebuilt = reconstruct_superop(basis, outputs)
        assert np.max(np.abs(rebuilt.matrix - c.matrix)) <= 1e-12

    def test_accepts_rank2_projector(self):
        # rank-2 projectors are fine for the bare superoperator algebra
        p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        c = collapse_superop(p)
        out = apply_superop(c, np.eye(3) / 3)
        np.testing.assert_allclose(out, p.mat, atol=1e-14)

    def test_invalid_projector_matrix(self):
        with pytest.raises(Exception, match="idempotent"):
            collapse_superop(np.diag([0.5, 0.0]))


P_TILT = Projector.onto([0.8, 0.6j])
C_TILT = collapse_superop(P_TILT)
C_AT_HALF = evolution_superop_objective(0.0, 0.5, P_TILT, 1.0)
BASIS = density_operator_basis(2)

# Every route that builds a map itself, with the maps it was built from.
LIBRARY_MAPS = {
    "SuperOp.identity": lambda: (SuperOp.identity(2), []),
    "collapse_superop": lambda: (collapse_superop(P_TILT), []),
    "compose": lambda: (compose(C_AT_HALF, C_TILT), [C_AT_HALF, C_TILT]),
    "superop_adjoint": lambda: (superop_adjoint(C_AT_HALF), [C_AT_HALF]),
    "solve_completion": lambda: (solve_completion(C_AT_HALF, C_TILT).solution, [C_AT_HALF, C_TILT]),
    "reconstruct_superop": lambda: (
        reconstruct_superop(BASIS, [apply_superop(C_TILT, b) for b in BASIS]),
        [C_TILT],
    ),
    "evolution_superop_objective:start": lambda: (
        evolution_superop_objective(0.0, 0.3, P_TILT, 1.0),
        [],
    ),
    "evolution_superop_objective:end": lambda: (
        evolution_superop_objective(0.3, 1.0, P_TILT, 1.0),
        [],
    ),
}


class TestSuperOpStorage:
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_constructor_keeps_a_frozen_copy(self, dtype):
        m = (np.arange(16.0) - 3.0).reshape(4, 4).astype(dtype)
        k = SuperOp(2, m)
        assert k.matrix.dtype == complex
        assert not np.shares_memory(k.matrix, m)
        assert m.flags.writeable
        m[...] = 7.0
        np.testing.assert_array_equal(k.matrix, (np.arange(16.0) - 3.0).reshape(4, 4))
        assert not k.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            k.matrix[0, 0] = 7.0

    @pytest.mark.parametrize(
        "matrix, shape", [(np.eye(3), "(3, 3)"), (np.eye(4)[:3], "(3, 4)"), (np.ones(16), "(16,)")]
    )
    def test_wrong_shape_message(self, matrix, shape):
        message = f"superoperator matrix shape {shape} != (4, 4)"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            SuperOp(2, matrix)

    @pytest.mark.parametrize("route", sorted(LIBRARY_MAPS))
    def test_library_maps_are_read_only(self, route):
        k, sources = LIBRARY_MAPS[route]()
        assert type(k) is SuperOp and k.dim == 2
        assert k.matrix.shape == (4, 4) and k.matrix.dtype == complex
        assert not k.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            k.matrix[0, 0] = 7.0
        for source in sources:
            assert not np.shares_memory(k.matrix, source.matrix)


class TestReconstruct:
    def test_identity_map(self):
        basis = density_operator_basis(2)
        k = reconstruct_superop(basis, [b.mat for b in basis])
        np.testing.assert_allclose(k.matrix, np.eye(4), atol=1e-12)

    def test_partial_collapse_map(self):
        s = 0.3
        p = Projector.onto(PLUS)
        c = collapse_superop(p)
        basis = density_operator_basis(2)
        outputs = [(1 - s) * b.mat + s * np.trace(b.mat) * p.mat for b in basis]
        k = reconstruct_superop(basis, outputs)
        expected = (1 - s) * np.eye(4) + s * c.matrix
        assert np.max(np.abs(k.matrix - expected)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip_random_map(self, d):
        rng = np.random.default_rng(40 + d)
        k = random_superop(rng, d)
        basis = density_operator_basis(d)
        outputs = [apply_superop(k, b.mat) for b in basis]
        rebuilt = reconstruct_superop(basis, outputs)
        assert np.max(np.abs(rebuilt.matrix - k.matrix)) <= 1e-10

    def test_rank_deficient_inputs(self):
        basis = density_operator_basis(2)
        bad = list(basis[:3]) + [basis[0]]  # repeated element cannot span
        with pytest.raises(RankDeficient):
            reconstruct_superop(bad, [b.mat for b in bad])

    def test_wrong_count(self):
        basis = density_operator_basis(2)
        with pytest.raises(RankDeficient):
            reconstruct_superop(basis[:3], [b.mat for b in basis[:3]])


class TestSolveCompletion:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_collapse_completion_unique(self, s):
        p = Projector.onto([0.8, 0.6j])
        c = collapse_superop(p)
        e_first = SuperOp(2, (1 - s) * np.eye(4) + s * c.matrix)
        res = solve_completion(e_first, c)
        assert isinstance(res, CompletionResult)
        assert res.unique
        assert res.affine_dimension == 0
        assert np.max(np.abs(res.solution.matrix - c.matrix)) <= 1e-9

    def test_identity_first_returns_total(self):
        rng = np.random.default_rng(50)
        k = random_superop(rng, 2)
        res = solve_completion(SuperOp.identity(2), k)
        assert res.unique
        assert np.max(np.abs(res.solution.matrix - k.matrix)) <= 1e-12

    def test_unitary_conjugation_oracle(self):
        rng = np.random.default_rng(51)
        u1 = random_unitary(rng, 2)
        u2 = random_unitary(rng, 2)
        e_first = conjugation_superop(u1)
        e_total = conjugation_superop(u2 @ u1)
        res = solve_completion(e_first, e_total)
        expected = conjugation_superop(u2)
        assert res.unique
        assert np.max(np.abs(res.solution.matrix - expected.matrix)) <= 1e-10

    def test_no_exact_solution(self):
        p = Projector.onto(PLUS)
        c = collapse_superop(p)
        # nothing maps the rank-1 collapse onto the full identity map
        with pytest.raises(NoExactSolution) as exc:
            solve_completion(c, SuperOp.identity(2))
        assert exc.value.residual > 1e-3

    def test_non_unique_family_reported(self):
        p = Projector.onto(PLUS)
        c = collapse_superop(p)
        res = solve_completion(c, c)
        assert not res.unique
        assert res.affine_dimension == 4 * 3
        assert res.residual <= 1e-12
        # the minimizer still satisfies the equation
        assert np.max(np.abs(res.solution.matrix @ c.matrix - c.matrix)) <= 1e-12


class TestRetrogradeBackward:
    def test_backward_through_identity(self):
        rho = random_density(np.random.default_rng(61), 2)
        out = backward_state(SuperOp.identity(2), rho)
        np.testing.assert_allclose(out, rho.mat, atol=1e-15)

    def test_backward_through_collapse_is_uniform(self):
        rng = np.random.default_rng(62)
        p = random_rank1_projector(rng, 2)
        rho_fin = random_density(rng, 2)
        out = backward_state(collapse_superop(p), rho_fin)
        weight = np.trace(p.mat @ rho_fin.mat)
        np.testing.assert_allclose(out, weight * np.eye(2), atol=1e-13)

    def test_backward_orthogonal_selection_vanishes(self):
        p = Projector.onto(PLUS)
        rho_fin = DensityOperator.pure([0, 1])
        out = backward_state(collapse_superop(p), rho_fin)
        assert np.max(np.abs(out)) <= 1e-15

    def test_hydrogen_style_weight(self):
        b = 0.6
        psi_fin = np.array([b, np.sqrt(1 - b**2)], dtype=complex)
        out = backward_state(
            collapse_superop(Projector.onto(PLUS)), DensityOperator.pure(psi_fin)
        )
        np.testing.assert_allclose(out, b**2 * np.eye(2), atol=1e-14)


class TestVectorizationConvention:
    def test_column_stacking(self):
        from weakprobe.superops import unvectorize, vectorize

        x = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vectorize(x), [1, 3, 2, 4])
        np.testing.assert_array_equal(unvectorize([1, 3, 2, 4], 2), x)

    def test_left_right_multiplication_matrix(self):
        # under column stacking, X -> A X B has matrix kron(B^T, A)
        rng = np.random.default_rng(70)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        k = SuperOp(2, np.kron(b.T, a))
        x = random_hermitian(rng, 2)
        np.testing.assert_allclose(apply_superop(k, x), a @ x @ b, atol=1e-12)

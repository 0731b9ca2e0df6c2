import gc
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import (
    objective_map,
    random_density,
    random_hermitian,
    random_rank1_projector,
    random_superop,
)
from weakprobe import (
    CompletionResult,
    DensityOperator,
    DimensionMismatch,
    NoExactSolution,
    Projector,
    SuperOp,
    apply_superop,
    backward_state,
    collapse_superop,
    compose,
    hs_inner,
    solve_completion,
    superop_adjoint,
)
from weakprobe import superops

PLUS = np.array([1.0, 0.0], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def identity_map(d: int) -> SuperOp:
    """The map ``X -> X`` through the public constructor."""
    return SuperOp(d, np.eye(d * d))


def conjugation_superop(u: np.ndarray) -> SuperOp:
    """X -> U X U^dag as a column-stacked matrix: kron(conj(U), U)."""
    return SuperOp(u.shape[0], np.kron(u.conj(), u))


def pure_state_basis(d: int) -> list[np.ndarray]:
    """``d**2`` pure states that span the operator space: ``|j><j|``, then for
    each ``j < k`` the states along ``|j> + |k>`` and ``|j> + i|k>``."""
    e = np.eye(d, dtype=complex)
    pairs = [e[j] + phase * e[k] for j in range(d) for k in range(j + 1, d) for phase in (1, 1j)]
    return [np.outer(v, v.conj()) / np.vdot(v, v).real for v in [*e, *pairs]]


def tomography(k: SuperOp) -> np.ndarray:
    """Matrix of ``k`` rebuilt from its action on :func:`pure_state_basis`,
    solving ``K v_in = v_out`` as ``v_in^T K^T = v_out^T``."""
    basis = pure_state_basis(k.dim)
    v_in = np.column_stack([b.reshape(-1, order="F") for b in basis])
    v_out = np.column_stack([apply_superop(k, b).reshape(-1, order="F") for b in basis])
    return np.linalg.solve(v_in.T, v_out.T).T


def choi(k: SuperOp) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) k(|i><j|)``."""
    d = k.dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return sum(np.kron(e, apply_superop(k, e)) for e in units)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyCompose:
    def test_identity_superop(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(rng, 3)
        out = apply_superop(identity_map(3), x)
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
        for b in pure_state_basis(2):
            oracle = apply_superop(k2, apply_superop(k1, b))
            np.testing.assert_allclose(apply_superop(both, b), oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_superop(identity_map(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            compose(identity_map(2), identity_map(3))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        k = identity_map(3)
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
        # Oracle: assemble the same map from its action on a basis of states,
        # solving K v_in = v_out as v_in^T K^T = v_out^T.
        p = Projector.onto([0.6, 0.8])
        c = collapse_superop(p)
        basis = pure_state_basis(2)
        v_in = np.column_stack([b.reshape(-1, order="F") for b in basis])
        v_out = np.column_stack([(np.trace(b) * p.mat).reshape(-1, order="F") for b in basis])
        rebuilt = np.linalg.solve(v_in.T, v_out.T).T
        assert np.max(np.abs(rebuilt - c.matrix)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_tomography_in_higher_dims(self, d):
        c = collapse_superop(random_rank1_projector(np.random.default_rng(80 + d), d))
        assert np.max(np.abs(tomography(c) - c.matrix)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_tomography_of_random_map(self, d):
        # the oracle itself: it must recover an arbitrary linear map
        k = random_superop(np.random.default_rng(40 + d), d)
        assert np.max(np.abs(tomography(k) - k.matrix)) <= 1e-10

    def test_accepts_rank2_projector(self):
        # rank-2 projectors are fine for the bare superoperator algebra
        p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        c = collapse_superop(p)
        out = apply_superop(c, np.eye(3) / 3)
        np.testing.assert_allclose(out, p.mat, atol=1e-14)

    def test_invalid_projector_matrix(self):
        with pytest.raises(Exception, match="idempotent"):
            collapse_superop(np.diag([0.5, 0.0]))


def collapse_formula(p: Projector) -> np.ndarray:
    """The map's matrix as it was built on every call before it was kept per
    projector: ``vec(P) vec(I)^dag``."""
    vec_id = np.eye(p.dim, dtype=complex).reshape(-1, order="F")
    return np.outer(p.mat.reshape(-1, order="F"), vec_id.conj())


class TestCollapseMapKept:
    def test_same_map_on_every_call(self):
        p = Projector.onto([0.6, 0.8j])
        assert collapse_superop(p) is collapse_superop(p)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matrix_equals_the_formula_bit_for_bit(self, d):
        p = random_rank1_projector(np.random.default_rng(120 + d), d)
        want = collapse_formula(p)
        for _ in range(2):  # built, then kept
            c = collapse_superop(p)
            assert c.dim == d
            np.testing.assert_array_equal(c.matrix, want)

    def test_raw_matrix_gives_an_equal_map_and_keeps_nothing(self):
        p = Projector.onto([0.8, 0.6j])
        want = collapse_superop(p)
        kept = len(superops._COLLAPSE_MAPS)
        c = collapse_superop(p.mat.copy())
        assert c is not want
        np.testing.assert_array_equal(c.matrix, want.matrix)
        # the raw matrix's projector died with the call, and its entry with it
        assert len(superops._COLLAPSE_MAPS) == kept

    def test_map_does_not_keep_its_projector_alive(self):
        p = random_rank1_projector(np.random.default_rng(130), 4)
        c, want = collapse_superop(p), collapse_formula(p)
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None
        np.testing.assert_array_equal(c.matrix, want)  # the map outlives it

    def test_threads_asking_at_once_get_equal_read_only_maps(self):
        # four threads, switching every microsecond, so that several of them
        # build the same projector's map at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                p = random_rank1_projector(np.random.default_rng(140 + seed), 8)
                start = threading.Barrier(4)
                got = [None] * 4

                def ask(i):
                    start.wait()
                    got[i] = collapse_superop(p)

                threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                for c in got:
                    assert type(c) is SuperOp and not c.matrix.flags.writeable
                    np.testing.assert_array_equal(c.matrix, collapse_formula(p))
                assert collapse_superop(p) in got
        finally:
            sys.setswitchinterval(interval)


P_TILT = Projector.onto([0.8, 0.6j])
C_TILT = collapse_superop(P_TILT)
C_AT_HALF = objective_map(P_TILT, 0.5)
# The objective model's map over the rest of the window, by completion.
C_REST = solve_completion(objective_map(P_TILT, 0.3), C_TILT).solution

# Every route that builds a map itself, with the maps it was built from.
LIBRARY_MAPS = {
    "collapse_superop": lambda: (collapse_superop(P_TILT), []),
    "compose": lambda: (compose(C_AT_HALF, C_TILT), [C_AT_HALF, C_TILT]),
    "superop_adjoint": lambda: (superop_adjoint(C_AT_HALF), [C_AT_HALF]),
    "solve_completion": lambda: (solve_completion(C_AT_HALF, C_TILT).solution, [C_AT_HALF, C_TILT]),
    "solve_completion:non-unique": lambda: (solve_completion(C_TILT, C_TILT).solution, [C_TILT]),
    "SuperOp:objective start": lambda: (objective_map(P_TILT, 0.3), []),
}


P_QUTRIT = random_rank1_projector(np.random.default_rng(90), 3)

# Ensemble evolution maps of the collapse models; each must be a channel.
EVOLUTION_MAPS = {
    "identity": lambda: identity_map(2),
    "collapse": lambda: C_TILT,
    "objective:start": lambda: objective_map(P_TILT, 0.3),
    "objective:end": lambda: C_REST,
    "objective:composed": lambda: compose(C_REST, objective_map(P_TILT, 0.3)),
    "objective:qutrit": lambda: objective_map(P_QUTRIT, 0.3),
    "objective:qutrit end": lambda: solve_completion(
        objective_map(P_QUTRIT, 0.3), collapse_superop(P_QUTRIT)
    ).solution,
}


class TestEvolutionMapsAreChannels:
    @pytest.mark.parametrize("route", sorted(EVOLUTION_MAPS))
    def test_trace_preserving(self, route):
        k = EVOLUTION_MAPS[route]()
        vec_id = np.eye(k.dim, dtype=complex).reshape(-1, order="F")
        assert np.max(np.abs(vec_id.conj() @ k.matrix - vec_id.conj())) <= 1e-12

    @pytest.mark.parametrize("route", sorted(EVOLUTION_MAPS))
    def test_completely_positive(self, route):
        j = choi(EVOLUTION_MAPS[route]())
        assert np.max(np.abs(j - j.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(j).min() >= -1e-12

    @pytest.mark.parametrize("route", sorted(EVOLUTION_MAPS))
    def test_adjoint_is_unital(self, route):
        # trace preservation seen from the Heisenberg side: E^dag(I) = I
        k = EVOLUTION_MAPS[route]()
        out = apply_superop(superop_adjoint(k), np.eye(k.dim))
        assert np.max(np.abs(out - np.eye(k.dim))) <= 1e-12


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
        res = solve_completion(identity_map(2), k)
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
            solve_completion(c, identity_map(2))
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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="dims differ: 2 vs 3"):
            solve_completion(identity_map(2), identity_map(3))

    def test_small_maps_judged_by_their_scale(self):
        # a rank-1 first map cannot reach a random total: the best K leaves
        # most of E unmatched, though the absolute defect is only ~1e-12
        rng = np.random.default_rng(70)
        e_first = SuperOp(2, 1e-12 * collapse_superop(Projector.onto(PLUS)).matrix)
        e_total = SuperOp(2, 1e-12 * random_superop(rng, 2).matrix)
        k = np.linalg.lstsq(e_first.matrix.T, e_total.matrix.T, rcond=None)[0].T
        defect = np.linalg.norm(k @ e_first.matrix - e_total.matrix)
        assert defect < 1e-10 and defect / np.linalg.norm(e_total.matrix) > 0.5
        with pytest.raises(NoExactSolution):
            solve_completion(e_first, e_total)

    def test_large_maps_judged_by_their_scale(self):
        # K = I solves it exactly; the least-squares K misses by ~1e-16 of E,
        # which is ~1e145 in absolute terms
        e = SuperOp(2, np.full((4, 4), 1e160))
        res = solve_completion(e, e)
        assert 0.0 <= res.residual <= 1e-10 * 4e160
        assert not res.unique and res.affine_dimension == 4 * 3

    def test_scale_taken_from_the_largest_entry(self):
        # E's plain Frobenius norm overflows while the defect's does not: E's
        # last column, which no K can reach through E1's zero column, is
        # ~2e-5 of E, far above the tolerance
        rng = np.random.default_rng(72)
        p = np.diag([1.0, 1.0, 1.0, 0.0])
        e_first = SuperOp(2, 1e155 * p)
        e_total = SuperOp(2, 1e155 * (p + 1e-5 * random_superop(rng, 2).matrix))
        with pytest.raises(NoExactSolution) as exc:
            solve_completion(e_first, e_total)
        assert 1e149 < exc.value.residual < 1e152


class TestRetrogradeBackward:
    def test_backward_through_identity(self):
        rho = random_density(np.random.default_rng(61), 2)
        out = backward_state(identity_map(2), rho)
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
        from weakprobe.superops import vectorize

        x = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vectorize(x), [1, 3, 2, 4])

    def test_left_right_multiplication_matrix(self):
        # under column stacking, X -> A X B has matrix kron(B^T, A)
        rng = np.random.default_rng(70)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        k = SuperOp(2, np.kron(b.T, a))
        x = random_hermitian(rng, 2)
        np.testing.assert_allclose(apply_superop(k, x), a @ x @ b, atol=1e-12)


class TestApplySuperopBits:
    """``apply_superop`` is ``unvec(K @ vec(x))``, byte for byte."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_equals_the_vectorized_product(self, d):
        from weakprobe.superops import vectorize

        rng = np.random.default_rng(140 + d)
        p = random_rank1_projector(rng, d)
        herm = random_hermitian(rng, d)
        maps = [random_superop(rng, d), collapse_superop(p), superop_adjoint(collapse_superop(p))]
        operands = [
            herm,
            herm.T,  # not C-contiguous
            herm.real,  # coerced to complex
            herm.tolist(),
            random_density(rng, d),
            p,
        ]
        for k in maps:
            for x in operands:
                got = apply_superop(k, x)
                want = (k.matrix @ vectorize(x)).reshape((d, d), order="F")
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.tobytes(order="A") == want.tobytes(order="A")

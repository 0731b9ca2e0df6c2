"""Superoperators: linear maps on operators, stored as matrices.

Vectorization convention: ``vec(X)`` stacks the *columns* of ``X``
(Fortran order), so a map on a ``d``-dimensional system is a
``d**2 x d**2`` complex matrix acting on ``vec``'ed operators.  Under
the Hilbert-Schmidt inner product ``Tr[A^dag B] = vec(A)^dag vec(B)``,
which makes the adjoint of a superoperator the conjugate transpose of
its matrix:  ``<A, K(B)> = <K^dag(A), B>``.

The only physics-specific map built here is the collapse superoperator
of a selective strong measurement, ``C(xi) = Tr[xi] * P`` for a rank-1
projector ``P``.  It is idempotent, erases all memory of its input
except the trace, and its adjoint acts as ``C^dag(A) = Tr[P A] * Id``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _DEFERRED
from .errors import DimensionMismatch, NoExactSolution
from .operators import Projector, _trusted, as_operator, identity

__all__ = [*_DEFERRED["superops"], "vectorize", "unvectorize"]


def vectorize(x) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    return as_operator(x).reshape(-1, order="F")


def unvectorize(v, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise DimensionMismatch(f"vector of length {v.size} is not {d}x{d}")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True, eq=False)
class SuperOp:
    """A linear map on operators of a ``dim``-dimensional system.

    The public constructor stores a frozen copy of ``matrix``; the maps
    built here are frozen in place by :func:`_superop`.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"superoperator matrix shape {m.shape} != ({n}, {n})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, d: int) -> "SuperOp":
        return _superop(d, np.eye(d * d, dtype=complex))


def _superop(d: int, matrix: np.ndarray) -> SuperOp:
    """A map whose complex ``(d*d, d*d)`` matrix only the library holds."""
    return _trusted(SuperOp, matrix, "matrix", dim=d)


def apply_superop(k: SuperOp, x) -> np.ndarray:
    """Apply the map to an operator: ``unvec(K @ vec(x))``."""
    x = as_operator(x)
    if x.shape[0] != k.dim:
        raise DimensionMismatch(f"operator dim {x.shape[0]} != superop dim {k.dim}")
    return unvectorize(k.matrix @ vectorize(x), k.dim)


def compose(k2: SuperOp, k1: SuperOp) -> SuperOp:
    """The map ``x -> k2(k1(x))``."""
    if k1.dim != k2.dim:
        raise DimensionMismatch(f"superop dims differ: {k2.dim} vs {k1.dim}")
    return _superop(k1.dim, k2.matrix @ k1.matrix)


def superop_adjoint(k: SuperOp) -> SuperOp:
    """Hilbert-Schmidt adjoint; conjugate transpose under column stacking."""
    return _superop(k.dim, k.matrix.conj().T)


def collapse_superop(p) -> SuperOp:
    """Collapse map ``xi -> Tr[xi] * P`` of a selective measurement onto ``p``.

    ``vec`` of the output is ``vec(P) * (vec(I)^dag vec(xi))``, so the
    matrix is the rank-1 outer product ``vec(P) vec(I)^dag``.
    """
    if not isinstance(p, Projector):
        p = Projector.from_matrix(p)
    d = p.dim
    matrix = np.outer(vectorize(p.mat), vectorize(identity(d)).conj())
    return _superop(d, matrix)


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Solution of ``K @ E_first = E_total``.

    ``unique`` is True when ``E_first`` has full rank, so no operator
    ``B`` with ``B @ E_first = 0`` can be added to ``K``;
    ``affine_dimension`` is the dimension of the solution family (0 when
    unique) and ``residual`` the Frobenius norm of the defect.
    """

    solution: SuperOp
    unique: bool
    affine_dimension: int
    residual: float


def solve_completion(e_first: SuperOp, e_total: SuperOp) -> CompletionResult:
    """Find ``K`` with ``K composed after e_first == e_total``.

    Solves ``K @ E1 = E`` by least squares and reports whether the
    solution is unique.  When the equations cannot be satisfied to
    within 1e-10 (Frobenius norm), :class:`NoExactSolution` is raised
    rather than silently returning the minimizer.
    """
    if e_first.dim != e_total.dim:
        raise DimensionMismatch(f"superop dims differ: {e_first.dim} vs {e_total.dim}")
    n = e_first.dim ** 2
    a = e_first.matrix
    t = e_total.matrix
    # K A = T  <=>  A^T K^T = T^T, a standard least-squares problem.
    kt, _, rank, _ = np.linalg.lstsq(a.T, t.T, rcond=None)
    k = kt.T
    residual = float(np.linalg.norm(k @ a - t))
    if not residual <= 1e-10:  # NaN fails too
        raise NoExactSolution("completion has no exact solution", residual)
    unique = rank == n
    affine_dimension = n * (n - int(rank))
    return CompletionResult(_superop(e_first.dim, k), unique, affine_dimension, residual)


def backward_state(e_w_fin: SuperOp, rho_fin) -> np.ndarray:
    """Pull the final selection back to the weak-coupling time.

    Returns ``E^dag(rho_fin)``: the adjoint pairs with the forward map
    under the Hilbert-Schmidt product, which is what lets a later
    selection be pulled back to an earlier time.  The result is in
    general *not* normalized and not a density operator; it enters
    conditional averages only through ratios, where the normalization
    cancels.
    """
    return apply_superop(superop_adjoint(e_w_fin), rho_fin)

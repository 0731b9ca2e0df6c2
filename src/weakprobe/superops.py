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

import weakref
from dataclasses import dataclass

import numpy as np

from . import _DEFERRED
from .errors import DimensionMismatch, NoExactSolution
from .operators import Projector, _max_abs, _trusted, as_operator

__all__ = [*_DEFERRED["superops"], "vectorize"]


def _finite_operator(x) -> np.ndarray:
    """``as_operator(x)``; ``ValueError`` for a non-finite entry."""
    x = as_operator(x)
    if not np.isfinite(x).all():
        raise ValueError("operator has a non-finite entry")
    return x


def vectorize(x) -> np.ndarray:
    """Column-stacking vectorization of a square matrix; ``ValueError`` for
    a non-finite entry."""
    return _finite_operator(x).reshape(-1, order="F")


@dataclass(frozen=True, eq=False)
class SuperOp:
    """A linear map on operators of a ``dim``-dimensional system.

    The public constructor stores a frozen copy of ``matrix`` and raises
    ``ValueError`` for a non-finite entry; the maps built here are frozen in
    place by :func:`_superop`.
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
        if not np.isfinite(m).all():
            raise ValueError("superoperator matrix has a non-finite entry")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _superop(d: int, matrix: np.ndarray) -> SuperOp:
    """A map whose complex ``(d*d, d*d)`` matrix only the library holds."""
    return _trusted(SuperOp, matrix, "matrix", dim=d)


def apply_superop(k: SuperOp, x) -> np.ndarray:
    """Apply the map to an operator: ``unvec(K @ vec(x))``; ``ValueError``
    for a non-finite entry of ``x``."""
    x = _finite_operator(x)
    if x.shape[0] != k.dim:
        raise DimensionMismatch(f"operator dim {x.shape[0]} != superop dim {k.dim}")
    return (k.matrix @ x.reshape(-1, order="F")).reshape((k.dim, k.dim), order="F")


def compose(k2: SuperOp, k1: SuperOp) -> SuperOp:
    """The map ``x -> k2(k1(x))``; ``ValueError`` when a product entry
    overflows."""
    if k1.dim != k2.dim:
        raise DimensionMismatch(f"superop dims differ: {k2.dim} vs {k1.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product fails below
        matrix = k2.matrix @ k1.matrix
    if not np.isfinite(matrix).all():
        raise ValueError("composed superoperator has a non-finite entry")
    return _superop(k1.dim, matrix)


def superop_adjoint(k: SuperOp) -> SuperOp:
    """Hilbert-Schmidt adjoint; conjugate transpose under column stacking."""
    return _superop(k.dim, k.matrix.conj().T)


# Each projector's collapse map.  A Projector is frozen and hashes by
# identity, so its entry is right for as long as it lives and goes with it.
# Two threads may both build a projector's map; the builds are equal, so
# no lock is needed.
_COLLAPSE_MAPS: weakref.WeakKeyDictionary[Projector, SuperOp] = weakref.WeakKeyDictionary()


def collapse_superop(p) -> SuperOp:
    """Collapse map ``xi -> Tr[xi] * P`` of a selective measurement onto ``p``.

    ``vec`` of the output is ``vec(P) * (vec(I)^dag vec(xi))``, so the
    matrix is the rank-1 outer product ``vec(P) vec(I)^dag``.

    The map is built once per :class:`Projector` and kept, read-only, for
    the projector's lifetime; later calls, among them those of
    :func:`~weakprobe.weakvalues.objective_weak_value_forward` and
    :func:`~weakprobe.weakvalues.objective_weak_value_adjoint`, reuse it.
    It is one ``d**2 x d**2`` complex matrix: 64 KB at ``d = 8``, 16 MB at
    ``d = 32``.  A raw matrix is checked into a new projector, whose map
    is dropped with it.
    """
    if not isinstance(p, Projector):
        p = Projector.from_matrix(p)
    c = _COLLAPSE_MAPS.get(p)
    if c is None:
        d = p.dim
        matrix = np.outer(vectorize(p.mat), vectorize(np.eye(d, dtype=complex)).conj())
        c = _COLLAPSE_MAPS[p] = _superop(d, matrix)
    return c


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
    within ``1e-10 * ||E||`` (Frobenius norms), or the residual overflows,
    :class:`NoExactSolution` is raised rather than silently returning the
    minimizer.
    """
    if e_first.dim != e_total.dim:
        raise DimensionMismatch(f"superop dims differ: {e_first.dim} vs {e_total.dim}")
    n = e_first.dim ** 2
    a = e_first.matrix
    t = e_total.matrix
    # K A = T  <=>  A^T K^T = T^T, a standard least-squares problem.
    kt, _, rank, _ = np.linalg.lstsq(a.T, t.T, rcond=None)
    k = kt.T
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite residual fails below
        defect = k @ a - t
        residual = float(np.linalg.norm(defect))
        # Both norms in units of E's largest entry: E's norm is then in [1, d^2]
        # and cannot overflow or underflow, whatever the maps' scale.
        unit = _max_abs(t) or 1.0
        exact = np.linalg.norm(defect / unit) <= 1e-10 * np.linalg.norm(t / unit)
    if not (exact and residual < np.inf):  # NaN fails too
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
    cancels.  A non-finite entry of ``rho_fin`` raises ``ValueError``.
    """
    return apply_superop(superop_adjoint(e_w_fin), rho_fin)

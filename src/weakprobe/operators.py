"""Finite-dimensional operator algebra on a complex Hilbert space.

Operators are plain complex ndarrays of shape ``(d, d)``.  The validated
wrapper types (:class:`DensityOperator`, :class:`Projector`,
:class:`ObservableSpectral`) freeze their matrices after construction so
instances can safely be shared between threads; all transformations
return new objects.

The Hilbert-Schmidt inner product used throughout is
``<A, B> = Tr[A^dag B]``, conjugate-linear in the first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HermiticityViolation,
    InvalidProjector,
    NegativeEigenvalue,
    TraceViolation,
    ZeroProbability,
)

__all__ = [
    "HERM_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "ZERO_TOL",
    "DEGENERACY_TOL",
    "DensityOperator",
    "Projector",
    "ObservableSpectral",
    "identity",
    "dagger",
    "hs_inner",
    "hermiticity_defect",
    "spectral_decompose",
    "selective_projection",
    "density_operator_basis",
    "validate_density",
]


# One fixed numerical policy, shared by every module.  HERM_TOL, TRACE_TOL
# and PSD_TOL bound the Hermiticity, trace and positivity defects a matrix
# may have and still count as an operator of its kind; ZERO_TOL guards
# every denominator (selection probabilities, weak-value overlaps);
# DEGENERACY_TOL is the eigenvalue-clustering width of spectral_decompose.
# The validators test ``not defect <= TOL``, which the NaN or infinite defect
# of a non-finite entry fails (require_hermitian for states and observables);
# a duration, scale or hbar must pass require_positive_finite, and a ket is
# normalised by unit_ket.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
ZERO_TOL = 1e-12
DEGENERACY_TOL = 1e-9


def require_positive_finite(value: float, name: str, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is finite and positive."""
    if not (math.isfinite(value) and value > 0):  # NaN fails both
        raise error(f"{name} must be finite and positive, got {value}")


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm distance between ``a`` and its adjoint; NaN or inf when an
    entry of ``a`` is, which the ``not defect <= HERM_TOL`` checks reject."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, what: str) -> None:
    defect = hermiticity_defect(a)
    if not defect <= HERM_TOL:
        raise HermiticityViolation(f"{what} is non-finite or not Hermitian", defect)


def unit_ket(ket, error=ValueError) -> np.ndarray:
    """``ket`` as a flat unit vector; a zero, NaN or infinite entry or norm
    raises ``error``.  A ket whose plain norm could overflow or underflow is
    divided by its largest part first, so ``[1e200, 1e200]`` is accepted."""
    v = np.ascontiguousarray(ket, dtype=complex).reshape(-1)
    parts = v.view(float)
    big = float(np.abs(parts).max(initial=0.0))
    # With its largest real or imaginary part in [1e-150, 1e150], a ket of
    # fewer than 2**26 entries has a sum of squares that neither overflows nor
    # underflows, so its plain norm is exact to rounding.
    if not 1e-150 <= big <= 1e150:  # NaN fails
        require_positive_finite(big, "ket norm", error)
        v = (parts / big).view(complex)  # part by part: 1 / big may overflow
    n = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))  # np.linalg.norm's sum
    require_positive_finite(n, "ket norm", error)
    return v / n


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr[a^dag b]``.

    Conjugate-linear in ``a``, linear in ``b``; ``hs_inner(a, a)`` is the
    squared Frobenius norm.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    # vdot conjugates its first argument and sums elementwise, which is
    # exactly sum_ij conj(a_ij) b_ij = Tr[a^dag b].
    return complex(np.vdot(a, b))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state: Hermitian, positive semi-definite, unit trace.

    Construct through :func:`validate_density` (or the ``pure`` /
    ``maximally_mixed`` helpers) so the invariants are actually checked.
    ``psd_adjustment`` records the total eigenvalue mass clipped to zero
    during validation; it is 0.0 when no repair was needed.
    """

    mat: np.ndarray
    psd_adjustment: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(as_operator(self.mat)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        v = unit_ket(ket)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityOperator":
        return cls(identity(d) / d)


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector ``P = P^dag = P^2`` with its rank."""

    mat: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(as_operator(self.mat)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projector":
        p = as_operator(m)
        herm = hermiticity_defect(p)
        if not herm <= HERM_TOL:
            raise InvalidProjector(f"not Hermitian (defect {herm:.3e})")
        idem = float(np.max(np.abs(p @ p - p)))
        if not idem <= HERM_TOL:
            raise InvalidProjector(f"not idempotent (defect {idem:.3e})")
        tr = float(np.trace(p).real)
        rank = round(tr)
        if not abs(tr - rank) <= 1e-6:
            raise InvalidProjector(f"trace {tr} is not near an integer")
        if rank < 1:
            raise InvalidProjector("zero projector has no selective outcome")
        return cls(p, rank)

    @classmethod
    def onto(cls, ket) -> "Projector":
        """Rank-1 projector onto the ray of ``ket``."""
        v = unit_ket(ket, InvalidProjector)
        return cls(np.outer(v, v.conj()), 1)


def require_rank1(p: Projector) -> None:
    if p.rank != 1:  # a degenerate outcome leaves the selected state undetermined
        raise InvalidProjector(f"selective outcome must be rank 1, got rank {p.rank}")


@dataclass(frozen=True, eq=False)
class ObservableSpectral:
    """A Hermitian observable with its spectral resolution.

    ``pairs`` lists ``(eigenvalue, eigenprojector)`` in ascending
    eigenvalue order; nearly degenerate eigenvalues are merged into a
    single projector, so the projectors are mutually orthogonal and
    complete.
    """

    observable: np.ndarray
    pairs: tuple[tuple[float, Projector], ...]

    def __post_init__(self):
        object.__setattr__(self, "observable", _frozen(as_operator(self.observable)))

    @property
    def dim(self) -> int:
        return self.observable.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def projectors(self) -> tuple[Projector, ...]:
        return tuple(p for _, p in self.pairs)


def spectral_decompose(a) -> ObservableSpectral:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues closer than ``DEGENERACY_TOL`` (consecutive-gap
    clustering) are treated as one degenerate level and their
    eigenvectors are merged into a single projector.  Each reported
    eigenvalue is the mean of its cluster.
    """
    a = as_operator(a)
    require_hermitian(a, "observable")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    pairs: list[tuple[float, Projector]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > DEGENERACY_TOL:
            block = v[:, start:i]
            proj = Projector(block @ dagger(block), i - start)
            pairs.append((float(np.mean(w[start:i])), proj))
            start = i
    return ObservableSpectral(a, tuple(pairs))


def selective_projection(rho: DensityOperator, p: Projector) -> DensityOperator:
    """State after selecting the outcome ``p``: ``P rho P / Tr[P rho P]``.

    Raises :class:`ZeroProbability` when the outcome probability is at
    most ``ZERO_TOL``.  For rank-1 ``p`` the result is ``p`` itself.
    """
    if rho.dim != p.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != projector dim {p.dim}")
    out = p.mat @ rho.mat @ p.mat
    prob = float(np.trace(out).real)
    if not prob > ZERO_TOL:  # NaN fails too
        raise ZeroProbability(f"selection probability {prob:.3e} below tolerance")
    return validate_density(out / prob)


def density_operator_basis(d: int) -> list[DensityOperator]:
    """A basis of the operator space made entirely of density operators.

    Returns ``d**2`` linearly independent pure states: the ``d``
    computational-basis projectors ``|j><j|``, then for each pair
    ``j < k`` the projectors onto ``(|j> + |k>)/sqrt(2)`` and
    ``(|j> + i|k>)/sqrt(2)`` (in that order).  Any linear map on
    operators is determined by its action on this family.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    kets = np.eye(d, dtype=complex)
    out = [DensityOperator(np.outer(kets[j], kets[j].conj())) for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            plus = (kets[j] + kets[k]) / np.sqrt(2.0)
            phase = (kets[j] + 1j * kets[k]) / np.sqrt(2.0)
            out.append(DensityOperator(np.outer(plus, plus.conj())))
            out.append(DensityOperator(np.outer(phase, phase.conj())))
    return out


def validate_density(m) -> DensityOperator:
    """Check the density-operator invariants and return the state.

    Raises :class:`HermiticityViolation`, :class:`TraceViolation` or
    :class:`NegativeEigenvalue` with the offending defect.  Eigenvalues
    in ``[-PSD_TOL, 0)`` are treated as roundoff: they are clipped to
    zero, the state is renormalized, and the clipped mass is reported on
    ``psd_adjustment``.
    """
    m = as_operator(m)
    require_hermitian(m, "matrix")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise TraceViolation("trace differs from 1", abs(tr - 1.0))
    herm = (m + dagger(m)) / 2
    # eigh, not eigvalsh, even when nothing is clipped: the two can differ in
    # the last bit, and so in the sign of a pure state's zero eigenvalue.
    w, v = np.linalg.eigh(herm)
    if not w[0] >= -PSD_TOL:
        raise NegativeEigenvalue("negative eigenvalue", abs(float(w[0])))
    if w[0] >= 0.0:  # nothing to clip
        return DensityOperator(m)
    clipped = np.clip(w, 0.0, None)
    repaired = (v * clipped) @ dagger(v)
    repaired = repaired / np.trace(repaired).real
    return DensityOperator(repaired, psd_adjustment=float(np.sum(clipped - w)))

"""Finite-dimensional operator algebra on a complex Hilbert space.

Operators are plain complex ndarrays of shape ``(d, d)``.  The wrapper
types (:class:`DensityOperator`, :class:`Projector`,
:class:`ObservableSpectral`) take only a matrix, run their type's check
on it and keep a frozen copy, so instances can safely be shared between
threads; all transformations return new objects.

The Hilbert-Schmidt inner product used throughout is
``<A, B> = Tr[A^dag B]``, conjugate-linear in the first argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _DEFERRED
from .errors import (
    DimensionMismatch,
    HermiticityViolation,
    InvalidProjector,
    NegativeEigenvalue,
    TraceViolation,
)

__all__ = [
    *_DEFERRED["operators"], "HERM_TOL", "TRACE_TOL", "PSD_TOL", "ZERO_TOL", "DEGENERACY_TOL"
]


# One fixed numerical policy, shared by every module.  HERM_TOL, TRACE_TOL
# and PSD_TOL bound the Hermiticity, trace and positivity defects a matrix
# may have and still count as an operator of its kind; ZERO_TOL guards
# every denominator (selection probabilities, weak-value overlaps);
# DEGENERACY_TOL is the eigenvalue-clustering width of spectral_decompose.
# The validators test ``not defect <= TOL``, which the NaN or infinite defect
# of a non-finite entry fails (_check_hermitian for states and observables);
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


def _frozen(m) -> np.ndarray:
    out = as_operator(m, copy=True)
    out.setflags(write=False)
    return out


def _trusted(cls, mat: np.ndarray, field: str = "mat", **fields):
    """``cls`` with ``mat`` as its ``field``, for a matrix only the library
    holds: frozen in place, not copied, not checked."""
    mat.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    obj.__dict__[field] = mat
    return obj


def as_operator(m, copy: bool | None = None) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, a copy if ``copy`` is true; a
    :class:`DensityOperator` or :class:`Projector` gives its ``mat``."""
    if type(m) is not np.ndarray and isinstance(m, (DensityOperator, Projector)):
        m = m.mat
    a = np.array(m, dtype=complex, copy=copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def _max_abs(a: np.ndarray) -> float:
    """Largest modulus of an entry of ``a``: NaN if one is, 0 if ``a`` is empty."""
    return float(np.abs(a).max()) if a.size else 0.0


def _eigenvalues_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a complex128 ndarray stack, the same bits and
    errors without its wrapper: the gufunc it calls, under its errstate."""
    with np.errstate(
        call=_eigenvalues_did_not_converge,
        invalid="call",
        over="ignore",
        divide="ignore",
        under="ignore",
    ):
        return np.linalg._umath_linalg.eigh_lo(h, signature="D->dD")


def _check_hermitian(defect: float, what: str) -> None:
    """Raise for a Hermiticity ``defect`` above ``HERM_TOL``, or NaN."""
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
    squared Frobenius norm.  A result that is not finite, from a non-finite
    operand or a sum past the double range, raises ``ValueError``.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    # vdot conjugates its first argument and sums elementwise, which is
    # exactly sum_ij conj(a_ij) b_ij = Tr[a^dag b].
    out = complex(np.vdot(a, b))
    if not cmath.isfinite(out):
        raise ValueError(f"Hilbert-Schmidt inner product {out} is not finite")
    return out


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state: Hermitian, positive semi-definite, unit trace.

    ``DensityOperator(m)`` is :func:`validate_density` of ``m``.
    ``psd_adjustment`` is derived: the total eigenvalue mass that check
    clipped to zero, 0.0 when no repair was needed.
    """

    mat: np.ndarray
    psd_adjustment: float = field(init=False)

    def __post_init__(self):
        self.__dict__.update(validate_density(self.mat).__dict__)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        v = unit_ket(ket)
        return _trusted(cls, np.outer(v, v.conj()), psd_adjustment=0.0)


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector ``P = P^dag = P^2`` with its rank, which is
    derived from the trace, never passed in.  ``Projector(m)`` is
    :meth:`from_matrix` of ``m``."""

    mat: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        self.__dict__.update(self.from_matrix(self.mat).__dict__)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projector":
        p = as_operator(m, copy=True)
        with np.errstate(invalid="ignore", over="ignore"):  # both checks fail on NaN or inf
            herm = _max_abs(p - dagger(p))
            # fmax skips a NaN (inf - inf off the diagonal of an overflowed
            # p @ p); the diagonal of a Hermitian p @ p is a sum of squares.
            idem = float(np.fmax.reduce(np.abs(p @ p - p), axis=None)) if p.size else 0.0
        if not herm <= HERM_TOL:
            raise InvalidProjector(f"not Hermitian (defect {herm:.3e})")
        if not idem <= HERM_TOL:
            raise InvalidProjector(f"not idempotent (defect {idem:.3e})")
        tr = float(p.trace().real)  # finite, as p passed both checks
        rank = round(tr)
        if not abs(tr - rank) <= 1e-6:
            raise InvalidProjector(f"trace {tr} is not near an integer")
        if rank < 1:
            raise InvalidProjector("zero projector has no selective outcome")
        return _trusted(cls, p, rank=rank)

    @classmethod
    def onto(cls, ket) -> "Projector":
        """Rank-1 projector onto the ray of ``ket``."""
        v = unit_ket(ket, InvalidProjector)
        return _trusted(cls, np.outer(v, v.conj()), rank=1)


def require_rank1(p: Projector) -> None:
    if p.rank != 1:  # a degenerate outcome leaves the selected state undetermined
        raise InvalidProjector(f"selective outcome must be rank 1, got rank {p.rank}")


@dataclass(frozen=True, eq=False)
class ObservableSpectral:
    """A Hermitian observable with its spectral resolution.

    ``ObservableSpectral(a)`` is :func:`spectral_decompose` of ``a``.
    ``pairs`` is derived: ``(eigenvalue, eigenprojector)`` in ascending
    eigenvalue order; nearly degenerate eigenvalues are merged into a
    single projector, so the projectors are mutually orthogonal and
    complete.
    """

    observable: np.ndarray
    pairs: tuple[tuple[float, Projector], ...] = field(init=False)

    def __post_init__(self):
        self.__dict__.update(spectral_decompose(self.observable).__dict__)

    @property
    def dim(self) -> int:
        return self.observable.shape[0]


def _spectrum(a: np.ndarray) -> tuple[list[float], list[np.ndarray], list[int]]:
    """Cluster means, eigenprojector matrices and their ranks of the square
    complex matrix ``a``, in ascending eigenvalue order, after the
    observable's Hermiticity check; ``a`` is read, never written."""
    adj = a.conj().T
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf defect fails
        defect = _max_abs(a - adj)
        herm = (a + adj) / 2
    _check_hermitian(defect, "observable")
    w, v = _eigh(herm)
    ws = w.tolist()
    if math.isnan(sum(ws)):  # a + a^dag overflowed: an entry is near the float limit
        w, v = _eigh(a / 2 + adj / 2)
        ws = w.tolist()
    means: list[float] = []
    projectors: list[np.ndarray] = []
    ranks: list[int] = []
    start = 0
    for i in range(1, len(ws) + 1):
        if i == len(ws) or ws[i] - ws[i - 1] > DEGENERACY_TOL:
            block = v[:, start:i]
            projectors.append(block @ block.conj().T)
            ranks.append(i - start)
            # np.mean of one value w is (0.0 + w) / 1: -0.0 reads 0.0.  Above
            # 2^1000 a gap is at least 2^948, so a cluster's values are equal,
            # and its mean is its first value where their sum would overflow.
            if i - start == 1 or abs(ws[start]) > 2.0**1000:
                means.append(0.0 + ws[start])
            else:
                means.append(float(np.mean(w[start:i])))
            start = i
    return means, projectors, ranks


def spectral_decompose(a) -> ObservableSpectral:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues closer than ``DEGENERACY_TOL`` (consecutive-gap
    clustering) are treated as one degenerate level and their
    eigenvectors are merged into a single projector.  Each reported
    eigenvalue is the mean of its cluster.  The work is done by
    ``_spectrum``, which the pointer also calls directly on a raw
    observable, without building the wrapper objects.
    """
    a = as_operator(a, copy=True)
    means, projectors, ranks = _spectrum(a)
    pairs = tuple(
        (mean, _trusted(Projector, p, rank=rank))
        for mean, p, rank in zip(means, projectors, ranks)
    )
    return _trusted(ObservableSpectral, a, "observable", pairs=pairs)


def validate_density(m) -> DensityOperator:
    """Check the density-operator invariants and return the state.

    Raises :class:`HermiticityViolation`, :class:`TraceViolation` or
    :class:`NegativeEigenvalue` with the offending defect.  Eigenvalues
    in ``[-PSD_TOL, 0)`` are treated as roundoff: they are clipped to
    zero, the state is renormalized, and the clipped mass is reported on
    ``psd_adjustment``.  It is the one-matrix case of ``_validate_states``.
    """
    return _validate_states(as_operator(m, copy=True)[None])[0]


def _validate_states(stack: np.ndarray) -> list[DensityOperator]:
    """:func:`validate_density` on each matrix of a ``(k, d, d)`` stack that the
    library owns, in order, with one Hermiticity reduction and one ``eigh``."""
    adj = stack.conj().swapaxes(1, 2)
    # Each check below fails on NaN or inf, so an overflow must not warn.
    with np.errstate(invalid="ignore", over="ignore"):
        defects = np.abs(stack - adj).max(axis=(1, 2), initial=0.0).tolist()
        traces = stack.diagonal(0, 1, 2).sum(-1).tolist()
        herm = (stack + adj) / 2
    # Decompose the states before the first that fails a cheap check: a
    # negative eigenvalue of an earlier state is reported before that failure.
    n = 0
    while n < len(stack) and defects[n] <= HERM_TOL and abs(traces[n] - 1.0) <= TRACE_TOL:
        n += 1
    # eigh, not eigvalsh, even when nothing is clipped: the two can differ in
    # the last bit, and so in the sign of a pure state's zero eigenvalue.
    ws, vs = _eigh(herm[:n])
    out = []
    for i, (low, *_) in enumerate(ws.tolist()):
        if not low >= -PSD_TOL:
            if math.isnan(low):  # m + m^dag overflowed: an entry is above 1, so not PSD
                low = np.linalg.eigvalsh(stack[i] / 2 + adj[i] / 2)[0]
            raise NegativeEigenvalue("negative eigenvalue", abs(float(low)))
        if low >= 0.0:  # nothing to clip: the state is a frozen view of the stack
            mat, adjustment = stack[i], 0.0
        else:
            clipped = np.clip(ws[i], 0.0, None)
            mat = (vs[i] * clipped) @ dagger(vs[i])
            mat, adjustment = mat / np.trace(mat).real, float(np.sum(clipped - ws[i]))
        out.append(_trusted(DensityOperator, mat, psd_adjustment=adjustment))
    if n < len(stack):
        _check_hermitian(defects[n], "matrix")
        raise TraceViolation("trace differs from 1", abs(traces[n] - 1.0))
    return out

"""Gaussian-pointer readout: where weak values come from in the lab.

An impulsive coupling of strength ``g`` between the system observable
and the pointer momentum displaces a Gaussian pointer (position spread
``sigma``) by ``g * a_n`` on the spectral branch ``a_n``.  After
postselection the pointer wavefunction is a superposition of displaced
Gaussians, and every moment has a closed form in the branch amplitudes
``c_n = <psi2|P_n|psi1>`` because the Gaussian overlap integrals are
elementary:

    <phi_A | phi_B>     = exp(-(A - B)^2 / (8 sigma^2))
    <phi_A | x | phi_B> = ((A + B) / 2) * <phi_A | phi_B>

No quadrature is involved.  In the weak limit ``g -> 0`` the position
shift is ``g * Re(O_w)`` with cubic leading corrections (the shift is
odd in ``g``), and the momentum shift is
``hbar g / (2 sigma^2) * Im(O_w)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _DEFERRED
from .errors import OrthogonalPostselection, VanishingPostselection
from .operators import (
    ZERO_TOL,
    ObservableSpectral,
    require_positive_finite,
    spectral_decompose,
    unit_ket,
)

__all__ = list(_DEFERRED["pointer"])


def _require_sigma(sigma: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``sigma`` is positive and
    ``8 sigma^2``, the denominator of every overlap exponent, is a positive
    normal double: one that underflows to 0 makes the exponent 0/0."""
    require_positive_finite(sigma, name)
    s = float(sigma)
    if not sys.float_info.min <= 8.0 * s * s < math.inf:
        raise ValueError(
            f"{name} = {sigma} is out of range: 8 sigma^2 is not a normal double"
        )


@dataclass(frozen=True)
class GaussianPointer:
    """Pointer wavepacket: position spread ``sigma``, coupling ``g``."""

    sigma: float
    g: float

    def __post_init__(self):
        _require_sigma(self.sigma, "pointer spread sigma")
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")


def _branches(psi1, psi2, obs) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and postselected branch amplitudes c_n = <psi2|P_n|psi1>."""
    if not isinstance(obs, ObservableSpectral):
        obs = spectral_decompose(obs)
    v1, v2 = unit_ket(psi1), unit_ket(psi2)
    if v1.size != obs.dim or v2.size != obs.dim:
        raise ValueError("state vectors must match the observable dimension")
    a = np.array(obs.eigenvalues, dtype=float)
    c = np.array([v2.conj() @ (p.mat @ v1) for p in obs.projectors], dtype=complex)
    return a, c


def _kernel(a: np.ndarray, c: np.ndarray, sigma: float, g: np.ndarray):
    """Overlap kernels ``conj(c_m) c_n E_mn`` for the couplings ``g`` (shape
    ``(G,)``) and their sums, the postselection probabilities including the
    pointer, all ``G`` in one pass; raises when no trial survives at some
    coupling."""
    g = g[:, None, None]
    with np.errstate(over="ignore"):  # (g Δa)^2 = inf: exp(-inf) = 0 is exact
        e = np.exp(-((g * (a[:, None] - a[None, :])) ** 2) / (8.0 * sigma**2))
    kernel = np.outer(c.conj(), c) * e
    den = kernel.reshape(g.size, -1).sum(axis=1).real
    if not (den > ZERO_TOL).all():  # NaN fails
        raise VanishingPostselection(
            f"postselection probability {den.min():.3e} below tolerance"
        )
    return kernel, den


def _mean(kernel: np.ndarray, den: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """Postselected means ``sum_mn kernel_mn moment_mn / den``, one per
    coupling; ``ValueError`` when one is not finite."""
    mean = (kernel * moment).reshape(den.size, -1).sum(axis=1).real / den
    if not np.isfinite(mean).all():
        raise ValueError(f"pointer mean {mean.tolist()} is not finite")
    return mean


def _position_means(a, c, sigma: float, g: np.ndarray) -> np.ndarray:
    kernel, den = _kernel(a, c, sigma, g)
    return _mean(kernel, den, g[:, None, None] * (a[:, None] + a[None, :]) / 2.0)


def postselected_pointer_mean(psi1, psi2, obs, ptr: GaussianPointer) -> float:
    """Exact postselected pointer position average at finite coupling.

    ``sum_mn conj(c_m) c_n (g(a_m + a_n)/2) E_mn / sum_mn conj(c_m) c_n E_mn``
    with ``E_mn`` the displaced-Gaussian overlap.  The denominator is
    the postselection probability including the pointer; when it
    vanishes (e.g. exactly orthogonal selections with a single branch)
    no trial survives and :class:`VanishingPostselection` is raised.  A
    mean that overflows to a non-finite value raises ``ValueError``.
    """
    a, c = _branches(psi1, psi2, obs)
    return float(_position_means(a, c, ptr.sigma, np.array([ptr.g]))[0])


def postselected_pointer_momentum_mean(
    psi1, psi2, obs, ptr: GaussianPointer, hbar: float = 1.0
) -> float:
    """Exact postselected pointer momentum average at finite coupling.

    Secondary readout: in the weak limit the shift is
    ``hbar g / (2 sigma^2) * Im(O_w)``, so the momentum channel exposes
    the imaginary part of the weak value.  A mean past the double range
    raises ``ValueError``.
    """
    require_positive_finite(hbar, "hbar")
    a, c = _branches(psi1, psi2, obs)
    kernel, den = _kernel(a, c, ptr.sigma, np.array([ptr.g]))
    diffs = a[:, None] - a[None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # hbar g = inf: handled below
        moment = 1j * hbar * ptr.g * diffs / (4.0 * ptr.sigma**2)
    if np.isfinite(moment).all():
        return float(_mean(kernel, den, moment)[0])
    # The weight hbar g / (4 sigma^2) overflowed.  Sum the kernel against
    # i Δa alone, so that a kernel underflowed to 0 gives 0, and apply the
    # weight as mantissas and a power of two.
    frac = float(_mean(kernel, den, 1j * diffs)[0])
    (m, e), (mh, eh), (mg, eg), (ms, es) = map(
        math.frexp, (frac, hbar, ptr.g, 4.0 * ptr.sigma**2)
    )
    try:
        return math.ldexp(m * mh * mg / ms, e + eh + eg - es)
    except OverflowError:
        raise ValueError(f"pointer mean {frac} * hbar g / (4 sigma^2) is not finite") from None


@dataclass(frozen=True)
class SlopeFit:
    """Weak-limit fit of shift-vs-coupling.

    ``slope`` is the least-squares through-origin slope over the grid,
    ``weak_value_re`` the exact ``Re(O_w)`` it estimates, and
    ``bound_constant`` the constant ``C`` in the error model
    ``|slope - Re(O_w)| <= C (g_max / sigma)^2``, and ``shifts`` the
    exact pointer shift at each grid coupling.
    """

    slope: float
    weak_value_re: float
    bound_constant: float
    shifts: tuple[float, ...]


def weak_limit_slope(psi1, psi2, obs, sigma: float, g_grid) -> SlopeFit:
    """Extract ``Re(O_w)`` from pointer shifts over a grid of couplings.

    The grid must stay weak (``g_max * max|a_m - a_n| <= sigma``) and
    span at least a decade so the linearity of the shift is actually
    exercised.  The fit is least squares through the origin, since the
    shift is an odd function of ``g``.  Every shift comes from one kernel
    pass over the whole grid, in O(``len(g_grid)`` d^2) memory.
    """
    _require_sigma(sigma, "sigma")
    g = np.asarray(g_grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("g_grid must be a 1-d grid with at least two points")
    if not ((g > 0) & (g < math.inf)).all():  # NaN fails both
        raise ValueError("g_grid must be positive and each coupling g must be finite")
    a, c = _branches(psi1, psi2, obs)
    spread = float(np.max(a) - np.min(a))
    if spread > 0 and float(g.max()) * spread > sigma:
        raise ValueError(
            f"grid reaches g*spread = {g.max() * spread:.3e} > sigma = {sigma}: "
            "not in the weak-coupling regime"
        )
    if float(g.max()) / float(g.min()) < 10.0:
        raise ValueError("g_grid must span at least one decade")
    # bound_constant divides by (g_max / sigma)^2: keep it a normal double.
    ratio = float(g.max()) / sigma
    if not 2.0**-511 <= ratio < 2.0**512:
        raise ValueError(
            f"g_max / sigma = {g.max()} / {sigma} is out of range: "
            "(g_max / sigma)^2 is not a normal double"
        )
    shifts = _position_means(a, c, sigma, g)
    slope = float(np.dot(g, shifts) / np.dot(g, g))
    overlap = complex(np.asarray(c).sum())
    if abs(overlap) <= ZERO_TOL:
        raise OrthogonalPostselection("selections are orthogonal: no weak value")
    numerator = complex(np.dot(a, c))
    weak_value_re = float((numerator / overlap).real)
    bound_constant = abs(slope - weak_value_re) / ratio**2
    return SlopeFit(slope, weak_value_re, bound_constant, tuple(shifts.tolist()))

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
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection, VanishingPostselection
from .operators import (
    ZERO_TOL,
    ObservableSpectral,
    require_positive_finite,
    spectral_decompose,
    unit_ket,
)

__all__ = [
    "GaussianPointer",
    "SlopeFit",
    "postselected_pointer_mean",
    "postselected_pointer_momentum_mean",
    "weak_limit_slope",
]


@dataclass(frozen=True)
class GaussianPointer:
    """Pointer wavepacket: position spread ``sigma``, coupling ``g``."""

    sigma: float
    g: float

    def __post_init__(self):
        require_positive_finite(self.sigma, "pointer spread sigma")
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
    the imaginary part of the weak value.  A non-finite mean raises ``ValueError``.
    """
    require_positive_finite(hbar, "hbar")
    a, c = _branches(psi1, psi2, obs)
    kernel, den = _kernel(a, c, ptr.sigma, np.array([ptr.g]))
    diffs = a[:, None] - a[None, :]
    return float(_mean(kernel, den, 1j * hbar * ptr.g * diffs / (4.0 * ptr.sigma**2))[0])


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
    require_positive_finite(sigma, "sigma")
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
    shifts = _position_means(a, c, sigma, g)
    slope = float(np.dot(g, shifts) / np.dot(g, g))
    overlap = complex(np.asarray(c).sum())
    if abs(overlap) <= ZERO_TOL:
        raise OrthogonalPostselection("selections are orthogonal: no weak value")
    numerator = complex(np.dot(a, c))
    weak_value_re = float((numerator / overlap).real)
    bound_constant = abs(slope - weak_value_re) / (float(g.max()) / sigma) ** 2
    return SlopeFit(slope, weak_value_re, bound_constant, tuple(shifts.tolist()))

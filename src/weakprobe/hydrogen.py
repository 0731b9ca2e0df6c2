"""Concrete qubit scenario: spin-z of a two-level atom.

The system is the ground hyperfine doublet of a hydrogen-like atom,
treated as a qubit with basis ``|+>`` and ``|->`` (spin up/down along
z).  The ensemble is prepared in

    psi_in  = a |+>  +  sqrt(1 - |a|^2) |->,

the strong measurement selects the outcome ``|+><+|``, the weak probe
couples to ``S_z = (hbar/2) sigma_z``, and postselection is on

    psi_fin = b |+>  +  sqrt(1 - |b|^2) |->.

Every trace the analytic predictions need has a one-line closed form in
``|a|^2``, ``|b|^2`` and ``hbar``; this module builds the generic
protocol configuration and gives both predictions from the closed forms.

Predictions (in units of hbar): the instantaneous model always gives
``hbar/2`` — both trial orderings yield the eigenvalue of the selected
branch.  The objective model gives ``hbar |a|^2 / 2`` once the collapse
outlasts the jitter window, and interpolates linearly in
``delta_t_c / delta_t_m`` below that.  The gap closes only at
``|a| = 1``, so any preparation not already in the selected branch can
discriminate the models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection
from .operators import ZERO_TOL, DensityOperator, Projector, require_positive_finite
from .weakvalues import ProtocolConfig, _weak_window

__all__ = [
    "PLUS",
    "MINUS",
    "SIGMA_Z",
    "HydrogenScenario",
    "HydrogenPredictions",
    "build_hydrogen",
    "hydrogen_predictions",
]

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_NORM_SLACK = 1e-12

# The selected branch |+><+|, built once: a Projector is frozen, so it is shared.
_PLUS_PROJECTOR = Projector.onto(PLUS)


@dataclass(frozen=True)
class HydrogenScenario:
    """Preparation amplitude ``a``, postselection amplitude ``b``."""

    a: complex
    b: complex
    hbar: float = 1.0

    def __post_init__(self):
        for name, amp in (("a", self.a), ("b", self.b)):
            if not abs(amp) <= 1.0 + _NORM_SLACK:  # NaN fails too
                raise ValueError(f"|{name}| = {abs(amp)}: not an amplitude")
        require_positive_finite(self.hbar, "hbar")

    def flags(self) -> list[str]:
        """Caveats that do not invalidate the scenario but weaken it."""
        out = []
        if abs(self.a) <= _NORM_SLACK:
            out.append("a = 0: preparation orthogonal to the selected branch")
        if abs(self.b) <= _NORM_SLACK:
            out.append("b = 0: postselection orthogonal to the selected branch")
        if self.degenerate:
            out.append("|a| = 1: model predictions coincide (degenerate scenario)")
        return out

    @property
    def degenerate(self) -> bool:
        """``|a| = 1``: the two models predict the same value."""
        return abs(abs(self.a) - 1.0) <= _NORM_SLACK

    @property
    def psi_in(self) -> np.ndarray:
        return self.a * PLUS + math.sqrt(max(0.0, 1.0 - abs(self.a) ** 2)) * MINUS

    @property
    def psi_fin(self) -> np.ndarray:
        return self.b * PLUS + math.sqrt(max(0.0, 1.0 - abs(self.b) ** 2)) * MINUS


def build_hydrogen(
    a: complex,
    b: complex,
    hbar: float = 1.0,
    delta_t_m: float = 1.0,
    delta_t_c: float = 1.0,
) -> ProtocolConfig:
    """Assemble the full protocol configuration for the scenario."""
    sc = HydrogenScenario(complex(a), complex(b), hbar)
    return ProtocolConfig(
        rho_in=DensityOperator.pure(sc.psi_in),
        rho_fin=DensityOperator.pure(sc.psi_fin),
        strong_projector=_PLUS_PROJECTOR,
        weak_observable=(hbar / 2.0) * SIGMA_Z,
        delta_t_m=delta_t_m,
        delta_t_c=delta_t_c,
        hbar=hbar,
    )


@dataclass(frozen=True)
class HydrogenPredictions:
    """Closed-form averaged weak values for both models.

    ``degenerate`` flags ``|a| = 1``, where the two predictions
    coincide and the scenario cannot discriminate.
    """

    vn: complex
    objective: complex
    degenerate: bool


def hydrogen_predictions(
    scenario: HydrogenScenario, delta_t_c: float, delta_t_m: float
) -> HydrogenPredictions:
    """Both model predictions from the closed forms: the tests' and the
    benchmark's oracle for ``averaged_weak_value_*`` of :func:`build_hydrogen`.

    Instantaneous: ``hbar/2`` regardless of ``a`` and ``b`` (as long as
    neither vanishes).  Objective: ``hbar |a|^2 / 2`` for
    ``delta_t_c >= delta_t_m``, else
    ``(hbar/2) (1 - (delta_t_c/delta_t_m)(1 - |a|^2))``.
    """
    require_positive_finite(delta_t_c, "delta_t_c")
    require_positive_finite(delta_t_m, "delta_t_m")
    _weak_window(delta_t_m, delta_t_c)
    p = abs(scenario.a) ** 2
    q = abs(scenario.b) ** 2
    if p <= ZERO_TOL or q <= ZERO_TOL:
        raise OrthogonalPostselection(
            "a and b must be nonzero for the trial weak values to exist"
        )
    hbar = scenario.hbar
    vn = hbar / 2.0
    if delta_t_c >= delta_t_m:
        objective = hbar * p / 2.0
    else:
        objective = (hbar / 2.0) * (1.0 - (delta_t_c / delta_t_m) * (1.0 - p))
    return HydrogenPredictions(
        vn=complex(vn),
        objective=complex(objective),
        degenerate=scenario.degenerate,
    )

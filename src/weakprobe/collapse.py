"""Ensemble evolutions during a selective strong measurement.

Two ways a measurement can turn the pre-measurement state into the
selected outcome are modeled:

* an *objective* collapse that is a genuine continuous process: over a
  window of duration ``delta_t_c`` the ensemble state moves along the
  straight line from ``rho_in`` to the outcome projector;

* an *instantaneous* projective collapse whose trigger time is unknown,
  uniformly distributed over a window of duration ``delta_t_m``.  The
  trials that have already collapsed contribute the projector, the rest
  still contribute ``rho_in``, and the ensemble average traces out the
  same straight line.

With equal window durations the two ensembles are identical at every
instant, which is why strong measurements alone cannot tell the models
apart.  Only rank-1 outcome projectors are supported; a degenerate
outcome leaves a selective measurement without a unique final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProjector
from .operators import DensityOperator, ObservableSpectral, Projector, validate_density
from .superops import SuperOp, collapse_superop, solve_completion

__all__ = [
    "UniformTiming",
    "objective_state_at",
    "projective_ensemble_state_at",
    "evolution_superop_objective",
    "strong_statistics",
]


@dataclass(frozen=True)
class UniformTiming:
    """Uniform distribution of an event time over ``(lo, hi)``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty timing window ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def density(self) -> float:
        return 1.0 / self.width

    def contains(self, t: float) -> bool:
        return self.lo <= t <= self.hi


def _require_rank1(p: Projector) -> None:
    if p.rank != 1:
        raise InvalidProjector(
            f"selective outcome must be rank 1, got rank {p.rank}; a degenerate "
            "outcome does not determine the post-measurement state"
        )


def _mix_toward(
    rho_in: DensityOperator, p: Projector, fraction: float
) -> DensityOperator:
    # Shared by both models so that equal window durations give
    # bit-identical states.
    out = (1.0 - fraction) * rho_in.mat + fraction * p.mat
    return validate_density(out)


def objective_state_at(
    rho_in: DensityOperator,
    p: Projector,
    t: float,
    delta_t_c: float,
) -> DensityOperator:
    """Ensemble state a time ``t`` into an objective collapse.

    Linear interpolation ``(1 - t/dtc) rho_in + (t/dtc) P`` for
    ``0 <= t <= delta_t_c``.
    """
    _require_rank1(p)
    if not delta_t_c > 0:
        raise ValueError("collapse duration must be positive")
    if not 0.0 <= t <= delta_t_c:
        raise ValueError(f"t={t} outside the collapse window [0, {delta_t_c}]")
    return _mix_toward(rho_in, p, t / delta_t_c)


def projective_ensemble_state_at(
    rho_in: DensityOperator,
    p: Projector,
    t: float,
    delta_t_m: float,
) -> DensityOperator:
    """Trial-averaged state under instantaneous collapse with timing jitter.

    A fraction ``t/dtm`` of the trials has already collapsed onto ``P``,
    the rest is still ``rho_in``; same straight line as the objective
    model, parametrized by ``delta_t_m``.
    """
    _require_rank1(p)
    if not delta_t_m > 0:
        raise ValueError("timing-jitter window must be positive")
    if not 0.0 <= t <= delta_t_m:
        raise ValueError(f"t={t} outside the jitter window [0, {delta_t_m}]")
    return _mix_toward(rho_in, p, t / delta_t_m)


def evolution_superop_objective(
    t1: float,
    t2: float,
    p: Projector,
    delta_t_c: float,
) -> SuperOp:
    """Ensemble evolution map of the objective model from ``t1`` to ``t2``.

    Anchored at the start of the collapse window the map is the convex
    combination ``(1 - t2/dtc) * Id + (t2/dtc) * C`` with ``C`` the
    collapse superoperator.  For an interior start time the map is only
    defined implicitly; for ``t2 == delta_t_c`` it is recovered by
    solving the completion problem ``K(E(0, t1)) = E(0, dtc)``, whose
    unique solution is ``C`` itself whenever ``t1 < delta_t_c``.  Other
    anchors are not supported.
    """
    _require_rank1(p)
    if not delta_t_c > 0:
        raise ValueError("collapse duration must be positive")
    if not 0.0 <= t1 <= t2 <= delta_t_c:
        raise ValueError(
            f"need 0 <= t1 <= t2 <= delta_t_c, got t1={t1}, t2={t2}, dtc={delta_t_c}"
        )
    c = collapse_superop(p)
    if t1 == 0.0:
        x = t2 / delta_t_c
        matrix = (1.0 - x) * np.eye(p.dim**2, dtype=complex) + x * c.matrix
        return SuperOp(p.dim, matrix)
    if abs(t2 - delta_t_c) <= 1e-12 * delta_t_c:
        e_first = evolution_superop_objective(0.0, t1, p, delta_t_c)
        return solve_completion(e_first, c).solution
    raise ValueError(
        "unsupported anchor: interior start times are only defined for "
        "t2 = delta_t_c (via the completion problem)"
    )


def strong_statistics(
    rho: DensityOperator, obs: ObservableSpectral
) -> list[tuple[float, float]]:
    """Outcome distribution of a strong measurement of ``obs`` on ``rho``.

    Returns ``(eigenvalue, probability)`` pairs in ascending eigenvalue
    order, probabilities given by ``Tr[P_n rho]``.
    """
    if rho.dim != obs.dim:
        raise ValueError(f"state dim {rho.dim} != observable dim {obs.dim}")
    out = []
    for a, p in obs.pairs:
        prob = float(np.trace(p.mat @ rho.mat).real)
        out.append((a, max(prob, 0.0)))
    return out

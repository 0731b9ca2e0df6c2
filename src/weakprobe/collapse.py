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

import numpy as np

from .errors import DimensionMismatch
from .operators import (
    DensityOperator,
    ObservableSpectral,
    Projector,
    _trusted,
    require_positive_finite,
    require_rank1,
)

__all__ = [
    "objective_state_at",
    "projective_ensemble_state_at",
    "strong_statistics",
]


def _mix_toward(
    rho_in: DensityOperator, p: Projector, t: float, window: float, name: str
) -> DensityOperator:
    # Shared by both models so that equal window durations give
    # bit-identical states.  A convex combination of a state and a rank-1
    # projector is a state, so it is not decomposed again.
    require_rank1(p)
    require_positive_finite(window, name)
    if not 0.0 <= t <= window:  # NaN fails
        raise ValueError(f"need 0 <= {t} <= {name}={window}")
    x = t / window
    return _trusted(DensityOperator, (1.0 - x) * rho_in.mat + x * p.mat, psd_adjustment=0.0)


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
    return _mix_toward(rho_in, p, t, delta_t_c, "collapse window delta_t_c")


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
    return _mix_toward(rho_in, p, t, delta_t_m, "jitter window delta_t_m")


def strong_statistics(
    rho: DensityOperator, obs: ObservableSpectral
) -> list[tuple[float, float]]:
    """Outcome distribution of a strong measurement of ``obs`` on ``rho``.

    Returns ``(eigenvalue, probability)`` pairs in ascending eigenvalue
    order, probabilities given by ``Tr[P_n rho]``.
    """
    if rho.dim != obs.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != observable dim {obs.dim}")
    out = []
    for a, p in obs.pairs:
        prob = float(np.trace(p.mat @ rho.mat).real)
        out.append((a, max(prob, 0.0)))
    return out

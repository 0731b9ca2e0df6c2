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
from .superops import SuperOp, _superop, collapse_superop

__all__ = [
    "objective_state_at",
    "projective_ensemble_state_at",
    "evolution_superop_objective",
    "strong_statistics",
]


def _check_window(p: Projector, name: str, window: float, *times: float) -> None:
    """Rank-1 outcome, finite positive window, ``0 <= t [<= t2] <= window``."""
    require_rank1(p)
    require_positive_finite(window, name)
    if not 0.0 <= times[0] <= times[-1] <= window:  # NaN fails
        raise ValueError(f"need 0 <= {' <= '.join(map(str, times))} <= {name}={window}")


def _mix_toward(
    rho_in: DensityOperator, p: Projector, t: float, window: float, name: str
) -> DensityOperator:
    # Shared by both models so that equal window durations give
    # bit-identical states.  A convex combination of a state and a rank-1
    # projector is a state, so it is not decomposed again.
    _check_window(p, name, window, t)
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


def evolution_superop_objective(
    t1: float,
    t2: float,
    p: Projector,
    delta_t_c: float,
) -> SuperOp:
    """Ensemble evolution map of the objective model from ``t1`` to ``t2``.

    Anchored at the start of the collapse window the map is the convex
    combination ``(1 - t2/dtc) * Id + (t2/dtc) * C`` with ``C`` the
    collapse superoperator.  From an interior start time ``t1 < dtc`` it is
    defined only to the window's end, ``t2 == delta_t_c``, as the solution
    of the completion problem ``K(E(0, t1)) = E(0, dtc)``: ``E(0, t1)`` is
    invertible there, so that solution is ``C`` itself, returned in closed
    form.  Other anchors, ``t1 == delta_t_c`` among them, raise.
    """
    _check_window(p, "collapse window delta_t_c", delta_t_c, t1, t2)
    c = collapse_superop(p)
    if t1 == 0.0:
        x = t2 / delta_t_c
        matrix = (1.0 - x) * np.eye(p.dim**2, dtype=complex) + x * c.matrix
        return _superop(p.dim, matrix)
    if t1 < delta_t_c and abs(t2 - delta_t_c) <= 1e-12 * delta_t_c:
        return c
    raise ValueError(
        f"unsupported anchor ({t1}, {t2}): a start time after 0 is only "
        "defined before delta_t_c, to t2 = delta_t_c"
    )


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

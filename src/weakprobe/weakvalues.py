"""Weak values of a probe observable measured *during* a strong measurement.

The protocol: an ensemble is preselected in ``rho_in``, a strong
selective measurement (outcome projector ``strong_projector``) happens
somewhere inside the run, a weak coupling to ``weak_observable`` fires
at a time ``t_w`` that cannot be controlled relative to the collapse,
and the ensemble is postselected on ``rho_fin``.  The conditional
pointer average is the weak value

    O_w = Tr[rho2 O rho1] / Tr[rho2 rho1],

with ``rho1`` the state evolved forward to ``t_w`` and ``rho2`` the
postselection pulled back to ``t_w``.  For pure states this reduces to
the familiar ``<psi2|O|psi1> / <psi2|psi1>``.

Because the weak-coupling time jitters, the laboratory number is a
*time average* of per-trial weak values, and that average differs
between the two collapse models in :mod:`weakprobe.collapse`:

* instantaneous collapse: each trial is either "weak first" or
  "strong first"; averaging the two orderings gives
  ``(W1 + W3) / 2``.
* objective collapse: trials with ``t_w`` inside the collapse window
  see the partially collapsed state, and the pulled-back postselection
  degenerates to a multiple of the identity, making the weak value an
  *unconditional* expectation there.  Averaging over the window gives
  a value that interpolates between the instantaneous result (short
  collapse) and ``(Tr[O rho_in] + Tr[O P]) / 2`` (collapse longer than
  the timing jitter).

The averaged predictions therefore separate the models; the
discrimination logic at the bottom turns a measured average into a
verdict.  Per-trial weak values are averaged uniformly over the
timing window.

Every closed-form prediction is a function of six traces and the two
window durations; :class:`ProtocolConfig` computes the traces once, on
construction, and the predictions read them from ``cfg.traces``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _DEFERRED
from .errors import DegenerateScenario, DimensionMismatch, OrthogonalPostselection
from .operators import (
    ZERO_TOL,
    DensityOperator,
    Projector,
    _check_hermitian,
    _frozen,
    _max_abs,
    as_operator,
    require_positive_finite,
    require_rank1,
)

__all__ = list(_DEFERRED["weakvalues"])


@dataclass(frozen=True)
class UniformTiming:
    """Uniform distribution of an event time over ``(lo, hi)``."""

    lo: float
    hi: float

    def __post_init__(self):
        require_positive_finite(self.width, "timing window width")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, t: float) -> bool:
        return self.lo <= t <= self.hi


@dataclass(frozen=True)
class ProtocolTraces:
    """The six traces every analytic prediction is built from."""

    proj_obs_in: complex  # Tr[P O rho_in]
    proj_in: complex      # Tr[P rho_in]
    fin_obs_proj: complex  # Tr[rho_fin O P]
    fin_proj: complex      # Tr[rho_fin P]
    obs_in: complex        # Tr[O rho_in]
    obs_proj: complex      # Tr[O P]

    @property
    def weak_first(self) -> complex:
        """``W1 = Tr[P O rho_in] / Tr[P rho_in]``: weak coupling before the collapse."""
        return self.proj_obs_in / self.proj_in

    @property
    def strong_first(self) -> complex:
        """``W3 = Tr[rho_fin O P] / Tr[rho_fin P]``: weak coupling after the collapse."""
        return self.fin_obs_proj / self.fin_proj

    @property
    def vn(self) -> complex:
        """``(W1 + W3) / 2``: the instantaneous-collapse average."""
        return (self.weak_first + self.strong_first) / 2.0

    @property
    def saturated(self) -> complex:
        """``(Tr[O rho_in] + Tr[O P]) / 2``: the objective plateau."""
        return (self.obs_in + self.obs_proj) / 2.0


def _weak_window(delta_t_m: float, delta_t_c: float) -> UniformTiming:
    """Window of the weak-coupling time relative to the collapse start:
    ``delta_t_m`` wide and centred on ``delta_t_c / 2``.  Raises
    ``ValueError`` if it has zero width in double precision."""
    half, center = delta_t_m / 2.0, delta_t_c / 2.0
    lo, hi = center - half, center + half
    if not hi - lo > 0.0:
        raise ValueError(
            f"delta_t_m = {delta_t_m} is below the resolution of delta_t_c = "
            f"{delta_t_c}: the weak window has zero width"
        )
    return UniformTiming(lo, hi)


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Full specification of one weak-measurement-during-collapse run.

    ``delta_t_m`` is the timing-jitter window of the weak coupling
    relative to the strong measurement; ``delta_t_c`` the putative
    objective-collapse duration.  Both postselection overlaps must be
    nonzero or every conditional average is undefined, and the weak
    window must have a nonzero width in double precision.  ``traces`` and
    ``weak_window`` are computed on construction and are not arguments.
    """

    rho_in: DensityOperator
    rho_fin: DensityOperator
    strong_projector: Projector
    weak_observable: np.ndarray
    delta_t_m: float
    delta_t_c: float
    hbar: float = 1.0
    traces: ProtocolTraces = field(init=False, repr=False)
    weak_window: UniformTiming = field(init=False, repr=False)

    def __post_init__(self):
        obs = _frozen(self.weak_observable)
        object.__setattr__(self, "weak_observable", obs)
        p, rin, rfin = self.strong_projector.mat, self.rho_in.mat, self.rho_fin.mat
        if not (rin.shape == rfin.shape == p.shape == obs.shape):  # all are square
            raise DimensionMismatch(
                "rho_in, rho_fin, strong_projector and weak_observable must share "
                "one dimension"
            )
        require_rank1(self.strong_projector)
        # The six products in field order, left to right, as two stacked
        # matmuls: each slice is the BLAS product of the unstacked one, bit for bit.
        left = np.array((p, p, rfin, rfin, obs, obs))
        # One errstate for the observable's check and the traces: a NaN or an
        # overflow in either fails a check below, and must not warn first.
        with np.errstate(invalid="ignore", over="ignore"):
            obs_defect = _max_abs(obs - obs.conj().T)
            prods = left @ np.array((obs, rin, obs, p, rin, p))
            prods[0:3:2] = prods[0:3:2] @ np.array((rin, p))  # P O rho_in, rho_fin O P
            values = prods.diagonal(0, 1, 2).sum(-1).tolist()
        _check_hermitian(obs_defect, "weak_observable")
        for name in ("delta_t_m", "delta_t_c", "hbar"):
            require_positive_finite(getattr(self, name), name)
        object.__setattr__(self, "weak_window", _weak_window(self.delta_t_m, self.delta_t_c))
        t = ProtocolTraces(*values)
        object.__setattr__(self, "traces", t)
        for name, overlap in (("rho_in", t.proj_in.real), ("rho_fin", t.fin_proj.real)):
            if overlap <= ZERO_TOL:
                raise OrthogonalPostselection(
                    f"Tr[P {name}] = {overlap:.3e}: the strong outcome never "
                    f"connects {name} to the rest of the protocol"
                )
        if not all(map(cmath.isfinite, values)):  # finite entries can still overflow
            name = next(f.name for f in fields(t) if not cmath.isfinite(getattr(t, f.name)))
            raise ValueError(f"trace {name} = {getattr(t, name)} is not finite")
        for name in ("vn", "saturated"):  # finite traces can still overflow here
            if not cmath.isfinite(getattr(t, name)):
                raise ValueError(f"prediction {name} = {getattr(t, name)} is not finite")

    @property
    def dim(self) -> int:
        return self.rho_in.dim


def protocol_traces(cfg: ProtocolConfig) -> ProtocolTraces:
    """The six traces of ``cfg``, computed once when it was built."""
    return cfg.traces


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``.  Where the sum of squares leaves the normal
    range, it is taken of ``a`` over its largest entry and scaled back."""
    squares = np.vdot(a, a).real
    if 1e-300 < squares < 1e300:
        return math.sqrt(squares)
    big = _max_abs(a)
    return big * math.sqrt(np.vdot(a / big, a / big).real) if big else 0.0


def weak_value(rho1, rho2, obs) -> complex:
    """Conditional weak value ``Tr[rho2 obs rho1] / Tr[rho2 rho1]``.

    ``rho1``/``rho2`` need not be normalized (or even states); the
    pulled-back postselection typically is not.  Raises
    :class:`OrthogonalPostselection` when the overlap denominator
    vanishes relative to the operands' Frobenius norms, and ``ValueError``
    when an operand is not finite.
    """
    r1 = as_operator(rho1)
    r2 = as_operator(rho2)
    o = as_operator(obs)
    if not (r1.shape == r2.shape == o.shape):
        raise DimensionMismatch("rho1, rho2 and obs must share one dimension")
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite is rejected below
        den = complex(np.trace(r2 @ r1))
        num = complex(np.trace(r2 @ o @ r1))
    if not (cmath.isfinite(den) and cmath.isfinite(num)):
        raise ValueError(f"non-finite operand: weak value {num} / {den}")
    # Cauchy-Schwarz bounds |Tr[rho2 rho1]| by the product of the norms, so the
    # test reads an operand scaled by any factor the same way.
    if abs(den) <= ZERO_TOL * _frobenius(r1) * _frobenius(r2):
        raise OrthogonalPostselection(
            f"overlap Tr[rho2 rho1] = {abs(den):.3e} below tolerance"
        )
    return num / den


def averaged_weak_value_vn(cfg: ProtocolConfig) -> complex:
    """Time-averaged weak value when collapse is instantaneous.

    With the weak-coupling and collapse times drawn independently and
    uniformly from the same window, the two orderings are equally
    likely, so the average is ``cfg.traces.vn``.
    """
    return cfg.traces.vn


def objective_weak_value_at(t_w: float, cfg: ProtocolConfig) -> complex:
    """Per-trial weak value under objective collapse, weak coupling at ``t_w``.

    ``t_w`` is measured from the collapse start and ranges over
    ``cfg.weak_window``.  Before the window starts (``t_w < 0``) the
    trial is weak-first; after the collapse completes (``t_w > dtc``)
    it is strong-first.  Inside the collapse the pulled-back
    postselection is proportional to the identity, so the weak value is
    the plain expectation in the partially collapsed state:
    ``(1 - t_w/dtc) Tr[O rho_in] + (t_w/dtc) Tr[O P]``.
    """
    window = cfg.weak_window
    if not window.contains(t_w):
        raise ValueError(
            f"t_w={t_w} outside the weak-coupling window "
            f"[{window.lo}, {window.hi}]"
        )
    t = cfg.traces
    if t_w < 0.0:
        return t.weak_first
    if t_w > cfg.delta_t_c:
        return t.strong_first
    x = t_w / cfg.delta_t_c
    return (1.0 - x) * t.obs_in + x * t.obs_proj


def objective_weak_value_forward(cfg: ProtocolConfig, t_w: float) -> complex:
    """Mid-collapse weak value via forward evolution of ``O rho1``.

    Evolves both ``O rho1(t_w)`` and ``rho1(t_w)`` to the postselection
    time with the collapse superoperator and takes the ratio of
    overlaps with ``rho_fin``.  Agrees with
    :func:`objective_weak_value_at` on ``0 <= t_w <= delta_t_c``; kept
    as an independent route through the superoperator machinery.
    """
    from . import collapse, superops

    rho1 = collapse.objective_state_at(
        cfg.rho_in, cfg.strong_projector, t_w, cfg.delta_t_c
    ).mat
    c = superops.collapse_superop(cfg.strong_projector)
    o = cfg.weak_observable
    num = complex(np.trace(cfg.rho_fin.mat @ superops.apply_superop(c, o @ rho1)))
    den = complex(np.trace(cfg.rho_fin.mat @ superops.apply_superop(c, rho1)))
    if abs(den) <= ZERO_TOL:
        raise OrthogonalPostselection("forward-evolved overlap vanished")
    return num / den


def objective_weak_value_adjoint(cfg: ProtocolConfig, t_w: float) -> complex:
    """Mid-collapse weak value via the pulled-back postselection.

    Builds ``rho2`` explicitly with :func:`weakprobe.superops.backward_state`
    (the adjoint collapse map applied to ``rho_fin``) and feeds it to
    the general two-state formula.
    """
    from . import collapse, superops

    rho1 = collapse.objective_state_at(
        cfg.rho_in, cfg.strong_projector, t_w, cfg.delta_t_c
    ).mat
    c = superops.collapse_superop(cfg.strong_projector)
    rho2 = superops.backward_state(c, cfg.rho_fin)
    return weak_value(rho1, rho2, cfg.weak_observable)


def apparent_resolution(delta_t_m: float, delta_t_c: float) -> float:
    """Effective timing resolution of the averaged measurement.

    The averaged objective prediction depends on the two windows only
    through ``max(delta_t_m, delta_t_c)``: whichever is longer smears
    the per-trial values.
    """
    require_positive_finite(delta_t_m, "delta_t_m")
    require_positive_finite(delta_t_c, "delta_t_c")
    return max(delta_t_m, delta_t_c)


def averaged_weak_value_objective(cfg: ProtocolConfig) -> complex:
    """Time-averaged weak value when collapse is an objective process.

    Uniform average of :func:`objective_weak_value_at` over the weak
    window.  With ``dta = max(dtm, dtc)`` the closed form is

        ((dta - dtc) / (2 dta)) * (W1 + W3)
        + (dtc / (2 dta)) * (Tr[O rho_in] + Tr[O P]),

    which reduces to the instantaneous-model value as ``dtc -> 0`` and
    saturates at ``(Tr[O rho_in] + Tr[O P]) / 2`` once the collapse
    outlasts the timing jitter.
    """
    t = cfg.traces
    dtc = cfg.delta_t_c
    dta = apparent_resolution(cfg.delta_t_m, dtc)
    # (dta - dtc) / (2 dta), written so that 2 dta cannot overflow
    ordered = (dta - dtc) / dta / 2.0 * (t.weak_first + t.strong_first)
    return ordered + dtc / dta * t.saturated


def _line_coordinate(offset: complex, span: complex) -> float:
    """``Re[offset conj(span)] / |span|^2``, the coordinate of ``offset``
    along ``span``.  Where that formula overflows, or ``|span| < 2**-480``,
    where ``|span|^2``, or the numerator of a coordinate above ``2**-62``,
    would lose bits below the normal range, both numbers are first scaled by
    powers of two, which is exact, and a coordinate beyond the double range
    comes out as an infinity of its sign."""
    try:
        r = abs(span)
        x = (offset * span.conjugate()).real / r**2 if r >= 2.0**-480 else math.nan
    except OverflowError:  # |span| or its square
        x = math.nan
    if math.isfinite(x):
        return x
    k_off = math.frexp(max(abs(offset.real), abs(offset.imag)))[1]
    k_span = math.frexp(max(abs(span.real), abs(span.imag)))[1]
    o = complex(math.ldexp(offset.real, -k_off), math.ldexp(offset.imag, -k_off))
    s = complex(math.ldexp(span.real, -k_span), math.ldexp(span.imag, -k_span))
    q = (o * s.conjugate()).real / abs(s) ** 2  # parts below 1, |s| at least 1/2
    try:
        return math.ldexp(q, k_off - k_span)
    except OverflowError:
        return math.copysign(math.inf, q)


@dataclass(frozen=True)
class DiscriminationVerdict:
    """Outcome of comparing a measured average against both models.

    ``model`` is ``"vn"``, ``"objective"`` or ``"inconclusive"``.  For
    an objective verdict ``branch`` says which part of the prediction
    curve matched: ``"jitter"`` (collapse shorter than the jitter
    window, ``delta_t_c_estimate`` holds the inferred duration) or
    ``"saturated"`` (any collapse duration >= the jitter window fits,
    so no point estimate is possible).  ``residual`` is the distance
    between the measurement and the matched prediction.
    """

    model: str
    delta_t_c_estimate: float | None
    branch: str | None
    residual: float


def _fit(t: ProtocolTraces, measured: complex) -> tuple[float, float, float]:
    """``(x, off_vn, residual)``: the coordinate of ``measured`` on the line from
    ``t.vn`` (0) to ``t.saturated`` (1), its distance from ``t.vn``, and its
    distance from the objective curve, the line at ``x`` clipped to ``[0, 1]``."""
    v_vn, v_sat = t.vn, t.saturated
    if abs(v_vn - v_sat) <= ZERO_TOL * max(abs(v_vn), abs(v_sat)):
        raise DegenerateScenario(
            "instantaneous and objective predictions coincide for this configuration; "
            "the averaged weak value carries no discriminating power"
        )
    x = _line_coordinate(measured - v_vn, v_sat - v_vn)
    on_curve = v_sat if x >= 1.0 else (1.0 - x) * v_vn + x * v_sat if x > 0.0 else v_vn
    try:
        off_vn, residual = abs(measured - v_vn), abs(measured - on_curve)
    except OverflowError:  # finite parts, a modulus past the double range
        off_vn = residual = math.inf
    if math.inf in (off_vn, residual):
        raise ValueError(f"measured value {measured}: its distance from {v_vn} overflows")
    return x, off_vn, residual


def discriminate(
    measured: complex,
    cfg: ProtocolConfig,
    sigma_meas: float,
) -> DiscriminationVerdict:
    """Turn a measured time-averaged weak value into a model verdict.

    Policy: ``"vn"`` within ``2 sigma_meas`` of the instantaneous prediction
    (a vanishing collapse duration can never be excluded), else
    ``"inconclusive"`` beyond ``2 sigma_meas`` of the objective curve (linear
    in ``delta_t_c`` up to its plateau at ``delta_t_c = delta_t_m``), else
    ``"objective"``: ``"saturated"`` on the plateau, ``"jitter"`` before it.

    Raises :class:`DegenerateScenario` when both models predict the
    same value, since then the measurement cannot separate them, and
    ``ValueError`` for a non-finite measurement or uncertainty, or for
    a measurement whose distance from the predictions overflows.
    """
    require_positive_finite(sigma_meas, "sigma_meas")
    measured = complex(measured)
    if not cmath.isfinite(measured):
        raise ValueError(f"measured value {measured} is not finite")
    x, off_vn, residual = _fit(cfg.traces, measured)
    if off_vn <= 2.0 * sigma_meas:
        return DiscriminationVerdict("vn", None, None, off_vn)
    if not residual <= 2.0 * sigma_meas:
        return DiscriminationVerdict("inconclusive", None, None, residual)
    if x >= 1.0:
        return DiscriminationVerdict("objective", None, "saturated", residual)
    return DiscriminationVerdict("objective", x * cfg.delta_t_m, "jitter", residual)

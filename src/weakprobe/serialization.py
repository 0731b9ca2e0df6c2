"""JSON wire formats for operators and configurations.

An operator is ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major nested lists.  A protocol configuration nests operator objects
under fixed keys.  Floats pass through ``json`` with their shortest
round-trip representation, so a dump/load cycle is lossless at full
double precision.
"""

from __future__ import annotations

import numpy as np

from .operators import Projector, _validate_states, as_operator, validate_density
from .weakvalues import ProtocolConfig

__all__ = [
    "operator_to_json",
    "config_to_json",
    "config_from_json",
]

_CONFIG_OPERATOR_KEYS = ("rho_in", "rho_fin", "strong_projector", "weak_observable")
_CONFIG_SCALAR_KEYS = ("delta_t_m", "delta_t_c", "hbar")


def operator_to_json(m) -> dict:
    a = as_operator(m)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def _matrix_from_json(obj, what: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = {"dim", "re", "im"} - obj.keys()
    if missing:
        raise ValueError(f"{what}: missing keys {sorted(missing)}")
    d = obj["dim"]
    if not (type(d) is int and d >= 1):  # a bool is not a dimension
        raise ValueError(f"{what}: dim must be a positive integer, got {d!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(
            f"{what}: re/im shapes {re.shape}/{im.shape} do not match dim {d}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # json reads NaN, Infinity
        raise ValueError(f"{what}: entries must be finite")
    return re + 1j * im


def config_to_json(cfg: ProtocolConfig) -> dict:
    return {
        "rho_in": operator_to_json(cfg.rho_in.mat),
        "rho_fin": operator_to_json(cfg.rho_fin.mat),
        "strong_projector": operator_to_json(cfg.strong_projector.mat),
        "weak_observable": operator_to_json(cfg.weak_observable),
        "delta_t_m": cfg.delta_t_m,
        "delta_t_c": cfg.delta_t_c,
        "hbar": cfg.hbar,
    }


def _stack_from_json(obj: dict) -> np.ndarray | None:
    """The four config operators as one ``(4, d, d)`` stack, by one ``np.array``
    and one finiteness check; None unless all are well formed, of one ``dim``."""
    ops = [obj[k] for k in _CONFIG_OPERATOR_KEYS]
    try:  # a failure here is left to _matrix_from_json, which names the operator
        d = ops[0]["dim"]
        if [(type(op), type(op["dim"]), op["dim"]) for op in ops] != [(dict, int, d)] * 4:
            return None
        parts = np.array([(op["re"], op["im"]) for op in ops], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if parts.shape != (4, 2, d, d) or not np.isfinite(parts).all():
        return None
    return parts[:, 0] + 1j * parts[:, 1]  # as _matrix_from_json adds them


def config_from_json(obj) -> ProtocolConfig:
    """Parse and fully validate a configuration document.

    All operator invariants are enforced on the way in, so a config that
    parses is a config the analytic functions accept.  The four operators,
    of one integer ``dim``, are decoded as one stack and both states checked
    together, with the errors that checking each part in key order gives.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"config: expected an object, got {type(obj).__name__}")
    missing = set(_CONFIG_OPERATOR_KEYS + _CONFIG_SCALAR_KEYS) - obj.keys()
    if missing:
        raise ValueError(f"config: missing keys {sorted(missing)}")
    mats = stack = _stack_from_json(obj)
    if stack is None:  # the first malformed operator raises; differing dims pass
        mats = [_matrix_from_json(obj[k], k) for k in _CONFIG_OPERATOR_KEYS]
    scalars = {}
    for k in _CONFIG_SCALAR_KEYS:
        v = obj[k]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"config: {k} must be a number, got {v!r}")
        scalars[k] = float(v)
    if stack is None:  # ProtocolConfig rejects the differing dims, after these
        states = map(validate_density, mats[:2])
    else:  # own copies: views would keep all four operators alive
        states = _validate_states(stack[:2].copy())
    return ProtocolConfig(*states, Projector.from_matrix(mats[2]), mats[3], **scalars)

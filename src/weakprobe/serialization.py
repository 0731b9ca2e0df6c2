"""JSON wire formats for operators, superoperators and configurations.

An operator is ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major nested lists.  A superoperator uses the same number-array
layout for its ``d^2 x d^2`` matrix plus a ``"vectorization": "column"``
tag recording the stacking convention.  A protocol configuration nests
operator objects under fixed keys.  Floats pass through ``json`` with
their shortest round-trip representation, so a dump/load cycle is
lossless at full double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import Projector, as_operator, validate_density
from .superops import SuperOp
from .weakvalues import ProtocolConfig

__all__ = [
    "operator_to_json",
    "operator_from_json",
    "superop_to_json",
    "superop_from_json",
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
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"{what}: dim must be a positive integer, got {d!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(
            f"{what}: re/im shapes {re.shape}/{im.shape} do not match dim {d}"
        )
    return re + 1j * im


def operator_from_json(obj) -> np.ndarray:
    """Parse the ``{"dim", "re", "im"}`` layout back into a matrix."""
    return _matrix_from_json(obj, "operator")


def superop_to_json(k: SuperOp) -> dict:
    out = operator_to_json(k.matrix)
    out["vectorization"] = "column"
    return out


def superop_from_json(obj) -> SuperOp:
    if isinstance(obj, dict) and obj.get("vectorization") != "column":
        raise ValueError(
            f"superoperator: vectorization tag must be 'column', "
            f"got {obj.get('vectorization')!r}"
        )
    m = _matrix_from_json(obj, "superoperator")
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise ValueError(
            f"superoperator: matrix dim {m.shape[0]} is not a perfect square"
        )
    return SuperOp(d, m)


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


def config_from_json(obj) -> ProtocolConfig:
    """Parse and fully validate a configuration document.

    All operator invariants are enforced on the way in, so a config that
    parses is a config the analytic functions accept.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"config: expected an object, got {type(obj).__name__}")
    missing = set(_CONFIG_OPERATOR_KEYS + _CONFIG_SCALAR_KEYS) - obj.keys()
    if missing:
        raise ValueError(f"config: missing keys {sorted(missing)}")
    mats = {k: _matrix_from_json(obj[k], k) for k in _CONFIG_OPERATOR_KEYS}
    scalars = {}
    for k in _CONFIG_SCALAR_KEYS:
        v = obj[k]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"config: {k} must be a number, got {v!r}")
        scalars[k] = float(v)
    return ProtocolConfig(
        rho_in=validate_density(mats["rho_in"]),
        rho_fin=validate_density(mats["rho_fin"]),
        strong_projector=Projector.from_matrix(mats["strong_projector"]),
        weak_observable=mats["weak_observable"],
        **scalars,
    )

"""Shared helpers: random objects and independent oracles for the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings

from weakprobe import (
    DensityOperator,
    Projector,
    ProtocolConfig,
    SuperOp,
    collapse_superop,
    validate_density,
)

settings.register_profile(
    "weakprobe",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("weakprobe")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def random_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_density(rng: np.random.Generator, d: int) -> DensityOperator:
    """Full-rank random state: normalized A A^dag plus a mixed floor."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + 0.1 * np.eye(d)
    return validate_density(m / np.trace(m).real)


def random_rank1_projector(rng: np.random.Generator, d: int) -> Projector:
    return Projector.onto(random_ket(rng, d))


def random_superop(rng: np.random.Generator, d: int) -> SuperOp:
    n = d * d
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return SuperOp(d, m)


def objective_map(p: Projector, s: float) -> SuperOp:
    """Ensemble map of the objective model over the first fraction ``s`` of
    its window, ``(1 - s) Id + s C``, built inline as acceptance 6 builds it."""
    n = p.dim**2
    return SuperOp(p.dim, (1.0 - s) * np.eye(n) + s * collapse_superop(p).matrix)


def random_config(rng: np.random.Generator, d: int = 2) -> ProtocolConfig:
    """A valid random protocol configuration with healthy overlaps."""
    while True:
        rho_in = random_density(rng, d)
        rho_fin = random_density(rng, d)
        proj = random_rank1_projector(rng, d)
        p = proj.mat
        if (
            np.trace(p @ rho_in.mat).real > 1e-3
            and np.trace(p @ rho_fin.mat).real > 1e-3
        ):
            break
    return ProtocolConfig(
        rho_in=rho_in,
        rho_fin=rho_fin,
        strong_projector=proj,
        weak_observable=random_hermitian(rng, d),
        delta_t_m=float(rng.uniform(0.5, 2.0)),
        delta_t_c=float(rng.uniform(0.5, 2.0)),
    )


def spin_config(a=np.sqrt(0.5), b=np.sqrt(0.5), dtm=1.0, dtc=0.5, hbar=1.0):
    """Spin-1/2 reference setup shared by the frozen-number tests."""
    from weakprobe import DensityOperator as _D

    psi_in = np.array([a, np.sqrt(1 - abs(a) ** 2)], dtype=complex)
    psi_fin = np.array([b, np.sqrt(1 - abs(b) ** 2)], dtype=complex)
    return ProtocolConfig(
        rho_in=_D.pure(psi_in),
        rho_fin=_D.pure(psi_fin),
        strong_projector=Projector.onto(np.array([1.0, 0.0], dtype=complex)),
        weak_observable=hbar / 2 * np.diag([1.0, -1.0]).astype(complex),
        delta_t_m=dtm,
        delta_t_c=dtc,
        hbar=hbar,
    )


def line_end_overflow(name: str) -> dict:
    """``ProtocolConfig`` arguments whose six traces are finite but whose
    ``name`` prediction, ``"vn"`` or ``"saturated"``, is not."""
    from weakprobe import DensityOperator as _D

    rho_in, rho_fin, proj, obs = {
        # W1 = -1.05e309 and W3 = +1.05e309 overflow with opposite signs
        "vn": ([-0.6, 0.8], [-0.8, 0.6], [1.0, 1.0], [[1.5e308, 0.0], [0.0, -1.5e308]]),
        # Tr[O rho_in] + Tr[O P] is about 2.7e308
        "saturated": (
            [0.995, 0.1], [1.0, 1.0], [1.0, 0.0], [[1.5e308, -1.5e308], [-1.5e308, 1.7e308]]
        ),
    }[name]
    return dict(
        rho_in=_D.pure(np.array(rho_in)),
        rho_fin=_D.pure(np.array(rho_fin)),
        strong_projector=Projector.onto(np.array(proj)),
        weak_observable=np.array(obs, dtype=complex),
        delta_t_m=1.0,
        delta_t_c=1.0,
    )

"""Bit-exact oracles for the construction path.

``ProtocolConfig`` takes its six traces from two stacked products, and
``validate_density`` returns an unclipped state without the repair
arithmetic.  Both must give exactly the bits of the plain formulas they
replaced, which are copied here as test-local oracles: every comparison is
``==`` or ``np.array_equal``, never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_hermitian, random_ket
from weakprobe import (
    DensityOperator,
    HydrogenScenario,
    Projector,
    ProtocolConfig,
    build_hydrogen,
    validate_density,
)
from weakprobe.errors import NegativeEigenvalue, TraceViolation
from weakprobe.operators import (
    PSD_TOL,
    TRACE_TOL,
    as_operator,
    dagger,
    require_hermitian,
)

DIMS = [2, 3, 4, 5, 8, 16]


def oracle_traces(cfg: ProtocolConfig) -> tuple[complex, ...]:
    """The six traces as single ``np.trace`` products, in field order."""
    p, rin, rfin = cfg.strong_projector.mat, cfg.rho_in.mat, cfg.rho_fin.mat
    obs = cfg.weak_observable
    return (
        complex(np.trace(p @ obs @ rin)),
        complex(np.trace(p @ rin)),
        complex(np.trace(rfin @ obs @ p)),
        complex(np.trace(rfin @ p)),
        complex(np.trace(obs @ rin)),
        complex(np.trace(obs @ p)),
    )


def oracle_validate_density(m) -> tuple[np.ndarray, float]:
    """The eigendecomposition, clip and repair of ``validate_density``, with
    no early return; gives the state's matrix and ``psd_adjustment``."""
    m = as_operator(m)
    require_hermitian(m, "matrix")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise TraceViolation("trace differs from 1", abs(tr - 1.0))
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    if not w[0] >= -PSD_TOL:
        raise NegativeEigenvalue("negative eigenvalue", abs(float(w[0])))
    clipped = np.clip(w, 0.0, None)
    adjustment = float(np.sum(clipped - w))
    if adjustment > 0.0:
        repaired = (v * clipped) @ dagger(v)
        return repaired / np.trace(repaired).real, adjustment
    return m, 0.0


def assert_traces_exact(cfg: ProtocolConfig) -> None:
    t = cfg.traces
    got = (t.proj_obs_in, t.proj_in, t.fin_obs_proj, t.fin_proj, t.obs_in, t.obs_proj)
    assert got == oracle_traces(cfg)
    assert all(type(v) is complex for v in got)


def assert_state_exact(m) -> DensityOperator:
    state = validate_density(m)
    mat, adjustment = oracle_validate_density(m)
    assert np.array_equal(state.mat, mat)
    assert state.psd_adjustment == adjustment
    return state


def random_mixed(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def pure(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


@pytest.mark.parametrize("d", DIMS)
class TestTracesBitExact:
    def test_mixed_states(self, d):
        rng = np.random.default_rng(700 + d)
        for _ in range(40):
            cfg = ProtocolConfig(
                rho_in=DensityOperator(random_mixed(rng, d)),
                rho_fin=DensityOperator(random_mixed(rng, d)),
                strong_projector=Projector.onto(random_ket(rng, d)),
                weak_observable=random_hermitian(rng, d) * 10.0 ** rng.uniform(-6, 6),
                delta_t_m=1.0,
                delta_t_c=0.5,
            )
            assert_traces_exact(cfg)

    def test_pure_states(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(40):
            cfg = ProtocolConfig(
                rho_in=DensityOperator.pure(random_ket(rng, d)),
                rho_fin=DensityOperator.pure(random_ket(rng, d)),
                strong_projector=Projector.onto(random_ket(rng, d)),
                weak_observable=random_hermitian(rng, d),
                delta_t_m=2.0,
                delta_t_c=0.25,
            )
            assert_traces_exact(cfg)


@pytest.mark.parametrize(
    "a, b, hbar",
    [
        (2**-0.5, 2**-0.5, 1.0),
        (0.6 + 0.3j, 0.5 - 0.2j, 2.0),
        (1.0, 0.3, 0.5),
        (1e-3, 1j, 7.0),
    ],
)
def test_hydrogen_traces_bit_exact(a, b, hbar):
    assert_traces_exact(build_hydrogen(a, b, hbar, 1.0, 0.5))
    sc = HydrogenScenario(complex(a), complex(b), hbar)
    assert_state_exact(pure(sc.psi_in))
    assert_state_exact(pure(sc.psi_fin))


@pytest.mark.parametrize("d", DIMS)
class TestValidateDensityBitExact:
    def test_mixed_states(self, d):
        rng = np.random.default_rng(900 + d)
        for _ in range(40):
            assert assert_state_exact(random_mixed(rng, d)).psd_adjustment == 0.0

    def test_pure_states(self, d):
        # A pure state's d - 1 zero eigenvalues come out of eigh as +-1e-17:
        # one negative takes the repair branch, all nonnegative return as given.
        rng = np.random.default_rng(1000 + d)
        adjustments = [
            assert_state_exact(pure(random_ket(rng, d))).psd_adjustment
            for _ in range(60)
        ]
        assert any(x > 0.0 for x in adjustments)
        if d == 2:  # at d = 2 a single sign decides, so both branches are hit
            assert any(x == 0.0 for x in adjustments)

    def test_exact_zero_eigenvalue(self, d):
        diag = np.zeros(d)
        diag[1:] = 1.0 / (d - 1)
        assert assert_state_exact(np.diag(diag)).psd_adjustment == 0.0
        assert assert_state_exact(pure(np.eye(d)[d - 1])).psd_adjustment == 0.0

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_hermitian
from weakprobe import (
    GaussianPointer,
    HermiticityViolation,
    ObservableSpectral,
    OrthogonalPostselection,
    SlopeFit,
    VanishingPostselection,
    postselected_pointer_mean,
    postselected_pointer_momentum_mean,
    spectral_decompose,
    weak_limit_slope,
)
from weakprobe import operators, pointer
from weakprobe.operators import DEGENERACY_TOL, unit_ket

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS_X = np.array([1.0, 1.0]) / np.sqrt(2)
GRID = np.geomspace(1e-3, 1e-2, 13)


def rotated(theta):
    """Real spin state at angle theta from |0> toward -|1>."""
    return np.array([np.cos(theta), -np.sin(theta)], dtype=complex)


def quadrature_moments(psi1, psi2, obs_mat, g, sigma, hbar=1.0):
    """Independent oracle: postselected pointer moments by explicit integration.

    Builds the postselected pointer wavefunction as a sum of displaced
    Gaussians on a dense grid and integrates; derivatives are taken
    analytically so the trapezoid sums are spectrally accurate.
    """
    obs = spectral_decompose(obs_mat)
    v1 = np.asarray(psi1, dtype=complex)
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.asarray(psi2, dtype=complex)
    v2 = v2 / np.linalg.norm(v2)
    a = np.array([level for level, _ in obs.pairs])
    c = np.array([v2.conj() @ (p.mat @ v1) for _, p in obs.pairs])
    span = 12 * sigma + abs(g) * float(np.max(np.abs(a)))
    x = np.linspace(-span, span, 4001)
    psi = np.zeros_like(x, dtype=complex)
    dpsi = np.zeros_like(x, dtype=complex)
    for an, cn in zip(a, c):
        phi = np.exp(-((x - g * an) ** 2) / (4 * sigma**2))
        psi += cn * phi
        dpsi += cn * (-(x - g * an) / (2 * sigma**2)) * phi
    den = np.trapezoid(np.abs(psi) ** 2, x)
    mean_x = np.trapezoid(x * np.abs(psi) ** 2, x) / den
    mean_p = hbar * np.trapezoid((psi.conj() * dpsi).imag, x) / den
    return mean_x, mean_p


def scalar_means(psi1, psi2, obs_mat, sigma, g, hbar=1.0):
    """Reference: the position and momentum means at one coupling, with the
    kernel built for that coupling alone, as before the grid kernel."""
    obs = spectral_decompose(obs_mat)
    v1 = np.asarray(psi1, dtype=complex) / np.linalg.norm(psi1)
    v2 = np.asarray(psi2, dtype=complex) / np.linalg.norm(psi2)
    a = np.array([level for level, _ in obs.pairs], dtype=float)
    c = np.array([v2.conj() @ (p.mat @ v1) for _, p in obs.pairs], dtype=complex)
    diffs = a[:, None] - a[None, :]
    e = np.exp(-((g * diffs) ** 2) / (8.0 * sigma**2))
    kernel = np.outer(c.conj(), c) * e
    den = float(kernel.sum().real)
    sums = a[:, None] + a[None, :]
    x = float((kernel * (g * sums / 2.0)).sum().real) / den
    p = float((kernel * (1j * hbar * g * diffs / (4.0 * sigma**2))).sum().real) / den
    return x, p


class TestPointerValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            GaussianPointer(sigma=0.0, g=0.1)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            postselected_pointer_mean(
                [0, 0], [1, 0], SIGMA_Z, GaussianPointer(1.0, 0.1)
            )

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("obs", [np.eye(2), SIGMA_Z], ids=["identity", "sigma_z"])
    def test_non_finite_coupling_in_grid(self, obs, bad):
        # identity: spread 0, so the weak-regime check cannot see g = inf.
        # A ValueError, never a RuntimeWarning (an error in this suite) or a
        # VanishingPostselection on a NaN probability.
        with pytest.raises(
            ValueError, match="coupling g must be finite|weak-coupling|must be positive"
        ) as exc:
            weak_limit_slope(PLUS_X, rotated(0.3), obs, 1.0, [1e-3, bad])
        assert not isinstance(exc.value, VanishingPostselection)

    def test_vanishing_postselection_on_grid(self):
        with pytest.raises(VanishingPostselection):
            weak_limit_slope([1, 0], [0, 1], SIGMA_Z, 1.0, GRID)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            postselected_pointer_mean(
                [1, 0, 0], [1, 0], SIGMA_Z, GaussianPointer(1.0, 0.1)
            )


class TestPositionMean:
    def test_eigenstate_shift_exact_at_any_coupling(self):
        # single spectral branch: the pointer is one displaced Gaussian
        for g in (0.01, 0.3, 2.0):
            got = postselected_pointer_mean(
                [1, 0], [1, 0], SIGMA_Z, GaussianPointer(1.0, g)
            )
            assert got == pytest.approx(g, abs=1e-14)

    def test_projector_postselection_single_branch(self):
        # postselecting the strong outcome keeps only one branch: exact linearity
        got = postselected_pointer_mean(
            PLUS_X, [1, 0], SIGMA_Z, GaussianPointer(1.0, 1.0)
        )
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_zero_coupling_no_shift(self):
        got = postselected_pointer_mean(
            PLUS_X, rotated(0.3), SIGMA_Z, GaussianPointer(1.0, 0.0)
        )
        assert got == 0.0

    def test_odd_in_coupling(self):
        for g in (0.05, 0.4):
            plus = postselected_pointer_mean(
                PLUS_X, rotated(0.4), SIGMA_Z, GaussianPointer(1.0, g)
            )
            minus = postselected_pointer_mean(
                PLUS_X, rotated(0.4), SIGMA_Z, GaussianPointer(1.0, -g)
            )
            assert plus + minus == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("g", [0.05, 0.2, 0.5])
    def test_quadrature_oracle(self, g):
        psi2 = rotated(np.pi / 4 + 0.3)
        got = postselected_pointer_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(1.0, g)
        )
        oracle, _ = quadrature_moments(PLUS_X, psi2, SIGMA_Z, g, 1.0)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_quadrature_oracle_complex_amplitudes(self):
        psi2 = np.array([1.0, 0.5j])
        got = postselected_pointer_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(0.7, 0.2)
        )
        oracle, _ = quadrature_moments(PLUS_X, psi2, SIGMA_Z, 0.2, 0.7)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_spectral_input_accepted(self):
        obs = spectral_decompose(SIGMA_Z)
        raw = postselected_pointer_mean(
            PLUS_X, rotated(0.3), SIGMA_Z, GaussianPointer(1.0, 0.1)
        )
        pre = postselected_pointer_mean(
            PLUS_X, rotated(0.3), obs, GaussianPointer(1.0, 0.1)
        )
        assert raw == pre

    def test_vanishing_postselection(self):
        # orthogonal selections with a single shared branch kill every trial
        with pytest.raises(VanishingPostselection):
            postselected_pointer_mean(
                [1, 0], [0, 1], SIGMA_Z, GaussianPointer(1.0, 0.1)
            )


class TestMomentumMean:
    def test_real_weak_value_gives_no_momentum_shift(self):
        got = postselected_pointer_momentum_mean(
            PLUS_X, rotated(0.4), SIGMA_Z, GaussianPointer(1.0, 0.1)
        )
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_weak_limit_imaginary_part(self):
        # <psi2|sigma_z|psi1>/<psi2|psi1> = 0.6 + 0.8i for these states
        psi2 = np.array([1.0, 0.5j])
        sigma, g, hbar = 1.0, 1e-3, 1.0
        got = postselected_pointer_momentum_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(sigma, g), hbar=hbar
        )
        assert got == pytest.approx(hbar * g / (2 * sigma**2) * 0.8, rel=1e-4)

    def test_hbar_scales_linearly(self):
        psi2 = np.array([1.0, 0.5j])
        one = postselected_pointer_momentum_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(1.0, 0.2), hbar=1.0
        )
        seven = postselected_pointer_momentum_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(1.0, 0.2), hbar=7.0
        )
        assert seven == pytest.approx(7 * one, rel=1e-12)

    @pytest.mark.parametrize("g", [0.1, 0.4])
    def test_quadrature_oracle(self, g):
        psi2 = np.array([1.0, 0.3 + 0.6j])
        got = postselected_pointer_momentum_mean(
            PLUS_X, psi2, SIGMA_Z, GaussianPointer(0.8, g)
        )
        _, oracle = quadrature_moments(PLUS_X, psi2, SIGMA_Z, g, 0.8)
        assert got == pytest.approx(oracle, rel=1e-8)



class TestStrongCouplingOverflow:
    """Above |g Δa| ~ 1e154 the overlap exponent squares to inf.  exp(-inf) = 0
    is the exact limit, so the means stay finite and warn nothing, and a
    warning is an error in this suite.  A mean that does overflow raises."""

    PSI2 = np.array([1.0, 0.5j])  # branch weights 1/2 at a = +1, 1/8 at a = -1

    def test_position_mean(self):
        got = postselected_pointer_mean(
            PLUS_X, self.PSI2, SIGMA_Z, GaussianPointer(1.0, 1e200)
        )
        # the cross terms vanish: the branches' displacements, weighted
        assert got == pytest.approx(1e200 * (0.5 - 0.125) / 0.625, rel=1e-12)

    def test_momentum_mean(self):
        got = postselected_pointer_momentum_mean(
            PLUS_X, self.PSI2, SIGMA_Z, GaussianPointer(1.0, 1e200)
        )
        assert got == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_position_mean_rejected(self):
        # one branch, at a = 2: g a overflows, so the mean would be inf or NaN
        with pytest.raises(ValueError, match="pointer mean .* not finite"):
            postselected_pointer_mean(
                PLUS_X, PLUS_X, 2.0 * np.eye(2), GaussianPointer(1.0, 1e308)
            )

    def test_overflowing_momentum_weight_against_underflowed_kernel(self):
        # hbar g overflows in the weight i hbar g Δa / (4 sigma^2), but every
        # term it weights has Δa = 0 or a kernel underflowed to 0: the mean is 0
        got = postselected_pointer_momentum_mean(
            PLUS_X, self.PSI2, SIGMA_Z, GaussianPointer(1.0, 1e10), hbar=1e300
        )
        assert got == 0.0

    def test_overflowing_momentum_weight_finite_mean(self):
        # the weight overflows, but the cross kernel, exp(-450) of its branch
        # weights, brings the mean back in range: it is hbar times the mean at
        # hbar = 1, whose weight is finite
        ptr = GaussianPointer(1e-5, 3e-4)
        unit = postselected_pointer_momentum_mean(PLUS_X, self.PSI2, SIGMA_Z, ptr)
        got = postselected_pointer_momentum_mean(PLUS_X, self.PSI2, SIGMA_Z, ptr, hbar=1e308)
        assert 0.0 < got < math.inf
        assert got == pytest.approx(1e308 * unit, rel=1e-13)

    def test_momentum_mean_past_the_double_range_rejected(self):
        # g = sigma: the weight 1e308 g / (4 sigma^2) = 2.5e317, and the mean
        # is a fraction of it of order 1, past the double range
        with pytest.raises(ValueError, match="pointer mean .* not finite"):
            postselected_pointer_momentum_mean(
                PLUS_X, self.PSI2, SIGMA_Z, GaussianPointer(1e-10, 1e-10), hbar=1e308
            )


class TestSigmaRange:
    """``8 sigma^2`` divides every overlap exponent, so it must be a positive
    normal double: below sigma ~ 5e-155 it underflows and the exponent is 0/0,
    above ~ 5e153 it overflows."""

    @pytest.mark.parametrize("sigma", [1e-300, 5e-155, 5e153, 1e200])
    def test_pointer_rejects(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            GaussianPointer(sigma, 0.0)

    @pytest.mark.parametrize(
        "sigma, g_max", [(1e-300, 1e-305), (1e-160, 1e-165), (1e200, 1e190)]
    )
    def test_slope_rejects(self, sigma, g_max):
        with pytest.raises(ValueError, match="sigma"):
            weak_limit_slope(PLUS_X, rotated(0.3), SIGMA_Z, sigma, [g_max / 100, g_max])

    def test_smallest_scales_still_fit(self):
        # 8 sigma^2 ~ 8e-300 is normal: the curve is the sigma = 1 curve, scaled
        small = weak_limit_slope(PLUS_X, rotated(0.3), SIGMA_Z, 1e-150, GRID * 1e-150)
        unit = weak_limit_slope(PLUS_X, rotated(0.3), SIGMA_Z, 1.0, GRID)
        assert small.slope == pytest.approx(unit.slope, rel=1e-12)
        assert small.weak_value_re == unit.weak_value_re


class TestBoundScaleRange:
    """``bound_constant`` divides by ``(g_max / sigma)^2``, which must be a
    positive normal double: ``g_max / sigma`` in ``[2^-511, 2^512)``."""

    @pytest.mark.parametrize(
        "obs, sigma, grid",
        [
            (SIGMA_Z, 1e150, [1e-160, 1e-150]),  # used to divide by zero
            (SIGMA_Z, 1.0, [2.0**-516, np.nextafter(2.0**-511, 0)]),
            (1e-300 * SIGMA_Z, 1.0, [1e198, 1e200]),  # used to overflow
        ],
    )
    def test_rejected(self, obs, sigma, grid):
        with pytest.raises(ValueError, match=r"g_max / sigma = .* out of range"):
            weak_limit_slope(PLUS_X, rotated(0.3), obs, sigma, grid)

    def test_smallest_scale_accepted(self):
        fit = weak_limit_slope(PLUS_X, rotated(0.3), SIGMA_Z, 1.0, [2.0**-515, 2.0**-511])
        assert math.isfinite(fit.bound_constant)


class TestWeakLimitSlope:
    def test_single_branch_slope_exact(self):
        grid = np.geomspace(1e-3, 1e-2, 7)
        fit = weak_limit_slope(PLUS_X, [1, 0], SIGMA_Z, 1.0, grid)
        assert isinstance(fit, SlopeFit)
        assert fit.weak_value_re == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_strongly_anomalous_near_orthogonal(self):
        # postselection within 1e-2 rad of orthogonal: weak value ~ -100
        eps = 1e-2
        psi2 = rotated(np.pi / 4 + eps)
        expected = -np.cos(eps) / np.sin(eps)
        grid = np.geomspace(1e-5, 1e-4, 7)
        fit = weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, grid)
        assert fit.weak_value_re == pytest.approx(expected, rel=1e-10)
        assert abs(fit.slope - fit.weak_value_re) <= 1e-4 * abs(fit.weak_value_re)
        assert abs(fit.weak_value_re) > 50  # far outside the spectrum [-1, 1]

    def test_moderately_anomalous(self):
        psi2 = rotated(np.pi / 4 + 0.3)
        grid = np.geomspace(3e-4, 3e-3, 9)
        fit = weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, grid)
        expected = -np.cos(0.3) / np.sin(0.3)
        assert fit.weak_value_re == pytest.approx(expected, rel=1e-12)
        assert fit.slope == pytest.approx(expected, rel=1e-4)
        assert fit.bound_constant >= 0.0

    def test_shifts_are_the_pointer_means(self):
        psi2 = rotated(np.pi / 4 + 0.3)
        grid = np.geomspace(3e-4, 3e-3, 9)
        fit = weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 0.8, grid)
        expected = [
            postselected_pointer_mean(PLUS_X, psi2, SIGMA_Z, GaussianPointer(0.8, g))
            for g in grid
        ]
        assert fit.shifts == tuple(expected)  # bit for bit, in grid order

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_kernel_matches_scalar_reference(self, d, seed):
        # bit for bit, against a kernel built for each coupling on its own
        rng = np.random.default_rng(100 * d + seed)
        psi1, psi2 = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in "12")
        obs = random_hermitian(rng, d)
        if seed % 2:  # a degenerate eigenvalue: two or more branches merge
            w, v = np.linalg.eigh(obs)
            w[1] = w[0]
            obs = (v * w) @ v.conj().T
            obs = (obs + obs.conj().T) / 2
            assert len(spectral_decompose(obs).pairs) == d - 1
        sigma = rng.uniform(0.5, 2.0)
        spread = max(np.ptp(np.linalg.eigvalsh(obs)), 0.1)  # d = 2 degenerate: 0
        grid = np.geomspace(1e-3, 0.5, 11) * sigma / spread
        fit = weak_limit_slope(psi1, psi2, obs, sigma, grid)
        expected = tuple(scalar_means(psi1, psi2, obs, sigma, g)[0] for g in grid)
        assert fit.shifts == expected
        for g in (*grid[::5], 2.5 * sigma / spread, -0.7):
            x, p = scalar_means(psi1, psi2, obs, sigma, g, hbar=1.3)
            ptr = GaussianPointer(sigma, g)
            assert postselected_pointer_mean(psi1, psi2, obs, ptr) == x
            assert postselected_pointer_momentum_mean(psi1, psi2, obs, ptr, 1.3) == p

    def test_residual_is_cubic_in_coupling(self):
        # leading correction to the linear shift is odd and cubic
        psi2 = rotated(np.pi / 4 + 0.3)
        obs = spectral_decompose(SIGMA_Z)
        wv = -np.cos(0.3) / np.sin(0.3)
        gs = np.geomspace(1e-3, 1e-2, 7)
        residuals = np.array(
            [
                abs(
                    postselected_pointer_mean(
                        PLUS_X, psi2, obs, GaussianPointer(1.0, g)
                    )
                    - g * wv
                )
                for g in gs
            ]
        )
        assert np.all(residuals > 0)
        exponent, _ = np.polyfit(np.log(gs), np.log(residuals), 1)
        assert 2.5 <= exponent <= 3.5

    def test_orthogonal_two_branch_selection(self):
        minus_x = np.array([1.0, -1.0]) / np.sqrt(2)
        grid = np.geomspace(1e-3, 1e-2, 7)
        with pytest.raises(OrthogonalPostselection):
            weak_limit_slope(PLUS_X, minus_x, SIGMA_Z, 1.0, grid)

    def test_grid_validation(self):
        psi2 = rotated(0.3)
        with pytest.raises(ValueError, match="sigma"):
            weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 0.0, [1e-3, 1e-2])
        with pytest.raises(ValueError, match="grid"):
            weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, [1e-3])
        with pytest.raises(ValueError, match="positive"):
            weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, [-1e-3, 1e-2])
        with pytest.raises(ValueError, match="decade"):
            weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, [1e-3, 5e-3])
        with pytest.raises(ValueError, match="weak"):
            weak_limit_slope(PLUS_X, psi2, SIGMA_Z, 1.0, [0.01, 0.6])


def branches_through_projectors(psi1, psi2, obs):
    """Reference: the eigenvalues and branch amplitudes read through
    ``spectral_decompose`` and each ``Projector.mat``, with the product
    ``v2^dag (P_n v1)`` that the pointer takes."""
    if not isinstance(obs, ObservableSpectral):
        obs = spectral_decompose(obs)
    v1, v2 = unit_ket(psi1), unit_ket(psi2)
    if v1.size != obs.dim or v2.size != obs.dim:
        raise ValueError("state vectors must match the observable dimension")
    a = np.array([level for level, _ in obs.pairs], dtype=float)
    c = np.array([v2.conj() @ (p.mat @ v1) for _, p in obs.pairs], dtype=complex)
    return a, c


@st.composite
def pointer_problems(draw):
    """Kets and a Hermitian observable, d = 2 to 6, whose consecutive
    eigenvalue gaps are drawn either below ``DEGENERACY_TOL`` (so the levels
    merge) or well above it; the observable comes as a raw matrix or as an
    ``ObservableSpectral``."""
    d = draw(st.integers(2, 6))
    gaps = draw(
        st.lists(
            st.one_of(st.floats(0.0, 0.9 * DEGENERACY_TOL), st.floats(0.05, 2.0)),
            min_size=d - 1,
            max_size=d - 1,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    obs = (q * w) @ q.conj().T
    obs = (obs + obs.conj().T) / 2
    if draw(st.booleans()):
        obs = ObservableSpectral(obs)
    psi1, psi2 = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in "12")
    return psi1, psi2, obs, float(rng.uniform(0.5, 2.0))


class TestBranchesBitForBit:
    """The pointer reads its spectrum without building projector objects;
    every output must equal, bit for bit, what the projector route gives."""

    @given(pointer_problems())
    def test_eigenvalues_and_amplitudes(self, problem):
        psi1, psi2, obs, _ = problem
        a, c = pointer._branches(psi1, psi2, obs)
        want_a, want_c = branches_through_projectors(psi1, psi2, obs)
        assert a.dtype == want_a.dtype and c.dtype == want_c.dtype
        assert a.tobytes() == want_a.tobytes()
        assert c.tobytes() == want_c.tobytes()

    @given(pointer_problems())
    def test_kernel(self, problem):
        # the overlap kernel and its sums, against the formula written out
        psi1, psi2, obs, sigma = problem
        a, c = branches_through_projectors(psi1, psi2, obs)
        g = np.geomspace(1e-3, 2.0, 5) * sigma
        kernel, den = pointer._kernel(a, c, sigma, g)
        e = np.exp(-((g[:, None, None] * (a[:, None] - a[None, :])) ** 2) / (8.0 * sigma**2))
        want = np.outer(c.conj(), c) * e
        assert kernel.tobytes() == want.tobytes()
        assert den.tobytes() == want.reshape(g.size, -1).sum(axis=1).real.tobytes()

    @given(pointer_problems())
    def test_fit_and_means(self, problem):
        psi1, psi2, obs, sigma = problem
        a, c = branches_through_projectors(psi1, psi2, obs)
        spread = float(np.max(a) - np.min(a))
        g = np.geomspace(1e-3, 0.5, 7) * sigma / max(spread, 0.1)
        fit = weak_limit_slope(psi1, psi2, obs, sigma, g)
        shifts = pointer._position_means(a, c, sigma, g)
        assert fit.shifts == tuple(shifts.tolist())
        slope = float(np.dot(g, shifts) / np.dot(g, g))
        weak_value_re = float((complex(np.dot(a, c)) / complex(c.sum())).real)
        assert fit.slope == slope
        assert fit.weak_value_re == weak_value_re
        assert fit.bound_constant == abs(slope - weak_value_re) / (float(g.max()) / sigma) ** 2
        for gi in (float(g[0]), float(g[-1]), -0.7):
            ptr = GaussianPointer(sigma, gi)
            grid = np.array([gi])
            x = float(pointer._position_means(a, c, sigma, grid)[0])
            kernel, den = pointer._kernel(a, c, sigma, grid)
            moment = 1j * 1.3 * gi * (a[:, None] - a[None, :]) / (4.0 * sigma**2)
            p = float(pointer._mean(kernel, den, moment)[0])
            assert postselected_pointer_mean(psi1, psi2, obs, ptr) == x
            assert postselected_pointer_momentum_mean(psi1, psi2, obs, ptr, 1.3) == p


def counting_spectrum(monkeypatch):
    """Swap ``_spectrum`` as the pointer sees it for a counting wrapper and
    clear the kept entry; returns the list the calls are appended to."""
    calls = []

    def counted(m):
        calls.append(m.shape)
        return operators._spectrum(m)

    monkeypatch.setattr(pointer, "_spectrum", counted)
    monkeypatch.setattr(pointer, "_LAST_BRANCHES", (None, None))
    return calls


def same_bytes(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def two_problems():
    rng = np.random.default_rng(3400)
    return [
        (rng.normal(size=3) + 1j * rng.normal(size=3), rng.normal(size=3), random_hermitian(rng, 3))
        for _ in "AB"
    ]


class TestBranchesKept:
    """A raw observable's last branches are kept under the bytes of the
    inputs: a repeat reads them back bit for bit, anything else recomputes."""

    @given(pointer_problems())
    def test_fit_then_means(self, problem):
        psi1, psi2, obs, sigma = problem
        if isinstance(obs, ObservableSpectral):
            obs = obs.observable
        a, c = branches_through_projectors(psi1, psi2, obs)
        g = np.geomspace(1e-3, 0.5, 7) * sigma / max(float(a[-1] - a[0]), 0.1)
        fit = weak_limit_slope(psi1, psi2, obs, sigma, g)
        assert fit.shifts == tuple(pointer._position_means(a, c, sigma, g).tolist())
        assert same_bytes(pointer._branches(psi1, psi2, obs), (a, c))
        ptr = GaussianPointer(sigma, float(g[0]))
        grid = np.array([ptr.g])
        assert postselected_pointer_mean(psi1, psi2, obs, ptr) == float(
            pointer._position_means(a, c, sigma, grid)[0]
        )
        assert same_bytes(pointer._branches(psi1, psi2, obs), (a, c))
        kernel, den = pointer._kernel(a, c, sigma, grid)
        moment = 1j * ptr.g * (a[:, None] - a[None, :]) / (4.0 * sigma**2)
        assert postselected_pointer_momentum_mean(psi1, psi2, obs, ptr) == float(
            pointer._mean(kernel, den, moment)[0]
        )
        assert same_bytes(pointer._branches(psi1, psi2, obs), (a, c))

    def test_one_spectrum_per_problem(self, monkeypatch):
        calls = counting_spectrum(monkeypatch)
        (psi1, psi2, obs), (other, _, _) = two_problems()
        ptr = GaussianPointer(1.0, 1e-3)
        weak_limit_slope(psi1, psi2, obs, 1.0, GRID)
        postselected_pointer_mean(psi1, psi2, obs, ptr)
        postselected_pointer_momentum_mean(psi1, psi2, obs, ptr)
        assert len(calls) == 1
        postselected_pointer_mean(other, psi2, obs, ptr)
        assert len(calls) == 2

    def test_inputs_written_in_place(self, monkeypatch):
        calls = counting_spectrum(monkeypatch)
        (psi1, psi2, obs), _ = two_problems()
        pointer._branches(psi1, psi2, obs)
        for write in (psi1.__setitem__, psi2.__setitem__):
            write(0, 0.25)
            got = pointer._branches(psi1, psi2, obs)
            assert same_bytes(got, branches_through_projectors(psi1, psi2, obs))
        obs[0, 1] += 0.5j
        obs[1, 0] -= 0.5j
        got = pointer._branches(psi1, psi2, obs)
        assert same_bytes(got, branches_through_projectors(psi1, psi2, obs))
        assert len(calls) == 4

    def test_int_ket_reads_as_complex(self, monkeypatch):
        calls = counting_spectrum(monkeypatch)
        ints, want = np.array([1, 2, -1]), np.array([1, 2, -1], dtype=complex)
        (_, psi2, obs), _ = two_problems()
        first = pointer._branches(ints, psi2, obs)
        again = pointer._branches(want, psi2, obs)
        assert len(calls) == 1
        assert same_bytes(first, again)
        assert same_bytes(again, branches_through_projectors(want, psi2, obs))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zeros(self, zero):
        for psi1, obs in [
            (np.array([1.0, 0.0]), SIGMA_Z),
            (np.array([1.0, zero]), SIGMA_Z),
            (np.array([complex(0.6, zero), 0.8]), np.array([[1.0, complex(zero, zero)], [zero, -1.0]])),
            (np.array([1.0, 0.0]), np.diag([zero, zero])),
        ]:
            psi2 = np.array([0.3, complex(zero, 1.0)])
            got = pointer._branches(psi1, psi2, obs)
            assert same_bytes(got, branches_through_projectors(psi1, psi2, obs))

    @pytest.mark.parametrize(
        "psi1, obs, error, match",
        [
            (PLUS_X, np.array([[0.0, 1.0], [0.0, 0.0]]), HermiticityViolation, "not Hermitian"),
            (np.zeros(2), SIGMA_Z, ValueError, "ket norm"),
            (np.ones(3), SIGMA_Z, ValueError, "must match the observable dimension"),
        ],
    )
    def test_failures_not_kept(self, psi1, obs, error, match):
        messages = []
        for _ in range(2):
            with pytest.raises(error, match=match) as exc:
                pointer._branches(psi1, PLUS_X, obs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        psi2 = np.array([0.6, 0.8j])
        got = pointer._branches(PLUS_X, psi2, SIGMA_Z)
        assert same_bytes(got, branches_through_projectors(PLUS_X, psi2, SIGMA_Z))

    @pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], {"a": 1}, [10**400, 0]])
    def test_observable_checked_before_an_unreadable_ket(self, bad):
        with pytest.raises(HermiticityViolation):
            pointer._branches(bad, PLUS_X, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_read_only(self):
        (psi1, psi2, obs), _ = two_problems()
        for _ in range(2):  # the computed result, then the kept one
            for x in pointer._branches(psi1, psi2, obs):
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0.0

    def test_threads_get_their_own_answers(self):
        problems = two_problems()
        wants = [branches_through_projectors(*p) for p in problems]
        wrong = []
        start = threading.Barrier(4)

        def ask(i):
            start.wait(timeout=10)
            try:
                for n in range(1000):
                    k = (i + n // 2) % 2  # each problem twice running, so some calls hit
                    if not same_bytes(pointer._branches(*problems[k]), wants[k]):
                        wrong.append((i, n))
            except Exception as exc:  # reported by the assertion below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


# (observable, g_max, lowest coupling); sigma is g_max * spread, in doubles
WEAK_EDGE = [
    (SIGMA_Z, 0.5, 1e-3),
    (0.75 * SIGMA_Z, 0.6, 1e-2),
    (np.diag([0.3, -1.1, 2.7]).astype(complex), 0.37, 1e-3),
    (random_hermitian(np.random.default_rng(7), 4), 0.123, 1e-4),
    (np.diag([1.0, 1.0 + 0.5 * DEGENERACY_TOL, -2.0]).astype(complex), 0.25, 1e-3),
]


class TestWeakRegimeEdge:
    """``g_max * spread == sigma`` is still weak; one ulp more is not."""

    @pytest.mark.parametrize("obs, g_max, g_min", WEAK_EDGE)
    def test_grid_reaching_sigma_accepted(self, obs, g_max, g_min):
        levels = [level for level, _ in spectral_decompose(obs).pairs]
        sigma = g_max * (max(levels) - min(levels))
        d = obs.shape[0]
        fit = weak_limit_slope(np.ones(d), np.arange(1.0, d + 1), obs, sigma, [g_min, g_max])
        assert len(fit.shifts) == 2

    @pytest.mark.parametrize("obs, g_max, g_min", WEAK_EDGE)
    def test_grid_one_ulp_past_sigma_rejected(self, obs, g_max, g_min):
        levels = [level for level, _ in spectral_decompose(obs).pairs]
        spread = max(levels) - min(levels)
        sigma = g_max * spread
        over = float(np.nextafter(g_max, math.inf))
        assert over * spread > sigma
        want = (
            f"grid reaches g*spread = {over * spread:.3e} > sigma = {sigma}: "
            "not in the weak-coupling regime"
        )
        d = obs.shape[0]
        with pytest.raises(ValueError) as exc:
            weak_limit_slope(np.ones(d), np.arange(1.0, d + 1), obs, sigma, [g_min, over])
        assert str(exc.value) == want

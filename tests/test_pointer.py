import math

import numpy as np
import pytest

from conftest import random_hermitian
from weakprobe import (
    GaussianPointer,
    OrthogonalPostselection,
    SlopeFit,
    VanishingPostselection,
    postselected_pointer_mean,
    postselected_pointer_momentum_mean,
    spectral_decompose,
    weak_limit_slope,
)

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
    a = np.array(obs.eigenvalues)
    c = np.array([v2.conj() @ (p.mat @ v1) for p in obs.projectors])
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
    a = np.array(obs.eigenvalues, dtype=float)
    c = np.array([v2.conj() @ (p.mat @ v1) for p in obs.projectors], dtype=complex)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_momentum_mean_rejected(self):
        # hbar g overflows in the momentum weights, so the mean would be NaN
        with pytest.raises(ValueError, match="pointer mean .* not finite"):
            postselected_pointer_momentum_mean(
                PLUS_X, self.PSI2, SIGMA_Z, GaussianPointer(1.0, 1e10), hbar=1e300
            )


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
            assert len(spectral_decompose(obs).eigenvalues) == d - 1
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

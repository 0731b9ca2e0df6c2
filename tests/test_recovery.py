"""Recover a planted answer from simulated data.

Each case plants a model and ``delta_t_c / delta_t_m`` on a configuration,
simulates it with ``run_simulation`` at ``TRIALS`` trials over fixed seeds,
and feeds each result to ``discriminate`` with ``sigma_meas`` taken from the
sample standard errors.  Every band comes from a statistic stated with it,
never from an observed rate.  The saturated branch's known misread, a
jitter estimate where the data support only a lower bound, has a strict
expected-failure test until ROADMAP item 10a mends it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_config
from weakprobe import SimulationSpec, build_hydrogen, discriminate, run_simulation

TRIALS = 20_000
SEEDS = 500
RATIO = 0.5  # the planted delta_t_c / delta_t_m
K = 4.0  # band half-widths in standard deviations: ~6e-5 two-sided

# discriminate rejects sigma_meas = 0, which a vn run on hydrogen gives: both
# orderings have the weak value hbar/2.  The floor is far above the round-off
# of a mean of order-1 values and far below every nonzero stderr here (> 1e-3).
SIGMA_FLOOR = 1e-9

CONFIGS = [build_hydrogen(0.6, 0.8, 1.0, 1.0)] + [
    random_config(np.random.default_rng(1200 + i), d)
    for i, d in enumerate((3, 3, 3, 2, 4))
]


def verdicts(case: int, model: str):
    """The verdicts on ``SEEDS`` runs of config ``case`` with ``RATIO``
    planted; each case has its own seeds, so the cases are independent."""
    cfg = CONFIGS[case]
    cfg = replace(cfg, delta_t_c=RATIO * cfg.delta_t_m)
    for seed in range(1000 * case, 1000 * case + SEEDS):
        res = run_simulation(SimulationSpec(cfg, model, TRIALS, seed))
        # the rule reads sigma_meas as the standard deviation of each component
        sigma = math.sqrt((res.stderr**2 + res.stderr_im**2) / 2)
        yield discriminate(res.mean, cfg, max(sigma, SIGMA_FLOOR))


def binomial_band(p: float, n: int) -> float:
    return K * math.sqrt(p * (1 - p) / n)


def vn_disk_rate(n: int) -> float:
    """The chance that a vn mean of ``n`` trials reads "vn".

    The mean is ``v_vn + (q - 1/2)(W1 - W3)``, where ``n q``, the weak-first
    count, is Binomial(n, 1/2): its noise lies along one line.  The sample
    standard errors are ``|Re, Im (W1 - W3)| sqrt(q (1 - q) / (n - 1))``, so
    with sigma their rms the 2-sigma test reads
    ``|q - 1/2| <= sqrt(2 q (1 - q) / (n - 1))``, close to ``|z| <= sqrt(2)``:
    erf(1) = 84.3%.  The rule's nominal 1 - e^-2 = 86.5% holds for isotropic
    2-D noise, which a vn mean never has.
    """
    k = np.arange(n + 1)
    q = k / n
    inside = k[np.abs(q - 0.5) <= np.sqrt(2 * q * (1 - q) / (n - 1))]
    log_norm = math.lgamma(n + 1) - n * math.log(2)
    return sum(math.exp(log_norm - math.lgamma(i + 1) - math.lgamma(n - i + 1)) for i in inside)


def test_vn_on_hydrogen_always_reads_vn():
    # W1 = W3, so every trial has the same weak value and the mean no noise
    assert {v.model for v in verdicts(0, "vn")} == {"vn"}


def test_vn_rate_on_random_configs():
    got = [v.model for case in range(1, len(CONFIGS)) for v in verdicts(case, "vn")]
    p = vn_disk_rate(TRIALS)
    assert abs(got.count("vn") / len(got) - p) <= binomial_band(p, len(got))


@pytest.mark.parametrize("case", range(len(CONFIGS)))
def test_jitter_estimate_is_unbiased(case):
    got = list(verdicts(case, "objective"))
    est = np.array([v.delta_t_c_estimate for v in got if v.branch == "jitter"])
    # The residual off the prediction line is the noise across it, whose
    # variance is at most the total 2 sigma^2, so it is within 2 sigma at
    # least erf(1) of the time.  The plant lies far inside the line's ends
    # (checked below), so nearly all of those read "jitter".
    assert est.size / SEEDS >= math.erf(1) - binomial_band(math.erf(1), SEEDS)
    ratios = est / CONFIGS[case].delta_t_m
    sd = float(ratios.std(ddof=1))
    assert K * sd < min(RATIO, 1 - RATIO)
    assert abs(ratios.mean() - RATIO) <= K * sd / math.sqrt(ratios.size)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10a: a jitter read whose interval reaches x = 1 must report "
    "a lower bound and no point estimate",
)
def test_saturated_plant_gives_no_estimate_reaching_the_plateau():
    # Item 10a's rule, read by read: a verdict may carry a delta_t_c estimate
    # only if x + 2 sigma_x < 1, with x = estimate / delta_t_m and
    # sigma_x = sigma_meas / |v_sat - v_vn|.  With delta_t_c = 2 delta_t_m
    # planted, the truth is on the plateau, x = 1.
    cfg = replace(CONFIGS[0], delta_t_c=2.0 * CONFIGS[0].delta_t_m)
    span = abs(cfg.traces.saturated - cfg.traces.vn)
    reaching = []
    for seed in range(200):
        res = run_simulation(SimulationSpec(cfg, "objective", TRIALS, seed))
        sigma = max(math.sqrt((res.stderr**2 + res.stderr_im**2) / 2), SIGMA_FLOOR)
        v = discriminate(res.mean, cfg, sigma)
        if v.delta_t_c_estimate is not None:
            x = v.delta_t_c_estimate / cfg.delta_t_m
            if x + 2.0 * sigma / span >= 1.0:
                reaching.append(seed)
    assert reaching == []

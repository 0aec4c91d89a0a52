"""Acceptance suite: the package's quantitative exit criteria.

Each test prints one ``[criterion ...] PASS/FAIL`` line with the measured
values (run pytest with ``-rA`` to see the lines of passing tests too).
Known limitation, printed rather than hidden: criterion 6 demands
calibrated p-values at sample size 100 for the poorly separated benchmark
population 1, and fails there. The measured cause is the kernel's
information estimate -H/n. The information taken from Psi itself,
(m+1) dPsi' dPsi, passes the same seeded study (AD p 0.614) but is no fix:
it fails population 2 at sample size 1000 (AD p 0.0048, seed 11). The
planned repair is the expected information at the fit, integrated by an
accurate rule. The companion check shows calibration is recovered at sample
size 300.
"""

import time

import numpy as np
import pytest

from wmixgof import (
    MixtureParams,
    WeightedChiSquare,
    benchmark_populations,
    cvm_statistic,
    eigen_spectrum,
    hessian_at,
    imhof_tail,
    run_study,
    simple_hypothesis_lambdas,
)
from wmixgof.kernel_eigen import brownian_bridge_q
from wmixgof.mixture_model import cdf_gradients, invert_cdf, mixture_cdf
from test_estimation import double_difference_hessian
from test_gof_statistic import w2_by_quadrature

POPULATIONS = benchmark_populations()


def announce(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def weighted_sum_draws(lambdas, n_draws, rng):
    acc = np.zeros(n_draws)
    for lam in lambdas:
        acc += lam * rng.standard_normal(n_draws) ** 2
    return acc


def test_criterion_1_closed_form_spectrum():
    start = time.perf_counter()
    spectrum = eigen_spectrum(brownian_bridge_q(500), tail_tolerance=0.0)
    exact = simple_hypothesis_lambdas(10)
    rel = np.abs(spectrum.lambdas[:10] - exact) / exact
    elapsed = time.perf_counter() - start
    ok = bool(np.all(rel < 1e-3)) and elapsed < 10.0
    assert announce(
        "criterion 1: closed-form spectrum",
        ok,
        f"max rel err {rel.max():.2e} (limit 1e-3), runtime {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_imhof_versus_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 21))
        lambdas = rng.random(k) * 0.999 + 0.001
        draws = weighted_sum_draws(lambdas, 1_000_000, rng)
        dist = WeightedChiSquare(lambdas)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = float(np.quantile(draws, q))
            mc_tail = float(np.mean(draws > x))
            worst = max(worst, abs(imhof_tail(dist, x) - mc_tail))
    elapsed = time.perf_counter() - start
    ok = worst < 0.003 and elapsed < 60.0
    assert announce(
        "criterion 2: imhof vs monte carlo",
        ok,
        f"worst |diff| {worst:.5f} (limit 0.003), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_classical_cvm_critical_point():
    lambdas = simple_hypothesis_lambdas(100)
    p = imhof_tail(WeightedChiSquare(lambdas), 0.461)
    rng = np.random.default_rng(3)
    draws = weighted_sum_draws(lambdas, 1_000_000, rng)
    mc_tail = float(np.mean(draws > 0.461))
    ok = abs(p - 0.05) < 0.005 and abs(p - mc_tail) < 0.003
    assert announce(
        "criterion 3: classical 5% point",
        ok,
        f"tail(0.461) = {p:.5f} (want 0.05 +/- 0.005), monte carlo {mc_tail:.5f} (+/- 0.003)",
    )


@pytest.mark.parametrize("fixture", ["fitted_pop1", "fitted_pop2", "fitted_pop3"])
def test_criterion_4_gradient_and_hessian_checks(fixture, request):
    sample, fit = request.getfixturevalue(fixture)
    theta = fit.theta_hat
    base = theta.as_array()
    h = 1e-6
    worst_grad = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        grad = cdf_gradients(x, theta)
        for j in range(5):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            fd = (
                mixture_cdf(x, MixtureParams.from_array(plus))
                - mixture_cdf(x, MixtureParams.from_array(minus))
            ) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[j] - fd))
    direct = hessian_at(theta, sample)
    oracle = double_difference_hessian(theta, sample)
    hess_rel = float(np.linalg.norm(direct - oracle) / np.linalg.norm(oracle))
    ok = worst_grad < 1e-6 and hess_rel < 1e-4
    assert announce(
        f"criterion 4: derivative checks ({fixture})",
        ok,
        f"gradient max |diff| {worst_grad:.2e} (limit 1e-6), "
        f"hessian rel diff {hess_rel:.2e} (limit 1e-4)",
    )


def test_criterion_5_quantile_round_trip():
    worst = 0.0
    grid = np.linspace(0.01, 0.99, 99)
    for spec in POPULATIONS:
        x, _ = invert_cdf(grid, spec.theta)
        worst = max(worst, float(np.max(np.abs(mixture_cdf(x, spec.theta) - grid))))
    ok = worst < 1e-5
    assert announce(
        "criterion 5: quantile round trip",
        ok,
        f"worst |cdf(quantile(t)) - t| {worst:.2e} (limit 1e-5) over 5 populations",
    )


@pytest.mark.parametrize("index", [0, 4], ids=["population1", "population5"])
def test_criterion_6_desk_scale_uniformity(index):
    start = time.perf_counter()
    # Pooled equals sequential bit for bit (run_study's contract), so two
    # workers change the wall time only.
    result = run_study(POPULATIONS[index], 500, 100, seed=0, grid_size=200, processes=2)
    elapsed = time.perf_counter() - start
    rejection = float(np.mean(result.p_values < 0.05))
    ok = (
        result.ad_p_value > 0.01
        and 0.02 <= rejection <= 0.09
        and elapsed < 1800.0
    )
    assert announce(
        f"criterion 6: desk-scale uniformity ({POPULATIONS[index].label})",
        ok,
        f"AD stat {result.ad_statistic:.3f}, AD p {result.ad_p_value:.5f} (need > 0.01), "
        f"rejection rate {rejection:.4f} (need [0.02, 0.09]), "
        f"failed fits {result.n_failed_fits}/500, runtime {elapsed:.0f}s",
    )


def test_companion_calibration_recovers_with_larger_samples():
    # context for criterion 6: the population-1 miscalibration at n=100 is
    # a finite-sample effect that disappears by n=300
    result = run_study(POPULATIONS[0], 150, 300, seed=77, grid_size=200)
    ok = result.ad_p_value > 0.01
    assert announce(
        "companion: population 1 at n=300",
        ok,
        f"AD p {result.ad_p_value:.4f} (need > 0.01), failed fits {result.n_failed_fits}/150",
    )


def test_criterion_7_true_parameter_calibration():
    result = run_study(
        POPULATIONS[0], 500, 100, seed=2024, estimate_parameters=False
    )
    rejection = float(np.mean(result.p_values < 0.05))
    ok = result.ad_p_value > 0.01
    assert announce(
        "criterion 7: true-parameter calibration",
        ok,
        f"AD stat {result.ad_statistic:.3f}, AD p {result.ad_p_value:.4f} (need > 0.01), "
        f"rejection rate {rejection:.4f}",
    )


def test_criterion_8_statistic_matches_quadrature():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 21))
        z = np.sort(rng.random(n))
        direct = w2_by_quadrature(z)
        computed = cvm_statistic(z)
        worst = max(worst, abs(computed - direct))
    ok = worst < 1e-6
    assert announce(
        "criterion 8: statistic vs quadrature",
        ok,
        f"worst |diff| {worst:.2e} (limit 1e-6) on 25 random samples, n <= 20",
    )

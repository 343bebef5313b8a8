"""Acceptance suite: each test is one criterion and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).  Every tolerance is pinned here;
calibration bands and seeds were fixed from pilot runs before the
assertions were frozen.
"""

import math
import time

import numpy as np

from hermite_counts import (
    CountHistogram,
    HermiteParams,
    adaptive_pmf,
    add_params,
    convolve_pmf_oracle,
    doubled_poisson_pmf,
    alternating_geometric_pgf_values,
    alternating_geometric_pmf,
    fit_mle,
    log_likelihood,
    loglik_gradient,
    lrt_pvalue,
    lrt_statistic,
    negative_binomial_pmf,
    ordinary_cumulants,
    params_to_factorial_cumulants,
    pmf_table,
    sample_hermite,
    select_order,
    thin_params,
    thin_pmf_oracle,
    thinning_invariants,
)
from hermite_counts.reference import _alternating_geometric_base

from conftest import gof_pvalue, poisson_table_exact, scaled_poisson_convolution


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_poisson_reduction():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        table = pmf_table(HermiteParams((lam,)), 40)
        exact = poisson_table_exact(lam, 40)
        worst = max(worst, float(np.max(np.abs(table.probs / exact - 1.0))))
    elapsed = time.perf_counter() - start
    _report(
        "01 order-1 tables match closed-form Poisson (rel 1e-12)",
        worst < 1e-12 and elapsed < 1.0,
        f"max rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_recurrence_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 5))
        params = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=r)))
        oracle = scaled_poisson_convolution(params.a)
        table = pmf_table(params, len(oracle) - 1)
        worst = max(worst, float(np.max(np.abs(table.probs - oracle))))
    elapsed = time.perf_counter() - start
    _report(
        "02 recurrence equals scaled-Poisson convolution (abs 1e-10, 100 draws)",
        worst < 1e-10 and elapsed < 30.0,
        f"max abs dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_closure_under_addition():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        pa = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5)))))
        pb = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5)))))
        conv = convolve_pmf_oracle(adaptive_pmf(pa, 1e-12), adaptive_pmf(pb, 1e-12))
        direct = pmf_table(add_params(pa, pb), conv.k_max)
        worst = max(worst, float(np.max(np.abs(conv.probs - direct.probs))))
    elapsed = time.perf_counter() - start
    _report(
        "03 sum of independent members stays in the family (abs 1e-10, 50 pairs)",
        worst < 1e-10 and elapsed < 30.0,
        f"max abs dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_closure_under_thinning():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        params = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5)))))
        p = float(rng.uniform(0.05, 1.0))
        table = adaptive_pmf(params, 1e-12)
        mixed = thin_pmf_oracle(table, p)
        direct = pmf_table(thin_params(params, p), mixed.k_max)
        worst = max(worst, float(np.max(np.abs(mixed.probs - direct.probs))))
    elapsed = time.perf_counter() - start
    _report(
        "04 binomial subsampling stays in the family (abs 1e-10, 50 draws)",
        worst < 1e-10 and elapsed < 30.0,
        f"max abs dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_cumulant_scaling_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    ok = True
    detail = []

    # factorial cumulants scale as p**k
    worst = 0.0
    for _ in range(200):
        params = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5)))))
        p = float(rng.uniform(0.05, 1.0))
        thinned = params_to_factorial_cumulants(thin_params(params, p)).kappa
        scaled = [
            p**j * k for j, k in enumerate(params_to_factorial_cumulants(params).kappa, 1)
        ]
        for x, y in zip(thinned, scaled):
            dev = abs(x - y) / abs(y) if y != 0.0 else abs(x - y)
            worst = max(worst, dev)
    ok &= worst < 1e-12
    detail.append(f"p^k scaling {worst:.2e}")

    # eta ratios unchanged; coefficients and fractions kept away from zero
    # because verification noise grows like (p*mean)**-(j+1); the atol covers
    # components that vanish identically
    worst_eta = 0.0
    for _ in range(200):
        params = HermiteParams(tuple(rng.uniform(0.5, 3.0, size=int(rng.integers(1, 5)))))
        p = float(rng.uniform(0.4, 1.0))
        before = np.array(thinning_invariants(ordinary_cumulants(params)).eta)
        after = np.array(thinning_invariants(ordinary_cumulants(thin_params(params, p))).eta)
        worst_eta = max(
            worst_eta, float(np.max(np.abs(after - before) / np.maximum(np.abs(before), 1.0)))
        )
    ok &= worst_eta < 1e-12
    detail.append(f"eta invariance {worst_eta:.2e}")

    # thinning composes multiplicatively
    worst_semi = 0.0
    for _ in range(200):
        params = HermiteParams(tuple(rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5)))))
        p, q = rng.uniform(0.05, 1.0, size=2)
        twice = np.array(thin_params(thin_params(params, float(p)), float(q)).a)
        once = np.array(thin_params(params, float(p * q)).a)
        worst_semi = max(
            worst_semi, float(np.max(np.abs(twice - once) / np.maximum(np.abs(once), 1e-300)))
        )
    ok &= worst_semi < 1e-14
    detail.append(f"semigroup {worst_semi:.2e}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report("05 cumulant p^k scaling, eta invariance, thinning semigroup", ok, "; ".join(detail))


def test_criterion_06_doubled_poisson_chain():
    base = doubled_poisson_pmf(0.25, 120)  # rate 1/(2*0.25) = 2 on even counts
    odd_ok = bool(np.all(base.probs[1::2] == 0.0))
    thinned = thin_pmf_oracle(base, 0.5)  # p = mean*eta1 = 2*0.25
    target = pmf_table(HermiteParams((1.0, 0.5)), thinned.k_max)
    dev = float(np.max(np.abs(thinned.probs - target.probs)))
    _report(
        "06 thinned doubled Poisson reproduces the order-2 law (abs 1e-10)",
        odd_ok and dev < 1e-10,
        f"odd entries exact zeros: {odd_ok}, max abs dev {dev:.2e}",
    )


def test_criterion_07_alternating_geometric_family():
    base = _alternating_geometric_base()
    norm_dev = abs(1.0 - math.fsum(base.probs.tolist()))
    head_ok = np.allclose(base.probs[:4], [2 / 7, 2 / 7, 2 / 21, 1 / 7], rtol=1e-13)
    mean_dev = 0.0
    for p in (0.3, 0.7, 1.0):
        table = alternating_geometric_pmf(p, 250)
        mean_dev = max(mean_dev, abs(table.truncated_mean() - 15.0 * p / 7.0))
    pgf_dev = 0.0
    for p in (0.3, 0.7, 1.0):
        for t in (-1.0, -0.4, 0.0, 0.5, 1.0):
            closed, series = alternating_geometric_pgf_values(p, t)
            pgf_dev = max(pgf_dev, abs(closed - series))
    _report(
        "07 alternating-geometric family: mean 15p/7, normalization, pgf",
        norm_dev < 1e-12 and head_ok and mean_dev < 1e-8 and pgf_dev < 1e-10,
        f"norm {norm_dev:.2e}, mean dev {mean_dev:.2e}, pgf dev {pgf_dev:.2e}",
    )


def test_criterion_08_negative_binomial_thinning():
    worst = 0.0
    for mu, eta1 in ((1.0, 1.0), (2.0, 0.5), (0.7, 0.3)):
        full = negative_binomial_pmf(mu, eta1, 400)
        for p in (0.2, 0.5, 0.9):
            thinned = thin_pmf_oracle(full, p)
            target = negative_binomial_pmf(p * mu, eta1, thinned.k_max)
            worst = max(worst, float(np.max(np.abs(thinned.probs - target.probs))))
    _report(
        "08 negative-binomial thinning stability (abs 1e-10)",
        worst < 1e-10,
        f"max abs dev {worst:.2e}",
    )


def test_criterion_09_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 5))
        params = HermiteParams(tuple(rng.uniform(0.2, 3.0, size=r)))
        hist = CountHistogram.from_observations(int(x) for x in rng.poisson(2.0, size=200))
        grad = loglik_gradient(params, hist)
        for j in range(r):
            up, dn = list(params.a), list(params.a)
            up[j] += h
            dn[j] -= h
            fd = (
                log_likelihood(HermiteParams(tuple(up)), hist)
                - log_likelihood(HermiteParams(tuple(dn)), hist)
            ) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / max(1.0, abs(grad[j])))
    elapsed = time.perf_counter() - start
    _report(
        "09 analytic gradient vs central differences (rel 1e-6, 20 draws)",
        worst < 1e-6 and elapsed < 10.0,
        f"max rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_mle_recovery():
    # band = 4 standard errors from a 60-replicate pilot at n = 1e5:
    # sd(a1) = 0.0077, sd(a2) = 0.0043
    start = time.perf_counter()
    batch = sample_hermite(HermiteParams((1.0, 0.5)), 100_000, seed=424_242)
    hist = CountHistogram.from_observations(batch.values)
    res = fit_mle(hist, 2)
    dev1 = abs(res.params.a[0] - 1.0)
    dev2 = abs(res.params.a[1] - 0.5)
    elapsed = time.perf_counter() - start
    _report(
        "10 order-2 MLE recovers the truth within 4 standard errors",
        res.converged and dev1 < 0.031 and dev2 < 0.018 and elapsed < 60.0,
        f"|a1-1| = {dev1:.4f} (< 0.031), |a2-0.5| = {dev2:.4f} (< 0.018), {elapsed:.1f}s",
    )


def test_criterion_11_boundary_lrt_calibration_and_power():
    start = time.perf_counter()
    # halved chi-square(1) upper tail points
    pv_ok = abs(lrt_pvalue(2.706) - 0.05) < 1e-4 and abs(lrt_pvalue(3.841) - 0.025) < 1e-4

    # size: equidispersed truth, test the order-2 coefficient at alpha = 0.05
    rejections = 0
    for rep in range(200):
        batch = sample_hermite(HermiteParams((2.0,)), 10_000, seed=50_000 + rep)
        hist = CountHistogram.from_observations(batch.values)
        d = lrt_statistic(fit_mle(hist, 2).loglik, fit_mle(hist, 1).loglik)
        rejections += lrt_pvalue(d) < 0.05
    rate = rejections / 200.0

    # power: genuine order-2 truth must be selected
    hits = 0
    for rep in range(200):
        batch = sample_hermite(HermiteParams((1.0, 1.0)), 10_000, seed=110_000 + rep)
        hist = CountHistogram.from_observations(batch.values)
        hits += select_order(hist, 3, 0.05).chosen_order == 2
    power = hits / 200.0

    elapsed = time.perf_counter() - start
    _report(
        "11 boundary LRT: tail points, size in [0.02, 0.09], power >= 0.95",
        pv_ok and 0.02 <= rate <= 0.09 and power >= 0.95 and elapsed < 600.0,
        f"size {rate:.3f}, power {power:.3f}, {elapsed:.0f}s",
    )


def test_criterion_12_sampler_goodness_of_fit():
    start = time.perf_counter()
    sets = [(2.0,), (0.5,), (1.0, 0.5), (2.0, 1.0), (1.0, 0.5, 0.25)]
    pvals = []
    for i, a in enumerate(sets):
        params = HermiteParams(a)
        batch = sample_hermite(params, 100_000, seed=202 + i)
        table = adaptive_pmf(params, 1e-12)
        pvals.append(gof_pvalue(batch.values, table.probs))
    elapsed = time.perf_counter() - start
    _report(
        "12 sampler passes chi-square GOF at alpha 0.01 (5 sets, n = 1e5)",
        all(p > 0.01 for p in pvals) and elapsed < 60.0,
        "p = " + ", ".join(f"{p:.3f}" for p in pvals) + f", {elapsed:.0f}s",
    )

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io
import json
import math
import time
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from jeffreys import (
    BISECTION_HALVINGS,
    ClusteringConfig,
    WeightedHistogramSet,
    frequency_centroid_bisection,
    frequency_centroid_fixedpoint,
    jeffreys,
    kmeans,
    lambert_w0_values,
    normalized_means,
    normalized_positive_centroid,
    positive_centroid,
    run_alpha_trials,
)
from jeffreys.cli import main as cli_main
from jeffreys.centroids import MODES, _means
from jeffreys.oracles import random_frequency_rows
from conftest import planted_blobs, random_frequency_set, w0_reference, w0_residual
from references import batch_jeffreys_to_set, batch_kl_to_set, kl, oracle_positive_centroid

EPS = float(np.finfo(np.float64).eps)

# (histograms per set, bins, sets) groups that add up to 10**4 random sets
SET_GROUPS = [
    (2, 2, 1000), (3, 4, 1000), (4, 8, 1000), (5, 16, 1000), (2, 32, 1000),
    (8, 3, 1000), (6, 5, 1000), (3, 64, 1000), (4, 24, 1000), (5, 6, 1000),
]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def grouped_trials(seed=2026):
    for idx, (n, d, trials) in enumerate(SET_GROUPS):
        yield run_alpha_trials(trials, d, seed=seed + idx, histograms_per_trial=n)


def test_criterion_1_lambert_round_trip():
    # The round trip |W e^W - x| / x amplifies the half-ulp rounding of W by
    # (1 + W) / W, so no double meets 4 eps once W > 7.  The round-trip bound
    # is therefore asserted where W <= 7, and the whole range is checked by
    # the forward error against a 60-digit reference: within one ulp of W0(x).
    xs = np.logspace(-300.0, 300.0, 10**4)
    start = time.perf_counter()
    values, iters = lambert_w0_values(xs, return_iterations=True)
    elapsed = time.perf_counter() - start
    max_iters = int(iters.max())
    resid = [w0_residual(x, w) for x, w in zip(xs, values)]
    max_resid = max(resid)
    max_resid_moderate = max(r for r, w in zip(resid, values) if w <= 7.0)

    with localcontext(Context(prec=60)):
        refs = [w0_reference(float(x), float(w)) for x, w in zip(xs, values)]
        ulps = max(
            float(abs(Decimal(float(w)) - ref) / Decimal(math.ulp(w)))
            for w, ref in zip(values, refs)
        )
        # Residual of the correctly rounded double c, from W* e^W* = x:
        # c e^c / x = (c / W*) e^(c - W*).
        floor = 0.0
        for ref in refs:
            c = Decimal(float(ref))
            floor = max(floor, float(abs(c / ref * (c - ref).exp() - 1)))

    ok = max_resid_moderate <= 4.0 * EPS and ulps <= 1.0 and max_iters <= 5 and elapsed < 1.0
    report(
        1,
        ok,
        f"round-trip residual max {max_resid_moderate / EPS:.2f} eps where W <= 7 (bound 4 eps), "
        f"forward error max {ulps:.4f} ulp (bound 1 ulp), iterations max {max_iters} (bound 5), "
        f"runtime {elapsed:.3f}s (bound 1s); "
        f"full-range round-trip residual max {max_resid / EPS:.1f} eps against a floor of "
        f"{floor / EPS:.1f} eps for the correctly rounded double",
    )


def test_criterion_2_closed_form_optimality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    max_coord_err = 0.0
    max_stationarity = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        rows = rng.uniform(0.01, 1.0, size=(n, d))
        weights = rng.uniform(0.2, 1.0, size=n)
        weights /= weights.sum()
        s = WeightedHistogramSet(rows, weights)
        closed = positive_centroid(s).centroid.bins
        oracle = oracle_positive_centroid(s, resolution=1e-8).argmin
        max_coord_err = max(max_coord_err, float(np.abs(closed - oracle).max()))
        a, g = _means(s)
        residual = np.abs(np.log(closed / g) + 1.0 - a / closed).max()
        max_stationarity = max(max_stationarity, float(residual))
    elapsed = time.perf_counter() - start
    ok = max_coord_err <= 1e-6 and max_stationarity <= 1e-10 and elapsed < 10.0
    report(
        2,
        ok,
        f"closed form vs golden-section oracle max coordinate error {max_coord_err:.2e} "
        f"(bound 1e-6), stationarity residual max {max_stationarity:.2e} (bound 1e-10), "
        f"runtime {elapsed:.2f}s (bound 10s)",
    )


def test_criterion_3_centroid_mass_bound():
    w_min, w_max = np.inf, -np.inf
    count = 0
    for data in grouped_trials(seed=300):
        w_min = min(w_min, float(data.w_c.min()))
        w_max = max(w_max, float(data.w_c.max()))
        count += data.w_c.size
    rng = np.random.default_rng(301)
    for _ in range(500):
        r = normalized_positive_centroid(random_frequency_set(rng))
        w_min = min(w_min, r.w_c)
        w_max = max(w_max, r.w_c)
        count += 1
    ok = w_min > 0.0 and w_max <= 1.0 + 1e-12
    report(3, ok, f"{count} random frequency sets: w_c in [{w_min:.6f}, {w_max:.15f}], bound (0, 1]")


def test_criterion_4_mass_decomposition_identity():
    rng = np.random.default_rng(400)
    worst = 0.0
    count = 0
    for n, d, trials in SET_GROUPS:
        members = random_frequency_rows(rng, trials, n, d)
        weights = np.full(n, 1.0 / n)
        x = random_frequency_rows(rng, trials, 1, d)[:, 0, :] * rng.uniform(
            0.25, 4.0, size=(trials, 1)
        )
        w_x = x.sum(axis=1)
        xt = x / w_x[:, None]
        lhs = batch_jeffreys_to_set(x, members, weights)
        rhs = batch_jeffreys_to_set(xt, members, weights) + (w_x - 1.0) * (
            batch_kl_to_set(xt, members, weights) + np.log(w_x)
        )
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
        worst = max(worst, float(rel.max()))
        count += trials
    ok = worst <= 1e-10
    report(4, ok, f"{count} random (x, set) pairs: identity residual max {worst:.2e} (bound 1e-10 relative)")


def test_criterion_5_sandwich():
    worst_low, worst_mid, worst_alpha_low, worst_alpha_high = 0.0, 0.0, 0.0, 0.0
    count = 0
    for data in grouped_trials(seed=500):
        worst_low = max(worst_low, float((data.j_positive - data.j_exact).max()))
        worst_mid = max(worst_mid, float((data.j_exact - data.j_normalized).max()))
        alpha = data.alpha_normalized
        worst_alpha_low = max(worst_alpha_low, float((1.0 - alpha).max()))
        worst_alpha_high = max(worst_alpha_high, float((alpha - 1.0 / data.w_c).max()))
        count += alpha.size
    ok = max(worst_low, worst_mid, worst_alpha_low, worst_alpha_high) <= 1e-10
    report(
        5,
        ok,
        f"{count} random frequency sets: J(c) <= J(c~) <= J(c~') and 1 <= alpha <= 1/w_c; "
        f"worst slacks {worst_low:.2e}, {worst_mid:.2e}, {worst_alpha_low:.2e}, "
        f"{worst_alpha_high:.2e} (bound 1e-10)",
    )


def test_criterion_6_synthetic_alpha_statistics():
    start = time.perf_counter()
    data = run_alpha_trials(10**5, 2, seed=600)
    elapsed = time.perf_counter() - start
    alpha = data.alpha_normalized
    mean_a, max_a, min_a = float(alpha.mean()), float(alpha.max()), float(alpha.min())
    ok = mean_a <= 1.0001 and max_a <= 1.01 and min_a >= 1.0 - 1e-12 and elapsed < 60.0
    report(
        6,
        ok,
        f"1e5 trials d=2: mean alpha {mean_a:.9f} (bound 1.0001), max {max_a:.9f} "
        f"(bound 1.01), min {min_a:.15f} (bound 1 - 1e-12), runtime {elapsed:.2f}s (bound 60s)",
    )


def test_criterion_7_solver_agreement():
    rng = np.random.default_rng(700)
    max_diff = 0.0
    halvings_ok = True
    fp_iters = []
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 65))
        s = random_frequency_set(rng, n=n, d=d)
        b = frequency_centroid_bisection(s)
        f = frequency_centroid_fixedpoint(s)
        max_diff = max(max_diff, float(np.abs(b.centroid.bins - f.centroid.bins).max()))
        halvings_ok = halvings_ok and b.iterations == BISECTION_HALVINGS
        fp_iters.append(f.iterations)
    mean_fp = float(np.mean(fp_iters))
    ok = max_diff <= 1e-10 and halvings_ok and 4.0 <= mean_fp <= 10.0
    report(
        7,
        ok,
        f"1000 random sets (d up to 64): max coordinate disagreement {max_diff:.2e} "
        f"(bound 1e-10), bisection always {BISECTION_HALVINGS} halvings: {halvings_ok}, "
        f"fixed-point mean iterations {mean_fp:.2f} (bounds 4..10)",
    )


def test_criterion_8_lambda_consistency():
    rng = np.random.default_rng(800)
    worst = 0.0
    max_lambda = -np.inf
    solutions = 0
    member = np.array([0.3, 0.7])
    cases = [WeightedHistogramSet([member, member], frequency=True)]
    cases += [random_frequency_set(rng) for _ in range(300)]
    for s in cases:
        _, geom = normalized_means(s)
        for solver in (frequency_centroid_bisection, frequency_centroid_fixedpoint):
            r = solver(s)
            worst = max(worst, abs(r.lambda_star + kl(r.centroid, geom)))
            max_lambda = max(max_lambda, r.lambda_star)
            solutions += 1
    ok = worst <= 1e-8 and max_lambda <= 0.0
    report(
        8,
        ok,
        f"{solutions} converged solutions: |lambda* + KL(c~:g~)| max {worst:.2e} "
        f"(bound 1e-8), lambda* max {max_lambda:.3e} (bound 0)",
    )


def test_criterion_9_kmeans_monotonicity_and_recovery():
    rng = np.random.default_rng(900)
    worst_increase = -np.inf
    runs = 0
    kmeans_modes = [name for name, mode in MODES.items() if mode.builder]
    for trial in range(50):
        rows = rng.uniform(0.01, 1.0, size=(200, 16))
        rows /= rows.sum(axis=1, keepdims=True)
        s = WeightedHistogramSet(rows, frequency=True)
        for mode in kmeans_modes:
            res = kmeans(s, ClusteringConfig(k=5, centroid_mode=mode, seed=trial))
            trace = res.objective_trace
            for i in range(len(trace) - 1):
                worst_increase = max(worst_increase, trace[i + 1] - trace[i])
            runs += 1

    blob_rows, labels = planted_blobs(np.random.default_rng(901), n=200, d=16)
    blob_set = WeightedHistogramSet(blob_rows, frequency=True)
    recovery_ok = True
    for mode in kmeans_modes:
        res = kmeans(blob_set, ClusteringConfig(k=2, centroid_mode=mode, seed=17))
        agreement = max(
            float(np.mean(res.assignments == labels)),
            float(np.mean(res.assignments == 1 - labels)),
        )
        recovery_ok = recovery_ok and agreement == 1.0

    ok = worst_increase <= 1e-12 and recovery_ok
    report(
        9,
        ok,
        f"{runs} k-means runs over every centroid mode: worst trace increase "
        f"{worst_increase:.2e} (bound 1e-12); planted two-blob recovery exact: {recovery_ok}",
    )


def test_criterion_10_bench_table_structure():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["bench", "--trials", "20000", "--dims", "16", "--seed", "42"])
    lines = out.getvalue().strip().splitlines()
    header_ok = lines[0] == "stat,alpha_positive,alpha_normalized,w_c,alpha_veldhuis"
    table = {row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in lines[1:4]}
    alpha_c_max = table["max"][0]
    veld_avg, norm_avg = table["avg"][3], table["avg"][1]
    ok = (
        code == 0
        and header_ok
        and set(table) == {"avg", "min", "max"}
        and alpha_c_max <= 1.0 + 1e-12
        and veld_avg >= norm_avg
    )
    report(
        10,
        ok,
        f"bench columns (alpha_positive, alpha_normalized, w_c, alpha_veldhuis) present: "
        f"{header_ok}; alpha_positive max {alpha_c_max:.12f} <= 1; veldhuis avg "
        f"{veld_avg:.8f} >= normalized avg {norm_avg:.8f}",
    )

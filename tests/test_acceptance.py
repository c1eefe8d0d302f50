"""Acceptance gate: every criterion as a seeded, tolerance-pinned check.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failure).  Master seeds are pinned so outcomes are
deterministic; tolerances come from the criteria, never from calibration
after the fact.
"""

import json
import time

import numpy as np
import pytest

from drloss import seeding
from drloss.loss import population_dr_loss_exact
from drloss.perturb import gaussian_shift_tv
from drloss.xprun import emit_report, load_config, run_suite
from drloss.xprun.indexed import FiniteView

from generators import random_finite_task, random_table_hypothesis


def report_line(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {flag} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_01_oracle_exactness():
    """Two independent exact DR losses agree on random finite tasks.

    ``population_dr_loss_exact`` sums member errors with ``fsum`` per atom;
    ``FiniteView.dr_exact`` contracts the view's member and mistake tables
    with ``einsum``.  Both are exact, so over 20,000 (task, hypothesis) pairs
    they may differ only by the rounding of their different summation
    orders, a few ulps, well inside 1e-12.
    """
    start = time.perf_counter()
    master = 424242
    checks = 0
    worst = 0.0
    for ti in range(200):
        rng = seeding.stream(master, ti)
        task = random_finite_task(rng)
        view = FiniteView(task)
        for _ in range(100):
            h = random_table_hypothesis(rng, view.points)
            exact = population_dr_loss_exact(h, task)
            (tabled,) = view.dr_exact(view.labels_of(h), "true")
            checks += 1
            worst = max(worst, abs(exact - tabled))
    elapsed = time.perf_counter() - start
    report_line(1, "oracle exactness", worst <= 1e-12 and elapsed <= 120,
                f"largest difference {worst:.1e} over {checks} checks, {elapsed:.1f}s")


def test_02_concentration_suite():
    """Inner and outer tail bounds hold at the required (m, eps) and (n, eps)."""
    start = time.perf_counter()
    cfg = load_config("hoeffding")
    rep = run_suite(cfg)
    grid_points = {(e.get("target"), e.get("m", e.get("n")), e["epsilon"]) for e in cfg.grid}
    assert {("inner", 800, 0.4), ("inner", 3200, 0.2),
            ("outer", 200, 0.4), ("outer", 800, 0.2)} == grid_points
    assert cfg.trials == 10**4
    elapsed = time.perf_counter() - start
    freqs = {f"{e['target']}/eps={e['epsilon']}": a["exceed_freq"]
             for e, a in zip(cfg.grid, rep.aggregates)}
    report_line(2, "concentration bounds", rep.passed and elapsed <= 300,
                f"tail freqs {freqs}, {elapsed:.1f}s")


def test_03_realizable_guarantee_shape():
    """Violation freq <= delta + slack at n=m=200 and non-increasing in the grid."""
    start = time.perf_counter()
    cfg = load_config("realizable")
    assert [e["n"] for e in cfg.grid] == [10, 50, 200] and cfg.trials == 500
    rep = run_suite(cfg)
    freqs = [a["viol_erm_freq"] for a in rep.aggregates]
    monotone = all(a >= b for a, b in zip(freqs, freqs[1:]))
    elapsed = time.perf_counter() - start
    report_line(3, "realizable shape", rep.passed and monotone and elapsed <= 300,
                f"viol freqs {freqs}, monotone={monotone}, {elapsed:.1f}s")


def test_04_agnostic_guarantee_shape():
    """Uniform |DR_S - DR_D| <= 0.15 in at least 95% - slack of trials at n=m=200."""
    start = time.perf_counter()
    cfg = load_config("agnostic")
    assert cfg.grid[-1] == {"n": 200, "m": 200, "epsilon": 0.15, "delta": 0.05, "assert": True}
    rep = run_suite(cfg)
    final = rep.aggregates[-1]
    elapsed = time.perf_counter() - start
    report_line(4, "agnostic shape", rep.passed and elapsed <= 300,
                f"viol freq {final['viol_freq']:.4f} at n=m=200, {elapsed:.1f}s")


def test_05_cover_models():
    """Training on representatives keeps the exact true-family loss inside the bounds."""
    start = time.perf_counter()
    rep1 = run_suite(load_config("model1"))
    rep2 = run_suite(load_config("model2"))
    assert rep1.rows[0]["eps_prime"] == pytest.approx(0.1, abs=1e-12)
    assert rep1.rows[0]["bound"] == pytest.approx(0.2, abs=1e-12)  # eps + eps'
    assert rep2.rows[0]["bound"] == pytest.approx(0.2, abs=1e-12)  # k * eps, k=2
    ok1 = sum(1 for r in rep1.rows if not r["viol_erm"])
    ok2 = sum(1 for r in rep2.rows if not r["viol_erm"])
    elapsed = time.perf_counter() - start
    report_line(5, "cover models", rep1.passed and rep2.passed and elapsed <= 600,
                f"model1 ok {ok1}/{len(rep1.rows)}, model2 ok {ok2}/{len(rep2.rows)}, {elapsed:.1f}s")


def test_06_double_sampling_lemma():
    """Pr(B) >= (2/5) Pr(A) - 3 sigma on paired draws, across 20 master-seed trials."""
    start = time.perf_counter()
    cfg = load_config("double-sampling")
    assert cfg.trials == 20 and cfg.params["draws"] == 2 * 10**4
    rep = run_suite(cfg)
    margins = [r["mean_d"] + 3 * r["se_d"] for r in rep.rows]
    pr_a = [r["pr_a"] for r in rep.rows]
    elapsed = time.perf_counter() - start
    report_line(6, "double-sampling lemma",
                rep.passed and all(a > 0 for a in pr_a) and elapsed <= 600,
                f"min margin {min(margins):.4f}, mean Pr(A) {sum(pr_a)/len(pr_a):.3f}, {elapsed:.1f}s")


def test_07_derandomize_classifier():
    """Vote-derandomized DR stays under delta + eps(eta) in >= 95% - slack of runs."""
    start = time.perf_counter()
    cfg = load_config("derand-classifier")
    rep = run_suite(cfg)
    agg = rep.aggregates[0]
    assert agg["t_votes"] == 8121  # ceil(1600 ln(8/0.05))
    assert agg["eps_eta"] == 0.0   # per-draw error 0.2 < 1/2 - 0.25
    markov_ok = all(a.passed for a in rep.assertions if "Markov" in a.name)
    # the Markov check on the heavy-error variant, exactly
    high = load_config("derand-classifier")
    high.params = dict(high.params, p_err_high=0.6)
    high.trials = 10
    rep_high = run_suite(high)
    agg_high = rep_high.aggregates[0]
    markov_high = all(a.passed for a in rep_high.assertions if "Markov" in a.name)
    elapsed = time.perf_counter() - start
    report_line(7, "derandomized classifier",
                rep.passed and markov_ok and markov_high and elapsed <= 180,
                f"exceed freq {agg['exceed_freq']:.4f} vs delta 0.05, "
                f"eps_eta(high)={agg_high['eps_eta']} <= {agg_high['markov_bound']:.3f}, {elapsed:.1f}s")


def test_08_derandomize_certifier():
    """Median-radius band violations stay under eps(eta) + delta across re-derandomizations."""
    start = time.perf_counter()
    cfg = load_config("derand-certifier")
    rep = run_suite(cfg)
    agg = rep.aggregates[0]
    assert agg["eps_eta"] == 0.0  # out-of-band rate 0.1 < 1/2 - 0.25
    elapsed = time.perf_counter() - start
    report_line(8, "derandomized certifier", rep.passed and elapsed <= 180,
                f"exceed freq {agg['exceed_freq']:.4f} vs delta 0.05, {elapsed:.1f}s")


def test_09_smoothing_tv_bound():
    """Worst-shift smoothed loss exceeds the clean loss by at most d(delta) + slack."""
    start = time.perf_counter()
    # closed form validated against the density-ratio MC oracle first
    z = seeding.stream(77, 0).standard_normal(10**6)
    ratio = np.exp((2.0 * z * 0.5 - 0.25) / 2.0)
    oracle = float(np.maximum(0.0, 1.0 - ratio).mean())
    d_half = gaussian_shift_tv(0.5, 1.0)
    assert abs(d_half - 0.1974) < 5e-4
    assert abs(d_half - oracle) < 0.005
    cfg = load_config("smoothing")
    assert [e["delta"] for e in cfg.grid] == [0.0, 0.25, 0.5]
    rep = run_suite(cfg)
    excesses = {a["delta"]: a["max_excess"] for a in rep.aggregates}
    elapsed = time.perf_counter() - start
    report_line(9, "smoothing TV bound", rep.passed and elapsed <= 180,
                f"d(0.5)={d_half:.4f} vs oracle {oracle:.4f}, max excesses {excesses}, {elapsed:.1f}s")


def test_10_determinism(tmp_path):
    """Byte-identical CSV and JSON when any suite re-runs with the same config and seed."""
    start = time.perf_counter()
    shrink = {"realizable": 10, "agnostic": 10, "model1": 10, "model2": 10,
              "double-sampling": 2, "hoeffding": 300, "derand-classifier": 10,
              "derand-certifier": 10, "smoothing": 2}
    stable = True
    for kind, trials in shrink.items():
        payloads = {"csv": [], "json": []}
        for run in range(2):
            cfg = load_config(kind)
            cfg.trials = trials
            if kind == "double-sampling":
                cfg.params = dict(cfg.params, draws=2000)
            rep = run_suite(cfg)
            for fmt in ("csv", "json"):
                path = tmp_path / f"{kind}-{run}.{fmt}"
                emit_report(rep, fmt, path)
                payloads[fmt].append(path.read_bytes())
        if payloads["csv"][0] != payloads["csv"][1] or payloads["json"][0] != payloads["json"][1]:
            stable = False
    elapsed = time.perf_counter() - start
    report_line(10, "determinism", stable, f"9 suites x 2 formats byte-stable, {elapsed:.1f}s")

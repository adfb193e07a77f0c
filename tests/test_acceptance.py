"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  The complete-case-rate
check is asserted exactly as specified for all three correlation levels;
the group-availability mechanism provably yields the trivariate normal
orthant rate 1/8 + 3*arcsin(rho)/(4*pi) = 0.1977/0.2786/0.3923, so the
middle case sits outside the stated band and fails honestly (see the
printed detail).
"""

import time

import numpy as np
import pytest
from scipy.special import expit

from fragma.averaging import (
    CriterionContext,
    criterion,
    kl_loss,
    optimize_weights,
    predict,
    fit_averaged,
)
from fragma.baselines import fit_imp
from fragma.datasets import random_fragmentary, table1_toy
from fragma.glm import BINOMIAL, GAUSSIAN, CandidateStore, fit_glm
from fragma.patterns import FragmentaryDataset, build_pattern_index, cc_fraction
from fragma.sim import SimConfig, generate_replication, run_study

from oracles import (
    brute_force_pattern_sets,
    logistic_criterion_by_terms,
    logistic_mle_oracle,
    project_to_simplex,
    simplex_grid,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ordering_study():
    """50-replication study for every (n, rho) cell, decay signal."""
    t0 = time.time()
    cells = {}
    for n in (400, 800):
        for rho in (0.3, 0.6, 0.9):
            cfg = SimConfig(
                n=n,
                rho=rho,
                beta_case="decay",
                reps=50,
                seed=20260810,
                methods=("opt1", "saic", "sbic", "cc"),
            )
            cells[(n, rho)] = run_study(cfg)
    return cells, time.time() - t0


def test_criterion_1_cc_fraction_reproduction():
    t0 = time.time()
    measured = {}
    for rho in (0.3, 0.6, 0.9):
        cfg = SimConfig(n=200_000, rho=rho, reps=1, seed=424242)
        data, _ = generate_replication(cfg, 0)
        index = build_pattern_index(data)
        measured[rho] = cc_fraction(index, data.n)
    elapsed = time.time() - t0
    targets = {0.3: 0.190, 0.6: 0.255, 0.9: 0.388}
    lines = []
    ok = elapsed < 10.0
    for rho, target in targets.items():
        inside = abs(measured[rho] - target) <= 0.015
        orthant = 1 / 8 + 3 * np.arcsin(rho) / (4 * np.pi)
        lines.append(
            f"rho={rho}: measured={measured[rho]:.4f} target={target}±0.015 "
            f"(orthant probability {orthant:.4f}) {'ok' if inside else 'OUTSIDE'}"
        )
        ok = ok and inside
    report(1, "cc-fraction reproduction", ok, f"[{elapsed:.1f}s] " + "; ".join(lines))


def test_criterion_2_figure_ordering(ordering_study):
    cells, elapsed = ordering_study
    ok = elapsed < 15 * 60
    details = [f"runtime {elapsed:.0f}s"]
    for (n, rho), res in cells.items():
        med = {m: res.summary[m]["median"] for m in ("opt1", "saic", "sbic", "cc")}
        cell_ok = (
            med["opt1"] < med["saic"]
            and med["opt1"] < med["sbic"]
            and med["opt1"] < med["cc"]
        )
        details.append(
            f"n={n},rho={rho}: opt1={med['opt1']:.4f} saic={med['saic']:.4f} "
            f"sbic={med['sbic']:.4f} cc={med['cc']:.4f} {'ok' if cell_ok else 'BAD'}"
        )
        ok = ok and cell_ok
    report(2, "median-KL ordering, 6 cells x 50 reps", ok, "; ".join(details))


def test_criterion_3_optimizer_grid_equivalence():
    rng = np.random.default_rng(3111)
    worst = -np.inf
    ok = True
    for _ in range(20):
        n1 = 50
        base = rng.standard_normal(n1)
        theta = np.column_stack(
            [base + rng.uniform(0.1, 1.5) * rng.standard_normal(n1) for _ in range(3)]
        )
        y = (rng.random(n1) < expit(base)).astype(float)
        p_sizes = rng.integers(1, 14, size=3).astype(float)
        ctx = CriterionContext(theta, y, p_sizes, BINOMIAL)
        lam = float(rng.choice([0.0, 2.0, np.log(n1)]))
        fit = optimize_weights(ctx, lam)
        grid_min = min(criterion(ctx, w, lam) for w in simplex_grid(3, 0.01))
        gap = fit.criterion_value - grid_min
        worst = max(worst, gap)
        ok = ok and gap <= 1e-6
    report(3, "optimizer vs 0.01-grid oracle", ok, f"worst gap {worst:.2e} (tol 1e-6)")


def test_criterion_4_irls_oracle_equivalence():
    rng = np.random.default_rng(477)
    worst_logit = 0.0
    worst_gauss = 0.0
    ok = True
    for _ in range(20):
        n = int(rng.integers(25, 61))
        p = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))]) if p > 1 else np.ones((n, 1))
        beta_true = rng.uniform(-1.0, 1.0, size=p)
        y = (rng.random(n) < expit(X @ beta_true)).astype(float)
        beta, info = fit_glm(X, y, BINOMIAL)
        oracle = logistic_mle_oracle(X, y)
        err = float(np.max(np.abs(beta - oracle)))
        worst_logit = max(worst_logit, err)
        ok = ok and err <= 1e-5 and info["converged"]

        yg = X @ beta_true + rng.standard_normal(n)
        bg, _ = fit_glm(X, yg, GAUSSIAN)
        ref = np.linalg.lstsq(X, yg, rcond=None)[0]
        errg = float(np.max(np.abs(bg - ref)))
        worst_gauss = max(worst_gauss, errg)
        ok = ok and errg <= 1e-8
    report(
        4,
        "IRLS vs brute-force likelihood oracle",
        ok,
        f"worst logistic {worst_logit:.2e} (tol 1e-5), worst gaussian {worst_gauss:.2e} (tol 1e-8)",
    )


def test_criterion_5_logistic_closed_form_equivalence():
    rng = np.random.default_rng(5005)
    worst = 0.0
    ok = True
    for _ in range(100):
        n1 = int(rng.integers(2, 40))
        K = int(rng.integers(1, 6))
        theta = rng.uniform(-10, 10, size=(n1, K))
        y = (rng.random(n1) < 0.5).astype(float)
        p_sizes = rng.integers(1, 14, size=K).astype(float)
        w = project_to_simplex(rng.standard_normal(K))
        lam = float(rng.uniform(0, 7))
        ctx = CriterionContext(theta, y, p_sizes, BINOMIAL)
        diff = abs(
            criterion(ctx, w, lam)
            - logistic_criterion_by_terms(theta, y, w, lam, p_sizes)
        )
        worst = max(worst, diff)
        ok = ok and diff <= 1e-10
    report(5, "generic vs logistic closed form", ok, f"worst |diff| {worst:.2e} (tol 1e-10)")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(606)
    ok = True
    bad = ""
    for trial in range(1000):
        n = int(rng.integers(3, 26))
        p = int(rng.integers(2, 7))
        data = random_fragmentary(rng, n, p, obs_prob=float(rng.uniform(0.25, 0.95)))
        index = build_pattern_index(data)
        oracle = brute_force_pattern_sets(data.mask)
        all_t = np.concatenate(index.t_sets)
        if len(all_t) != n or len(set(all_t.tolist())) != n:
            ok, bad = False, f"partition broken at trial {trial}"
            break
        if index.K != len(oracle):
            ok, bad = False, f"pattern count mismatch at trial {trial}"
            break
        v = rng.standard_normal(p)
        for k, pat in enumerate(index.patterns):
            t_oracle, s_oracle = oracle[frozenset(pat.indices)]
            if set(index.t_sets[k]) != t_oracle or set(index.s_sets[k]) != s_oracle:
                ok, bad = False, f"T/S mismatch at trial {trial}"
                break
            if not np.array_equal(index.projections[k] @ v, v[list(pat.indices)]):
                ok, bad = False, f"projection mismatch at trial {trial}"
                break
        if not ok:
            break

    toy = build_pattern_index(table1_toy())
    toy_ok = (
        toy.K == 7
        and set(toy.t_sets[0]) == {0, 1}
        and set(toy.s_sets[0]) == {0, 1}
        and set(toy.t_sets[1]) == {2}
        and set(toy.s_sets[1]) == {0, 1, 2, 3}
        and set(toy.t_sets[6]) == {8, 9}
        and set(toy.s_sets[6]) == {0, 1, 3, 8, 9}
    )
    ok = ok and toy_ok
    report(
        6,
        "pattern invariants, 1000 random masks + published toy sets",
        ok,
        bad or "brute-force oracle agreement and exact toy T/S sets",
    )


def test_criterion_7_convexity_and_kkt(ordering_study):
    rng = np.random.default_rng(707)
    base = rng.standard_normal(60)
    theta = np.column_stack(
        [base + rng.uniform(0.2, 1.0) * rng.standard_normal(60) for _ in range(5)]
    )
    y = (rng.random(60) < expit(base)).astype(float)
    ctx = CriterionContext(theta, y, np.arange(1.0, 6.0), BINOMIAL)
    convex_ok = True
    for _ in range(200):
        wa = project_to_simplex(rng.standard_normal(5))
        wb = project_to_simplex(rng.standard_normal(5))
        mid = 0.5 * (wa + wb)
        if criterion(ctx, mid, 2.0) > 0.5 * (
            criterion(ctx, wa, 2.0) + criterion(ctx, wb, 2.0)
        ) + 1e-9:
            convex_ok = False
            break

    cells, _ = ordering_study
    residuals = []
    for res in cells.values():
        residuals.extend(res.diagnostics.get("kkt_residuals", []))
    kkt_ok = len(residuals) > 0 and max(residuals) <= 1e-7
    ok = convex_ok and kkt_ok
    report(
        7,
        "criterion convexity and optimizer KKT",
        ok,
        f"midpoint convexity on 200 pairs: {'ok' if convex_ok else 'BAD'}; "
        f"max KKT residual over {len(residuals)} simulation fits: "
        f"{max(residuals):.2e} (tol 1e-7)",
    )


def test_criterion_8_degenerate_reductions():
    rng = np.random.default_rng(808)
    # K = 1 gives unit weight
    theta = rng.standard_normal((30, 1))
    y = (rng.random(30) < 0.5).astype(float)
    ctx = CriterionContext(theta, y, np.array([3.0]), BINOMIAL)
    unit_ok = np.asarray(optimize_weights(ctx, 2.0).weights).tolist() == [1.0]

    # fully observed data: zero-imputation averaging equals the main method
    n, p = 80, 3
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    yb = (rng.random(n) < expit(x @ np.array([0.2, 0.6, -0.4]))).astype(float)
    data = FragmentaryDataset(yb, x, np.ones((n, p), bool), ["intercept", "a", "b"])
    opt = fit_averaged(CandidateStore(data, BINOMIAL), "opt1")
    imp = fit_imp(CandidateStore(data, BINOMIAL), "opt1")
    imp_ok = (
        np.max(np.abs(np.asarray(opt.weights) - np.asarray(imp.weights))) <= 1e-10
        and np.max(np.abs(opt.beta_combined - imp.beta_combined)) <= 1e-10
    )
    pred_ok = True
    for _ in range(5):
        xq = rng.standard_normal(p)
        t_opt, _ = predict(opt, xq)
        if abs(t_opt - predict(imp, xq)[0]) > 1e-10:
            pred_ok = False

    # oracle predictor has zero loss
    cfg = SimConfig(n=400, rho=0.6, seed=99, reps=1)
    sim_data, truth = generate_replication(cfg, 0)
    index = build_pattern_index(sim_data)
    cc_rows = index.s_sets[0]
    oracle_kl = abs(
        kl_loss(truth.theta[cc_rows], truth.mean[cc_rows], BINOMIAL, per_obs=True)
    )
    oracle_ok = oracle_kl <= 1e-12

    ok = unit_ok and imp_ok and pred_ok and oracle_ok
    report(
        8,
        "degenerate reductions",
        ok,
        f"K=1 unit weight: {unit_ok}; no-missing IMP==OPT (1e-10): {imp_ok and pred_ok}; "
        f"oracle KL {oracle_kl:.1e} (tol 1e-12)",
    )

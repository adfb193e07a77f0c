import numpy as np
import pytest
from scipy.special import expit

from fragma.averaging import fit_averaged, predict
from fragma.baselines import (
    _stratified_folds,
    fit_cc,
    fit_glasso,
    fit_group_lasso_at,
    fit_imp,
    fit_smoothed_ic,
    group_lasso_kkt_residual,
    lambda_max_group_lasso,
    smoothed_ic_weights,
)
from fragma.datasets import adni_like, random_fragmentary, table1_toy
from fragma.errors import RankDeficientError
from fragma.glm import (
    BINOMIAL,
    GAUSSIAN,
    POISSON,
    CandidateStore,
    FitOptions,
    fit_candidate,
    fit_glm,
)
from fragma.patterns import FragmentaryDataset, Pattern, build_pattern_index

from oracles import (
    logistic_group_lasso_objective,
    per_fold_group_lasso_cv_loss,
    slow_logistic_group_lasso,
    softmax_ic_weights,
)


def grouped_glm_data(rng, n=60, p=6, n_groups=2, family=BINOMIAL):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    beta = np.zeros(p + 1)
    beta[1:4] = [1.0, -0.8, 0.6]
    theta = X @ beta
    if family is GAUSSIAN:
        y = theta + rng.standard_normal(n)
    elif family is POISSON:
        y = rng.poisson(np.exp(0.5 * theta)).astype(float)
    else:
        y = (rng.random(n) < expit(theta)).astype(float)
    step = p // n_groups
    groups = [np.arange(1 + s * step, 1 + (s + 1) * step) for s in range(n_groups)]
    return X, y, groups


# ---------------------------------------------------------------------------
# CC
# ---------------------------------------------------------------------------

def test_cc_equals_first_candidate_exactly(rng):
    data = random_fragmentary(rng, 80, 4, family="binomial", ensure_full=True)
    index = build_pattern_index(data)
    res = fit_cc(data, BINOMIAL, index=index)
    cand = fit_candidate(data, index.patterns[0], BINOMIAL)
    assert np.array_equal(res.beta_combined[list(cand.pattern.indices)], cand.beta)
    assert res.support == list(cand.pattern.indices)


def test_cc_on_fully_observed_equals_plain_glm(rng):
    n, p = 50, 3
    x = rng.standard_normal((n, p))
    y = (rng.random(n) < expit(x @ np.array([0.5, -0.5, 0.2]))).astype(float)
    data = FragmentaryDataset(y, x, np.ones((n, p), bool), [f"c{j}" for j in range(p)])
    res = fit_cc(data, BINOMIAL)
    direct, _ = fit_glm(x, y, BINOMIAL)
    assert np.max(np.abs(res.beta_combined - direct)) < 1e-12


def test_cc_rejects_underdetermined_toy():
    data = table1_toy(family="gaussian")
    with pytest.raises(RankDeficientError):
        fit_cc(data, GAUSSIAN)


# ---------------------------------------------------------------------------
# smoothed AIC / BIC
# ---------------------------------------------------------------------------

def test_ic_weights_examples():
    assert smoothed_ic_weights(np.array([7.3])).tolist() == [1.0]
    assert np.allclose(smoothed_ic_weights(np.array([4.0, 4.0])), [0.5, 0.5])
    w = smoothed_ic_weights(np.array([10.0, 12.0, 14.0]))
    assert np.allclose(w, softmax_ic_weights([10.0, 12.0, 14.0]), atol=1e-12)
    assert np.allclose(w, [0.6652, 0.2447, 0.0900], atol=5e-5)


def test_ic_weights_invariant_to_constant_shift(rng):
    ic = rng.uniform(0, 50, size=6)
    w1 = smoothed_ic_weights(ic)
    w2 = smoothed_ic_weights(ic + 123.4)
    assert np.allclose(w1, w2, atol=1e-12)
    assert abs(w1.sum() - 1.0) < 1e-12
    assert np.all(w1 >= 0)
    # large spreads must not overflow
    w3 = smoothed_ic_weights(np.array([0.0, 5000.0]))
    assert np.allclose(w3, [1.0, 0.0])


def test_smoothed_ic_single_candidate(rng):
    data = random_fragmentary(rng, 30, 3, family="binomial", obs_prob=1.0)
    res = fit_smoothed_ic(data, BINOMIAL, "aic")
    assert np.asarray(res.weights).tolist() == [1.0]


def test_smoothed_ic_weights_on_simplex_both_flavors(rng):
    data = random_fragmentary(rng, 120, 4, family="binomial", ensure_full=True)
    for flavor in ("aic", "bic"):
        res = fit_smoothed_ic(data, BINOMIAL, flavor)
        w = np.asarray(res.weights)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# zero-imputation averaging
# ---------------------------------------------------------------------------

def test_imp_equals_opt_when_fully_observed(rng):
    n, p = 70, 3
    x = rng.standard_normal((n, p))
    x[:, 0] = 1.0
    y = (rng.random(n) < expit(x @ np.array([0.2, 0.7, -0.4]))).astype(float)
    data = FragmentaryDataset(y, x, np.ones((n, p), bool), ["intercept", "a", "b"])
    opt = fit_averaged(data, BINOMIAL, "opt1")
    imp = fit_imp(data, BINOMIAL, "opt1")
    assert np.max(np.abs(np.asarray(opt.weights) - np.asarray(imp.weights))) < 1e-10
    assert np.max(np.abs(opt.beta_combined - imp.beta_combined)) < 1e-10
    for _ in range(5):
        xq = rng.standard_normal(p)
        t_opt, _ = predict(opt, xq)
        assert np.isclose(t_opt, predict(imp, xq)[0], atol=1e-10)


def test_imp_candidate_fits_equal_zero_filled_irls(rng):
    n = 60
    mask = np.ones((n, 2), dtype=bool)
    mask[: n // 2, 1] = False
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < expit(0.3 + 0.8 * np.where(mask[:, 1], x[:, 1], 0.0))).astype(float)
    data = FragmentaryDataset(y, np.where(mask, x, np.nan), mask, ["intercept", "z"])
    res = fit_imp(data, BINOMIAL, "opt1")
    x0 = np.where(mask, x, 0.0)
    direct, _ = fit_glm(x0, y, BINOMIAL)
    index = build_pattern_index(data)
    k_full = [i for i, p_ in enumerate(index.patterns) if p_.indices == (0, 1)][0]
    # recompute the imp candidate for the two-column pattern
    beta_imp, _ = fit_glm(x0[:, [0, 1]], y, BINOMIAL)
    assert np.max(np.abs(beta_imp - direct)) < 1e-12
    assert res.zero_impute
    # prediction path zero-fills unobserved entries
    t, _ = predict(res, np.array([1.0, np.nan]))
    assert np.isfinite(t)


def test_imp_single_pattern_reduces_to_one_glm(rng):
    n = 40
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.5).astype(float)
    data = FragmentaryDataset(y, x, np.ones((n, 2), bool), ["intercept", "z"])
    res = fit_imp(data, BINOMIAL, "opt2")
    direct, _ = fit_glm(x, y, BINOMIAL)
    assert np.asarray(res.weights).tolist() == [1.0]
    assert np.max(np.abs(res.beta_combined - direct)) < 1e-12


def test_imp_lambda_mode_uses_full_sample_size(rng):
    data = random_fragmentary(rng, 50, 3, family="binomial", ensure_full=True)
    res = fit_imp(data, BINOMIAL, "opt2")
    assert np.isclose(res.lambda_n, np.log(data.n))


def test_imp_modes_share_one_zero_filled_store(rng, monkeypatch):
    import fragma.glm

    data = random_fragmentary(rng, 120, 4, family="binomial", ensure_full=True)
    index = build_pattern_index(data)
    calls = []
    original = fragma.glm.fit_glm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fragma.glm, "fit_glm", counting)
    store = CandidateStore(data, BINOMIAL)
    imp1 = fit_imp(data, BINOMIAL, "opt1", index=index, store=store)
    imp2 = fit_imp(data, BINOMIAL, "opt2", index=index, store=store)
    assert len(calls) == index.K
    assert all(c.n_k == data.n for c in imp1.candidates + imp2.candidates)
    alone = fit_imp(data, BINOMIAL, "opt2", index=index)
    assert np.array_equal(alone.beta_combined, imp2.beta_combined)


# ---------------------------------------------------------------------------
# group lasso
# ---------------------------------------------------------------------------

def test_group_lasso_zeroes_everything_at_lambda_max(rng):
    X, y, groups = grouped_glm_data(rng)
    lam_max, _ = lambda_max_group_lasso(X, y, BINOMIAL, groups, np.array([0]))
    beta = fit_group_lasso_at(X, y, BINOMIAL, lam_max * 1.0001, groups)
    for g in groups:
        assert np.allclose(beta[g], 0.0, atol=1e-8)


def test_group_lasso_unpenalized_equals_mle(rng):
    X, y, groups = grouped_glm_data(rng)
    beta = fit_group_lasso_at(X, y, BINOMIAL, 0.0, groups, tol=1e-13, max_iter=100000)
    mle, _ = fit_glm(X, y, BINOMIAL)
    assert np.max(np.abs(beta - mle)) < 1e-5


def test_group_lasso_matches_slow_oracle_objective(rng):
    X, y, groups = grouped_glm_data(rng, n=60)
    lam_max, _ = lambda_max_group_lasso(X, y, BINOMIAL, groups, np.array([0]))
    lam = 0.3 * lam_max
    beta = fit_group_lasso_at(X, y, BINOMIAL, lam, groups, tol=1e-13, max_iter=100000)
    oracle = slow_logistic_group_lasso(X, y, lam, groups)
    f_fast = logistic_group_lasso_objective(X, y, beta, lam, groups)
    f_slow = logistic_group_lasso_objective(X, y, oracle, lam, groups)
    assert f_fast <= f_slow + 1e-6


def test_group_lasso_kkt_conditions(rng):
    # warm-started descending paths, so zero groups get released along the way
    for family in (BINOMIAL, GAUSSIAN, POISSON):
        X, y, groups = grouped_glm_data(rng, n=80, family=family)
        lam_max, _ = lambda_max_group_lasso(X, y, family, groups, np.array([0]))
        beta = None
        for frac in (0.9, 0.7, 0.5, 0.3, 0.1, 0.03):
            lam = frac * lam_max
            beta = fit_group_lasso_at(X, y, family, lam, groups, beta0=beta)
            assert group_lasso_kkt_residual(X, y, family, beta, lam, groups) <= 1e-6


def test_group_lasso_keeps_its_iteration_budget(rng):
    X, y, groups = grouped_glm_data(rng)
    b = rng.standard_normal(X.shape[1])
    beta = fit_group_lasso_at(X, y, BINOMIAL, 1.0, groups, beta0=b, max_iter=0)
    assert np.array_equal(beta, b)


@pytest.mark.parametrize("family", [BINOMIAL, GAUSSIAN, POISSON])
def test_group_lasso_batch_equals_separate_fits(rng, family):
    X, y, groups = grouped_glm_data(rng, n=100, p=9, n_groups=3, family=family)
    n, p = X.shape
    lam_max, _ = lambda_max_group_lasso(X, y, family, groups, np.array([0]))
    lam = 0.4 * lam_max
    M = (rng.permutation(n) % 5)[:, None] != np.arange(5)
    B0 = 0.3 * rng.standard_normal((5, p))
    B0[1, 1:] = 0.0  # every group zero: proximal steps release them
    # problem 2 starts at its own optimum, so it stops while the others keep going
    B0[2] = fit_group_lasso_at(X[M[:, 2]], y[M[:, 2]], family, lam, groups, tol=1e-13)
    B = fit_group_lasso_at(X, y, family, lam, groups, beta0=B0, rows=M)
    assert B.shape == (5, p)
    assert np.array_equal(B[2], B0[2])
    for f in range(5):
        m = M[:, f]
        single = fit_group_lasso_at(X[m], y[m], family, lam, groups, beta0=B0[f])
        assert np.max(np.abs(B[f] - single)) <= 1e-10
        assert group_lasso_kkt_residual(X[m], y[m], family, B[f], lam, groups) <= 1e-6
        if f != 2:
            assert not np.allclose(B[f], B0[f])
    unmoved = fit_group_lasso_at(X, y, family, lam, groups, beta0=B0, rows=M, max_iter=0)
    assert np.array_equal(unmoved, B0)


def test_lambda_max_fits_unpenalized_coordinates_with_given_options(rng):
    X, y, groups = grouped_glm_data(rng)
    # no IRLS iteration: the unpenalized intercept stays at zero
    lam_max, record = lambda_max_group_lasso(
        X, y, BINOMIAL, groups, np.array([0]), FitOptions(max_iter=0)
    )
    grad = X.T @ (0.5 - y)
    expected = max(np.linalg.norm(grad[g]) / np.sqrt(len(g)) for g in groups)
    assert lam_max == pytest.approx(expected)


def test_fit_glasso_end_to_end(rng):
    n, p = 240, 7
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta_true = np.array([0.3, 1.2, -1.0, 0.8, 0.0, 0.0, 0.0])
    y = (rng.random(n) < expit(x @ beta_true)).astype(float)
    mask = np.ones((n, p), dtype=bool)
    # one block occasionally missing so the refit set differs from CC
    missing = rng.random(n) < 0.25
    mask[missing, 4:7] = False
    data = FragmentaryDataset(
        y, np.where(mask, x, np.nan), mask, ["intercept"] + [f"v{j}" for j in range(1, p)]
    )
    groups = {"signal": [1, 2, 3], "noise": [4, 5, 6]}
    res = fit_glasso(data, BINOMIAL, groups, seed=3)
    assert "signal" in res.diagnostics["selected_groups"]
    assert 0 in res.support
    # refit uses every subject observing the selected columns
    expected_rows = int(data.mask[:, res.support].all(axis=1).sum())
    assert res.diagnostics["n_refit"] == expected_rows
    if "noise" not in res.diagnostics["selected_groups"]:
        assert res.diagnostics["n_refit"] == n


def test_fit_glasso_respects_group_restriction_to_observed_columns(rng):
    data = random_fragmentary(rng, 150, 5, family="binomial", ensure_full=True)
    # column 0 intentionally outside every group: it stays unpenalized
    groups = {"g1": [1, 2], "g2": [3, 4]}
    res = fit_glasso(data, BINOMIAL, groups, seed=1)
    assert set(res.support) <= set(range(5))
    assert 0 in res.support


def test_fit_glasso_refits_through_the_store(monkeypatch):
    import fragma.baselines
    import fragma.glm

    data, groups = adni_like(seed=0)
    selected = tuple(fit_glasso(data, BINOMIAL, groups).support)
    store = CandidateStore(data, BINOMIAL)
    held = store.fit(Pattern(selected))
    widths = []
    original = fragma.glm.fit_glm

    def counting(X, *args, **kwargs):
        widths.append(X.shape[1])
        return original(X, *args, **kwargs)

    monkeypatch.setattr(fragma.glm, "fit_glm", counting)
    monkeypatch.setattr(fragma.baselines, "fit_glm", counting)
    res = fit_glasso(data, BINOMIAL, groups, store=store)
    # the one GLM fitted is lambda_max's, on the unpenalized intercept
    assert widths == [1]
    (cand,) = res.candidates
    assert cand.pattern.indices == selected
    assert np.array_equal(cand.beta, held.beta)
    assert (cand.n_k, cand.loglik, cand.iterations) == (held.n_k, held.loglik, held.iterations)
    assert res.diagnostics["n_refit"] == held.n_k


def test_fit_glasso_records_the_lambda_max_fit():
    data, groups = adni_like(seed=2, scale=0.5)
    res = fit_glasso(
        data, BINOMIAL, groups, store=CandidateStore(data, BINOMIAL, FitOptions(max_iter=1))
    )
    assert res.diagnostics["lambda_max_fit"] == {
        "converged": False,
        "iterations": 1,
        "stop": "max_iter",
    }
    record = fit_glasso(data, BINOMIAL, groups).diagnostics["lambda_max_fit"]
    assert record["converged"] and record["stop"] in ("score", "decrement")


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_glasso_cv_path_matches_per_fold_oracle(seed):
    data, groups = adni_like(seed=seed)
    res = fit_glasso(data, BINOMIAL, groups, seed=seed)
    index = build_pattern_index(data)
    lead = list(index.patterns[0].indices)
    X = data.x[np.ix_(index.s_sets[0], lead)]
    y = data.y[index.s_sets[0]]
    group_pos = [np.array([lead.index(j) for j in cols]) for cols in groups.values()]
    lam_max = res.diagnostics["lambda_max"]
    lambdas = np.geomspace(lam_max, lam_max * 1e-3, 50)
    folds = _stratified_folds(y, 5, seed)
    oracle = per_fold_group_lasso_cv_loss(
        X, y, BINOMIAL, lambdas, group_pos, folds, fit_group_lasso_at
    )
    cv_loss = np.asarray(res.diagnostics["cv_loss"])
    assert np.max(np.abs(cv_loss - oracle) / np.abs(oracle)) <= 1e-9
    best = int(np.argmin(oracle))
    assert int(np.argmin(cv_loss)) == best
    assert res.diagnostics["lambda"] == lambdas[best]
    beta = None
    for lam in lambdas[: best + 1]:
        beta = fit_group_lasso_at(X, y, BINOMIAL, lam, group_pos, beta0=beta)
    selected = [name for name, g in zip(groups, group_pos) if np.linalg.norm(beta[g]) > 0]
    assert res.diagnostics["selected_groups"] == selected

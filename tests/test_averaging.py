import numpy as np
import pytest
from scipy.special import expit

from fragma.averaging import (
    AveragedModel,
    CriterionContext,
    WeightVector,
    build_criterion_context,
    combine_coefficients,
    criterion,
    criterion_gradient,
    fit_averaged,
    kkt_residual,
    kl_loss,
    lambda_default,
    optimize_weights,
    predict,
    predict_for_pattern,
    resolve_lambda,
)
from fragma.baselines import fit_imp
from fragma.datasets import adni_like, random_fragmentary
from fragma.errors import DataError
from fragma.glm import (
    BINOMIAL,
    GAUSSIAN,
    POISSON,
    CandidateStore,
    fit_all_candidates,
    fit_glm,
    loglik,
)
from fragma.patterns import FragmentaryDataset, build_pattern_index, restrict_to

from oracles import (
    bernoulli_kl2,
    central_difference_gradient,
    linear_predictor,
    logistic_criterion_by_terms,
    poisoned,
    project_to_simplex,
    simplex_grid,
)


def random_logistic_ctx(rng, n1=50, K=3, p_max=13):
    base = rng.standard_normal(n1)
    cols = [base + rng.uniform(0.1, 1.5) * rng.standard_normal(n1) for _ in range(K)]
    y = (rng.random(n1) < expit(base)).astype(float)
    p_sizes = rng.integers(1, p_max + 1, size=K).astype(float)
    return CriterionContext(np.column_stack(cols), y, p_sizes, BINOMIAL)


def fragmentary_pipeline(rng, n=80, p=5, family="binomial"):
    data = poisoned(random_fragmentary(rng, n, p, family=family, ensure_full=True))
    index = build_pattern_index(data)
    fam = BINOMIAL if family == "binomial" else GAUSSIAN
    candidates = fit_all_candidates(data, index, fam)
    ctx = build_criterion_context(data, index, candidates, fam)
    return data, index, candidates, ctx, fam


# ---------------------------------------------------------------------------
# weight vector and simplex projection
# ---------------------------------------------------------------------------

def test_weight_vector_renormalizes():
    w = WeightVector(np.array([2.0, 2.0]))
    assert np.allclose(np.asarray(w), [0.5, 0.5])
    assert abs(np.asarray(WeightVector(np.array([0.3, 0.7000000001]))).sum() - 1.0) < 1e-12
    with pytest.raises(DataError):
        WeightVector(np.array([-0.5, 1.5]))


def test_simplex_projection_properties(rng):
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 9))) * 3
        w = project_to_simplex(v)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12
        # projection optimality: no feasible direction improves distance
        u = project_to_simplex(rng.standard_normal(v.size))
        assert np.sum((v - w) ** 2) <= np.sum((v - u) ** 2) + 1e-12


# ---------------------------------------------------------------------------
# criterion and gradient
# ---------------------------------------------------------------------------

def test_single_candidate_criterion_reduces_to_deviance(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=40, p=3)
    ctx1 = CriterionContext(ctx.theta_matrix[:, :1], ctx.y_cc, ctx.p_sizes[:1], fam)
    lam = 2.0
    val = criterion(ctx1, np.array([1.0]), lam)
    ll = loglik(fam, ctx1.theta_matrix[:, 0], ctx1.y_cc)
    assert np.isclose(val, -2.0 * ll + lam * ctx1.p_sizes[0], atol=1e-10)


def test_logistic_criterion_matches_term_by_term_oracle(rng):
    ctx = random_logistic_ctx(rng, n1=3, K=2)
    w = np.array([0.5, 0.5])
    lam = 2.0
    expected = logistic_criterion_by_terms(ctx.theta_matrix, ctx.y_cc, w, lam, ctx.p_sizes)
    assert np.isclose(criterion(ctx, w, lam), expected, atol=1e-10)


def test_remark_equivalence_on_random_tuples(rng):
    for _ in range(100):
        n1 = int(rng.integers(2, 40))
        K = int(rng.integers(1, 6))
        theta = rng.uniform(-10, 10, size=(n1, K))
        y = (rng.random(n1) < 0.5).astype(float)
        p_sizes = rng.integers(1, 14, size=K).astype(float)
        ctx = CriterionContext(theta, y, p_sizes, BINOMIAL)
        w = project_to_simplex(rng.standard_normal(K))
        lam = float(rng.uniform(0, 7))
        closed = logistic_criterion_by_terms(theta, y, w, lam, p_sizes)
        assert abs(criterion(ctx, w, lam) - closed) < 1e-10


def test_gaussian_lambda_zero_expansion(rng):
    n1, K = 20, 3
    theta = rng.standard_normal((n1, K))
    y = rng.standard_normal(n1)
    ctx = CriterionContext(theta, y, np.arange(1.0, K + 1), GAUSSIAN)
    w = project_to_simplex(rng.standard_normal(K))
    tw = theta @ w
    assert np.isclose(
        criterion(ctx, w, 0.0), np.sum(tw**2) - 2 * y @ tw, atol=1e-10
    )


def test_gradient_matches_finite_differences(rng):
    ctx = random_logistic_ctx(rng, n1=30, K=4)
    lam = 2.5
    for _ in range(20):
        w = project_to_simplex(rng.standard_normal(4))
        g = criterion_gradient(ctx, w, lam)
        fd = central_difference_gradient(lambda v: criterion(ctx, v, lam), w)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


def test_gradient_is_pure_penalty_at_zero_residual(rng):
    n1, K = 15, 3
    theta = rng.standard_normal((n1, K))
    w = np.full(K, 1.0 / K)
    ctx = CriterionContext(theta, theta @ w, np.array([1.0, 2.0, 3.0]), GAUSSIAN)
    lam = 4.0
    g = criterion_gradient(ctx, w, lam)
    assert np.allclose(g, lam * ctx.p_sizes, atol=1e-10)


def test_gradient_single_weight(rng):
    ctx = random_logistic_ctx(rng, n1=12, K=1)
    g = criterion_gradient(ctx, np.array([1.0]), 2.0)
    fd = (criterion(ctx, np.array([1.0 + 1e-6]), 2.0) - criterion(ctx, np.array([1.0 - 1e-6]), 2.0)) / 2e-6
    assert g.shape == (1,)
    assert np.isclose(g[0], fd, rtol=1e-5)


def test_criterion_midpoint_convexity(rng):
    ctx = random_logistic_ctx(rng, n1=40, K=5)
    lam = 2.0
    for _ in range(200):
        wa = project_to_simplex(rng.standard_normal(5))
        wb = project_to_simplex(rng.standard_normal(5))
        mid = 0.5 * (wa + wb)
        assert criterion(ctx, mid, lam) <= 0.5 * (
            criterion(ctx, wa, lam) + criterion(ctx, wb, lam)
        ) + 1e-9


def test_theta_linearity_two_routes(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=100, p=5)
    rows = index.s_sets[0]
    X1 = data.x[rows]
    for _ in range(10):
        w = project_to_simplex(rng.standard_normal(ctx.K))
        via_matrix = ctx.theta_matrix @ w
        beta = combine_coefficients(candidates, w, data.p)
        assert np.max(np.abs(via_matrix - X1 @ beta)) < 1e-10


# ---------------------------------------------------------------------------
# weight optimization
# ---------------------------------------------------------------------------

def test_single_candidate_gets_unit_weight(rng):
    ctx = random_logistic_ctx(rng, n1=20, K=1)
    fit = optimize_weights(ctx, 2.0)
    assert np.asarray(fit.weights).tolist() == [1.0]
    assert fit.converged


def test_identical_columns_equal_sizes_flat_optimum(rng):
    col = rng.standard_normal(30)
    y = (rng.random(30) < 0.5).astype(float)
    ctx = CriterionContext(np.column_stack([col, col]), y, np.array([4.0, 4.0]), BINOMIAL)
    fit = optimize_weights(ctx, 2.0)
    vertex = criterion(ctx, np.array([1.0, 0.0]), 2.0)
    assert abs(fit.criterion_value - vertex) < 1e-9


def test_penalty_breaks_tie_toward_smaller_model(rng):
    col = rng.standard_normal(30)
    y = (rng.random(30) < 0.5).astype(float)
    for lam in (0.5, 2.0, np.log(30)):
        ctx = CriterionContext(
            np.column_stack([col, col]), y, np.array([3.0, 7.0]), BINOMIAL
        )
        fit = optimize_weights(ctx, lam)
        assert np.asarray(fit.weights)[0] >= 1 - 1e-6


def test_optimizer_beats_dense_grid(rng):
    for _ in range(20):
        ctx = random_logistic_ctx(rng, n1=50, K=3)
        lam = float(rng.choice([0.0, 2.0, np.log(50)]))
        fit = optimize_weights(ctx, lam)
        grid_min = min(criterion(ctx, w, lam) for w in simplex_grid(3, 0.01))
        assert fit.criterion_value <= grid_min + 1e-6


def test_optimizer_dominates_vertices_and_uniform(rng):
    for _ in range(25):
        K = int(rng.integers(2, 7))
        ctx = random_logistic_ctx(rng, n1=60, K=K)
        fit = optimize_weights(ctx, 2.0)
        probes = [np.full(K, 1.0 / K)] + [np.eye(K)[k] for k in range(K)]
        for pr in probes:
            assert fit.criterion_value <= criterion(ctx, pr, 2.0) + 1e-7


def test_optimizer_flags_non_convergence_on_tiny_budget(rng):
    from fragma.averaging import OptOptions

    ctx = random_logistic_ctx(rng, n1=120, K=6)
    fit = optimize_weights(ctx, 2.0, OptOptions(max_iter=1, kkt_tol=1e-14))
    assert not fit.converged
    assert fit.iterations <= 1
    assert np.all(np.asarray(fit.weights) >= 0)
    assert abs(np.asarray(fit.weights).sum() - 1.0) < 1e-12


def test_optimizer_kkt_residual(rng):
    for t in range(60):
        n1 = int(rng.integers(20, 200))
        ctx = random_logistic_ctx(rng, n1=n1, K=int(rng.integers(2, 9)))
        family = (BINOMIAL, GAUSSIAN, POISSON)[t % 3]
        cols = ctx.theta_matrix.copy()
        if t % 4 == 3:
            # near-duplicate candidate columns: a nearly flat direction in w
            cols[:, 1] = cols[:, 0] + 1e-6 * rng.standard_normal(n1)
        if family is GAUSSIAN:
            y = cols[:, 0] + rng.standard_normal(n1)
        elif family is POISSON:
            cols = 0.3 * cols
            y = rng.poisson(np.exp(cols[:, 0])).astype(float)
        else:
            y = ctx.y_cc
        ctx = CriterionContext(cols, y, ctx.p_sizes, family)
        lam = float(rng.choice([0.0, 2.0, np.log(n1)]))
        fit = optimize_weights(ctx, lam)
        assert fit.converged
        assert fit.kkt_residual <= 1e-7
        assert fit.iterations <= 30
        g = criterion_gradient(ctx, np.asarray(fit.weights), lam)
        assert np.isclose(kkt_residual(np.asarray(fit.weights), g), fit.kkt_residual)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_vertex_weight_predicts_like_single_candidate(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    K = len(candidates)
    w = np.eye(K)[0]
    model = AveragedModel(
        candidates=candidates,
        weights=WeightVector(w),
        beta_combined=combine_coefficients(candidates, w, data.p),
        lambda_n=2.0,
        criterion_value=criterion(ctx, w, 2.0),
        family=fam,
        column_names=data.column_names,
    )
    x = rng.standard_normal(data.p)
    theta, mean = predict(model, x)
    assert np.isclose(theta, linear_predictor(candidates[0], x), atol=1e-12)
    assert np.isclose(mean, fam.b_prime(theta))


def test_prediction_equals_weighted_candidate_loop(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    model = fit_averaged(data, fam, 2.0, index=index)
    for _ in range(10):
        x = rng.standard_normal(data.p)
        theta, _ = predict(model, x)
        manual = sum(
            wk * linear_predictor(c, x)
            for wk, c in zip(np.asarray(model.weights), model.candidates)
        )
        assert np.isclose(theta, manual, atol=1e-10)


def test_zero_coefficients_predict_half(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=60, p=3)
    for c in candidates:
        c.beta = np.zeros_like(c.beta)
    w = np.full(len(candidates), 1.0 / len(candidates))
    model = AveragedModel(
        candidates=candidates,
        weights=WeightVector(w),
        beta_combined=combine_coefficients(candidates, w, data.p),
        lambda_n=2.0,
        criterion_value=0.0,
        family=BINOMIAL,
        column_names=data.column_names,
    )
    theta, mean = predict(model, rng.standard_normal(data.p))
    assert theta == 0.0
    assert mean == 0.5


def test_predict_requires_leading_pattern(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=70, p=4)
    model = fit_averaged(data, fam, 2.0, index=index)
    x = rng.standard_normal(data.p)
    x[list(model.candidates[0].pattern.indices)[0]] = np.nan
    with pytest.raises(ValueError):
        predict(model, x)


def test_predict_block_matches_rows_and_rejects_missing_support(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    model = fit_averaged(data, fam, 2.0, index=index)
    x = rng.standard_normal((25, data.p))
    theta, mean = predict(model, x)
    assert theta.shape == mean.shape == (25,)
    for i in range(25):
        t_row, m_row = predict(model, x[i])
        assert abs(theta[i] - t_row) <= 1e-12
        assert abs(mean[i] - m_row) <= 1e-12
    x[7, model.support[-1]] = np.nan
    with pytest.raises(ValueError):
        predict(model, x)


# ---------------------------------------------------------------------------
# sub-pattern prediction
# ---------------------------------------------------------------------------

def test_columns_index_refit_matches_restricted_oracle():
    # Oracle: restrict the data to the query columns and rebuild the index
    # there.  The index taken through the query's columns and the refit
    # drawn from it must give the same candidates (after mapping restricted
    # columns back) and bitwise-equal betas, weights and criterion values.
    data, _ = adni_like(seed=3, scale=0.5)
    rng = np.random.default_rng(1)
    for pat in build_pattern_index(data).patterns[1:]:
        cols = np.asarray(pat.indices)
        kept_rows = np.flatnonzero(data.mask[:, cols].any(axis=1))
        restricted = restrict_to(data, pat)
        oracle_index = build_pattern_index(restricted)
        derived = build_pattern_index(data, columns=cols)
        assert [tuple(cols[list(q.indices)]) for q in oracle_index.patterns] == [
            q.indices for q in derived.patterns
        ]
        assert derived.full_first == oracle_index.full_first
        for k in range(derived.K):
            assert np.array_equal(kept_rows[oracle_index.t_sets[k]], derived.t_sets[k])
            assert np.array_equal(kept_rows[oracle_index.s_sets[k]], derived.s_sets[k])

        x_star = np.full(data.p, np.nan)
        x_star[cols] = rng.standard_normal(cols.size)
        for lam in ("opt1", "opt2"):
            oracle = fit_averaged(restricted, BINOMIAL, lam)
            _, _, model = predict_for_pattern(data, BINOMIAL, lam, x_star)
            assert [tuple(cols[list(c.pattern.indices)]) for c in oracle.candidates] == [
                c.pattern.indices for c in model.candidates
            ]
            for c_oracle, c_model in zip(oracle.candidates, model.candidates):
                assert np.array_equal(c_oracle.beta, c_model.beta)
            assert np.array_equal(np.asarray(oracle.weights), np.asarray(model.weights))
            assert oracle.criterion_value == model.criterion_value
            assert oracle.lambda_n == model.lambda_n
            assert np.array_equal(oracle.beta_combined, model.beta_combined[cols])


def test_predict_for_pattern_adni_blocks_keeps_five_candidates():
    data, groups = adni_like(seed=5, scale=0.2)
    cols = [0] + groups["PET"] + groups["MRI"] + groups["GENE"]
    x_star = np.full(data.p, np.nan)
    rng = np.random.default_rng(0)
    x_star[cols] = rng.standard_normal(len(cols))
    x_star[0] = 1.0
    theta, mean, model = predict_for_pattern(data, BINOMIAL, 2.0, x_star)
    assert len(model.candidates) == 5
    assert np.isfinite(theta)
    assert 0.0 < mean < 1.0


def test_predict_for_pattern_full_reduces_to_standard_pipeline(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    model = fit_averaged(data, fam, 2.0)
    x = rng.standard_normal(data.p)
    t_full, m_full = predict(model, x)
    t_sub, m_sub, _ = predict_for_pattern(data, fam, 2.0, x)
    assert np.isclose(t_full, t_sub, atol=1e-12)
    assert np.isclose(m_full, m_sub, atol=1e-12)


def test_predict_for_pattern_single_column_matches_direct_fit(rng):
    data, groups = adni_like(seed=11, scale=0.1)
    x_star = np.full(data.p, np.nan)
    x_star[0] = 1.0  # intercept only
    theta, mean, model = predict_for_pattern(data, BINOMIAL, 2.0, x_star)
    assert len(model.candidates) == 1
    assert np.asarray(model.weights).tolist() == [1.0]
    beta, _ = fit_glm(np.ones((data.n, 1)), data.y, BINOMIAL)
    assert np.isclose(theta, beta[0], atol=1e-10)


def test_predict_for_pattern_rejects_empty_query(rng):
    data, *_ = fragmentary_pipeline(rng, n=40, p=3)[:1]
    with pytest.raises(DataError):
        predict_for_pattern(data, BINOMIAL, 2.0, np.full(data.p, np.nan))


def no_complete_case_data(rng, n=40):
    """Patterns {0,1} and {0,2}: nobody observes every column."""
    mask = np.zeros((n, 3), dtype=bool)
    mask[:, 0] = True
    mask[: n // 2, 1] = True
    mask[n // 2 :, 2] = True
    x = np.where(mask, rng.standard_normal((n, 3)), np.nan)
    x[:, 0] = 1.0
    y = (rng.random(n) < 0.5).astype(float)
    return FragmentaryDataset(y, x, mask, ["intercept", "a", "b"])


def test_no_complete_cases_drops_non_nested_candidates(rng):
    # weighting happens on the maximal pattern's rows and the non-nested
    # candidate is excluded from the average
    data = no_complete_case_data(rng)
    model = fit_averaged(data, BINOMIAL, 2.0)
    assert model.diagnostics["dropped_candidates"] == [[0, 2]]
    kept = {c.pattern.indices for c in model.candidates}
    assert (0, 1) in kept
    assert (0, 2) not in kept
    assert not model.diagnostics["weighting_pattern_is_full"]


def test_criterion_context_rejects_a_candidate_the_weighting_rows_do_not_observe(rng):
    # the weighting rows observe (0, 1); no predictor of (0, 2) exists on them
    data = no_complete_case_data(rng)
    index = build_pattern_index(data)
    candidates = fit_all_candidates(data, index, BINOMIAL)
    assert [c.pattern.indices for c in candidates] == [(0, 1), (0, 2)]
    build_criterion_context(data, index, candidates[:1], BINOMIAL)
    with pytest.raises(DataError, match=r"\(0, 2\) not contained in the weighting pattern"):
        build_criterion_context(data, index, candidates, BINOMIAL)


def test_imp_without_complete_cases_keeps_every_candidate(rng):
    # zero-filled data observe everything, so imp weights both candidates on
    # all n rows, exactly as building the criterion on the filled store does
    data = no_complete_case_data(rng)
    index = build_pattern_index(data)
    store = CandidateStore(data, BINOMIAL)
    for mode, lam in (("opt1", 2.0), ("opt2", float(np.log(data.n)))):
        model = fit_imp(data, BINOMIAL, mode, index=index, store=store)
        assert [c.pattern.indices for c in model.candidates] == [(0, 1), (0, 2)]
        assert model.diagnostics["dropped_candidates"] == []
        filled = CandidateStore(data.filled(), BINOMIAL)
        cands = filled.fit_all(index)
        wfit = optimize_weights(build_criterion_context(filled.data, index, cands, BINOMIAL), lam)
        assert np.array_equal(np.asarray(model.weights), np.asarray(wfit.weights))
        assert np.array_equal(model.beta_combined, combine_coefficients(cands, wfit.weights, 3))
        assert model.criterion_value == wfit.criterion_value
    with pytest.raises(ValueError, match="opt3"):
        fit_imp(data, BINOMIAL, "opt3", index=index, store=store)


# ---------------------------------------------------------------------------
# KL loss and penalty levels
# ---------------------------------------------------------------------------

def test_kl_loss_zero_cases():
    assert kl_loss(np.zeros(3), np.zeros(3), GAUSSIAN) == 0.0
    assert abs(kl_loss(np.array([0.0]), np.array([0.5]), BINOMIAL)) < 1e-15


def test_kl_loss_matches_direct_bernoulli_formula():
    val = kl_loss(np.array([0.0]), np.array([0.8]), BINOMIAL)
    direct = bernoulli_kl2(np.array([0.8]), np.array([0.5]))
    assert np.isclose(val, direct, atol=1e-12)
    assert np.isclose(val, 0.3855, atol=5e-5)


def test_kl_loss_nonnegative_and_per_obs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 30))
        theta = rng.uniform(-6, 6, size=n)
        mu = rng.uniform(0.01, 0.99, size=n)
        v = kl_loss(theta, mu, BINOMIAL)
        assert v >= -1e-12
        assert np.isclose(kl_loss(theta, mu, BINOMIAL, per_obs=True), v / n)
    theta = rng.standard_normal(9)
    mu = rng.standard_normal(9)
    assert kl_loss(theta, mu, GAUSSIAN) >= -1e-12


def test_kl_loss_clamps_extreme_means():
    theta = np.array([0.0, 0.0])
    clamped = kl_loss(theta, np.array([1e-12, 1.0 - 1e-12]), BINOMIAL)
    assert kl_loss(theta, np.array([0.0, 1.0]), BINOMIAL) == clamped


def test_lambda_default():
    assert lambda_default("opt1", 17) == 2.0
    assert lambda_default("opt2", 1) == 0.0
    assert np.isclose(lambda_default("opt2", 409), 6.0137, atol=5e-5)
    with pytest.raises(ValueError):
        lambda_default("opt3", 10)
    assert resolve_lambda("opt2", 10) == pytest.approx(np.log(10))
    assert resolve_lambda(3.5, 10) == 3.5

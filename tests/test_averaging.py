import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import expit

from fragma.averaging import (
    AveragedModel,
    CriterionContext,
    build_criterion_context,
    combine_coefficients,
    criterion,
    criterion_gradient,
    fit_averaged,
    kkt_residual,
    kl_loss,
    optimize_weights,
    predict,
    predict_for_pattern,
    resolve_lambda,
    score_rows,
)
from fragma.baselines import fit_cc, fit_imp
from fragma.datasets import adni_like, random_fragmentary
from fragma.errors import DataError, NumericalError
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

def test_averaged_model_rejects_weights_off_the_simplex(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=60, p=3)
    K = len(candidates)

    def model(w):
        return AveragedModel(
            candidates=candidates, weights=w, family=fam, column_names=data.column_names
        )

    w = np.full(K, 1.0 / K)
    assert np.array_equal(model(w).weights, w)
    negative = np.append(-0.5, np.full(K - 1, 1.5 / (K - 1)))
    for bad, message in (
        (negative, "off the simplex"),
        (w[:-1], f"{K - 1} weights for {K} candidates"),
        (2.0 * w, "off the simplex"),
    ):
        with pytest.raises(DataError, match=message):
            model(bad)


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


def test_optimizer_flags_non_convergence_on_tiny_budget(rng, monkeypatch):
    from fragma import averaging

    ctx = random_logistic_ctx(rng, n1=120, K=6)
    monkeypatch.setattr(averaging, "_OPT_MAX_ITER", 1)
    monkeypatch.setattr(averaging, "_KKT_TOL", 1e-14)
    fit = optimize_weights(ctx, 2.0)
    assert not fit.converged
    assert fit.iterations <= 1
    assert np.all(np.asarray(fit.weights) >= 0)
    assert abs(np.asarray(fit.weights).sum() - 1.0) < 1e-12


def test_optimizer_records_why_it_stopped(rng, monkeypatch):
    from fragma import averaging

    ctx = random_logistic_ctx(rng, n1=120, K=6)
    fit = optimize_weights(ctx, 2.0)
    assert (fit.stop, fit.converged) == ("kkt", True)
    with monkeypatch.context() as budget:
        budget.setattr(averaging, "_OPT_MAX_ITER", 1)
        budget.setattr(averaging, "_KKT_TOL", 1e-14)
        fit = optimize_weights(ctx, 2.0)
    assert (fit.stop, fit.iterations, fit.converged) == ("max_iter", 1, False)

    # the K vertex evaluations pass; every trial point of the line search fails
    calls = []
    true_criterion = averaging.criterion

    def failing_line_search(ctx, w, lambda_n):
        calls.append(1)
        return true_criterion(ctx, w, lambda_n) if len(calls) <= ctx.K else np.inf

    monkeypatch.setattr(averaging, "criterion", failing_line_search)
    fit = optimize_weights(ctx, 2.0)
    assert (fit.stop, fit.iterations, fit.converged) == ("no_step", 1, False)
    assert len(calls) == ctx.K + 60
    assert np.count_nonzero(np.asarray(fit.weights)) == 1


def test_optimizer_raises_when_no_vertex_has_a_finite_criterion():
    # b(theta) = e^theta overflows at 800 and 900, in every candidate column
    theta = np.array([[800.0, 900.0], [900.0, 800.0], [800.0, 900.0]])
    ctx = CriterionContext(theta, np.array([1.0, 0.0, 2.0]), np.array([1.0, 2.0]), POISSON)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="^criterion is not finite at any vertex"):
            optimize_weights(ctx, 2.0)


def test_a_failed_kkt_solve_still_returns_a_truthful_record(monkeypatch):
    # The candidates are cached by the first fit, so only the optimizer's
    # KKT solve fails on the second; it takes the projected gradient.
    store = CandidateStore(adni_like(seed=0)[0], BINOMIAL)
    newton = fit_averaged(store, "opt1")

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    fallback = fit_averaged(store, "opt1")
    diag = fallback.diagnostics
    assert diag["optimizer_converged"] == (diag["kkt_residual"] <= 1e-7)
    gap = abs(fallback.criterion_value - newton.criterion_value)
    assert gap <= 1e-12 * abs(newton.criterion_value)


def test_fit_averaged_reports_the_optimizer_stop(rng):
    data = random_fragmentary(rng, 200, 4, family="binomial")
    diag = fit_averaged(CandidateStore(data, BINOMIAL)).diagnostics
    assert diag["optimizer_stop"] == "kkt"
    assert diag["optimizer_converged"] is True


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


def poisson_ctx(seed):
    """A well-posed Poisson criterion whose G is far below the sums it cancels."""
    rng = np.random.default_rng([11, seed])
    n, K = int(rng.integers(50, 300)), int(rng.integers(2, 5))
    x = rng.standard_normal((n, 3))
    y = rng.poisson(np.exp(1.0 + x @ [0.5, 0.3, 0.2])).astype(float)
    cols = []
    for _ in range(K):
        b = np.array([0.5, 0.3, 0.2]) * (rng.random(3) < 0.7) + 0.02 * rng.standard_normal(3)
        cols.append(1.0 + x @ b + 0.01 * rng.standard_normal())
    return CriterionContext(np.column_stack(cols), y, np.arange(2.0, K + 2), POISSON)


# G at the minimum, as the optimizer that allowed 4 eps |G| found it after its
# 500-iteration budget (KKT residuals 9.0e-7 and 3.4e-6): 1772 has n = 93 and
# K = 2, Hessian eigenvalues 82 and 1,768; 1965 has n = 150, K = 3, one weight 0.
@pytest.mark.parametrize(
    "seed, g_min", [(1772, -108.69005221241817), (1965, -60.056343157905104)], ids=["1772", "1965"]
)
def test_optimizer_converges_where_g_cancels_its_terms(seed, g_min):
    # G = 2 sum b(theta) - 2 y^T theta + penalty: its roundoff is that of the
    # sums, so a slack on |G| alone lets the Armijo test decide on noise.
    fit = optimize_weights(poisson_ctx(seed), 2.0)
    assert (fit.stop, fit.converged) == ("kkt", True)
    assert fit.iterations <= 10
    assert fit.kkt_residual <= 1e-10
    assert fit.criterion_value == pytest.approx(g_min, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_vertex_weight_predicts_like_single_candidate(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    K = len(candidates)
    w = np.eye(K)[0]
    model = AveragedModel(
        candidates=candidates,
        weights=w,
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
    model = fit_averaged(CandidateStore(data, fam), 2.0)
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
        weights=w,
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
    model = fit_averaged(CandidateStore(data, fam), 2.0)
    x = rng.standard_normal(data.p)
    x[list(model.candidates[0].pattern.indices)[0]] = np.nan
    with pytest.raises(ValueError):
        predict(model, x)


def test_a_query_of_another_width_than_the_model_is_a_data_error():
    data, _ = adni_like(seed=0, scale=0.5)
    store = CandidateStore(data, BINOMIAL)
    p = data.p
    for model in (fit_averaged(store, "opt1"), fit_imp(store, "opt1")):
        for width in (p + 3, p - 1):
            for x in (np.ones(width), np.ones((4, width))):
                message = f"query rows of width {width} for a model of {p} columns"
                with pytest.raises(DataError, match=message):
                    predict(model, x)
                # raised once for the query, not recorded per row group
                with pytest.raises(DataError, match=message):
                    score_rows(model, np.atleast_2d(x), lambda: store)


def test_predict_block_matches_rows_and_rejects_missing_support(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    model = fit_averaged(CandidateStore(data, fam), 2.0)
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
            oracle = fit_averaged(CandidateStore(restricted, BINOMIAL), lam)
            _, _, model = predict_for_pattern(CandidateStore(data, BINOMIAL), lam, x_star)
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
    theta, mean, model = predict_for_pattern(CandidateStore(data, BINOMIAL), 2.0, x_star)
    assert len(model.candidates) == 5
    assert np.isfinite(theta)
    assert 0.0 < mean < 1.0


def test_predict_for_pattern_full_reduces_to_standard_pipeline(rng):
    data, index, candidates, ctx, fam = fragmentary_pipeline(rng, n=90, p=4)
    model = fit_averaged(CandidateStore(data, fam), 2.0)
    x = rng.standard_normal(data.p)
    t_full, m_full = predict(model, x)
    t_sub, m_sub, _ = predict_for_pattern(CandidateStore(data, fam), 2.0, x)
    assert np.isclose(t_full, t_sub, atol=1e-12)
    assert np.isclose(m_full, m_sub, atol=1e-12)


def test_predict_for_pattern_single_column_matches_direct_fit(rng):
    data, groups = adni_like(seed=11, scale=0.1)
    x_star = np.full(data.p, np.nan)
    x_star[0] = 1.0  # intercept only
    theta, mean, model = predict_for_pattern(CandidateStore(data, BINOMIAL), 2.0, x_star)
    assert len(model.candidates) == 1
    assert np.asarray(model.weights).tolist() == [1.0]
    beta, _ = fit_glm(np.ones((data.n, 1)), data.y, BINOMIAL)
    assert np.isclose(theta, beta[0], atol=1e-10)


def test_predict_for_pattern_rejects_empty_query(rng):
    data, *_ = fragmentary_pipeline(rng, n=40, p=3)[:1]
    with pytest.raises(DataError):
        predict_for_pattern(CandidateStore(data, BINOMIAL), 2.0, np.full(data.p, np.nan))


def test_predict_for_pattern_scores_a_block_with_the_single_row_model():
    data, _ = adni_like(seed=5, scale=0.2)
    store = CandidateStore(data, BINOMIAL)
    rows = build_pattern_index(data).t_sets[1]
    block = np.where(data.mask, data.x, np.nan)[rows]
    theta, mean, model = predict_for_pattern(store, 2.0, block)
    single = predict_for_pattern(store, 2.0, block[0])[2]
    want_theta, want_mean = predict(single, block)
    assert theta.shape == (rows.size,)
    assert theta.tobytes() == want_theta.tobytes()
    assert mean.tobytes() == want_mean.tobytes()
    assert model.weights.tobytes() == single.weights.tobytes()


def test_predict_for_pattern_rejects_a_block_whose_rows_observe_different_columns():
    data, _ = adni_like(seed=5, scale=0.2)
    index = build_pattern_index(data)
    xq = np.where(data.mask, data.x, np.nan)
    block = xq[[index.t_sets[1][0], index.t_sets[1][1], index.t_sets[2][0]]]
    with pytest.raises(DataError, match="query rows observe different columns"):
        predict_for_pattern(CandidateStore(data, BINOMIAL), 2.0, block)


def test_score_rows_loads_the_store_once_and_refits_each_restricted_group_as_a_block():
    data, _ = adni_like(seed=0, scale=0.25)
    store = CandidateStore(data, BINOMIAL)
    model = fit_averaged(store, 2.0)
    xq = np.where(data.mask, data.x, np.nan)
    loads = []
    theta, scored = score_rows(model, xq, lambda: loads.append(1) or store)
    assert loads == [1]
    assert sorted(np.concatenate([rows for rows, _, _ in scored])) == list(range(data.n))
    assert {rule for _, rule, _ in scored} == {"full", "restricted"}
    for rows, rule, error in scored:
        assert error is None
        if rule == "full":
            want = predict(model, xq[rows])[0]
        else:
            want = predict_for_pattern(store, model.lambda_n, xq[rows])[0]
        assert theta[rows].tobytes() == want.tobytes()

    # without a store a restricted group keeps NaN and records why
    theta, scored = score_rows(model, xq, lambda: None)
    for rows, rule, error in scored:
        assert (error is None) == (rule == "full")
        assert np.isfinite(theta[rows]).all() == (rule == "full")


@pytest.mark.parametrize("method", ["imp1", "opt1", "cc"])
def test_a_row_scores_the_same_bits_alone_as_in_any_block(method):
    from fragma.baselines import fit_method

    data, _ = adni_like(seed=0, scale=0.25)
    model = fit_method(method, CandidateStore(data, BINOMIAL))
    x = data.x
    if not model.zero_impute:
        x = x[np.isfinite(x[:, model.support]).all(axis=1)]
    block = predict(model, x)[0]
    alone = np.array([predict(model, row)[0] for row in x])
    assert block.tobytes() == alone.tobytes()
    perm = np.random.default_rng(1).permutation(len(x))
    assert predict(model, x[perm])[0].tobytes() == block[perm].tobytes()
    assert predict(model, np.asfortranarray(x))[0].tobytes() == block.tobytes()


def test_score_rows_without_a_store_asks_for_the_training_data():
    data, _ = adni_like(seed=0, scale=0.25)
    model = fit_averaged(CandidateStore(data, BINOMIAL), 2.0)
    xq = np.where(data.mask, data.x, np.nan)
    _, scored = score_rows(model, xq, lambda: None)
    errors = [str(error) for _, rule, error in scored if rule == "restricted"]
    assert errors
    for message in errors:
        assert message.endswith("observes only a sub-pattern; re-fitting needs the training data")
        assert "--" not in message


def test_score_rows_keeps_its_errors_without_reference_cycles():
    # a caught error's traceback holds score_rows' frame, whose list of
    # groups holds the error: a cycle that only a full collection frees
    data, _ = adni_like(seed=0)
    store = CandidateStore(data, BINOMIAL)
    model = fit_cc(store)
    xq = np.where(data.mask, data.x, np.nan)
    gc.collect()
    gc.disable()
    try:
        theta, scored = score_rows(model, xq, lambda: store)
        errors = [error for _, _, error in scored if error is not None]
        assert len(errors) == 7
        assert all(isinstance(e, DataError) and e.__traceback__ is None for e in errors)
        first = weakref.ref(errors[0])
        del theta, scored, errors
        # freed by reference counting alone, with the collector off
        assert first() is None
    finally:
        gc.enable()


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
    model = fit_averaged(CandidateStore(data, BINOMIAL), 2.0)
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


def test_fit_averaged_never_fits_a_candidate_it_does_not_weight(tmp_path, monkeypatch):
    # Rows 0-49 observe (intercept, a, b), rows 50-58 (intercept, a) and row
    # 59 alone (intercept, c): one row for c's two columns, and no weighting
    # row observes c.  That candidate is dropped before any fit, so it
    # cannot abort the fit.
    import fragma.glm as glm
    from fragma.cli import main
    from fragma.io import write_csv

    rng = np.random.default_rng(5)
    mask = np.zeros((60, 4), dtype=bool)
    mask[:, 0] = mask[:50, 2] = mask[:59, 1] = mask[59, 3] = True
    x = rng.standard_normal((60, 4))
    x[:, 0] = 1.0
    y = (rng.random(60) < expit(x[:, 1] - x[:, 2])).astype(float)
    data = FragmentaryDataset(y, np.where(mask, x, np.nan), mask, ["intercept", "a", "b", "c"])

    fitted, fit = [], glm.fit_glm
    with monkeypatch.context() as counted:
        counted.setattr(glm, "fit_glm", lambda X, y, family, opts=None, column_names=None: (
            fitted.append(column_names) or fit(X, y, family, opts, column_names)))
        model = fit_averaged(CandidateStore(data, BINOMIAL))
    assert [c.pattern.indices for c in model.candidates] == [(0, 1, 2), (0, 1)]
    assert model.diagnostics["dropped_candidates"] == [[0, 3]]
    assert fitted == [["intercept", "a", "b"], ["intercept", "a"]]

    f = tmp_path / "d.csv"
    write_csv(f, ["y", "a", "b", "c"], [
        [yi] + ["NA" if np.isnan(v) else v for v in row[1:]]
        for yi, row in zip(y.tolist(), data.x.tolist())
    ])
    argv = ["fit", "--input", str(f), "--response", "y", "--add-intercept"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


def test_imp_without_complete_cases_keeps_every_candidate(rng):
    # zero-filled data observe everything, so imp weights both candidates on
    # all n rows, exactly as building the criterion on the filled store does
    data = no_complete_case_data(rng)
    index = build_pattern_index(data)
    store = CandidateStore(data, BINOMIAL)
    for mode, lam in (("opt1", 2.0), ("opt2", float(np.log(data.n)))):
        model = fit_imp(store, mode)
        assert [c.pattern.indices for c in model.candidates] == [(0, 1), (0, 2)]
        assert model.diagnostics["dropped_candidates"] == []
        filled = CandidateStore(data.filled(), BINOMIAL)
        cands = filled.fit_all(index)
        wfit = optimize_weights(build_criterion_context(filled.data, index, cands, BINOMIAL), lam)
        assert np.array_equal(np.asarray(model.weights), np.asarray(wfit.weights))
        assert np.array_equal(model.beta_combined, combine_coefficients(cands, wfit.weights, 3))
        assert model.criterion_value == wfit.criterion_value
    with pytest.raises(ValueError, match="opt3"):
        fit_imp(store, "opt3")


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


def test_kl_loss_takes_the_exact_limit_at_the_edge_of_the_support():
    # at mu = 0 or 1, theta0 = -inf or +inf and b(theta0) - mu * theta0 -> 0,
    # so each term is b(theta_hat) - mu * theta_hat, bit for bit
    theta_hat = np.array([0.7, -2.0, 30.0, -40.0, 0.0])
    edges = {BINOMIAL: np.array([1.0, 0.0, 1.0, 0.0, 1.0]), POISSON: np.zeros(5)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family, mu in edges.items():
            exact = 2.0 * np.sum(family.b(theta_hat) - mu * theta_hat)
            assert kl_loss(theta_hat, mu, family) == exact
        value = kl_loss(np.array([0.7]), np.array([1.0]), BINOMIAL)
        assert value == pytest.approx(2.0 * np.log1p(np.exp(-0.7)), rel=4e-16, abs=0)
        # the edge terms add to the interior ones as in separate calls
        mixed = kl_loss(np.array([0.7, 0.2]), np.array([1.0, 0.3]), BINOMIAL)
    interior = kl_loss(np.array([0.2]), np.array([0.3]), BINOMIAL)
    assert mixed == pytest.approx(value + interior, rel=1e-15)


@pytest.mark.parametrize("family, mu", [(BINOMIAL, 1.3), (BINOMIAL, -0.2), (POISSON, -1.0)])
def test_kl_loss_is_nan_at_a_mean_outside_the_support(family, mu):
    with pytest.warns(RuntimeWarning, match="invalid value"):
        value = kl_loss(np.array([0.0, 0.5]), np.array([0.5, mu]), family)
    assert np.isnan(value)


def test_kl_loss_takes_the_limit_at_a_poisson_mean_of_zero():
    theta_hat = np.array([0.3, -1.0, 2.0])
    mu = np.array([0.0, 0.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_loss(theta_hat[:1], mu[:1], POISSON) == 2.0 * np.exp(0.3)
        value = kl_loss(theta_hat, mu, POISSON)
    rest = kl_loss(theta_hat[2:], mu[2:], POISSON)
    assert value == pytest.approx(2.0 * (np.exp(0.3) + np.exp(-1.0)) + rest, rel=1e-15)
    assert kl_loss(theta_hat[:1], np.array([1e-300]), POISSON) == 2.0 * np.exp(0.3)


def test_lambda_default():
    assert resolve_lambda("opt1", 17) == 2.0
    assert resolve_lambda("opt2", 1) == 0.0
    assert np.isclose(resolve_lambda("opt2", 409), 6.0137, atol=5e-5)
    with pytest.raises(ValueError):
        resolve_lambda("opt3", 10)
    assert resolve_lambda("opt2", 10) == pytest.approx(np.log(10))
    assert resolve_lambda(3.5, 10) == 3.5
    assert resolve_lambda(np.float64(0.5), 10) == 0.5 and resolve_lambda(3, 10) == 3.0


@pytest.mark.parametrize("value", [True, False, np.True_, None, b"2", [2.0], -1, np.inf, np.nan])
def test_resolve_lambda_rejects_what_is_not_a_nonnegative_number(value):
    with pytest.raises(DataError, match="lambda_n must be a nonnegative finite number"):
        resolve_lambda(value, 10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_and_covariate_order_do_not_change_the_fit(seed):
    # Neither the order of the subjects nor that of the covariates after the
    # intercept is information: permuting either moves only roundoff.
    data, _ = adni_like(seed=seed)
    rng = np.random.default_rng(seed)
    store = CandidateStore(data, "binomial")
    model = fit_averaged(store, "opt1")

    def by_columns(m):
        return {c.pattern.indices: (w, c.beta) for c, w in zip(m.candidates, m.weights)}

    # after the leader, the index lists patterns in order of first appearance
    fits = by_columns(model)
    shuffled = by_columns(
        fit_averaged(CandidateStore(data.take(rng.permutation(data.n)), "binomial"), "opt1")
    )
    assert shuffled.keys() == fits.keys()
    for columns, (w, beta) in shuffled.items():
        assert abs(w - fits[columns][0]) <= 1e-12
        assert np.abs(beta - fits[columns][1]).max() <= 1e-12

    cols = np.concatenate([[0], 1 + rng.permutation(data.p - 1)])
    permuted = CandidateStore(FragmentaryDataset(
        data.y, data.x[:, cols], data.mask[:, cols], [data.column_names[j] for j in cols]
    ), "binomial")
    xq = np.where(data.mask, data.x, np.nan)
    theta, _ = score_rows(model, xq, lambda: store)
    theta_permuted, _ = score_rows(fit_averaged(permuted, "opt1"), xq[:, cols], lambda: permuted)
    assert np.isfinite(theta).all()
    assert np.abs(theta_permuted - theta).max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_a_columns_units_do_not_change_the_fit(seed):
    # A covariate's units are not information either: scaling a column by an
    # exact power of two rescales its coefficients and leaves every candidate's
    # stop and iteration count, and the complete-case theta, as they were.
    data, _ = adni_like(seed=seed)
    cc = data.mask.all(axis=1)

    def fit(x):
        model = fit_averaged(
            CandidateStore(FragmentaryDataset(data.y, x, data.mask, data.column_names),
                           "binomial"), "opt1"
        )
        stops = [(c.converged, c.stop, c.iterations) for c in model.candidates]
        return predict(model, x[cc])[0], stops

    theta, stops = fit(data.x)
    for j in range(1, data.p):
        for k in (-30, -20, -10, 10, 20, 30):
            x = data.x.copy()
            x[:, j] = np.ldexp(x[:, j], k)
            theta_scaled, stops_scaled = fit(x)
            assert stops_scaled == stops, (data.column_names[j], k)
            assert np.abs(theta_scaled - theta).max() <= 1e-12, (data.column_names[j], k)

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logit

from fragma.datasets import adni_like, random_fragmentary
from fragma.errors import RankDeficientError
from fragma.glm import (
    BINOMIAL,
    GAUSSIAN,
    POISSON,
    FitOptions,
    check_full_rank,
    fit_all_candidates,
    fit_candidate,
    fit_glm,
    get_family,
    loglik,
    loglik_gradient,
)
from fragma.patterns import Pattern, build_pattern_index
from fragma.glm import CandidateModel
from fragma.sim import SimConfig, generate_replication

from oracles import central_difference_gradient, linear_predictor, logistic_mle_oracle, poisoned


def logistic_design(rng, n=40, p=2, scale=1.0):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))]) if p > 1 else np.ones((n, 1))
    beta = scale * rng.uniform(-1, 1, size=p)
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    return X, y


def test_family_derivative_consistency():
    grid = np.linspace(-4, 4, 33)
    h = 1e-5
    for fam in (BINOMIAL, GAUSSIAN, POISSON):
        d1 = (fam.b(grid + h) - fam.b(grid - h)) / (2 * h)
        d2 = (fam.b_prime(grid + h) - fam.b_prime(grid - h)) / (2 * h)
        assert np.max(np.abs(d1 - fam.b_prime(grid)) / np.maximum(1, np.abs(d1))) < 1e-6
        assert np.max(np.abs(d2 - fam.b_double_prime(grid)) / np.maximum(1, np.abs(d2))) < 1e-6
        assert np.all(fam.b_double_prime(grid) >= 0)
    assert BINOMIAL.phi == 1.0
    assert np.isclose(BINOMIAL.b(0.0), np.log(2.0))


def test_gaussian_irls_equals_least_squares(rng):
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
    y = rng.standard_normal(30) + X @ np.array([1.0, -2.0, 0.5, 3.0])
    beta, info = fit_glm(X, y, GAUSSIAN)
    ref = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(beta - ref)) < 1e-8
    assert info["iterations"] == 1
    assert info["converged"]
    assert info["stop"] in ("decrement", "score")


def test_logistic_fit_matches_grid_oracle(rng):
    X, y = logistic_design(rng, n=40, p=2)
    beta, info = fit_glm(X, y, BINOMIAL)
    oracle = logistic_mle_oracle(X, y)
    assert info["converged"]
    assert np.max(np.abs(beta - oracle)) < 1e-6


def test_mean_response_gives_zero_coefficient():
    X = np.ones((12, 1))
    for fam, y0 in ((BINOMIAL, 0.5), (GAUSSIAN, 0.0), (POISSON, 1.0)):
        beta, info = fit_glm(X, np.full(12, y0), fam)
        assert abs(beta[0]) < 1e-12
        assert info["converged"]


def test_loglik_values():
    assert np.isclose(loglik(BINOMIAL, np.array([0.0]), np.array([1.0])), -np.log(2))
    assert np.isclose(
        loglik(BINOMIAL, np.zeros(2), np.array([1.0, 0.0])), -2 * np.log(2)
    )


def test_loglik_matches_definitional_sum(rng):
    theta = rng.uniform(-3, 3, size=11)
    y = (rng.random(11) < 0.5).astype(float)
    direct = sum(
        y[i] * theta[i] - np.log(1 + np.exp(theta[i])) for i in range(11)
    )
    assert np.isclose(loglik(BINOMIAL, theta, y), direct, atol=1e-12)


def test_score_gradient_matches_finite_differences(rng):
    X, y = logistic_design(rng, n=25, p=3)
    for _ in range(5):
        beta = rng.uniform(-1, 1, size=3)
        g = loglik_gradient(BINOMIAL, X, y, beta)
        fd = central_difference_gradient(
            lambda b: loglik(BINOMIAL, X @ b, y), beta
        )
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


def test_score_small_at_optimum(rng):
    for _ in range(10):
        X, y = logistic_design(rng, n=60, p=3)
        beta, info = fit_glm(X, y, BINOMIAL)
        score = X.T @ (y - expit(X @ beta))
        assert np.max(np.abs(score)) <= 1e-6 * len(y)


def test_likelihood_ascent_with_step_halving(rng):
    X, y = logistic_design(rng, n=50, p=3, scale=2.0)
    trace = np.array(
        [fit_glm(X, y, BINOMIAL, FitOptions(max_iter=m))[1]["loglik"] for m in range(30)]
    )
    assert np.all(np.diff(trace) >= -1e-12)


def test_gaussian_nesting_never_decreases_loglik(rng):
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
    y = rng.standard_normal(40)
    lls = []
    for q in range(1, 5):
        _, info = fit_glm(X[:, :q], y, GAUSSIAN)
        lls.append(info["loglik"])
    assert np.all(np.diff(lls) >= -1e-10)


def test_rank_check_names_offending_columns(rng):
    X = rng.standard_normal((20, 2))
    X3 = np.column_stack([X, X[:, 0] + X[:, 1]])
    with pytest.raises(RankDeficientError) as err:
        check_full_rank(X3, ["a", "b", "a_plus_b"])
    assert err.value.columns
    with pytest.raises(RankDeficientError):
        check_full_rank(rng.standard_normal((2, 5)), list("abcde"))


def test_non_convergence_is_flagged(rng):
    X, y = logistic_design(rng, n=50, p=3, scale=2.0)
    beta, info = fit_glm(X, y, BINOMIAL, FitOptions(max_iter=1))
    assert not info["converged"]
    assert info["iterations"] == 1
    assert np.all(np.isfinite(beta))
    assert info["stop"] == "max_iter"


def test_score_stop_before_any_step(rng):
    X, y = logistic_design(rng, n=50, p=3)
    beta, info = fit_glm(X, y, BINOMIAL, FitOptions(grad_tol=1e6))
    assert info["converged"] and info["stop"] == "score"
    assert info["iterations"] == 0
    assert np.all(beta == 0.0)


def test_fit_at_roundoff_floor_converges_in_either_memory_order():
    # Zero-imputed candidate designs of the simulation cell; some of these
    # spun to the iteration cap in one memory order and not the other.
    for seed in range(3):
        data, _ = generate_replication(SimConfig(n=400, rho=0.6, seed=seed), rep=0)
        filled = data.filled()
        for pattern in build_pattern_index(data).patterns:
            X = np.ascontiguousarray(filled.x[:, list(pattern.indices)])
            beta_c, info_c = fit_glm(X, filled.y, BINOMIAL)
            beta_f, info_f = fit_glm(np.asfortranarray(X), filled.y, BINOMIAL)
            assert info_c["converged"] and info_f["converged"]
            assert info_c["iterations"] == info_f["iterations"] <= 10
            assert np.max(np.abs(beta_c - beta_f)) <= 1e-12


def test_intercept_only_fit_is_logit_of_mean():
    data, _ = adni_like(0)
    cc = build_pattern_index(data).s_sets[0]
    X, y = data.x[np.ix_(cc, [0])], data.y[cc]
    assert X.shape == (409, 1) and np.all(X == 1.0)
    beta, info = fit_glm(X, y, BINOMIAL)
    assert info["converged"]
    assert info["iterations"] <= 10
    assert abs(beta[0] - logit(y.mean())) <= 1e-12


def test_separation_guard_keeps_estimates_finite(rng):
    x = rng.standard_normal(80)
    X = np.column_stack([np.ones(80), x])
    y = (x > 0).astype(float)
    beta, info = fit_glm(X, y, BINOMIAL)
    assert np.all(np.isfinite(beta))


def test_fit_candidate_on_fragmentary_data(rng):
    data = poisoned(random_fragmentary(rng, 60, 4, family="binomial"))
    index = build_pattern_index(data)
    models = fit_all_candidates(data, index, BINOMIAL)
    assert len(models) == index.K
    for k, m in enumerate(models, start=1):
        assert m.p_k == index.patterns[k - 1].size
        assert m.n_k == index.s_sets[k - 1].size
        assert np.all(np.isfinite(m.beta))


def test_fit_candidate_rejects_undersized_sample():
    # 3 rows observing both columns, but pattern {0,1,2} has a single subject
    mask = np.array([[1, 1, 1], [1, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=bool)
    x = np.where(mask, 1.0, np.nan)
    x[:, 1] *= np.arange(1, 5)
    x[:, 2] *= 2.0
    data = __import__("fragma").FragmentaryDataset(
        y=np.array([1.0, 0.0, 1.0, 0.0]), x=x, mask=mask, column_names=list("abc")
    )
    index = build_pattern_index(data)
    with pytest.raises(RankDeficientError):
        fit_candidate(data, index.patterns[0], GAUSSIAN)


def test_linear_predictor_examples():
    model = CandidateModel(
        pattern=Pattern((0, 2)), beta=np.array([1.0, -2.0]),
        n_k=5, p_k=2, loglik=0.0, converged=True, iterations=1,
    )
    assert linear_predictor(model, np.array([2.0, 9.0, 0.5])) == pytest.approx(1.0)
    zero = CandidateModel(
        pattern=Pattern((0, 2)), beta=np.zeros(2),
        n_k=5, p_k=2, loglik=0.0, converged=True, iterations=1,
    )
    assert linear_predictor(zero, np.array([4.0, 1.0, -7.0])) == 0.0
    with pytest.raises(ValueError):
        linear_predictor(model, np.array([2.0, 9.0, np.nan]))


def test_linear_predictor_matches_index_loop(rng):
    for _ in range(10):
        idx = tuple(sorted(rng.choice(6, size=3, replace=False).tolist()))
        beta = rng.standard_normal(3)
        model = CandidateModel(
            pattern=Pattern(idx), beta=beta, n_k=9, p_k=3,
            loglik=0.0, converged=True, iterations=1,
        )
        x = rng.standard_normal(6)
        expected = sum(x[j] * beta[t] for t, j in enumerate(idx))
        assert np.isclose(linear_predictor(model, x), expected, atol=1e-12)


def test_get_family():
    assert get_family("binomial") is BINOMIAL
    assert get_family(GAUSSIAN) is GAUSSIAN
    with pytest.raises(ValueError):
        get_family("gamma")


def test_candidate_model_round_trips_json():
    m = CandidateModel(
        pattern=Pattern((1, 3), id=2), beta=np.array([0.5, -1.5]),
        n_k=8, p_k=2, loglik=-3.25, converged=True, iterations=4,
    )
    m2 = CandidateModel.from_dict(m.to_dict())
    assert m2.pattern.indices == m.pattern.indices
    assert np.array_equal(m2.beta, m.beta)
    assert m2.loglik == m.loglik
    d = replace(m, stop="decrement").to_dict()
    assert CandidateModel.from_dict(d).stop == "decrement"
    del d["stop"]  # a model.json written before fits recorded their stop reason
    assert CandidateModel.from_dict(d).stop is None

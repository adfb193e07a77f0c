from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logit

from fragma.datasets import adni_like, random_fragmentary
from fragma.errors import NumericalError, RankDeficientError
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
)
from fragma.patterns import Pattern, build_pattern_index
from fragma.glm import CandidateModel
from fragma.sim import SimConfig, generate_replication

from oracles import (
    central_difference_gradient,
    linear_predictor,
    logistic_mle_oracle,
    loglik_gradient,
    pivoted_qr_rank_rule,
    poisoned,
    reference_check_full_rank,
    reference_fit_glm,
)


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
        v = fam.variance(fam.b_prime(grid))
        assert np.max(np.abs(d2 - v) / np.maximum(1, np.abs(d2))) < 1e-6
        assert np.all(v >= 0)
    assert np.isclose(BINOMIAL.b(0.0), np.log(2.0))


def test_gaussian_irls_equals_least_squares(rng):
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
    y = rng.standard_normal(30) + X @ np.array([1.0, -2.0, 0.5, 3.0])
    beta, info = fit_glm(X, y, GAUSSIAN)
    ref = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(beta - ref)) < 1e-8
    # one Newton step lands on the optimum; the second direction's decrement
    # is at the roundoff and stops the fit
    assert info["iterations"] == 2
    assert info["converged"]
    assert info["stop"] == "decrement"


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


def rank_outcome(X, names):
    try:
        check_full_rank(X, names)
    except RankDeficientError as err:
        return err.columns
    return None


@pytest.fixture
def pivoted(monkeypatch):
    """Records each design that reaches the pivoted-QR fallback."""
    from fragma import glm

    calls = []
    real_pivoted_qr = glm._pivoted_qr
    monkeypatch.setattr(glm, "_pivoted_qr", lambda X: calls.append(X) or real_pivoted_qr(X))
    return calls


def test_rank_check_matches_pivoted_qr_oracle(rng, pivoted):
    rejected = 0
    for t in range(300):
        kind = ("full", "exact", "near")[t % 3]
        n, p = int(rng.integers(20, 120)), int(rng.integers(2, 13))
        X = rng.standard_normal((n, p))
        if t % 2:
            X[:, 0] = 1.0
        X *= 10.0 ** rng.uniform(-3, 3, size=p)
        if kind != "full":
            for j in rng.choice(p, size=int(rng.integers(1, min(p, 4))), replace=False):
                others = np.delete(np.arange(p), j)
                col = X[:, others] @ rng.standard_normal(p - 1)
                if kind == "near":
                    noise = 10.0 ** rng.uniform(-14, -6) * np.linalg.norm(col) / np.sqrt(n)
                    col = col + noise * rng.standard_normal(n)
                X[:, j] = col
        names = [f"x{j}" for j in range(p)]
        want = pivoted_qr_rank_rule(X, names)
        assert rank_outcome(X, names) == want, (t, kind)
        rejected += want is not None
    # both decisions occur, and the batch reaches both the sigma_min screen
    # and the pivoted fallback
    assert 50 < rejected < 250
    assert 0 < len(pivoted) < 300


def test_rank_check_fallback_decides_a_design_the_screen_cannot(pivoted):
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((30, 3)))[0]
    # orthogonal columns: the pivots are the column norms, sigma_min the smallest
    for small, want in ((1.5e-10, None), (0.5e-10, ["b"])):
        X = q * np.array([1.0, small, 0.3])
        assert pivoted_qr_rank_rule(X, ["a", "b", "c"]) == want
        assert rank_outcome(X, ["a", "b", "c"]) == want
    # b is a to within 1e-9: once a is pivoted b's remaining norm is 1e-9, so b
    # pivots before c, whose 5e-11 pivot falls under the tolerance
    X = np.column_stack([q[:, 0], q[:, 0] + 1e-9 * q[:, 1], 5e-11 * q[:, 2]])
    assert pivoted_qr_rank_rule(X, ["a", "b", "c"]) == ["c"]
    assert rank_outcome(X, ["a", "b", "c"]) == ["c"]
    assert len(pivoted) == 3


def test_rank_check_on_duplicate_columns_names_the_later_copy(rng):
    X = rng.standard_normal((40, 5))
    X[:, 3] = X[:, 1]
    names = list("abcde")
    assert pivoted_qr_rank_rule(X, names) is not None
    assert rank_outcome(X, names) == ["d"]


def _differential_designs():
    """Seeded (label, X, y, family, opts) fits for every family and stop."""
    rng = np.random.default_rng(19)
    for t in range(24):
        n, p = int(rng.integers(20, 400)), int(rng.integers(1, 9))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        X *= 10.0 ** rng.uniform(-1, 1, size=p)
        theta = X @ (rng.uniform(-1, 1, size=p) / np.linalg.norm(X, axis=0) * np.sqrt(n))
        if t % 4 == 3:
            X = np.asfortranarray(X)
        yield f"binomial-{t}", X, (rng.random(n) < expit(theta)).astype(float), BINOMIAL, None
        yield f"gaussian-{t}", X, theta + rng.standard_normal(n), GAUSSIAN, None
        y = rng.poisson(np.exp(np.clip(theta, -3, 3))).astype(float)
        yield f"poisson-{t}", X, y, POISSON, None
        yield f"capped-{t}", X, y, POISSON, FitOptions(max_iter=2)
    for seed in range(3):
        # separated, with a second copy of x within 1e-9: numerically singular
        # Fisher information, which takes the least-squares direction
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50)
        X = np.column_stack([np.ones(50), x, x + 1e-9 * rng.standard_normal(50)])
        yield f"separated-{seed}", X, (x > 0).astype(float), BINOMIAL, None


def test_fit_glm_matches_the_qr_screened_reference_bit_for_bit(monkeypatch):
    lstsq, fallbacks = np.linalg.lstsq, set()

    def counted(*args, **kwargs):
        fallbacks.add(label)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    stops = set()
    for label, X, y, family, opts in _differential_designs():
        beta, info = fit_glm(X, y, family, opts)
        ref_beta, ref_info = reference_fit_glm(X, y, family, opts)
        assert beta.tobytes() == ref_beta.tobytes(), label
        assert info == ref_info, label
        stops.add(info["stop"])
    assert {"decrement", "max_iter"} <= stops
    # the comparison covers the least-squares direction, on exactly these designs
    assert fallbacks == {f"separated-{seed}" for seed in range(3)}


def test_gram_screen_accepts_only_what_the_pivoted_qr_rule_accepts(rng, pivoted):
    screened = rejected = 0
    for t in range(400):
        n, p = int(rng.integers(20, 150)), int(rng.integers(2, 10))
        X = rng.standard_normal((n, p))
        X[:, 0] = 1.0
        X *= 10.0 ** rng.uniform(-3, 3, size=p)
        if t % 2:
            j = int(rng.integers(p))
            others = np.delete(np.arange(p), j)
            col = X[:, others] @ rng.standard_normal(p - 1)
            noise = 10.0 ** rng.uniform(-15, -1) * np.linalg.norm(col) / np.sqrt(n)
            X[:, j] = col + noise * rng.standard_normal(n)
        names = [f"x{j}" for j in range(p)]
        want = pivoted_qr_rank_rule(X, names)
        # the default Gram, and fit_glm's binomial first Fisher information
        for gram in (None, X.T @ (np.full(n, 0.25)[:, None] * X)):
            del pivoted[:]
            try:
                check_full_rank(X, names, gram=gram)
                got = None
            except RankDeficientError as err:
                got = (str(err), err.columns)
            if not pivoted:
                assert want is None, t
                screened += 1
            try:
                reference_check_full_rank(X, names)
                ref = None
            except RankDeficientError as err:
                ref = (str(err), err.columns)
            assert got == ref, t
        rejected += want is not None
    assert 100 < screened < 700 and 20 < rejected < 200


def test_overflowing_gram_gets_the_reference_decision():
    rng = np.random.default_rng(5)
    X = 1e160 * rng.standard_normal((40, 4))
    dependent = X.copy()
    dependent[:, 3] = X[:, 0] - X[:, 2]
    names = list("abcd")
    # X^T X overflows, so the check decides on X * 2^-e (e the exponent of
    # max |x|), whose QR norms stay finite: the full-rank design is accepted,
    # and the dependent one gets the reference's decision on that scaled copy
    outcomes = []
    for design in (X, dependent):
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(design.T @ design))
        scaled = np.ldexp(design, -np.frexp(np.abs(design).max())[1])
        for check, arg in ((check_full_rank, design), (reference_check_full_rank, scaled)):
            try:
                with np.errstate(over="ignore"):
                    check(arg, names)
                outcomes.append(None)
            except RankDeficientError as err:
                outcomes.append((str(err), err.columns))
    assert outcomes[:2] == [None, None]
    message = "rank-deficient design (rank 3 < 4); dependent columns: ['a']"
    assert outcomes[2] == outcomes[3] == (message, ["a"])


def test_expit_is_within_4_ulp_of_scipy():
    from scipy.special import expit as scipy_expit

    from fragma.glm import expit as fragma_expit

    t = np.linspace(-750.0, 750.0, 300001)
    want = scipy_expit(t)
    assert np.all(np.abs(fragma_expit(t) - want) <= 4 * np.spacing(want))


def test_expit_saturates_exactly_without_warning():
    import warnings

    from fragma.glm import expit as fragma_expit

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="warn", divide="warn", invalid="warn"):
            assert fragma_expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
            assert fragma_expit(-1000.0) == 0.0 and fragma_expit(1000.0) == 1.0


def binomial_b_grid():
    rng = np.random.default_rng(20261019)
    far = rng.uniform(40.0, 800.0, 2000)
    return np.concatenate([
        [0.0, -0.0, 800.0, -800.0, 40.0, -40.0],
        rng.normal(0.0, 9.0, 4000),
        rng.uniform(-800.0, 800.0, 4000),
        rng.uniform(-745.0, -708.0, 2000),  # e^theta in the subnormal tail
        np.where(rng.random(far.size) < 0.5, far, -far),
    ])


def test_binomial_b_is_within_4_ulp_of_logaddexp():
    theta = binomial_b_grid()
    want = np.logaddexp(0.0, theta)
    assert np.all(np.abs(BINOMIAL.b(theta) - want) <= 4 * np.spacing(want))


def test_binomial_b_matches_logaddexp_at_inf_and_nan_without_warning():
    import warnings

    theta = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(0.0, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"):
            got = BINOMIAL.b(theta)
    assert got.tobytes() == want.tobytes()


def test_binomial_b_of_a_block_is_each_element_alone():
    # Lengths 1-67 at random offsets reach the SIMD lanes and tails of
    # numpy's exp and log1p; shuffling must not move any element's bits.
    rng = np.random.default_rng(5)
    theta = binomial_b_grid()
    alone = np.array([BINOMIAL.b(t) for t in theta])
    assert BINOMIAL.b(theta).tobytes() == alone.tobytes()
    for n in range(1, 68):
        for start in rng.integers(0, theta.size - n, size=4):
            block, want = theta[start:start + n], alone[start:start + n]
            assert BINOMIAL.b(block).tobytes() == want.tobytes()
            perm = rng.permutation(n)
            assert BINOMIAL.b(block[perm]).tobytes() == want[perm].tobytes()


def test_non_convergence_is_flagged(rng):
    X, y = logistic_design(rng, n=50, p=3, scale=2.0)
    beta, info = fit_glm(X, y, BINOMIAL, FitOptions(max_iter=1))
    assert not info["converged"]
    assert info["iterations"] == 1
    assert np.all(np.isfinite(beta))
    assert info["stop"] == "max_iter"


@pytest.mark.parametrize("seed", range(4))
def test_separated_and_near_singular_fits_keep_their_stop(seed):
    # Separated logistic data have no maximum-likelihood estimate; the fit
    # runs until the fitted means reach the responses and the decrement its
    # roundoff, after the same iterations in any units of x.  Then the same
    # data with a second copy of x within 1e-9: the Fisher information is
    # ill-conditioned (rcond ~ 1e-16) but passes the rank check, and the fit
    # still ends with finite coefficients.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(50)
    y = (x > 0).astype(float)
    verdicts = set()
    for c in (1.0, 1e-3, 2.0**-20, 2.0**20):
        _, info = fit_glm(np.column_stack([np.ones(50), c * x]), y, BINOMIAL)
        verdicts.add((info["stop"], info["converged"], info["iterations"]))
    assert len(verdicts) == 1 and verdicts.pop()[:2] == ("decrement", True)
    X = np.column_stack([np.ones(50), x, x + 1e-9 * rng.standard_normal(50)])
    beta, info = fit_glm(X, y, BINOMIAL)
    assert (info["stop"], info["converged"]) == ("decrement", True)
    assert np.all(np.isfinite(beta)) and np.all(np.isfinite(X @ beta))


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


def _failing_loglik_sums(monkeypatch, fails):
    """Patch fit_glm's log-likelihood so that ``fails(call)`` raises or returns in its place."""
    import fragma.glm as glm

    calls, original = [], glm._loglik_sums

    def patched(family, theta, y):
        calls.append(len(calls) + 1)
        failure = fails(len(calls))
        if isinstance(failure, Exception):
            raise failure
        return failure or original(family, theta, y)

    monkeypatch.setattr(glm, "_loglik_sums", patched)
    return calls


def test_a_non_finite_decrement_step_is_rejected_and_the_fit_stops(monkeypatch):
    # A 5-iteration logistic fit evaluates its log-likelihood 6 times: at
    # beta = 0, at each of 4 full steps and at the decrement step.  When the
    # last finds a non-finite linear predictor, that step is rejected like
    # any other and the fit stops on the decrement with the 4th step's beta.
    X, y = logistic_design(np.random.default_rng(0), n=40, p=3)
    _, info = fit_glm(X, y, BINOMIAL)
    assert (info["stop"], info["iterations"]) == ("decrement", 5)
    before, before_info = fit_glm(X, y, BINOMIAL, FitOptions(max_iter=4))
    calls = _failing_loglik_sums(
        monkeypatch, lambda call: NumericalError("non-finite") if call == 6 else None
    )
    beta, info = fit_glm(X, y, BINOMIAL)
    assert len(calls) == 6
    assert info == {**before_info, "converged": True, "iterations": 5, "stop": "decrement"}
    assert beta.tobytes() == before.tobytes()


@pytest.mark.parametrize("rejection", [NumericalError("non-finite"), (np.inf, np.inf)])
def test_a_fit_whose_every_trial_is_rejected_stops_on_no_step(monkeypatch, rejection):
    # Every step after beta = 0 has a non-finite linear predictor (a
    # NumericalError) or log-likelihood: 30 trials are rejected, and the fit
    # stops at beta = 0 after one iteration, not converged.
    X, y = logistic_design(np.random.default_rng(0), n=40, p=3)
    at_zero = loglik(BINOMIAL, np.zeros(40), y)
    calls = _failing_loglik_sums(monkeypatch, lambda call: rejection if call > 1 else None)
    beta, info = fit_glm(X, y, BINOMIAL)
    assert len(calls) == 31
    assert info == {"loglik": at_zero, "converged": False, "iterations": 1, "stop": "no_step"}
    assert not beta.any()


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

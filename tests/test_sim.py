import numpy as np
import pytest

from fragma.averaging import build_criterion_context, kl_loss, predict
from fragma.baselines import fit_method
from fragma.glm import BINOMIAL, CandidateStore
from fragma.patterns import build_pattern_index
from fragma.sim import (
    GROUP_WIDTH,
    N_GROUPS,
    SimConfig,
    beta_vector,
    generate_replication,
    run_study,
    sim_groups,
)

from oracles import bernoulli_kl2


def test_beta_cases():
    p = 14
    decay = beta_vector("decay", p)
    flat = beta_vector("flat", p)
    rise = beta_vector("rise", p)
    assert np.isclose(decay[0], 0.4) and np.isclose(decay[-1], 0.4 / 14)
    assert np.allclose(flat, 0.1)
    assert np.isclose(rise[-1], 0.2) and np.isclose(rise[0], 0.2 / 14)
    with pytest.raises(ValueError):
        beta_vector("bump", p)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10)
    with pytest.raises(ValueError):
        SimConfig(rho=1.0)
    with pytest.raises(ValueError):
        SimConfig(methods=("opt1", "nope"))


def test_replication_pattern_count_is_eight():
    for seed in (0, 1, 2):
        cfg = SimConfig(n=400, rho=0.6, seed=seed, reps=1)
        data, _ = generate_replication(cfg, 0)
        index = build_pattern_index(data)
        assert index.K == 8
        assert index.patterns[0].size == cfg.p - 1  # last covariate never observed
        assert not data.mask[:, cfg.p - 1].any()


def test_group_availability_mechanism_exhaustive():
    cfg = SimConfig(n=500, rho=0.3, seed=7, reps=1)
    data, truth = generate_replication(cfg, 0)
    for s in range(N_GROUPS):
        lead = 1 + s * GROUP_WIDTH
        cols = slice(lead, lead + GROUP_WIDTH)
        expected = truth.x_full[:, lead] < 1.0
        assert np.array_equal(data.mask[:, cols], np.tile(expected[:, None], (1, GROUP_WIDTH)))
    assert data.mask[:, 0].all()


def test_equicorrelation_target(rng):
    cfg = SimConfig(n=100_000, rho=0.6, seed=9, reps=1)
    _, truth = generate_replication(cfg, 0)
    xc = truth.x_full[:, 1:]
    assert np.max(np.abs(xc.mean(axis=0) - 1.0)) < 0.02
    cov = np.cov(xc, rowvar=False)
    target = np.full(cov.shape, cfg.rho)
    np.fill_diagonal(target, 1.0)
    assert np.max(np.abs(cov - target)) < 0.02


def test_cc_fraction_independent_groups():
    cfg = SimConfig(n=200_000, rho=0.0, seed=13, reps=1)
    data, _ = generate_replication(cfg, 0)
    index = build_pattern_index(data)
    assert abs(index.s_sets[0].size / data.n - 0.125) < 0.01


def test_truth_records_match_definitions():
    cfg = SimConfig(n=200, rho=0.3, seed=3, reps=1)
    data, truth = generate_replication(cfg, 0)
    beta = beta_vector(cfg.beta_case, cfg.p)
    assert np.allclose(truth.theta, truth.x_full @ beta, atol=1e-12)
    assert np.allclose(truth.mean, 1 / (1 + np.exp(-truth.theta)), atol=1e-12)
    obs = data.mask
    assert np.array_equal(np.isfinite(data.x), obs)
    assert np.allclose(data.x[obs], truth.x_full[obs])


def test_oracle_predictor_has_zero_loss():
    cfg = SimConfig(n=400, rho=0.6, seed=21, reps=1)
    data, truth = generate_replication(cfg, 0)
    cc_rows = build_pattern_index(data).s_sets[0]
    mu = truth.mean[cc_rows]
    theta_true = truth.theta[cc_rows]
    assert abs(kl_loss(theta_true, mu, BINOMIAL, per_obs=True)) <= 1e-12


def test_constant_half_prediction_matches_hand_loop():
    cfg = SimConfig(n=300, rho=0.3, seed=17, reps=1)
    data, truth = generate_replication(cfg, 0)
    cc_rows = build_pattern_index(data).s_sets[0]
    mu = truth.mean[cc_rows]
    val = kl_loss(np.zeros(mu.size), mu, BINOMIAL, per_obs=True)
    direct = bernoulli_kl2(mu, np.full(mu.size, 0.5)) / mu.size
    assert np.isclose(val, direct, atol=1e-10)


def rep_stores(data):
    """The candidate store and pattern index one replication shares across methods."""
    return CandidateStore(data, BINOMIAL), build_pattern_index(data)


def test_evaluate_method_perfect_and_unknown():
    cfg = SimConfig(n=300, rho=0.3, seed=23, reps=1)
    data, truth = generate_replication(cfg, 0)
    store, index = rep_stores(data)
    with pytest.raises(ValueError):
        fit_method("magic", store)
    cc_rows = index.s_sets[0]
    for method in ("opt1", "cc", "saic", "imp1"):
        model = fit_method(method, store)
        theta = predict(model, data.x[cc_rows])[0]
        v = kl_loss(theta, truth.mean[cc_rows], BINOMIAL, per_obs=True)
        assert np.isfinite(v) and v >= 0


def test_imp_takes_a_column_set_every_subject_observes_from_the_store(monkeypatch):
    import fragma.glm

    data, _ = generate_replication(SimConfig(n=400, rho=0.6, seed=0, reps=1), 0)
    store, index = rep_stores(data)
    intercept = next(p for p in index.patterns if p.indices == (0,))
    assert index.s_sets[index.patterns.index(intercept)].size == data.n
    fitted = []
    original = fragma.glm.fit_glm

    def counting(X, y, family, opts=None, column_names=None):
        fitted.append(tuple(column_names))
        return original(X, y, family, opts, column_names)

    monkeypatch.setattr(fragma.glm, "fit_glm", counting)
    for method in ("opt1", "imp1", "imp2"):
        model = fit_method(method, store)
    imp = next(c for c in model.candidates if c.pattern.indices == (0,))
    cand = store.fit(intercept)
    assert np.array_equal(imp.beta, cand.beta)
    assert (imp.n_k, imp.loglik, imp.iterations) == (cand.n_k, cand.loglik, cand.iterations)
    assert fitted.count(("X1",)) == 1
    # every other pattern once on the data and once zero-filled
    assert len(fitted) == 2 * index.K - 1


def test_scoring_by_predict_equals_theta_matrix_route():
    # the sim scores every method by predict(model, x); for the methods
    # built on the complete-case candidate fits that equals the criterion
    # context's theta_matrix @ weights
    for seed in (0, 1, 2):
        cfg = SimConfig(n=400, rho=0.6, seed=seed, reps=1)
        data, _ = generate_replication(cfg, 0)
        store, index = rep_stores(data)
        for method in ("opt1", "opt2", "cc", "saic", "sbic"):
            model = fit_method(method, store)
            ctx = build_criterion_context(data, index, model.candidates, BINOMIAL)
            theta = predict(model, data.x[index.s_sets[0]])[0]
            expected = ctx.theta_matrix @ np.asarray(model.weights)
            assert np.max(np.abs(theta - expected)) <= 1e-12, method


def test_run_study_deterministic_and_reduces_at_one_rep():
    cfg = SimConfig(n=200, rho=0.3, reps=1, seed=31, methods=("opt1", "cc"))
    a = run_study(cfg)
    b = run_study(cfg)
    assert np.array_equal(a.per_rep_kl, b.per_rep_kl)
    assert np.array_equal(a.cc_fraction_per_rep, b.cc_fraction_per_rep)
    for m in cfg.methods:
        assert a.summary[m]["median"] == a.per_rep_kl[0][cfg.methods.index(m)]
        assert a.summary[m]["q25"] == a.summary[m]["median"]


def test_run_study_redraws_a_degenerate_replication_deterministically():
    # at n = 60 one draw of the two has a candidate with fewer subjects than
    # columns; it is drawn again from the next sub-stream, the same way each run
    cfg = SimConfig(n=60, rho=0.3, reps=2, seed=0, methods=("opt1", "cc"))
    a, b = run_study(cfg), run_study(cfg)
    assert a.diagnostics["regenerated"] == 1 and a.diagnostics["failures"] == []
    assert np.array_equal(a.per_rep_kl, b.per_rep_kl) and np.all(np.isfinite(a.per_rep_kl))
    assert np.array_equal(a.cc_fraction_per_rep, b.cc_fraction_per_rep)
    assert a.diagnostics == b.diagnostics


def test_run_study_records_method_failures_as_nan(monkeypatch):
    import fragma.sim as simmod

    real = simmod.fit_method

    def flaky(method, store, **kw):
        if method == "cc":
            raise simmod.NumericalError("boom")
        return real(method, store, **kw)

    monkeypatch.setattr(simmod, "fit_method", flaky)
    cfg = SimConfig(n=200, rho=0.3, reps=2, seed=41, methods=("opt1", "cc"))
    res = simmod.run_study(cfg)
    assert np.all(np.isnan(res.per_rep_kl[:, 1]))
    assert np.all(np.isfinite(res.per_rep_kl[:, 0]))
    assert res.summary["cc"]["failures"] == 2
    assert len(res.diagnostics["failures"]) == 2


def test_run_study_scores_a_sure_true_mean_at_its_limit(monkeypatch):
    # a complete case whose true mean is 1 adds b(theta) - theta to its
    # method's loss, the limit at theta0 = +inf; nothing is clamped
    import fragma.sim as simmod

    real = simmod.generate_replication
    sure = []

    def with_a_sure_case(cfg, rep, attempt):
        data, truth = real(cfg, rep, attempt)
        i = build_pattern_index(data).s_sets[0][0]
        sure.append(truth.mean[i])
        truth.mean[i] = 1.0
        return data, truth

    cfg = SimConfig(n=200, rho=0.3, reps=2, seed=41, methods=("opt1", "cc"))
    base = run_study(cfg)
    monkeypatch.setattr(simmod, "generate_replication", with_a_sure_case)
    res = simmod.run_study(cfg)
    assert np.all(np.isfinite(res.per_rep_kl))
    assert set(res.diagnostics) == {"regenerated", "failures", "kkt_residuals", "optimizer_stops"}
    for rep in range(cfg.reps):
        data, truth = real(cfg, rep, 0)
        index = build_pattern_index(data)
        cc_rows = index.s_sets[0]
        model = fit_method("opt1", CandidateStore(data, BINOMIAL))
        theta = predict(model, data.x[cc_rows])[0]
        mu = truth.mean[cc_rows].copy()
        assert mu[0] == sure[rep] and base.per_rep_kl[rep, 0] == kl_loss(
            theta, mu, BINOMIAL, per_obs=True
        )
        mu[0] = 1.0
        expected = kl_loss(theta, mu, BINOMIAL, per_obs=True)
        assert res.per_rep_kl[rep, 0] == expected
        limit = 2.0 * (BINOMIAL.b(theta[0]) - theta[0]) / theta.size
        rest = kl_loss(theta[1:], mu[1:], BINOMIAL) / theta.size
        assert expected == pytest.approx(limit + rest, rel=1e-13)


def test_run_study_sim_groups_shape():
    g = sim_groups()
    assert list(g) == ["group1", "group2", "group3"]
    assert g["group1"] == [1, 2, 3, 4]
    assert g["group3"] == [9, 10, 11, 12]


@pytest.mark.slow
def test_opt1_beats_saic_at_desk_scale():
    cfg = SimConfig(
        n=400, rho=0.6, beta_case="decay", reps=50, seed=77, methods=("opt1", "saic")
    )
    res = run_study(cfg)
    assert res.summary["opt1"]["median"] < res.summary["saic"]["median"]


@pytest.mark.slow
def test_opt1_at_or_near_best_among_all_methods():
    cfg = SimConfig(
        n=400,
        rho=0.3,
        beta_case="decay",
        reps=50,
        seed=20260810,
        methods=("opt1", "opt2", "cc", "saic", "sbic", "imp1", "imp2"),
    )
    res = run_study(cfg)
    medians = {m: res.summary[m]["median"] for m in cfg.methods}
    assert medians["opt1"] <= min(medians.values()) * 1.05

"""Comparator methods: CC, smoothed AIC/BIC, zero-imputation averaging, group lasso.

Each baseline returns an :class:`~fragma.averaging.AveragedModel` whose
coefficients are embedded into the full coefficient space, so every method
predicts through one code path.  CC and the smoothed criteria draw their
candidates from a :class:`~fragma.glm.CandidateStore` that may be shared;
imp1 and imp2 share one on the zero-imputed data.  The group lasso is
solved at each penalty level by one active-set Newton loop.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .averaging import (
    AveragedModel,
    WeightVector,
    build_criterion_context,
    combine_coefficients,
    optimize_weights,
)
from .errors import DataError, NumericalError
from .glm import (
    CandidateModel,
    CandidateStore,
    ExponentialFamily,
    FitOptions,
    check_full_rank,
    fit_glm,
    get_family,
    loglik,
)
from .patterns import FragmentaryDataset, Pattern, PatternIndex, build_pattern_index


def _single_glm(
    data: FragmentaryDataset, family, cand: CandidateModel, diagnostics: dict | None = None
) -> AveragedModel:
    """One GLM as a model: a single candidate with unit weight."""
    return AveragedModel(
        candidates=[cand],
        weights=WeightVector([1.0]),
        beta_combined=combine_coefficients([cand], [1.0], data.p),
        family=family,
        column_names=list(data.column_names),
        diagnostics=diagnostics or {},
    )


def fit_cc(
    data: FragmentaryDataset,
    family,
    opts: FitOptions | None = None,
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Single GLM on the complete cases: identical to candidate model 1."""
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    return _single_glm(data, family, (store or CandidateStore(data, family, opts)).fit(index, 1))


def smoothed_ic_weights(ic_values: np.ndarray) -> np.ndarray:
    """w_k proportional to exp(-IC_k / 2), computed with max-shift."""
    ic = np.asarray(ic_values, dtype=float)
    finite = np.isfinite(ic)
    if not finite.any():
        raise NumericalError("all information criteria are infinite")
    logw = np.where(finite, -0.5 * ic, -np.inf)
    return np.exp(logw - logsumexp(logw))


def fit_smoothed_ic(
    data: FragmentaryDataset,
    family,
    flavor: str,
    opts: FitOptions | None = None,
    index: PatternIndex | None = None,
    ic_sample: str = "own",
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Candidate averaging with smoothed AIC/BIC weights.

    By default each candidate's information criterion uses the
    log-likelihood maximized on its own fitting sample
    (``ic_sample="own"``); because larger subject sets produce larger
    absolute deviances, the weights then concentrate on the candidate
    with the most covariates and the smallest sample.  The alternative
    ``ic_sample="cc"`` evaluates every candidate on the common
    complete-case rows, making the criteria sample-size comparable; it is
    provided for sensitivity checks.
    """
    if flavor not in ("aic", "bic"):
        raise ValueError(f"flavor must be 'aic' or 'bic', got {flavor!r}")
    if ic_sample not in ("cc", "own"):
        raise ValueError(f"ic_sample must be 'cc' or 'own', got {ic_sample!r}")
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    candidates = (store or CandidateStore(data, family, opts)).fit_all(index)

    p_sizes = np.array([c.p_k for c in candidates], dtype=float)
    if ic_sample == "cc":
        ctx = build_criterion_context(data, index, candidates, family)
        ll = np.array(
            [loglik(family, ctx.theta_matrix[:, k], ctx.y_cc) for k in range(len(candidates))]
        )
        n_pen = np.full(len(candidates), ctx.n_cc, dtype=float)
    else:
        ll = np.array([c.loglik for c in candidates])
        n_pen = np.array([c.n_k for c in candidates], dtype=float)
    pen = 2.0 if flavor == "aic" else np.log(n_pen)
    ic = -2.0 * ll + pen * p_sizes

    w = smoothed_ic_weights(ic)
    return AveragedModel(
        candidates=candidates,
        weights=WeightVector(w),
        beta_combined=combine_coefficients(candidates, w, data.p),
        family=family,
        column_names=list(data.column_names),
        diagnostics={"ic": ic.tolist(), "ic_sample": ic_sample},
    )


def fit_imp(
    data: FragmentaryDataset,
    family,
    lambda_mode: str = "opt1",
    opts: FitOptions | None = None,
    index: PatternIndex | None = None,
    opt_opts=None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Zero-imputation averaging.

    Unavailable cells are replaced by zeros; each candidate pattern's
    covariate subset is then fitted on all n subjects, and weights are
    selected by the same penalized criterion evaluated on all n subjects,
    with penalty level 2 (``opt1``) or log n (``opt2``).  Candidates come
    from ``store``, which must hold fits on ``data.filled()``; imp1 and
    imp2 on the same data can share one.
    """
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    store = store or CandidateStore(data.filled(), family, opts)
    if not store.data.mask.all():
        raise ValueError("fit_imp needs a candidate store on the zero-imputed data.filled()")
    cands = store.fit_all(index)
    ctx = build_criterion_context(store.data, index, cands, family, warn_incomplete=False)
    lam = 2.0 if lambda_mode == "opt1" else float(np.log(data.n))
    wfit = optimize_weights(ctx, lam, opt_opts)
    return AveragedModel(
        candidates=cands,
        weights=wfit.weights,
        beta_combined=combine_coefficients(cands, wfit.weights, data.p),
        family=family,
        column_names=list(data.column_names),
        lambda_n=lam,
        criterion_value=wfit.criterion_value,
        zero_impute=True,
        diagnostics={"kkt_residual": wfit.kkt_residual},
    )


# ---------------------------------------------------------------------------
# Group lasso
# ---------------------------------------------------------------------------

def _group_penalty(beta, groups, lam):
    total = 0.0
    for g in groups:
        bg = beta[g]
        total += np.sqrt(len(g)) * np.sqrt(bg @ bg)
    return lam * total


def _block_soft_threshold(beta, groups, t, lam):
    out = beta.copy()
    for g in groups:
        bg = beta[g]
        norm = np.sqrt(bg @ bg)
        thresh = t * lam * np.sqrt(len(g))
        if norm <= thresh:
            out[g] = 0.0
        else:
            out[g] = bg * (1.0 - thresh / norm)
    return out


def _kkt_parts(grad, beta, groups, lam, unpenalized) -> tuple[float, float]:
    """KKT residual on the active coordinates and the largest zero-group violation.

    The active coordinates are the unpenalized ones and the nonzero groups,
    where the objective is differentiable; a zero group violates its
    subgradient bound by ``||grad_g|| - lam * sqrt(|g|)`` when that is positive.
    """
    active = float(np.max(np.abs(grad[unpenalized]), initial=0.0))
    violation = 0.0
    for g in groups:
        w = lam * np.sqrt(len(g))
        norm = np.linalg.norm(beta[g])
        if norm == 0.0:
            violation = max(violation, float(np.linalg.norm(grad[g])) - w)
        else:
            active = max(active, float(np.linalg.norm(grad[g] + w * beta[g] / norm)))
    return active, violation


def _unpenalized(p: int, groups) -> np.ndarray:
    penalized = np.zeros(p, dtype=bool)
    for g in groups:
        penalized[g] = True
    return np.flatnonzero(~penalized)


def fit_group_lasso_at(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    lam: float,
    groups: list[np.ndarray],
    beta0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> np.ndarray:
    """Group-lasso GLM at a single penalty level by an active-set Newton method.

    Minimizes -loglik(beta) + lam * sum_g sqrt(|g|) * ||beta_g||_2 (Meier,
    van de Geer and Bühlmann 2008), with coordinates outside every group
    unpenalized, starting from ``beta0`` (zero by default).  Each iteration
    compares the KKT residual on the active coordinates (the unpenalized
    ones and the nonzero groups, where the objective is smooth) with the
    largest violation of a zero group's subgradient bound.  When the active
    residual is the larger it takes a damped Newton step on the active
    coordinates, setting to zero every group the step drives through the
    kink at the origin; otherwise it takes one backtracked proximal-gradient
    step, which releases the violating group.  A step is accepted under
    Armijo, on the gradient's first-order change plus the exact penalty
    change, with a 4 eps |f| roundoff slack.  The loop stops when both
    residuals are within ``tol`` (see :func:`group_lasso_kkt_residual`),
    when a step decreased neither the objective beyond roundoff nor the
    residual, when no step is accepted, or after ``max_iter`` iterations.
    """
    family = get_family(family)
    p = X.shape[1]
    unpen = _unpenalized(p, groups)
    beta = np.zeros(p) if beta0 is None else beta0.copy()

    def smooth(b):
        theta = X @ b
        return float((np.sum(family.b(theta)) - y @ theta) / family.phi)

    pen = _group_penalty(beta, groups, lam)
    f = smooth(beta) + pen
    stalled, res_before = False, np.inf
    for _ in range(max_iter):
        theta = X @ beta
        grad = X.T @ (family.b_prime(theta) - y) / family.phi
        res_active, violation = _kkt_parts(grad, beta, groups, lam, unpen)
        res = max(res_active, violation)
        if res <= tol or (stalled and res >= res_before):
            break
        if res_active >= violation:
            nonzero = [g for g in groups if np.linalg.norm(beta[g]) > 0.0]
            coords = np.sort(np.concatenate([unpen, *nonzero]))
            pen_grad = np.zeros(p)
            pen_hess = np.zeros((p, p))
            for g in nonzero:
                norm = np.linalg.norm(beta[g])
                u = beta[g] / norm
                w = lam * np.sqrt(len(g))
                pen_grad[g] = w * u
                pen_hess[np.ix_(g, g)] = w * (np.eye(len(g)) - np.outer(u, u)) / norm
            Xc = X[:, coords]
            hess = Xc.T @ ((family.b_double_prime(theta) / family.phi)[:, None] * Xc)
            hess += pen_hess[np.ix_(coords, coords)] + 1e-12 * np.eye(coords.size)
            try:
                d = -np.linalg.solve(hess, (grad + pen_grad)[coords])
            except np.linalg.LinAlgError:
                break

            def trial(a):
                b = beta.copy()
                b[coords] += a * d
                for g in nonzero:
                    if b[g] @ beta[g] <= 0.0:
                        b[g] = 0.0
                return b
        else:
            lipschitz = float(np.max(family.b_double_prime(theta))) * np.linalg.norm(X, 2) ** 2
            t = family.phi / max(1e-12, lipschitz)

            def trial(a):
                return _block_soft_threshold(beta - a * t * grad, groups, a * t, lam)

        slack = 4.0 * np.finfo(float).eps * abs(f)
        a = 1.0
        for _ in range(60):
            cand = trial(a)
            pen_try = _group_penalty(cand, groups, lam)
            f_try = smooth(cand) + pen_try
            if f_try <= f + 1e-4 * (grad @ (cand - beta) + pen_try - pen) + slack:
                break
            a *= 0.5
        else:
            break
        stalled, res_before = f_try >= f - slack, res
        beta, f, pen = cand, f_try, pen_try
    return beta


def group_lasso_kkt_residual(X, y, family, beta, lam, groups) -> float:
    """Largest violation of the group-lasso stationarity conditions."""
    family = get_family(family)
    grad = X.T @ (family.b_prime(X @ beta) - y) / family.phi
    return max(_kkt_parts(grad, beta, groups, lam, _unpenalized(X.shape[1], groups)))


def lambda_max_group_lasso(
    X, y, family, groups, unpenalized, opts: FitOptions | None = None
) -> float:
    """Smallest penalty level at which every group is zeroed.

    The unpenalized coordinates are fitted by :func:`~fragma.glm.fit_glm`
    with ``opts``.
    """
    family = get_family(family)
    p = X.shape[1]
    beta = np.zeros(p)
    if len(unpenalized):
        sub, _ = fit_glm(X[:, unpenalized], y, family, opts)
        beta[unpenalized] = sub
    grad = X.T @ (family.b_prime(X @ beta) - y) / family.phi
    return max(float(np.linalg.norm(grad[g])) / np.sqrt(len(g)) for g in groups)


def _stratified_folds(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic response-stratified fold labels."""
    rng = np.random.default_rng(seed)
    fold = np.empty(y.size, dtype=int)
    pos = 0
    for value in np.unique(y):
        idx = np.flatnonzero(y == value)
        idx = rng.permutation(idx)
        fold[idx] = (np.arange(idx.size) + pos) % k
        pos += idx.size
    return fold


def fit_glasso(
    data: FragmentaryDataset,
    family,
    groups,
    cv_folds: int = 5,
    seed: int = 0,
    n_lambdas: int = 50,
    lambda_min_ratio: float = 1e-3,
    opts: FitOptions | None = None,
    index: PatternIndex | None = None,
) -> AveragedModel:
    """Group-lasso selection on the complete cases, then an unpenalized refit.

    ``groups`` maps names to original column indices and should partition
    the non-intercept columns; columns in no group stay unpenalized.  The
    penalty level is chosen by ``cv_folds``-fold cross-validated deviance
    over a geometric grid below the all-zero threshold, each path solved by
    :func:`fit_group_lasso_at` warm-started from the previous level; the
    final model is an ordinary GLM refit, with ``opts``, using every subject
    that observes all selected covariates.
    """
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    lead = list(index.patterns[0].indices)
    rows = index.s_sets[0]
    if rows.size < cv_folds:
        raise DataError(f"complete-case sample ({rows.size}) smaller than cv_folds")
    X = data.x[np.ix_(rows, lead)]
    y = data.y[rows]
    check_full_rank(X, [data.column_names[j] for j in lead])

    if isinstance(groups, dict):
        items = list(groups.items())
    else:
        items = [(f"g{i}", list(g)) for i, g in enumerate(groups)]
    pos_of = {j: t for t, j in enumerate(lead)}
    group_pos = []
    group_names = []
    for name, cols in items:
        inside = [pos_of[j] for j in cols if j in pos_of]
        if inside:
            group_pos.append(np.asarray(inside, dtype=int))
            group_names.append(name)
    if not group_pos:
        raise DataError("no group overlaps the complete-case columns")
    grouped = np.concatenate(group_pos)
    if np.unique(grouped).size != grouped.size:
        raise DataError("groups overlap")
    unpenalized = np.setdiff1d(np.arange(len(lead)), grouped)

    lam_max = lambda_max_group_lasso(X, y, family, group_pos, unpenalized, opts)
    lambdas = np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambdas)

    folds = _stratified_folds(y, cv_folds, seed)
    cv_loss = np.zeros(n_lambdas)
    for f in range(cv_folds):
        tr = folds != f
        te = ~tr
        beta = None
        for i, lam in enumerate(lambdas):
            beta = fit_group_lasso_at(X[tr], y[tr], family, lam, group_pos, beta0=beta)
            theta_te = X[te] @ beta
            cv_loss[i] += -2.0 * loglik(family, theta_te, y[te])
    best = int(np.argmin(cv_loss))

    beta = None
    for lam in lambdas[: best + 1]:
        beta = fit_group_lasso_at(X, y, family, lam, group_pos, beta0=beta)
    selected_groups = [
        name
        for name, g in zip(group_names, group_pos)
        if np.linalg.norm(beta[g]) > 0
    ]
    selected_pos = sorted(
        set(unpenalized.tolist())
        | {t for name, g in zip(group_names, group_pos) if name in selected_groups for t in g}
    )
    selected_cols = [lead[t] for t in selected_pos]
    if not selected_cols:
        raise NumericalError("group lasso selected no covariates and none are unpenalized")

    refit_rows = np.flatnonzero(data.mask[:, selected_cols].all(axis=1))
    X_refit = data.x[np.ix_(refit_rows, selected_cols)]
    beta_refit, info = fit_glm(
        X_refit,
        data.y[refit_rows],
        family,
        opts,
        column_names=[data.column_names[j] for j in selected_cols],
    )

    cand = CandidateModel(
        Pattern(tuple(selected_cols)), beta_refit, int(refit_rows.size), len(selected_cols), **info
    )
    return _single_glm(
        data,
        family,
        cand,
        {
            "selected_groups": selected_groups,
            "lambda": float(lambdas[best]),
            "lambda_max": float(lam_max),
            "cv_loss": cv_loss.tolist(),
            "n_refit": cand.n_k,
        },
    )

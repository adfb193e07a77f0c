"""Comparator methods: CC, smoothed AIC/BIC, zero-imputation averaging, group lasso.

Each baseline returns an :class:`~fragma.averaging.AveragedModel` whose
coefficients are embedded into the full coefficient space, so every method
predicts through one code path.  CC and the smoothed criteria draw their
candidates from a :class:`~fragma.glm.CandidateStore` that may be shared.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .averaging import (
    AveragedModel,
    CriterionContext,
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
) -> AveragedModel:
    """Zero-imputation averaging.

    Unavailable cells are replaced by zeros; each candidate pattern's
    covariate subset is then fitted on all n subjects, and weights are
    selected by the same penalized criterion evaluated on all n subjects,
    with penalty level 2 (``opt1``) or log n (``opt2``).
    """
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    x0 = data.filled(0.0)
    n = data.n

    cands = []
    thetas = []
    for pattern in index.patterns:
        cols = list(pattern.indices)
        X = x0[:, cols]
        beta, info = fit_glm(
            X, data.y, family, opts, column_names=[data.column_names[j] for j in cols]
        )
        cands.append(CandidateModel(pattern, beta, n, pattern.size, **info))
        thetas.append(X @ beta)
    theta_matrix = np.column_stack(thetas)
    p_sizes = np.array([p.size for p in index.patterns], dtype=float)
    ctx = CriterionContext(theta_matrix, data.y, p_sizes, family)
    lam = 2.0 if lambda_mode == "opt1" else float(np.log(n))
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


def fit_group_lasso_at(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    lam: float,
    groups: list[np.ndarray],
    beta0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> np.ndarray:
    """Group-lasso GLM at a single penalty level by proximal gradient.

    Minimizes -loglik(beta) + lam * sum_g sqrt(|g|) * ||beta_g||_2, with
    coordinates outside every group unpenalized.  FISTA-style momentum
    with backtracking on the smooth part (``tol`` bounds the relative
    objective decrease at the stop), then a Newton polish on the active
    coordinates, where the objective is smooth, to pin down the
    stationarity conditions.
    """
    n, p = X.shape
    family = get_family(family)
    beta = np.zeros(p) if beta0 is None else beta0.copy()

    def smooth(b):
        theta = X @ b
        return float((np.sum(family.b(theta)) - y @ theta) / family.phi)

    def smooth_grad(b):
        theta = X @ b
        return X.T @ (family.b_prime(theta) - y) / family.phi

    def objective(b):
        return smooth(b) + _group_penalty(b, groups, lam)

    t = 1.0 / max(
        1e-12,
        float(np.max(family.b_double_prime(X @ beta)))
        * np.linalg.norm(X, 2) ** 2
        / family.phi,
    )
    z = beta.copy()
    mom = 1.0
    f_prev = objective(beta)
    # The first-order phase only needs to identify the active groups; the
    # Newton polish below is quadratically convergent once they are fixed.
    for it in range(min(max_iter, 400)):
        g = smooth_grad(z)
        fz = smooth(z)
        smooth_cand = np.inf
        for _ in range(80):
            cand = _block_soft_threshold(z - t * g, groups, t, lam)
            d = cand - z
            smooth_cand = smooth(cand)
            if smooth_cand <= fz + g @ d + (d @ d) / (2.0 * t) + 1e-12:
                break
            t *= 0.5
        beta_new = cand
        f_new = smooth_cand + _group_penalty(beta_new, groups, lam)
        # FISTA restart on non-monotone steps.
        if f_new > f_prev:
            z = beta.copy()
            mom = 1.0
            continue
        mom_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * mom**2))
        z = beta_new + (mom - 1.0) / mom_new * (beta_new - beta)
        if abs(f_prev - f_new) <= tol * max(1.0, abs(f_new)) and it > 1:
            beta = beta_new
            break
        beta, f_prev, mom = beta_new, f_new, mom_new
        t *= 1.1
    return _polish_group_lasso(X, y, family, beta, lam, groups, t, objective, smooth_grad)


def _polish_group_lasso(X, y, family, beta, lam, groups, t, objective, smooth_grad):
    """Newton refinement on the active coordinates of a group-lasso solution.

    Alternates damped Newton steps on the smooth-within-active-set
    restriction with a prox-gradient step whenever a zeroed group
    violates its subgradient bound; only objective-decreasing steps are
    accepted, so the FISTA solution is never made worse.
    """
    p = X.shape[1]
    grouped = np.zeros(p, dtype=bool)
    for g in groups:
        grouped[g] = True
    unpen = np.flatnonzero(~grouped)

    for _ in range(5):
        for _ in range(40):
            active_groups = [g for g in groups if np.linalg.norm(beta[g]) > 0]
            coords = np.concatenate([unpen] + [g for g in active_groups]) if (
                len(unpen) or active_groups
            ) else np.array([], dtype=int)
            if coords.size == 0:
                break
            coords = np.sort(coords)
            grad = smooth_grad(beta)
            pen_grad = np.zeros(p)
            theta = X @ beta
            d2 = family.b_double_prime(theta) / family.phi
            hess = X[:, coords].T @ (d2[:, None] * X[:, coords])
            pen_hess = np.zeros((coords.size, coords.size))
            pos = {j: t_ for t_, j in enumerate(coords)}
            for g in active_groups:
                norm = np.linalg.norm(beta[g])
                u = beta[g] / norm
                w = lam * np.sqrt(len(g))
                pen_grad[g] = w * u
                ii = [pos[j] for j in g]
                pen_hess[np.ix_(ii, ii)] = w * (np.eye(len(g)) - np.outer(u, u)) / norm
            total_grad = grad[coords] + pen_grad[coords]
            if np.max(np.abs(total_grad), initial=0.0) <= 1e-10:
                break
            h = hess + pen_hess + 1e-12 * np.eye(coords.size)
            try:
                step = np.linalg.solve(h, total_grad)
            except np.linalg.LinAlgError:
                break
            f_cur = objective(beta)
            a = 1.0
            accepted = False
            for _ in range(40):
                cand = beta.copy()
                cand[coords] -= a * step
                # zero out groups the step drove (numerically) through the kink
                for g in active_groups:
                    if np.linalg.norm(cand[g]) < 1e-13:
                        cand[g] = 0.0
                if objective(cand) < f_cur - 1e-16:
                    beta = cand
                    accepted = True
                    break
                a *= 0.5
            if not accepted:
                break
        # release a zeroed group only if its subgradient bound is violated
        violated = None
        grad = smooth_grad(beta)
        for g in groups:
            if np.linalg.norm(beta[g]) == 0.0:
                slack = np.linalg.norm(grad[g]) - lam * np.sqrt(len(g))
                if slack > 1e-12:
                    violated = True
        if not violated:
            break
        prox = _block_soft_threshold(beta - t * smooth_grad(beta), groups, t, lam)
        if objective(prox) < objective(beta):
            beta = prox
        else:
            break
    return beta


def group_lasso_kkt_residual(X, y, family, beta, lam, groups) -> float:
    """Largest violation of the group-lasso stationarity conditions."""
    family = get_family(family)
    grad = X.T @ (family.b_prime(X @ beta) - y) / family.phi
    resid = 0.0
    penalized = np.zeros(X.shape[1], dtype=bool)
    for g in groups:
        penalized[g] = True
        gn = np.linalg.norm(grad[g])
        w = lam * np.sqrt(len(g))
        if np.linalg.norm(beta[g]) == 0.0:
            resid = max(resid, gn - w)
        else:
            sub = grad[g] + w * beta[g] / np.linalg.norm(beta[g])
            resid = max(resid, float(np.linalg.norm(sub)))
    if (~penalized).any():
        resid = max(resid, float(np.max(np.abs(grad[~penalized]))))
    return float(resid)


def lambda_max_group_lasso(X, y, family, groups, unpenalized) -> float:
    """Smallest penalty level at which every group is zeroed."""
    family = get_family(family)
    p = X.shape[1]
    beta = np.zeros(p)
    if len(unpenalized):
        sub, _ = fit_glm(X[:, unpenalized], y, family)
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
    path_tol: float = 1e-8,
) -> AveragedModel:
    """Group-lasso selection on the complete cases, then an unpenalized refit.

    ``groups`` maps names to original column indices and should partition
    the non-intercept columns; columns in no group stay unpenalized.  The
    penalty level is chosen by ``cv_folds``-fold cross-validated deviance
    over a geometric grid below the all-zero threshold; the final model is
    an ordinary GLM refit using every subject that observes all selected
    covariates.
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

    lam_max = lambda_max_group_lasso(X, y, family, group_pos, unpenalized)
    lambdas = np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambdas)

    folds = _stratified_folds(y, cv_folds, seed)
    cv_loss = np.zeros(n_lambdas)
    for f in range(cv_folds):
        tr = folds != f
        te = ~tr
        beta = None
        for i, lam in enumerate(lambdas):
            beta = fit_group_lasso_at(
                X[tr], y[tr], family, lam, group_pos, beta0=beta, tol=path_tol
            )
            theta_te = X[te] @ beta
            cv_loss[i] += -2.0 * loglik(family, theta_te, y[te])
    best = int(np.argmin(cv_loss))

    beta = None
    for lam in lambdas[: best + 1]:
        beta = fit_group_lasso_at(X, y, family, lam, group_pos, beta0=beta, tol=path_tol)
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

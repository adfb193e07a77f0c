"""Independent oracles: deliberately naive routes used to freeze expected values.

Nothing here imports the solver code paths it checks; everything is a
direct transcription of a definition (double loops, dense grids, finite
differences, fixed-step proximal iterations).  The one exception is the
reference IRLS fit and the reference weight optimizer at the end, earlier
``fit_glm`` and ``optimize_weights`` kept verbatim so that the current ones
can be held to their bits; they share ``loglik``, ``FitOptions`` and the
families' b, b' and variance with the package.
"""

import numpy as np

from fragma.errors import RankDeficientError
from fragma.glm import FitOptions, loglik
from fragma.patterns import FragmentaryDataset


def brute_force_pattern_sets(mask):
    """All (pattern -> (T, S)) pairs by double loop over subjects and patterns."""
    n = mask.shape[0]
    d_sets = [frozenset(np.flatnonzero(mask[i]).tolist()) for i in range(n)]
    out = {}
    for pat in set(d_sets):
        t = {i for i in range(n) if d_sets[i] == pat}
        s = {i for i in range(n) if pat <= d_sets[i]}
        out[pat] = (t, s)
    return out


def zoom_grid_argmax(f, dim, lo=-8.0, hi=8.0, pts=15, rounds=16):
    """Maximize f over a box by an iteratively refined dense grid.

    ``f`` takes an (m, dim) array of points and returns m values.  Each
    round evaluates a full pts**dim grid around the incumbent and shrinks
    the box to twice the cell width, so the final resolution is about
    (hi - lo) * (2 / (pts - 1)) ** rounds.
    """
    center = np.full(dim, (lo + hi) / 2.0)
    half = np.full(dim, (hi - lo) / 2.0)
    for _ in range(rounds):
        axes = [np.linspace(c - h, c + h, pts) for c, h in zip(center, half)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        vals = f(grid)
        center = grid[int(np.argmax(vals))]
        half = half * (2.0 / (pts - 1))
    return center


def logistic_loglik_many(X, y, betas):
    """Row-wise logistic log-likelihood for an (m, p) array of coefficients."""
    theta = X @ betas.T
    return y @ theta - np.logaddexp(0.0, theta).sum(axis=0)


def logistic_mle_oracle(X, y, lo=-8.0, hi=8.0, rounds=16):
    """Brute-force logistic maximum likelihood via the zooming grid."""
    return zoom_grid_argmax(
        lambda b: logistic_loglik_many(X, y, b), X.shape[1], lo, hi, rounds=rounds
    )


def simplex_grid(K, step=0.01):
    """All weight vectors on the simplex with coordinates multiples of step."""
    m = round(1.0 / step)
    if K == 2:
        for i in range(m + 1):
            yield np.array([i, m - i], dtype=float) / m
        return
    if K == 3:
        for i in range(m + 1):
            for j in range(m - i + 1):
                yield np.array([i, j, m - i - j], dtype=float) / m
        return
    raise NotImplementedError("grid oracle implemented for K in {2, 3}")


def logistic_criterion_by_terms(theta_matrix, y, w, lam, p_sizes):
    """Remark-style logistic criterion computed probability by probability."""
    total = 0.0
    for i in range(theta_matrix.shape[0]):
        theta_i = float(theta_matrix[i] @ w)
        p_i = 1.0 / (1.0 + np.exp(-theta_i))
        total += y[i] * np.log(p_i) + (1.0 - y[i]) * np.log(1.0 - p_i)
    penalty = sum(w[k] * p_sizes[k] for k in range(len(w)))
    return -2.0 * total + lam * penalty


def bernoulli_kl2(mu, p_hat):
    """Twice the summed Bernoulli KL divergence, term by term."""
    total = 0.0
    for m, p in zip(np.atleast_1d(mu), np.atleast_1d(p_hat)):
        total += m * np.log(m / p) + (1.0 - m) * np.log((1.0 - m) / (1.0 - p))
    return 2.0 * total


def central_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for j in range(x.size):
        e = np.zeros_like(g)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def loglik_gradient(family, X, y, beta):
    """Score vector X^T (y - b'(X beta))."""
    theta = X @ beta
    return X.T @ (y - family.b_prime(theta))


def softmax_ic_weights(ic):
    """Literal exp(-IC/2) normalization (no stabilization)."""
    raw = np.exp(-0.5 * np.asarray(ic, dtype=float))
    return raw / raw.sum()


def logsumexp_ic_weights(ic):
    """exp(-IC/2) normalized by scipy's logsumexp; an infinite IC gets weight 0."""
    from scipy.special import logsumexp

    ic = np.asarray(ic, dtype=float)
    logw = np.where(np.isfinite(ic), -0.5 * ic, -np.inf)
    return np.exp(logw - logsumexp(logw))


def slow_logistic_group_lasso(X, y, lam, groups, iters=300000):
    """Fixed-step ISTA for the logistic group lasso, run to high precision.

    Independent of the package solver: no backtracking, no momentum, no
    warm starts; the step comes from the 1/4-bound on the logistic
    Hessian.
    """
    n, p = X.shape
    step = 1.0 / (0.25 * np.linalg.norm(X, 2) ** 2)
    beta = np.zeros(p)
    for _ in range(iters):
        prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (prob - y)
        z = beta - step * grad
        new = z.copy()
        for g in groups:
            norm = np.linalg.norm(z[g])
            t = step * lam * np.sqrt(len(g))
            new[g] = 0.0 if norm <= t else z[g] * (1.0 - t / norm)
        if np.max(np.abs(new - beta)) < 1e-14:
            beta = new
            break
        beta = new
    return beta


def logistic_group_lasso_objective(X, y, beta, lam, groups):
    theta = X @ beta
    nll = float(np.sum(np.logaddexp(0.0, theta)) - y @ theta)
    return nll + lam * sum(np.sqrt(len(g)) * np.linalg.norm(beta[g]) for g in groups)


def per_fold_group_lasso_cv_loss(X, y, family, lambdas, groups, folds, fit_at):
    """Cross-validated deviance of a group-lasso path, one fold at a time.

    For each fold, a warm-started path of single fits
    ``fit_at(X[tr], y[tr], family, lam, groups, beta0=...)`` on that fold's
    training rows, each level scored by -2 * loglik on the held-out rows;
    the solver is passed in, so this loop is the reference for how the
    levels, folds and warm starts fit together.
    """
    cv_loss = np.zeros(len(lambdas))
    for f in np.unique(folds):
        tr = folds != f
        te = ~tr
        beta = None
        for i, lam in enumerate(lambdas):
            beta = fit_at(X[tr], y[tr], family, lam, groups, beta0=beta)
            theta = X[te] @ beta
            cv_loss[i] += -2.0 * float(y[te] @ theta - np.sum(family.b(theta)))
    return cv_loss


def poisoned(data):
    """Copy of a dataset with its unobserved cells set to NaN."""
    x = np.where(data.mask, data.x, np.nan)
    return FragmentaryDataset(data.y.copy(), x, data.mask.copy(), list(data.column_names))


def linear_predictor(model, x_full):
    """A full-length row restricted to a candidate's pattern, dotted with its coefficients."""
    x_full = np.asarray(x_full, dtype=float)
    vals = x_full[list(model.pattern.indices)]
    if not np.all(np.isfinite(vals)):
        missing = [j for j, v in zip(model.pattern.indices, vals) if not np.isfinite(v)]
        raise ValueError(f"covariates {missing} required by the model are unobserved")
    return float(vals @ model.beta)


def project_to_simplex(v):
    """Euclidean projection onto the unit simplex (sort-based algorithm)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ks > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def pivoted_qr_rank_rule(X, column_names, tol=1e-10):
    """The design-rank rule on scipy's (LAPACK xGEQP3) pivoted QR.

    Returns None for a full-rank design, else the names of the columns
    pivoted past the rank: the pivots above ``tol`` times the first one.
    """
    import scipy.linalg

    _, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > tol * scale))
    if rank == X.shape[1]:
        return None
    return [column_names[j] for j in piv[rank:]]


# The IRLS fit and rank check as they stood before the rank check screened on
# the Gram matrix: an unpivoted-QR screen, and b''(theta) recomputed from
# theta at every iteration, and with the Fisher information as the Hessian
# and the Newton decrement as the one stop test, as the current fit has them.
# Kept as the reference the current fit must match bit for bit.

_REFERENCE_B_DOUBLE_PRIME = {
    "binomial": lambda theta: _expit(theta) * (1.0 - _expit(theta)),
    "gaussian": lambda theta: np.ones_like(np.asarray(theta, dtype=float)),
    "poisson": np.exp,
}


def _expit(t):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


_DECREMENT_EPS = 16 * np.finfo(float).eps
_PIVOT_TOL = 1e-10


def reference_check_full_rank(X, column_names=None):
    """The rank rule on an unpivoted-QR screen and a pivoted-QR fallback."""
    if X.shape[0] < X.shape[1]:
        names = list(column_names) if column_names is not None else []
        raise RankDeficientError(
            f"underdetermined design: {X.shape[0]} rows for {X.shape[1]} columns",
            columns=names,
        )
    r = np.linalg.qr(X, mode="r")
    sigma_min = np.linalg.svd(r, compute_uv=False).min(initial=np.inf)
    if sigma_min > 2 * _PIVOT_TOL * np.linalg.norm(r, axis=0).max(initial=0.0):
        return
    diag, piv = _reference_pivoted_qr(X)
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > _PIVOT_TOL * scale))
    if rank < X.shape[1]:
        bad = piv[rank:]
        names = (
            [column_names[j] for j in bad]
            if column_names is not None
            else [str(j) for j in bad]
        )
        raise RankDeficientError(
            f"rank-deficient design (rank {rank} < {X.shape[1]}); "
            f"dependent columns: {names}",
            columns=names,
        )


def _reference_pivoted_qr(X):
    a = np.array(X, dtype=float)
    p = a.shape[1]
    piv = np.arange(p)
    diag = np.zeros(p)
    for i in range(p):
        j = i + int(np.argmax(np.linalg.norm(a[i:, i:], axis=0)))
        if j != i:
            a[:, [i, j]] = a[:, [j, i]]
            piv[[i, j]] = piv[[j, i]]
        alpha, xnorm = a[i, i], np.linalg.norm(a[i + 1 :, i])
        if xnorm == 0.0:
            diag[i] = abs(alpha)
        else:
            beta = -np.copysign(np.hypot(alpha, xnorm), alpha)
            diag[i] = abs(beta)
            v = np.concatenate(([1.0], a[i + 1 :, i] / (alpha - beta)))
            rest = a[i:, i + 1 :]
            rest -= ((beta - alpha) / beta) * np.outer(v, v @ rest)
    return diag, piv


def reference_fit_glm(X, y, family, opts=None, column_names=None):
    """Fisher scoring with step halving; returns (beta, info) like ``fit_glm``."""
    b_double_prime = _REFERENCE_B_DOUBLE_PRIME[family.name]
    opts = opts or FitOptions()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    reference_check_full_rank(X, column_names)

    beta = np.zeros(p)
    theta = X @ beta
    ll = loglik(family, theta, y)
    stop = "max_iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        mu = family.b_prime(theta)
        score = X.T @ (y - mu)
        w = b_double_prime(theta)
        h = X.T @ (w[:, None] * X)
        try:
            direction = np.linalg.solve(h, score)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(h, score, rcond=None)[0]
        # the roundoff of ll is that of y @ theta and sum b(theta), which it subtracts
        floor = _DECREMENT_EPS * max(abs(y @ theta) + np.sum(family.b(theta)), 1.0)
        if score @ direction <= floor:
            beta_try = beta + direction
            theta_try = X @ beta_try
            ll_try = loglik(family, theta_try, y)
            if ll_try >= ll - floor:
                beta, theta, ll = beta_try, theta_try, ll_try
            stop = "decrement"
            break

        step = 1.0
        accepted = False
        for _ in range(30):
            beta_try = beta + step * direction
            theta_try = X @ beta_try
            ll_try = loglik(family, theta_try, y) if np.all(np.isfinite(theta_try)) else -np.inf
            if np.isfinite(ll_try) and ll_try >= ll:
                beta, theta, ll = beta_try, theta_try, ll_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop = "no_step"
            break

    info = {
        "loglik": ll,
        "converged": stop == "decrement",
        "iterations": iterations,
        "stop": stop,
    }
    return beta, info


def reference_optimize_weights(theta_matrix, y, p_sizes, family, lambda_n):
    """The simplex weight optimizer without its per-point cache.

    It evaluates G at each of the K vertices one by one and computes theta
    afresh in every criterion, gradient and Hessian.  It stops as the
    optimizer does: on the Newton decrement at roundoff (one trial, the
    clipped full step), on 60 failed halvings or a failed solve, or after
    500 directions.  Returns the starting vertex and ``(weights, criterion,
    kkt_residual, iterations, stop)``.
    """
    def criterion(w):
        theta = theta_matrix @ w
        return float(2.0 * (np.sum(family.b(theta)) - y @ theta) + lambda_n * (p_sizes @ w))

    def gradient(w):
        resid = family.b_prime(theta_matrix @ w) - y
        return 2.0 * (theta_matrix.T @ resid) + lambda_n * p_sizes

    K = theta_matrix.shape[1]
    vertices = np.eye(K)
    vals = np.array([criterion(v) for v in vertices])
    vals[~np.isfinite(vals)] = np.inf
    k = int(np.argmin(vals))
    w, f = vertices[k], float(vals[k])
    g = gradient(w)
    y_theta = y @ theta_matrix
    iters, stop = 0, "max_iter"
    while iters < 500:
        iters += 1
        face = w > 0
        g_min = float(np.min(g[face]))
        violation = np.where(face, -np.inf, g_min - g)
        j = int(np.argmax(violation))
        face[j] |= violation[j] > np.max(g[face]) - g_min
        A = np.flatnonzero(face)
        gA = g[A]
        m = A.size
        kkt_mat = np.ones((m + 1, m + 1))
        kkt_mat[m, m] = 0.0
        v = family.variance(family.b_prime(theta_matrix @ w))
        H = (2.0 * (theta_matrix.T @ (v[:, None] * theta_matrix)))[np.ix_(A, A)]
        kkt_mat[:m, :m] = H + 1e-12 * max(np.trace(H) / m, 1.0) * np.eye(m)
        try:
            d = np.linalg.solve(kkt_mat, np.append(-gA, 0.0))[:m]
        except np.linalg.LinAlgError:
            stop = "no_step"
            break
        if not np.all(np.isfinite(d)):
            stop = "no_step"
            break
        neg = d < 0
        a = min(1.0, float(np.min(-w[A][neg] / d[neg]))) if neg.any() else 1.0
        slope = float(gA @ d)
        slack = _DECREMENT_EPS * max(f + 4.0 * max(y_theta @ w, 0.0), 1.0)
        last = -slope <= slack
        accepted = False
        for _ in range(1 if last else 60):
            w_try = np.zeros(K)
            w_try[A] = np.maximum(w[A] + a * d, 0.0)
            w_try[w_try <= 1e-10] = 0.0
            w_try /= w_try.sum()
            f_try = criterion(w_try)
            if f_try <= f + 1e-4 * a * slope + slack:
                accepted = True
                break
            a *= 0.5
        if accepted:
            w, f = w_try, f_try
            g = gradient(w)
        if last or not accepted:
            stop = "decrement" if last else "no_step"
            break
    res = float(np.max(g[w > 1e-10]) - np.min(g))
    return k, (w, f, res, iters, stop)

"""Simplex-weighted combination of per-pattern GLMs.

Candidates are combined through a weight vector w on the simplex chosen to
minimize, over the complete cases, the penalized criterion

    G(w) = (2/phi) * sum_i [ b(theta_i(w)) - y_i * theta_i(w) ]
           + lambda_n * sum_k w_k * p_k,

where theta(w) stacks the per-candidate linear predictors on the
complete-case rows (so theta(w) is linear in w and G is convex).  The
minimizer is found by a primal active-set Newton method on the simplex,
which stops once the simplex KKT residual is within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .glm import CandidateModel, CandidateStore, ExponentialFamily, get_family
from .patterns import FragmentaryDataset, PatternIndex, build_pattern_index

PROB_CLAMP = 1e-12
ACTIVE_TOL = 1e-10


@dataclass
class WeightVector:
    """Nonnegative weights summing to one (renormalized on construction)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel()
        if w.size == 0:
            raise DataError("weight vector is empty")
        if np.min(w) < -1e-9:
            raise DataError(f"negative weight {np.min(w):.3e}")
        w = np.maximum(w, 0.0)
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise DataError("weights must have a positive finite sum")
        self.w = w / total

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.w, dtype=dtype)

    def __len__(self):
        return self.w.size

    def __getitem__(self, i):
        return self.w[i]


@dataclass
class CriterionContext:
    """Everything the weight criterion needs, frozen after construction.

    ``theta_matrix`` has one column per candidate: the candidate's linear
    predictor evaluated on the weighting (complete-case) rows, so that
    ``theta_matrix @ w`` is the combined predictor for any weights w.
    """

    theta_matrix: np.ndarray
    y_cc: np.ndarray
    p_sizes: np.ndarray
    family: ExponentialFamily

    def __post_init__(self):
        self.theta_matrix = np.asarray(self.theta_matrix, dtype=float)
        self.y_cc = np.asarray(self.y_cc, dtype=float)
        self.p_sizes = np.asarray(self.p_sizes, dtype=float)
        if self.theta_matrix.ndim != 2:
            raise DataError("theta_matrix must be 2-d")
        if not np.all(np.isfinite(self.theta_matrix)):
            raise NumericalError("theta_matrix contains non-finite entries")
        n, K = self.theta_matrix.shape
        if self.y_cc.shape != (n,) or self.p_sizes.shape != (K,):
            raise DataError("inconsistent criterion context shapes")

    @property
    def K(self) -> int:
        return self.theta_matrix.shape[1]

    @property
    def n_cc(self) -> int:
        return self.theta_matrix.shape[0]


def _weighting_rows(data: FragmentaryDataset, index: PatternIndex):
    """Rows of ``data`` observing the leading pattern's columns, and the columns all observe."""
    rows = np.flatnonzero(data.mask[:, list(index.patterns[0].indices)].all(axis=1))
    return rows, data.mask[rows].all(axis=0)


def build_criterion_context(
    data: FragmentaryDataset,
    index: PatternIndex,
    candidates: list[CandidateModel],
    family: ExponentialFamily,
) -> CriterionContext:
    """Per-candidate linear predictors on the weighting sample.

    The weighting sample is every subject of ``data`` observing the leading
    (maximal) pattern's columns: for an index built on ``data`` its S set,
    the complete-case sample when that pattern covers every column, and all
    subjects of a zero-imputed ``data.filled()``.  Every candidate's columns
    must be observed on those rows, otherwise its predictor is undefined
    there; for an index built on ``data`` that means every candidate
    pattern is contained in the leading one.
    """
    family = get_family(family)
    rows, observed = _weighting_rows(data, index)
    cols = []
    for cand in candidates:
        idx = list(cand.pattern.indices)
        if not observed[idx].all():
            raise DataError(
                f"candidate pattern {cand.pattern.indices} not contained in the "
                f"weighting pattern {index.patterns[0].indices}"
            )
        cols.append(data.x[np.ix_(rows, idx)] @ cand.beta)
    theta_matrix = np.column_stack(cols)
    p_sizes = np.array([c.p_k for c in candidates], dtype=float)
    return CriterionContext(theta_matrix, data.y[rows], p_sizes, family)


def criterion(ctx: CriterionContext, w, lambda_n: float) -> float:
    """Penalized complete-case criterion G(w)."""
    w = np.asarray(w, dtype=float)
    theta = ctx.theta_matrix @ w
    fam = ctx.family
    fit_term = 2.0 / fam.phi * (np.sum(fam.b(theta)) - ctx.y_cc @ theta)
    return float(fit_term + lambda_n * (ctx.p_sizes @ w))


def criterion_gradient(ctx: CriterionContext, w, lambda_n: float) -> np.ndarray:
    """Exact gradient of :func:`criterion` at w."""
    w = np.asarray(w, dtype=float)
    theta = ctx.theta_matrix @ w
    fam = ctx.family
    resid = fam.b_prime(theta) - ctx.y_cc
    return 2.0 / fam.phi * (ctx.theta_matrix.T @ resid) + lambda_n * ctx.p_sizes


def _criterion_hessian(ctx: CriterionContext, w) -> np.ndarray:
    theta = ctx.theta_matrix @ np.asarray(w, dtype=float)
    d = ctx.family.b_double_prime(theta)
    return 2.0 / ctx.family.phi * (ctx.theta_matrix.T @ (d[:, None] * ctx.theta_matrix))


def kkt_residual(w, grad) -> float:
    """Distance from the simplex first-order conditions.

    Zero iff all active (w_k > 0) gradient components equal the smallest
    gradient component, i.e. no mass can be moved to decrease the
    objective to first order.
    """
    w = np.asarray(w, dtype=float)
    grad = np.asarray(grad, dtype=float)
    active = w > ACTIVE_TOL
    return float(np.max(grad[active]) - np.min(grad))


@dataclass(frozen=True)
class OptOptions:
    """Knobs for the simplex weight optimizer."""

    max_iter: int = 500
    kkt_tol: float = 1e-7


@dataclass
class WeightFit:
    """Result of the weight optimization."""

    weights: WeightVector
    criterion_value: float
    kkt_residual: float
    converged: bool
    iterations: int


def optimize_weights(
    ctx: CriterionContext, lambda_n: float, opts: OptOptions | None = None
) -> WeightFit:
    """Minimize the criterion over the weight simplex.

    Primal active-set Newton method (Nocedal & Wright, *Numerical
    Optimization*, ch. 16) started at the best vertex.  Each iteration
    releases the most KKT-violating zero weight into the face when its
    violation exceeds the face's own gradient spread, takes a Newton step
    on the face (sum w = 1, the other weights pinned at zero), clips it at
    the nonnegativity boundary and backtracks on G.  When the Newton
    direction is unusable (non-finite, not a descent direction, or not
    moving the released weight off zero) the face-projected gradient is
    used instead.  The criterion is convex in w (b convex, theta linear in
    w), so a KKT point is a global minimum.  Every iteration counts against
    ``max_iter``; ``converged`` is true only when the KKT residual is
    within ``kkt_tol``.
    """
    opts = opts or OptOptions()
    K = ctx.K
    vertices = np.eye(K)
    vals = np.array([criterion(ctx, v, lambda_n) for v in vertices])
    vals[~np.isfinite(vals)] = np.inf
    k = int(np.argmin(vals))
    w, f = vertices[k], float(vals[k])
    if not np.isfinite(f):
        raise NumericalError("criterion is not finite at any vertex of the simplex")
    g = criterion_gradient(ctx, w, lambda_n)
    res = kkt_residual(w, g)
    iters = 0
    while res > opts.kkt_tol and iters < opts.max_iter:
        iters += 1
        face = w > 0
        g_min = float(np.min(g[face]))
        violation = np.where(face, -np.inf, g_min - g)
        j = int(np.argmax(violation))
        released = bool(violation[j] > np.max(g[face]) - g_min)
        face[j] |= released
        A = np.flatnonzero(face)
        gA = g[A]
        m = A.size
        kkt_mat = np.ones((m + 1, m + 1))
        kkt_mat[m, m] = 0.0
        H = _criterion_hessian(ctx, w)[np.ix_(A, A)]
        kkt_mat[:m, :m] = H + 1e-12 * max(np.trace(H) / m, 1.0) * np.eye(m)
        try:
            d = np.linalg.solve(kkt_mat, np.append(-gA, 0.0))[:m]
        except np.linalg.LinAlgError:
            d = np.full(m, np.nan)
        if (
            not np.all(np.isfinite(d))
            or gA @ d >= 0
            or (released and d[np.searchsorted(A, j)] <= 0)
        ):
            d = np.mean(gA) - gA
        # d sums to zero and is nonzero, so some weight decreases.
        neg = d < 0
        a = min(1.0, float(np.min(-w[A][neg] / d[neg])))
        slope = float(gA @ d)
        slack = 4.0 * np.finfo(float).eps * abs(f)
        for _ in range(60):
            w_try = np.zeros(K)
            w_try[A] = np.maximum(w[A] + a * d, 0.0)
            w_try[w_try <= ACTIVE_TOL] = 0.0
            w_try /= w_try.sum()
            f_try = criterion(ctx, w_try, lambda_n)
            if f_try <= f + 1e-4 * a * slope + slack:
                break
            a *= 0.5
        else:
            break
        w, f = w_try, f_try
        g = criterion_gradient(ctx, w, lambda_n)
        res = kkt_residual(w, g)

    return WeightFit(
        weights=WeightVector(w),
        criterion_value=f,
        kkt_residual=res,
        converged=bool(res <= opts.kkt_tol),
        iterations=iters,
    )


@dataclass
class AveragedModel:
    """Candidate set, weights and the combined coefficient vector.

    The averaged fit and every baseline return one.  ``lambda_n`` and
    ``criterion_value`` are set where a penalized criterion chose the
    weights; a ``zero_impute`` model zero-fills unobserved query cells.
    """

    candidates: list[CandidateModel]
    weights: WeightVector
    beta_combined: np.ndarray
    family: ExponentialFamily
    column_names: list[str]
    lambda_n: float | None = None
    criterion_value: float | None = None
    zero_impute: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def support(self) -> list[int]:
        """Columns that can carry nonzero combined coefficients."""
        cols = set()
        for c in self.candidates:
            cols.update(c.pattern.indices)
        return sorted(cols)

    def to_dict(self) -> dict:
        return {
            "family": self.family.name,
            "column_names": list(self.column_names),
            "lambda_n": self.lambda_n,
            "criterion_value": self.criterion_value,
            **({"zero_impute": True} if self.zero_impute else {}),
            "weights": np.asarray(self.weights).tolist(),
            "beta_combined": self.beta_combined.tolist(),
            "candidates": [c.to_dict() for c in self.candidates],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AveragedModel":
        return cls(
            candidates=[CandidateModel.from_dict(c) for c in d["candidates"]],
            weights=WeightVector(np.asarray(d["weights"], dtype=float)),
            beta_combined=np.asarray(d["beta_combined"], dtype=float),
            family=get_family(d["family"]),
            column_names=list(d["column_names"]),
            lambda_n=d.get("lambda_n"),
            criterion_value=d.get("criterion_value"),
            zero_impute=bool(d.get("zero_impute", False)),
            diagnostics=dict(d.get("diagnostics", {})),
        )


def combine_coefficients(
    candidates: list[CandidateModel], weights, p: int
) -> np.ndarray:
    """Weighted embed-and-sum of candidate coefficient vectors."""
    w = np.asarray(weights, dtype=float)
    beta = np.zeros(p)
    for wk, cand in zip(w, candidates):
        beta[list(cand.pattern.indices)] += wk * cand.beta
    return beta


def lambda_default(mode: str, n_1: int) -> float:
    """Penalty level: 2 for ``opt1``, log(n_1) for ``opt2``."""
    if n_1 < 1:
        raise ValueError("n_1 must be at least 1")
    if mode == "opt1":
        return 2.0
    if mode == "opt2":
        return float(np.log(n_1))
    raise DataError(f"unknown lambda mode {mode!r}; choose 'opt1' or 'opt2'")


def resolve_lambda(lambda_n, n_1: int) -> float:
    """Accept a nonnegative float or one of the named modes; anything else is a DataError."""
    if isinstance(lambda_n, str):
        return lambda_default(lambda_n, n_1)
    value = float(lambda_n)
    if not 0 <= value < np.inf:
        raise DataError(f"lambda_n must be a nonnegative finite number, got {value!r}")
    return value


def fit_averaged(
    data: FragmentaryDataset,
    family,
    lambda_n="opt1",
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Full pipeline: pattern index, per-pattern fits, weight selection.

    ``lambda_n`` may be a float or the mode strings ``"opt1"`` (2) /
    ``"opt2"`` (log of the weighting sample size); it is resolved before
    any candidate is fitted.  A precomputed ``index`` may be supplied.  A
    shared ``store`` (which then supplies the fit options) shares
    candidate fits across penalty settings, sub-pattern refits and
    baselines.  The weighting rows are the subjects of ``data`` observing
    the leading pattern's columns; a candidate whose columns some
    weighting row does not observe is dropped and listed in
    ``diagnostics["dropped_candidates"]``.  For an index built on ``data``
    these are the candidates not contained in the leading pattern; on a
    zero-imputed ``data.filled()`` none is dropped.
    """
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    rows, observed = _weighting_rows(data, index)
    lam = resolve_lambda(lambda_n, rows.size)
    candidates = (store or CandidateStore(data, family)).fit_all(index)

    keep = [bool(observed[list(c.pattern.indices)].all()) for c in candidates]
    usable = [c for c, k in zip(candidates, keep) if k]
    dropped = [list(c.pattern.indices) for c, k in zip(candidates, keep) if not k]
    if not usable:
        raise NumericalError("no usable candidate model")

    ctx = build_criterion_context(data, index, usable, family)
    wfit = optimize_weights(ctx, lam)
    beta = combine_coefficients(usable, wfit.weights, data.p)
    return AveragedModel(
        candidates=usable,
        weights=wfit.weights,
        beta_combined=beta,
        lambda_n=lam,
        criterion_value=wfit.criterion_value,
        family=family,
        column_names=list(data.column_names),
        diagnostics={
            "n_weighting": ctx.n_cc,
            "kkt_residual": wfit.kkt_residual,
            "optimizer_converged": wfit.converged,
            "optimizer_iterations": wfit.iterations,
            "K": index.K,
            "weighting_pattern_is_full": index.full_first,
            "dropped_candidates": dropped,
        },
    )


def predict(model: AveragedModel, x):
    """Prediction for one query row (length p) or an (m, p) block of rows.

    Rows must observe the model's support (NaN marks unobserved) unless
    the model zero-imputes.  Returns ``(theta_hat, mean_hat)``, mean =
    b'(theta): floats for a row, arrays for a block.
    """
    x = np.asarray(x, dtype=float)
    if model.zero_impute:
        x = np.where(np.isfinite(x), x, 0.0)
    support = model.support
    vals = x[..., support]
    unobserved = ~np.isfinite(vals).reshape(-1, len(support)).all(axis=0)
    if unobserved.any():
        names = [model.column_names[j] for j in np.asarray(support)[unobserved]]
        raise ValueError(f"required covariates unobserved in query: {names}")
    theta = vals @ model.beta_combined[support]
    mean = model.family.b_prime(theta)
    if theta.ndim == 0:
        return float(theta), float(mean)
    return theta, mean


def predict_for_pattern(
    data: FragmentaryDataset,
    family,
    lambda_n,
    x_star,
    store: CandidateStore | None = None,
):
    """Predict for a query observing only a sub-pattern of the columns.

    The query pattern is read off the finite entries of ``x_star``
    (length p, NaN marking unobserved).  The data are indexed through
    those columns (only patterns contained in the query pattern survive),
    weights are reselected on that index's complete cases, and the query
    is scored; candidates come from ``store`` when given.  Returns
    ``(theta, mean, model)``, the model in the data's own column numbers.
    When the query observes everything this reduces to the unrestricted
    pipeline.
    """
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (data.p,):
        raise DataError(f"query vector must have length {data.p}")
    observed = np.flatnonzero(np.isfinite(x_star))
    if observed.size == 0:
        raise DataError("query observes no covariate")
    index = build_pattern_index(data, columns=observed)
    model = fit_averaged(data, family, lambda_n, index=index, store=store)
    theta, mean = predict(model, x_star)
    return theta, mean, model


def kl_loss(theta_hat, theta_true_or_mu, family, per_obs: bool = False) -> float:
    """Twice the summed KL divergence between true and fitted distributions.

    The second argument is the true mean vector (for the gaussian family
    the mean and the canonical parameter coincide, so the true theta is
    accepted unchanged).  Binomial means are clamped to
    ``[1e-12, 1 - 1e-12]`` before taking the canonical link, so a true
    mean of 0 or 1 gives a finite loss.

    With ``per_obs=True`` the value is divided by the number of
    observations (the per-observation evaluation metric).
    """
    family = get_family(family)
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    mu = np.atleast_1d(np.asarray(theta_true_or_mu, dtype=float))
    if th.shape != mu.shape:
        raise ValueError("theta_hat and the true mean must have equal length")
    if family.name == "binomial":
        mu = np.clip(mu, PROB_CLAMP, 1.0 - PROB_CLAMP)
    theta0 = family.theta_from_mean(mu)
    val = 2.0 / family.phi * np.sum(family.b(th) - family.b(theta0) - mu * (th - theta0))
    if per_obs:
        val /= th.size
    return float(val)

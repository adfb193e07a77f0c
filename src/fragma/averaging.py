"""Simplex-weighted combination of per-pattern GLMs.

Candidates are combined through a weight vector w on the simplex chosen to
minimize, over the complete cases, the penalized criterion

    G(w) = 2 * sum_i [ b(theta_i(w)) - y_i * theta_i(w) ]
           + lambda_n * sum_k w_k * p_k,

where theta(w) stacks the per-candidate linear predictors on the
complete-case rows (so theta(w) is linear in w and G is convex).  The
minimizer is found by a primal active-set Newton method on the simplex,
which stops once the simplex KKT residual is within tolerance.

:func:`score_rows` scores query rows one availability-pattern group at a
time, by the model itself or by weights refitted on the group's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .glm import BOOLEAN, FAMILIES, NUMBER, NUMBERS, REQUIRED, Kind, get_family, read_record
from .glm import CandidateModel, CandidateStore, ExponentialFamily, roundoff
from .patterns import FragmentaryDataset, PatternIndex, build_pattern_index, split_rows_by_pattern

ACTIVE_TOL = 1e-10


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
    fit_term = 2.0 * (np.sum(fam.b(theta)) - ctx.y_cc @ theta)
    return float(fit_term + lambda_n * (ctx.p_sizes @ w))


def criterion_gradient(ctx: CriterionContext, w, lambda_n: float) -> np.ndarray:
    """Exact gradient of :func:`criterion` at w."""
    w = np.asarray(w, dtype=float)
    theta = ctx.theta_matrix @ w
    fam = ctx.family
    resid = fam.b_prime(theta) - ctx.y_cc
    return 2.0 * (ctx.theta_matrix.T @ resid) + lambda_n * ctx.p_sizes


def _criterion_hessian(ctx: CriterionContext, w) -> np.ndarray:
    theta = ctx.theta_matrix @ np.asarray(w, dtype=float)
    d = ctx.family.variance(ctx.family.b_prime(theta))
    return 2.0 * (ctx.theta_matrix.T @ (d[:, None] * ctx.theta_matrix))


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


# Iteration budget and KKT tolerance of the simplex weight optimizer.
_OPT_MAX_ITER = 500
_KKT_TOL = 1e-7


@dataclass
class WeightFit:
    """Result of the weight optimization."""

    weights: np.ndarray
    criterion_value: float
    kkt_residual: float
    converged: bool
    iterations: int
    stop: str  # "kkt", "max_iter" or "no_step"


def optimize_weights(ctx: CriterionContext, lambda_n: float) -> WeightFit:
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
    the budget of ``_OPT_MAX_ITER`` (500); ``converged`` is true only when
    the KKT residual is within ``_KKT_TOL`` (1e-7).  ``stop`` names why the
    loop ended: ``kkt`` (the residual is within tolerance), ``max_iter``
    (the budget is spent) or ``no_step`` (60 backtracking halvings found no
    sufficient decrease, up to :func:`~fragma.glm.roundoff` of G's terms).
    """
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
    y_theta = ctx.y_cc @ ctx.theta_matrix  # b >= 0: G's terms sum to f + 4 max(y_theta @ w, 0)
    iters = 0
    stop = "kkt"
    while res > _KKT_TOL:
        if iters >= _OPT_MAX_ITER:
            stop = "max_iter"
            break
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
        slack = roundoff(f + 4.0 * max(y_theta @ w, 0.0))
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
            stop = "no_step"
            break
        w, f = w_try, f_try
        g = criterion_gradient(ctx, w, lambda_n)
        res = kkt_residual(w, g)

    return WeightFit(
        weights=w,
        criterion_value=f,
        kkt_residual=res,
        converged=bool(res <= _KKT_TOL),
        iterations=iters,
        stop=stop,
    )


_FAMILY = Kind(f"one of {sorted(FAMILIES)}", lambda v: v in sorted(FAMILIES), get_family)
_NAMES = Kind("a list of distinct strings", lambda v: isinstance(v, list)
              and all(isinstance(c, str) for c in v) and len(set(v)) == len(v))
_LAMBDA = Kind("null or a nonnegative finite number",
               lambda v: v is None or NUMBER.test(v) and 0 <= v < np.inf)
_OBJECT = Kind("an object", lambda v: isinstance(v, dict), dict)  # read as a copy
_RECORDS = Kind("a list of objects", lambda v: isinstance(v, list) and all(map(_OBJECT.test, v)))


@dataclass
class AveragedModel:
    """Candidate set and simplex weights; ``beta_combined`` is derived from them.

    The averaged fit and every baseline return one.  The weights are one
    nonnegative number per candidate summing to one within 1e-12, never
    clipped or renormalized; anything else is a DataError.  ``lambda_n`` and
    ``criterion_value`` are set where a penalized criterion chose the
    weights; a ``zero_impute`` model zero-fills unobserved query cells.
    """

    candidates: list[CandidateModel]
    weights: np.ndarray
    family: ExponentialFamily
    column_names: list[str]
    lambda_n: float | None = None
    criterion_value: float | None = None
    zero_impute: bool = False
    diagnostics: dict = field(default_factory=dict)
    beta_combined: np.ndarray = field(init=False)

    def __post_init__(self):
        w = self.weights = np.asarray(self.weights, dtype=float)
        K = len(self.candidates)
        if w.shape != (K,):
            raise DataError(f"{w.size} weights for {K} candidates")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise DataError(
                f"weights off the simplex: minimum {w.min(initial=np.inf):.3g}, sum {w.sum():.17g}"
            )
        self.beta_combined = combine_coefficients(self.candidates, w, len(self.column_names))

    @property
    def support(self) -> list[int]:
        """Columns that can carry nonzero combined coefficients."""
        cols = set()
        for c in self.candidates:
            cols.update(c.pattern.indices)
        return sorted(cols)

    LAYOUT = {  # the keys of to_dict, in order
        "family": (_FAMILY, REQUIRED),
        "column_names": (_NAMES, REQUIRED),
        "lambda_n": (_LAMBDA, None),
        "criterion_value": (Kind("null or a number", lambda v: v is None or NUMBER.test(v)), None),
        "zero_impute": (BOOLEAN, False),
        "weights": (NUMBERS, REQUIRED),
        "beta_combined": (NUMBERS, REQUIRED),
        "candidates": (_RECORDS, REQUIRED),
        "diagnostics": (_OBJECT, {}),
    }

    def to_dict(self) -> dict:
        return {
            "family": self.family.name,
            "column_names": list(self.column_names),
            "lambda_n": self.lambda_n,
            "criterion_value": self.criterion_value,
            **({"zero_impute": True} if self.zero_impute else {}),
            "weights": self.weights.tolist(),
            "beta_combined": self.beta_combined.tolist(),
            "candidates": [c.to_dict() for c in self.candidates],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d) -> "AveragedModel":
        """The model :meth:`to_dict` wrote; a malformed or inconsistent one is a DataError."""
        r = read_record(d, cls.LAYOUT)
        candidates = []
        for k, c in enumerate(r.pop("candidates")):
            try:
                candidates.append(CandidateModel.from_dict(c))
            except DataError as exc:
                raise DataError(f"candidate {k}: {exc}") from exc
        p = len(r["column_names"])
        outside = sorted({j for c in candidates for j in c.pattern.indices if not 0 <= j < p})
        if outside:
            raise DataError(f"candidate columns {outside} outside 0..{p - 1}")
        saved = r.pop("beta_combined")
        model = cls(candidates=candidates, **r)
        if saved.shape != (p,):
            raise DataError(f"{saved.size} beta_combined entries for {p} columns")
        # Every model the program writes combines its candidates this way,
        # and JSON floats round-trip exactly.
        expected = model.beta_combined
        gap = np.max(np.abs(saved - expected), initial=0.0)
        if not gap <= 1e-12 * max(1.0, np.max(np.abs(expected), initial=0.0)):
            raise DataError(f"beta_combined differs from the weighted candidates by {gap:.3g}")
        return model


def combine_coefficients(
    candidates: list[CandidateModel], weights, p: int
) -> np.ndarray:
    """Weighted embed-and-sum of candidate coefficient vectors."""
    w = np.asarray(weights, dtype=float)
    beta = np.zeros(p)
    for wk, cand in zip(w, candidates):
        beta[list(cand.pattern.indices)] += wk * cand.beta
    return beta


def resolve_lambda(lambda_n, n_1: int) -> float:
    """Penalty level: 2 for ``opt1``, log(n_1) for ``opt2``, else a nonnegative float.

    An unknown mode or any other value (a bool, None or a string of a
    number included) is a DataError.
    """
    if isinstance(lambda_n, str):
        if n_1 < 1:
            raise ValueError("n_1 must be at least 1")
        if lambda_n == "opt1":
            return 2.0
        if lambda_n == "opt2":
            return float(np.log(n_1))
        raise DataError(f"unknown lambda mode {lambda_n!r}; choose 'opt1' or 'opt2'")
    # a bool is an int, so it is excluded by name; np.bool_ is no numpy number
    number = isinstance(lambda_n, (int, float, np.integer, np.floating))
    if isinstance(lambda_n, bool) or not (number and 0 <= lambda_n < np.inf):
        raise DataError(f"lambda_n must be a nonnegative finite number, got {lambda_n!r:.40}")
    return float(lambda_n)


def fit_averaged(store: CandidateStore, lambda_n="opt1", columns=None) -> AveragedModel:
    """Full pipeline: pattern index, per-pattern fits, weight selection.

    ``lambda_n`` may be a float or the mode strings ``"opt1"`` (2) /
    ``"opt2"`` (log of the weighting sample size); it is resolved before
    any candidate is fitted.  The patterns are ``store.index``, or with
    ``columns`` those of ``store.data`` seen through those columns.  The
    candidates come from ``store``, so they are shared across penalty
    settings, sub-pattern refits and baselines.  The weighting rows are the
    subjects of ``store.data`` observing the leading pattern's columns; a
    candidate whose columns some weighting row does not observe is dropped
    before any fit, never fitted, and listed in
    ``diagnostics["dropped_candidates"]``.  For an index built on the
    store's data these are the candidates not contained in the leading
    pattern; on a zero-imputed ``store.filled()`` none is dropped.
    """
    data, family = store.data, store.family
    index = store.index if columns is None else build_pattern_index(data, columns=columns)
    rows, observed = _weighting_rows(data, index)
    lam = resolve_lambda(lambda_n, rows.size)
    keep = [bool(observed[list(pattern.indices)].all()) for pattern in index.patterns]
    usable = [store.fit(pattern) for pattern, k in zip(index.patterns, keep) if k]
    dropped = [list(pattern.indices) for pattern, k in zip(index.patterns, keep) if not k]

    ctx = build_criterion_context(data, index, usable, family)
    wfit = optimize_weights(ctx, lam)
    return AveragedModel(
        candidates=usable,
        weights=wfit.weights,
        lambda_n=lam,
        criterion_value=wfit.criterion_value,
        family=family,
        column_names=list(data.column_names),
        diagnostics={
            "n_weighting": ctx.n_cc,
            "kkt_residual": wfit.kkt_residual,
            "optimizer_converged": wfit.converged,
            "optimizer_iterations": wfit.iterations,
            "optimizer_stop": wfit.stop,
            "K": index.K,
            "weighting_pattern_is_full": index.full_first,
            "dropped_candidates": dropped,
        },
    )


def predict(model: AveragedModel, x):
    """Prediction for one query row (length p) or an (m, p) block of rows.

    Rows must have one entry per model column and observe the model's
    support (NaN marks unobserved), unless the model zero-imputes, or the
    query is a DataError.  Returns ``(theta_hat, mean_hat)``, mean =
    b'(theta): floats for a row, arrays for a block.  A row scores the same
    bits alone as anywhere in any block.
    """
    x = _query_rows(model, x)
    if model.zero_impute:
        x = np.where(np.isfinite(x), x, 0.0)
    support = model.support
    vals = x[..., support]
    unobserved = ~np.isfinite(vals).reshape(-1, len(support)).all(axis=0)
    if unobserved.any():
        names = [model.column_names[j] for j in np.asarray(support)[unobserved]]
        raise DataError(f"required covariates unobserved in query: {names}")
    # einsum reduces each C-ordered row in its own inner loop, whose order
    # depends on the row's length alone; a BLAS matrix-vector product rounds
    # a row by its position in the block.
    theta = np.einsum("...j,j->...", np.ascontiguousarray(vals), model.beta_combined[support])
    mean = model.family.b_prime(theta)
    if theta.ndim == 0:
        return float(theta), float(mean)
    return theta, mean


def _query_rows(model: AveragedModel, x) -> np.ndarray:
    """``x`` as floats; rows of another width than the model's columns are a DataError."""
    x = np.asarray(x, dtype=float)
    width, p = (x.shape[-1] if x.ndim else None), len(model.column_names)
    if width != p:
        raise DataError(f"query rows of width {width} for a model of {p} columns")
    return x


def predict_for_pattern(store: CandidateStore, lambda_n, x_star):
    """Predict for query rows observing only a sub-pattern of the columns.

    ``x_star`` is one query row (length p) or an (m, p) block whose rows
    all observe the same columns, NaN marking unobserved (rows that differ
    are a DataError).  The store's data are indexed through those columns
    (only patterns contained in the query pattern survive), weights are
    reselected on that index's complete cases from the store's candidates,
    and the query is scored.  Returns ``(theta, mean, model)``, theta and
    mean as :func:`predict` returns them, the model in the data's own
    column numbers.  When the query observes everything this reduces to
    the unrestricted pipeline.
    """
    data = store.data
    x_star = np.asarray(x_star, dtype=float)
    finite = np.isfinite(np.atleast_2d(x_star))
    if x_star.ndim > 2 or finite.shape[1:] != (data.p,) or finite.size == 0:
        raise DataError(f"query must be a row of length {data.p} or a block of such rows")
    if (finite != finite[0]).any():
        raise DataError("query rows observe different columns")
    observed = np.flatnonzero(finite[0])
    if observed.size == 0:
        raise DataError("query observes no covariate")
    model = fit_averaged(store, lambda_n, columns=observed)
    theta, mean = predict(model, x_star)
    return theta, mean, model


def score_rows(model: AveragedModel, x, load_store):
    """Score query rows (NaN = unobserved) one availability-pattern group at a time.

    Rule: ``zero-imputed`` for a zero-filling model; ``full`` if no penalty
    chose the weights or the group observes the leading candidate; else
    ``restricted``: one :func:`predict_for_pattern` call on the group's
    rows, from the training store that ``load_store()`` returns (None:
    there is none).  ``load_store`` is called only while a restricted group
    has no store, and an exception it raises ends the scoring, as does a
    query whose rows are not as wide as the model's columns (a DataError).
    Returns theta (NaN where a group failed) and per group ``(rows, rule,
    error)``.
    """
    x = _query_rows(model, x)
    observed = np.isfinite(x)
    lead = list(model.candidates[0].pattern.indices)
    theta = np.full(x.shape[0], np.nan)
    scored = []
    store = None
    for rows in split_rows_by_pattern(observed):
        rule, error = "full", None
        if model.zero_impute:
            rule = "zero-imputed"
        elif model.lambda_n is not None and not observed[rows[0], lead].all():
            rule = "restricted"
            if store is None:
                store = load_store()
        try:
            if rule != "restricted":
                theta[rows] = predict(model, x[rows])[0]
            elif store is None:
                raise DataError(
                    f"query row {rows[0] + 1} observes only a sub-pattern; "
                    "re-fitting needs the training data"
                )
            else:
                theta[rows] = predict_for_pattern(store, model.lambda_n, x[rows])[0]
        except (ValueError, NumericalError) as exc:
            # without the traceback, whose frames hold ``scored`` and so
            # this exception: that cycle would wait for a full collection
            error = exc.with_traceback(None)
        scored.append((rows, rule, error))
    return theta, scored


def kl_loss(theta_hat, theta_true_or_mu, family, per_obs: bool = False) -> float:
    """Twice the summed KL divergence between true and fitted distributions.

    The second argument is the true mean vector (for the gaussian family
    the mean and the canonical parameter coincide, so the true theta is
    accepted unchanged).  Each term is b(theta_hat) - b(theta0) -
    mu * (theta_hat - theta0) at the canonical link theta0 of the true
    mean.  A true mean on the edge of the family's support (binomial 0 or
    1, poisson 0) has theta0 = +-inf and b(theta0) - mu * theta0 -> 0, so
    its term is the limit b(theta_hat) - mu * theta_hat; a mean outside the
    support gives NaN.  Against a response, the loss is the deviance.

    With ``per_obs=True`` the value is divided by the number of
    observations (the per-observation evaluation metric).
    """
    family = get_family(family)
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    mu = np.atleast_1d(np.asarray(theta_true_or_mu, dtype=float))
    if th.shape != mu.shape:
        raise ValueError("theta_hat and the true mean must have equal length")
    with np.errstate(divide="ignore"):
        theta0 = family.theta_from_mean(mu)
    edge = np.isinf(theta0)
    gap = np.where(edge, th, th - theta0)
    val = 2.0 * np.sum(family.b(th) - np.where(edge, 0.0, family.b(theta0)) - mu * gap)
    if per_obs:
        val /= th.size
    return float(val)

"""Comparator methods: CC, smoothed AIC/BIC, zero-imputation averaging, group lasso.

Each baseline returns an :class:`~fragma.averaging.AveragedModel` whose
coefficients are embedded into the full coefficient space, so every method
predicts through one code path.  CC and the smoothed criteria draw their
candidates from a :class:`~fragma.glm.CandidateStore` that may be shared;
imp1 and imp2 from its zero-imputed ``filled()`` store, and the group
lasso's refit too.  The group lasso is solved by one active-set Newton
loop, which takes a batch of problems: its cross-validated path solves
every fold of a penalty level in one call, on a coordinate layout where
every group is a contiguous block.

:func:`fit_method` is the one map from a name in :data:`ALL_METHODS` to its
fit; ``compare``, the simulation study and the demos all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .averaging import AveragedModel, WeightVector, combine_coefficients, fit_averaged
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
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Single GLM on the complete cases: identical to candidate model 1."""
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    return _single_glm(data, family, (store or CandidateStore(data, family)).fit(index.patterns[0]))


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
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Candidate averaging with smoothed AIC/BIC weights.

    Each candidate's information criterion uses the log-likelihood
    maximized on its own fitting sample; because larger subject sets
    produce larger absolute deviances, the weights concentrate on the
    candidate with the most covariates and the smallest sample.
    """
    if flavor not in ("aic", "bic"):
        raise ValueError(f"flavor must be 'aic' or 'bic', got {flavor!r}")
    family = get_family(family)
    if index is None:
        index = build_pattern_index(data)
    candidates = (store or CandidateStore(data, family)).fit_all(index)

    p_sizes = np.array([c.p_k for c in candidates], dtype=float)
    ll = np.array([c.loglik for c in candidates])
    pen = 2.0 if flavor == "aic" else np.log([c.n_k for c in candidates])
    ic = -2.0 * ll + pen * p_sizes

    w = smoothed_ic_weights(ic)
    return AveragedModel(
        candidates=candidates,
        weights=WeightVector(w),
        beta_combined=combine_coefficients(candidates, w, data.p),
        family=family,
        column_names=list(data.column_names),
        diagnostics={"ic": ic.tolist()},
    )


def fit_imp(
    data: FragmentaryDataset,
    family,
    lambda_mode="opt1",
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Zero-imputation averaging: :func:`~fragma.averaging.fit_averaged` on ``data.filled()``.

    Unavailable cells are replaced by zeros, so every candidate pattern of
    ``index`` (built on ``data``) is fitted, and the weights are selected,
    on all n subjects: no candidate is dropped, and ``opt2`` means log n.
    The candidates come from ``store.filled()`` (``store`` is on ``data``),
    which imp1 and imp2 share.  The model zero-fills unobserved query cells.
    """
    if index is None:
        index = build_pattern_index(data)
    filled = (store or CandidateStore(data, family)).filled()
    model = fit_averaged(filled.data, family, lambda_mode, index=index, store=filled)
    return replace(model, zero_impute=True)


# ---------------------------------------------------------------------------
# Group lasso
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Blocks:
    """Coordinates permuted so that each group is one contiguous slice.

    ``order`` lists the ``u`` unpenalized coordinates first, in their
    original order, then each group's coordinates; in that layout group g
    is the slice starting at ``u + starts[g]``, of length ``sizes[g]``.
    Group-wise sums are then one ``np.add.reduceat`` and per-group values
    reach their coordinates by one ``np.repeat``.  Every method takes and
    returns full-width (F, p) arrays in this layout.
    """

    order: np.ndarray
    u: int
    starts: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, p: int, groups) -> "_Blocks":
        grouped = np.concatenate(groups).astype(int)
        penalized = np.zeros(p, dtype=bool)
        penalized[grouped] = True
        unpen = np.flatnonzero(~penalized)
        sizes = np.fromiter(map(len, groups), dtype=int, count=len(groups))
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return cls(np.concatenate([unpen, grouped]), unpen.size, starts, sizes)

    def sums(self, V: np.ndarray) -> np.ndarray:
        """Sum over every group of every row of ``V``, shape (F, G)."""
        return np.add.reduceat(V[:, self.u :], self.starts, axis=1)

    def norms(self, B: np.ndarray) -> np.ndarray:
        """Euclidean norm of every group of every row of ``B``, shape (F, G)."""
        return np.sqrt(self.sums(np.square(B)))

    def spread(self, V: np.ndarray, fill=0.0) -> np.ndarray:
        """Per-group values (F, G) repeated onto their coordinates, ``fill`` elsewhere."""
        head = np.full((V.shape[0], self.u), fill, dtype=V.dtype)
        return np.concatenate([head, np.repeat(V, self.sizes, axis=1)], axis=1)


def _kkt_parts(grad, B, norm, blocks: _Blocks, w) -> tuple[np.ndarray, np.ndarray]:
    """KKT residual on the active coordinates and the largest zero-group violation.

    Both for each row of the block-layout coefficients ``B`` (F, p), whose
    group norms are ``norm``; ``w`` holds each group's penalty weight
    ``lam * sqrt(|g|)``.  The active coordinates are the unpenalized ones
    and the nonzero groups, where the objective is differentiable; a zero
    group violates its subgradient bound by ``||grad_g|| - w_g`` when that
    is positive.
    """
    nonzero = norm > 0.0
    scale = np.divide(w, norm, out=np.zeros_like(norm), where=nonzero)
    active_grad = blocks.norms(grad + blocks.spread(scale) * B)
    active = np.maximum(
        np.abs(grad[:, : blocks.u]).max(axis=1, initial=0.0),
        np.where(nonzero, active_grad, 0.0).max(axis=1, initial=0.0),
    )
    violation = np.where(nonzero, 0.0, blocks.norms(grad) - w).max(axis=1, initial=0.0)
    return active, violation


def fit_group_lasso_at(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    lam: float,
    groups: list[np.ndarray],
    beta0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Group-lasso GLMs at one penalty level by an active-set Newton method.

    Minimizes -loglik(beta) + lam * sum_g sqrt(|g|) * ||beta_g||_2 (Meier,
    van de Geer and Bühlmann 2008), with coordinates outside every group
    unpenalized, starting from ``beta0`` (zero by default).  With ``rows``,
    an (n, F) boolean mask, it solves F problems at once, problem f on the
    rows of ``X`` marked in column f (the training rows of a CV fold), and
    takes and returns (F, p) coefficients; without it, the single problem
    on every row, with (p,) coefficients.  The coordinates are permuted
    once so that every group is a contiguous block, and the loss, gradient
    and Hessian of all F problems come from the full ``X`` weighted by the
    mask, so no rows are copied.

    Each iteration compares, for every problem, the KKT residual on the
    active coordinates (the unpenalized ones and the nonzero groups, where
    the objective is smooth) with the largest violation of a zero group's
    subgradient bound.  When the active residual is the larger, the problem
    takes a damped Newton step on its active coordinates, setting to zero
    every group the step drives through the kink at the origin; otherwise
    it takes one backtracked proximal-gradient step, which releases the
    violating group.  Each problem's step is accepted under its own Armijo
    test, on the gradient's first-order change plus the exact penalty
    change, with a roundoff slack of 4 eps (|loss| + penalty): the loss
    and the penalty can cancel, so 4 eps |f| can fall below the roundoff
    of evaluating them.  A problem stops, and is frozen, when both its
    residuals are within ``tol`` (see :func:`group_lasso_kkt_residual`),
    when its last step decreased neither the objective beyond roundoff nor
    the residual, or when no step is accepted; all problems share the
    budget of ``max_iter`` iterations.
    """
    family = get_family(family)
    n, p = X.shape
    blocks = _Blocks.of(p, groups)
    w = lam * np.sqrt(blocks.sizes)
    mask = np.ones((1, n), dtype=bool) if rows is None else np.asarray(rows, dtype=bool).T
    F = mask.shape[0]
    Xb = X[:, blocks.order]
    B = np.zeros((F, p)) if beta0 is None else np.reshape(beta0, (F, p))[:, blocks.order]
    seg = blocks.spread(np.arange(blocks.sizes.size)[None, :], fill=-1)[0]
    same_group = seg[:, None] == seg[None, :]
    diag = np.arange(p)
    spectral = None  # ||X_f||_2^2 of each problem, on the first proximal step

    def loss_of(B):
        theta = B @ Xb.T
        return np.sum(np.where(mask, family.b(theta) - y * theta, 0.0), axis=1) / family.phi

    loss, pen = loss_of(B), blocks.norms(B) @ w
    roundoff = 4.0 * np.finfo(float).eps
    done = np.zeros(F, dtype=bool)
    stalled = np.zeros(F, dtype=bool)
    res_before = np.full(F, np.inf)
    for _ in range(max_iter):
        theta = B @ Xb.T
        grad = np.where(mask, family.b_prime(theta) - y, 0.0) @ Xb / family.phi
        norm = blocks.norms(B)
        res_active, violation = _kkt_parts(grad, B, norm, blocks, w)
        res = np.maximum(res_active, violation)
        done |= (res <= tol) | (stalled & (res >= res_before))
        if done.all():
            break
        nonzero = norm > 0.0
        newton = ~done & (res_active >= violation)

        # Newton direction on each Newton problem's active coordinates; the
        # inactive ones get an identity row and a zero right-hand side, so d = 0.
        D = np.zeros((F, p))
        nidx = np.flatnonzero(newton)
        if nidx.size:
            active = blocks.spread(nonzero[nidx], fill=True)
            inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=nonzero)[nidx]
            coef = blocks.spread(w * inv)
            unit = blocks.spread(inv) * B[nidx]
            weight = np.where(mask[nidx], family.b_double_prime(theta[nidx]), 0.0) / family.phi
            # loss Hessian plus the penalty's block-diagonal w_g (I - u u^T) / ||beta_g||
            hess = Xb.T @ (weight[:, :, None] * Xb)
            hess -= coef[:, :, None] * unit[:, :, None] * unit[:, None, :] * same_group
            hess = np.where(active[:, :, None] & active[:, None, :], hess, 0.0)
            hess[:, diag, diag] += np.where(active, coef + 1e-12, 1.0)
            rhs = np.where(active, grad[nidx] + coef * B[nidx], 0.0)[:, :, None]
            try:
                D[nidx] = -np.linalg.solve(hess, rhs)[:, :, 0]
            except np.linalg.LinAlgError:
                # a singular system stops its own problem only
                for k, i in enumerate(nidx):
                    try:
                        D[i] = -np.linalg.solve(hess[k], rhs[k, :, 0])
                    except np.linalg.LinAlgError:
                        done[i] = True
                newton &= ~done
        prox = ~done & ~newton
        if prox.any():
            if spectral is None:
                spectral = np.linalg.eigvalsh(Xb.T @ (mask[:, :, None] * Xb))[:, -1]
            curvature = np.max(np.where(mask, family.b_double_prime(theta), 0.0), axis=1)
            t = family.phi / np.maximum(1e-12, curvature * spectral)

        def trial(a):
            out = B + a[:, None] * D
            # a group the Newton step drives through the origin is set to zero
            through = nonzero & (blocks.sums(out * B) <= 0.0)
            out = np.where(blocks.spread(through, fill=False), 0.0, out)
            if prox.any():
                step = a * t
                z = B - step[:, None] * grad
                thresh = step[:, None] * w
                znorm = blocks.norms(z)
                keep = znorm > thresh
                shrink = np.where(keep, 1.0 - thresh / np.where(keep, znorm, 1.0), 0.0)
                out = np.where(prox[:, None], z * blocks.spread(shrink, fill=1.0), out)
            return out

        # the roundoff of f is that of its larger part, even where they cancel
        f = loss + pen
        slack = roundoff * (np.abs(loss) + pen)
        a = np.ones(F)
        searching = ~done
        B_new, loss_new, pen_new = B.copy(), loss.copy(), pen.copy()
        for _ in range(60):
            cand = trial(a)
            loss_try, pen_try = loss_of(cand), blocks.norms(cand) @ w
            decrease = np.sum(grad * (cand - B), axis=1) + pen_try - pen
            ok = searching & (loss_try + pen_try <= f + 1e-4 * decrease + slack)
            B_new[ok], loss_new[ok], pen_new[ok] = cand[ok], loss_try[ok], pen_try[ok]
            searching &= ~ok
            if not searching.any():
                break
            a = np.where(searching, 0.5 * a, a)
        moved = ~done & ~searching
        done |= searching
        stalled = np.where(moved, loss_new + pen_new >= f - slack, stalled)
        res_before = np.where(moved, res, res_before)
        B, loss, pen = B_new, loss_new, pen_new
    beta = np.empty_like(B)
    beta[:, blocks.order] = B
    return beta[0] if rows is None else beta


def group_lasso_kkt_residual(X, y, family, beta, lam, groups) -> float:
    """Largest violation of the group-lasso stationarity conditions."""
    family = get_family(family)
    blocks = _Blocks.of(X.shape[1], groups)
    grad = X.T @ (family.b_prime(X @ beta) - y) / family.phi
    B, G = beta[None, blocks.order], grad[None, blocks.order]
    parts = _kkt_parts(G, B, blocks.norms(B), blocks, lam * np.sqrt(blocks.sizes))
    return float(np.max(parts))


def lambda_max_group_lasso(
    X, y, family, groups, unpenalized, opts: FitOptions | None = None
) -> tuple[float, dict | None]:
    """Smallest penalty level at which every group is zeroed, and the fit behind it.

    The unpenalized coordinates are fitted by :func:`~fragma.glm.fit_glm`
    with ``opts``; the second value records that fit's ``converged``,
    ``iterations`` and ``stop`` (``None`` when every coordinate is in a
    group).
    """
    family = get_family(family)
    p = X.shape[1]
    beta = np.zeros(p)
    record = None
    if len(unpenalized):
        sub, info = fit_glm(X[:, unpenalized], y, family, opts)
        beta[unpenalized] = sub
        record = {k: info[k] for k in ("converged", "iterations", "stop")}
    grad = X.T @ (family.b_prime(X @ beta) - y) / family.phi
    blocks = _Blocks.of(p, groups)
    lam_max = float(np.max(blocks.norms(grad[None, blocks.order]) / np.sqrt(blocks.sizes)))
    return lam_max, record


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


# CV folds, penalty levels, and smallest / largest level of the group-lasso path.
_CV_FOLDS = 5
_N_LAMBDAS = 50
_LAMBDA_MIN_RATIO = 1e-3


def fit_glasso(
    data: FragmentaryDataset,
    family,
    groups,
    seed: int = 0,
    index: PatternIndex | None = None,
    store: CandidateStore | None = None,
) -> AveragedModel:
    """Group-lasso selection on the complete cases, then an unpenalized refit.

    ``groups`` maps names to original column indices and should partition
    the non-intercept columns; columns in no group stay unpenalized.  The
    penalty level is chosen by 5-fold cross-validated deviance over 50
    geometric levels from the all-zero threshold down to 1e-3 of it: each
    level is one batched :func:`fit_group_lasso_at` call that solves all
    folds at once, each fold warm-started from its fit at the previous
    level, and every subject is scored under the fit of the fold that holds
    it out.  The path on all complete cases is then followed down to the
    chosen level; the final model is ``store``'s candidate (``store`` is on
    ``data``; its options also fit the largest level) on the selected
    columns: the GLM on every subject that observes them all.
    ``diagnostics`` records the selected groups, the chosen and largest
    penalty levels, the CV losses and, as ``lambda_max_fit``, the
    convergence record of the unpenalized fit behind the largest level.
    """
    family = get_family(family)
    store = store or CandidateStore(data, family)
    if index is None:
        index = build_pattern_index(data)
    lead = list(index.patterns[0].indices)
    rows = index.s_sets[0]
    if rows.size < _CV_FOLDS:
        raise DataError(f"complete-case sample ({rows.size}) smaller than {_CV_FOLDS} CV folds")
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
    blocks = _Blocks.of(len(lead), group_pos)
    unpenalized = blocks.order[: blocks.u]

    lam_max, lam_max_fit = lambda_max_group_lasso(X, y, family, group_pos, unpenalized, store.opts)
    lambdas = np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)

    folds = _stratified_folds(y, _CV_FOLDS, seed)
    train = folds[:, None] != np.arange(_CV_FOLDS)
    cv_loss = np.zeros(_N_LAMBDAS)
    betas = None
    for i, lam in enumerate(lambdas):
        betas = fit_group_lasso_at(X, y, family, lam, group_pos, beta0=betas, rows=train)
        # every subject is held out by exactly one fold: score it under that fold's fit
        cv_loss[i] = -2.0 * loglik(family, np.sum(X * betas[folds], axis=1), y)
    best = int(np.argmin(cv_loss))

    beta = None
    for lam in lambdas[: best + 1]:
        beta = fit_group_lasso_at(X, y, family, lam, group_pos, beta0=beta)
    kept = blocks.norms(beta[None, blocks.order]) > 0.0
    selected_groups = [name for name, k in zip(group_names, kept[0]) if k]
    selected_cols = [lead[t] for t in np.sort(blocks.order[blocks.spread(kept, fill=True)[0]])]
    if not selected_cols:
        raise NumericalError("group lasso selected no covariates and none are unpenalized")

    cand = store.fit(Pattern(tuple(selected_cols)))
    return _single_glm(
        data,
        family,
        cand,
        {
            "selected_groups": selected_groups,
            "lambda": float(lambdas[best]),
            "lambda_max": float(lam_max),
            "lambda_max_fit": lam_max_fit,
            "cv_loss": cv_loss.tolist(),
            "n_refit": cand.n_k,
        },
    )


# ---------------------------------------------------------------------------
# Method table
# ---------------------------------------------------------------------------

ALL_METHODS = ("opt1", "opt2", "cc", "saic", "sbic", "imp1", "imp2", "glasso")
DEFAULT_METHODS = ALL_METHODS[:-1]  # glasso needs column groups


def check_methods(methods) -> tuple[str, ...]:
    """The method names as a tuple; an empty list or an unknown name is a DataError."""
    methods = tuple(methods)
    if not methods:
        raise DataError(f"no method given; choose from {ALL_METHODS}")
    unknown = sorted(set(methods) - set(ALL_METHODS))
    if unknown:
        raise DataError(f"unknown methods {unknown}; choose from {ALL_METHODS}")
    return methods


def fit_method(
    name: str, store: CandidateStore, index: PatternIndex, *, groups=None, seed: int = 0
) -> AveragedModel:
    """Fit one of :data:`ALL_METHODS` on the data and family of ``store``.

    ``index`` is the pattern index of that data.  Every method draws its
    GLMs from ``store`` (imp1 and imp2 from ``store.filled()``).  The group
    lasso needs ``groups`` and draws its CV folds from ``seed``.
    """
    data, family = store.data, store.family
    if name in ("opt1", "opt2"):
        return fit_averaged(data, family, name, index=index, store=store)
    if name == "cc":
        return fit_cc(data, family, index=index, store=store)
    if name in ("saic", "sbic"):
        return fit_smoothed_ic(data, family, name[1:], index=index, store=store)
    if name in ("imp1", "imp2"):
        lambda_mode = "opt1" if name == "imp1" else "opt2"
        return fit_imp(data, family, lambda_mode, index=index, store=store)
    if name == "glasso":
        if groups is None:
            raise DataError("glasso requires column groups (a --groups sidecar)")
        return fit_glasso(data, family, groups, seed=seed, index=index, store=store)
    raise ValueError(f"unknown method {name!r}; choose from {ALL_METHODS}")

"""Comparator methods: CC, smoothed AIC/BIC, zero-imputation averaging, group lasso.

Each baseline takes the run's :class:`~fragma.glm.CandidateStore`, which
holds the data, family, patterns and candidate fits, and returns an
:class:`~fragma.averaging.AveragedModel` whose coefficients are embedded
into the full coefficient space, so every method predicts through one code
path.  CC, the smoothed criteria and the group lasso's refit draw their
candidates from the store; imp1 and imp2 from its zero-imputed
``filled()`` store.  The group lasso is solved by one active-set Newton
loop, which takes a batch of problems and a path of penalty levels: its
cross-validated path is one call that solves every fold and all complete
cases at each level, warm-started from the level before, on a coordinate
layout where every group is a contiguous block.  The solver records, per
level and problem, its iterations, why it stopped and the KKT residual at
which it did.

:func:`fit_method` is the one map from a name in :data:`ALL_METHODS` to its
fit; ``compare``, the simulation study and the demos all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .averaging import AveragedModel, fit_averaged
from .errors import DataError, NumericalError
from .glm import (
    CandidateModel,
    CandidateStore,
    ExponentialFamily,
    check_full_rank,
    fit_glm,
    get_family,
    loglik,
    roundoff,
)
from .patterns import Pattern


def _single_glm(
    store: CandidateStore, cand: CandidateModel, diagnostics: dict | None = None
) -> AveragedModel:
    """One GLM of ``store`` as a model: a single candidate with unit weight."""
    return AveragedModel(
        candidates=[cand],
        weights=np.ones(1),
        family=store.family,
        column_names=list(store.data.column_names),
        diagnostics=diagnostics or {},
    )


def fit_cc(store: CandidateStore) -> AveragedModel:
    """Single GLM on the complete cases: identical to candidate model 1."""
    return _single_glm(store, store.fit(store.index.patterns[0]))


def smoothed_ic_weights(ic_values: np.ndarray) -> np.ndarray:
    """w_k proportional to exp(-IC_k / 2), computed with max-shift."""
    ic = np.asarray(ic_values, dtype=float)
    finite = np.isfinite(ic)
    if not finite.any():
        raise NumericalError("all information criteria are infinite")
    logw = np.where(finite, -0.5 * ic, -np.inf)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def fit_smoothed_ic(store: CandidateStore, flavor: str) -> AveragedModel:
    """Candidate averaging with smoothed AIC/BIC weights.

    Each candidate's information criterion uses the log-likelihood
    maximized on its own fitting sample; because larger subject sets
    produce larger absolute deviances, the weights concentrate on the
    candidate with the most covariates and the smallest sample.
    """
    if flavor not in ("aic", "bic"):
        raise ValueError(f"flavor must be 'aic' or 'bic', got {flavor!r}")
    candidates = store.fit_all(store.index)

    p_sizes = np.array([c.p_k for c in candidates], dtype=float)
    ll = np.array([c.loglik for c in candidates])
    pen = 2.0 if flavor == "aic" else np.log([c.n_k for c in candidates])
    ic = -2.0 * ll + pen * p_sizes

    return AveragedModel(
        candidates=candidates,
        weights=smoothed_ic_weights(ic),
        family=store.family,
        column_names=list(store.data.column_names),
        diagnostics={"ic": ic.tolist()},
    )


def fit_imp(store: CandidateStore, lambda_mode="opt1") -> AveragedModel:
    """Zero-imputation averaging: :func:`~fragma.averaging.fit_averaged` on ``store.filled()``.

    Unavailable cells are replaced by zeros, so every candidate pattern of
    ``store.index`` (``store.filled()`` keeps it) is fitted, and the weights
    are selected, on all n subjects: no candidate is dropped, and ``opt2``
    means log n.  The candidates come from ``store.filled()``, which imp1
    and imp2 share.  The model zero-fills unobserved query cells.
    """
    return replace(fit_averaged(store.filled(), lambda_mode), zero_impute=True)


# ---------------------------------------------------------------------------
# Group lasso
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Blocks:
    """Coordinates permuted so that each group is one contiguous slice.

    ``order`` lists the ``u`` unpenalized coordinates first, in their
    original order, then each group's coordinates; in that layout group g
    is the slice starting at ``u + starts[g]``, of length ``sizes[g]``, and
    ``owner`` maps each coordinate to its group (0 for the unpenalized
    ones).  Group-wise sums are then one ``np.add.reduceat`` and per-group
    values reach their coordinates by one ``np.take``.  Every method takes
    and returns full-width (F, p) arrays in this layout.
    """

    order: np.ndarray
    u: int
    starts: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray

    @classmethod
    def of(cls, p: int, groups) -> "_Blocks":
        grouped = np.concatenate(groups).astype(int)
        penalized = np.zeros(p, dtype=bool)
        penalized[grouped] = True
        unpen = np.flatnonzero(~penalized)
        sizes = np.fromiter(map(len, groups), dtype=int, count=len(groups))
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        owner = np.repeat(np.arange(len(groups)), sizes)
        owner = np.concatenate([np.zeros(unpen.size, dtype=int), owner])
        return cls(np.concatenate([unpen, grouped]), unpen.size, starts, sizes, owner)

    def sums(self, V: np.ndarray) -> np.ndarray:
        """Sum over every group of every row of ``V``, shape (F, G)."""
        return np.add.reduceat(V[:, self.u :], self.starts, axis=1)

    def norms(self, B: np.ndarray) -> np.ndarray:
        """Euclidean norm of every group of every row of ``B``, shape (F, G)."""
        return np.sqrt(self.sums(np.square(B)))

    def spread(self, V: np.ndarray, fill=0.0) -> np.ndarray:
        """Per-group values (F, G) repeated onto their coordinates, ``fill`` elsewhere."""
        out = V.take(self.owner, axis=1)
        out[:, : self.u] = fill
        return out


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


_GLASSO_TOL = 1e-8  # stationarity tolerance of a group-lasso solve
# why a group-lasso solve stopped, in the order of their codes
_STOPS = ("kkt", "stall", "no_step", "max_iter")
_KKT, _STALL, _NO_STEP, _MAX_ITER = range(len(_STOPS))


class _Path(NamedTuple):
    """A solved group-lasso path, indexed by penalty level and problem."""

    coef: np.ndarray  # (L, F, p) coefficients, in the original column order
    kkt: np.ndarray  # (L, F) KKT residual at which each solve stopped
    iterations: np.ndarray  # (L, F) steps each solve tried
    stop: np.ndarray  # (L, F) why each solve stopped, one of _STOPS


def _group_lasso_path(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    lambdas,
    groups: list[np.ndarray],
    beta0: np.ndarray | None = None,
    tol: float = _GLASSO_TOL,
    max_iter: int = 500,
    rows: np.ndarray | None = None,
) -> _Path:
    """Group-lasso GLMs along a warm-started path of penalty levels, by active-set Newton.

    At each level ``lam`` of ``lambdas`` it minimizes -loglik(beta) + lam *
    sum_g sqrt(|g|) * ||beta_g||_2 (Meier, van de Geer and Bühlmann 2008),
    with coordinates outside every group unpenalized, starting from the
    previous level's solution (the first level from ``beta0``, zero by
    default).  With ``rows``, an (n, F) boolean mask, it solves F problems
    at once, problem f on the rows of ``X`` marked in column f (the
    training rows of a CV fold); without it, the single problem on every
    row.  The coordinates are permuted once so that every group is a
    contiguous block, and the loss, gradient and Hessian of all F problems
    come from the full ``X`` weighted by the mask, so no rows are copied.
    The linear predictor theta, the means b'(theta), the loss and the
    gradient carry over from each accepted step to the next iteration and
    from each level to the next (the gradient does not depend on the
    penalty), and the Newton weights and proximal curvature are V(mu) of
    the means already computed.

    Each iteration compares, for every problem, the KKT residual on the
    active coordinates (the unpenalized ones and the nonzero groups, where
    the objective is smooth) with the largest violation of a zero group's
    subgradient bound.  When the active residual is the larger, the problem
    takes a damped Newton step on its active coordinates, setting to zero
    every group the step drives through the kink at the origin; otherwise
    it takes one backtracked proximal-gradient step, which releases the
    violating group.  Each problem's step is accepted under its own Armijo
    test, on the gradient's first-order change plus the exact penalty
    change, with a slack of :func:`~fragma.glm.roundoff` of the objective's
    terms, sum b(theta) + |y^T theta| + penalty.  At each level a problem
    stops, and is frozen, when both its residuals are within ``tol``
    (``kkt``; see :func:`group_lasso_kkt_residual`), when its last step
    decreased neither the objective beyond that slack nor the residual
    (``stall``), when no step is accepted or its Newton system is singular
    (``no_step``), or after ``max_iter`` iterations of the level
    (``max_iter``), the problems sharing that budget.  The returned
    :class:`_Path` records, per level and problem, the coefficients, the
    residual at which the solve stopped, its iterations and that reason.
    """
    family = get_family(family)
    n, p = X.shape
    blocks = _Blocks.of(p, groups)
    mask = np.ones((1, n), dtype=bool) if rows is None else np.asarray(rows, dtype=bool).T
    F, L = mask.shape[0], len(lambdas)
    Xb = X[:, blocks.order]
    B = np.zeros((F, p)) if beta0 is None else np.reshape(beta0, (F, p))[:, blocks.order]
    seg = blocks.spread(np.arange(blocks.sizes.size)[None, :], fill=-1)[0]
    same_group = seg[:, None] == seg[None, :]
    diag = np.arange(p)
    spectral = None  # ||X_f||_2^2 of each problem, on the first proximal step
    y_masked = np.where(mask, y, 0.0)

    def evaluate(B):
        """theta and the loss of every problem at the block-layout coefficients ``B``."""
        theta = B @ Xb.T
        return theta, np.sum(np.where(mask, family.b(theta) - y * theta, 0.0), axis=1)

    theta, loss = evaluate(B)
    mu = family.b_prime(theta)
    grad = np.where(mask, mu - y, 0.0) @ Xb
    coef = np.empty((L, F, p))
    kkt = np.empty((L, F))
    iterations = np.zeros((L, F), dtype=int)
    stop = np.empty((L, F), dtype=int)
    for level, lam in enumerate(lambdas):
        w = lam * np.sqrt(blocks.sizes)
        pen = blocks.norms(B) @ w
        done = np.zeros(F, dtype=bool)
        stalled = np.zeros(F, dtype=bool)
        res_before = np.full(F, np.inf)
        for it in range(max_iter + 1):
            norm = blocks.norms(B)
            res_active, violation = _kkt_parts(grad, B, norm, blocks, w)
            res = np.maximum(res_active, violation)
            budget = _MAX_ITER if it == max_iter else -1
            reason = np.where(
                res <= tol, _KKT, np.where(stalled & (res >= res_before), _STALL, budget)
            )
            ending = ~done & (reason >= 0)
            stop[level, ending], kkt[level, ending] = reason[ending], res[ending]
            done |= ending
            if done.all():
                break
            iterations[level] += ~done
            nonzero = norm > 0.0
            newton = ~done & (res_active >= violation)

            # Newton direction on each Newton problem's active coordinates; the
            # inactive ones get an identity row and a zero right-hand side, so d = 0.
            D = np.zeros((F, p))
            nidx = np.flatnonzero(newton)
            if nidx.size:
                active = blocks.spread(nonzero[nidx], fill=True)
                inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=nonzero)[nidx]
                coef_pen = blocks.spread(w * inv)
                unit = blocks.spread(inv) * B[nidx]
                weight = np.where(mask[nidx], family.variance(mu[nidx]), 0.0)
                # loss Hessian plus the penalty's block-diagonal w_g (I - u u^T) / ||beta_g||
                hess = Xb.T @ (weight[:, :, None] * Xb)
                hess -= coef_pen[:, :, None] * unit[:, :, None] * unit[:, None, :] * same_group
                hess = np.where(active[:, :, None] & active[:, None, :], hess, 0.0)
                hess[:, diag, diag] += np.where(active, coef_pen + 1e-12, 1.0)
                rhs = np.where(active, grad[nidx] + coef_pen * B[nidx], 0.0)[:, :, None]
                try:
                    D[nidx] = -np.linalg.solve(hess, rhs)[:, :, 0]
                except np.linalg.LinAlgError:
                    # a singular system stops its own problem only
                    for k, i in enumerate(nidx):
                        try:
                            D[i] = -np.linalg.solve(hess[k], rhs[k, :, 0])
                        except np.linalg.LinAlgError:
                            done[i] = True
                            stop[level, i], kkt[level, i] = _NO_STEP, res[i]
                    newton &= ~done
            prox = ~done & ~newton
            if prox.any():
                if spectral is None:
                    spectral = np.linalg.eigvalsh(Xb.T @ (mask[:, :, None] * Xb))[:, -1]
                curvature = np.max(np.where(mask, family.variance(mu), 0.0), axis=1)
                t = 1.0 / np.maximum(1e-12, curvature * spectral)

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

            # b >= 0, so the terms of f = sum b - y^T theta + pen sum to f + |yt| + yt
            f = loss + pen
            yt = np.einsum("fn,fn->f", y_masked, theta)
            slack = roundoff(f + np.abs(yt) + yt)
            a = np.ones(F)
            searching = ~done
            B_new, theta_new = B.copy(), theta.copy()
            loss_new, pen_new = loss.copy(), pen.copy()
            for _ in range(60):
                cand = trial(a)
                theta_try, loss_try = evaluate(cand)
                pen_try = blocks.norms(cand) @ w
                decrease = np.sum(grad * (cand - B), axis=1) + pen_try - pen
                ok = searching & (loss_try + pen_try <= f + 1e-4 * decrease + slack)
                B_new[ok], theta_new[ok] = cand[ok], theta_try[ok]
                loss_new[ok], pen_new[ok] = loss_try[ok], pen_try[ok]
                searching &= ~ok
                if not searching.any():
                    break
                a = np.where(searching, 0.5 * a, a)
            moved = ~done & ~searching
            stop[level, searching], kkt[level, searching] = _NO_STEP, res[searching]
            done |= searching
            stalled = np.where(moved, loss_new + pen_new >= f - slack, stalled)
            res_before = np.where(moved, res, res_before)
            B, theta, loss, pen = B_new, theta_new, loss_new, pen_new
            if moved.any():
                mu = family.b_prime(theta)
                grad = np.where(mask, mu - y, 0.0) @ Xb
        coef[level][:, blocks.order] = B
    return _Path(coef, kkt, iterations, np.asarray(_STOPS)[stop])


def fit_group_lasso_at(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    lam: float,
    groups: list[np.ndarray],
    beta0: np.ndarray | None = None,
    tol: float = _GLASSO_TOL,
    max_iter: int = 500,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Group-lasso GLMs at one penalty level: a one-level :func:`_group_lasso_path`.

    Minimizes -loglik(beta) + lam * sum_g sqrt(|g|) * ||beta_g||_2 from
    ``beta0`` (zero by default).  With ``rows``, an (n, F) boolean mask, it
    solves F problems at once, problem f on the rows marked in column f,
    and takes and returns (F, p) coefficients; without it, the single
    problem on every row, with (p,) coefficients.
    """
    coef = _group_lasso_path(X, y, family, [lam], groups, beta0, tol, max_iter, rows).coef[0]
    return coef[0] if rows is None else coef


def group_lasso_kkt_residual(X, y, family, beta, lam, groups) -> float:
    """Largest violation of the group-lasso stationarity conditions."""
    family = get_family(family)
    blocks = _Blocks.of(X.shape[1], groups)
    grad = X.T @ (family.b_prime(X @ beta) - y)
    B, G = beta[None, blocks.order], grad[None, blocks.order]
    parts = _kkt_parts(G, B, blocks.norms(B), blocks, lam * np.sqrt(blocks.sizes))
    return float(np.max(parts))


def lambda_max_group_lasso(X, y, family, groups, unpenalized) -> tuple[float, dict | None]:
    """Smallest penalty level at which every group is zeroed, and the fit behind it.

    The unpenalized coordinates are fitted by :func:`~fragma.glm.fit_glm`;
    the second value records that fit's ``converged``,
    ``iterations`` and ``stop`` (``None`` when every coordinate is in a
    group).
    """
    family = get_family(family)
    p = X.shape[1]
    beta = np.zeros(p)
    record = None
    if len(unpenalized):
        sub, info = fit_glm(X[:, unpenalized], y, family)
        beta[unpenalized] = sub
        record = {k: info[k] for k in ("converged", "iterations", "stop")}
    grad = X.T @ (family.b_prime(X @ beta) - y)
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


def fit_glasso(store: CandidateStore, groups: dict, seed: int = 0) -> AveragedModel:
    """Group-lasso selection on ``store.index``'s complete cases, then an unpenalized refit.

    ``groups`` is a dict mapping names to original column indices; they
    must not overlap and should partition the non-intercept columns;
    columns in no group stay unpenalized.  The penalty level is chosen by
    5-fold cross-validated deviance over 50 geometric levels from the
    all-zero threshold down to 1e-3 of it.  The whole path is one
    :func:`_group_lasso_path` call that solves six problems at every level,
    the five folds and all complete cases, each warm-started from its fit
    at the previous level; every subject is scored under the fit of the
    fold that holds it out, and the groups are those of the all-rows fit at
    the chosen level.  The final model is ``store``'s candidate on the
    selected columns: the GLM on every subject that observes them all.
    ``diagnostics`` records the selected groups, the chosen and largest
    penalty levels, the CV losses, as ``lambda_max_fit`` the convergence
    record of the unpenalized fit behind the largest level and, from the
    solver's own record of the path's 300 solves, the largest KKT residual
    at which a solve stopped (``path_kkt_max``), how many stopped above the
    solver's tolerance (``path_unconverged``), their iterations in total
    (``path_iterations``) and how many stopped for each reason
    (``path_stops``: ``kkt``, ``stall``, ``no_step`` or ``max_iter``).
    """
    data, family = store.data, store.family
    lead = list(store.index.patterns[0].indices)
    rows = store.index.s_sets[0]
    if rows.size < _CV_FOLDS:
        raise DataError(f"complete-case sample ({rows.size}) smaller than {_CV_FOLDS} CV folds")
    X = data.x[np.ix_(rows, lead)]
    y = data.y[rows]
    check_full_rank(X, [data.column_names[j] for j in lead])

    pos_of = {j: t for t, j in enumerate(lead)}
    group_pos = []
    group_names = []
    for name, cols in groups.items():
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

    lam_max, lam_max_fit = lambda_max_group_lasso(X, y, family, group_pos, unpenalized)
    lambdas = np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)

    folds = _stratified_folds(y, _CV_FOLDS, seed)
    # one column per CV fold's training rows, then one of all rows (no fold is labelled 5)
    train = folds[:, None] != np.arange(_CV_FOLDS + 1)
    solved = _group_lasso_path(X, y, family, lambdas, group_pos, rows=train)
    # every subject is held out by exactly one fold: score it under that fold's fit
    cv_loss = np.array(
        [-2.0 * loglik(family, np.sum(X * b[folds], axis=1), y) for b in solved.coef]
    )
    best = int(np.argmin(cv_loss))
    kept = blocks.norms(solved.coef[best, _CV_FOLDS][None, blocks.order]) > 0.0
    selected_groups = [name for name, k in zip(group_names, kept[0]) if k]
    selected_cols = [lead[t] for t in np.sort(blocks.order[blocks.spread(kept, fill=True)[0]])]
    if not selected_cols:
        raise NumericalError("group lasso selected no covariates and none are unpenalized")

    cand = store.fit(Pattern(tuple(selected_cols)))
    return _single_glm(
        store,
        cand,
        {
            "selected_groups": selected_groups,
            "lambda": float(lambdas[best]),
            "lambda_max": float(lam_max),
            "lambda_max_fit": lam_max_fit,
            "cv_loss": cv_loss.tolist(),
            "path_kkt_max": float(solved.kkt.max()),
            "path_unconverged": int(np.count_nonzero(solved.kkt > _GLASSO_TOL)),
            "path_iterations": int(solved.iterations.sum()),
            "path_stops": {s: int(np.count_nonzero(solved.stop == s)) for s in _STOPS},
            "n_refit": cand.n_k,
        },
    )


# ---------------------------------------------------------------------------
# Method table
# ---------------------------------------------------------------------------

ALL_METHODS = ("opt1", "opt2", "cc", "saic", "sbic", "imp1", "imp2", "glasso")
DEFAULT_METHODS = ALL_METHODS[:-1]  # glasso needs column groups


def check_methods(methods) -> tuple[str, ...]:
    """The method names as a tuple; no name, an unknown or a repeated one is a DataError."""
    methods = tuple(methods)
    if not methods:
        raise DataError(f"no method given; choose from {ALL_METHODS}")
    unknown = sorted(set(methods) - set(ALL_METHODS))
    if unknown:
        raise DataError(f"unknown methods {unknown}; choose from {ALL_METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise DataError(f"methods named more than once: {repeated}")
    return methods


def fit_method(name: str, store: CandidateStore, *, groups=None, seed: int = 0) -> AveragedModel:
    """Fit one of :data:`ALL_METHODS` on the run ``store`` describes.

    Every method reads the patterns off ``store.index`` and draws its GLMs
    from ``store`` (imp1 and imp2 from ``store.filled()``).  The group
    lasso needs ``groups`` and draws its CV folds from ``seed``.
    """
    if name in ("opt1", "opt2"):
        return fit_averaged(store, name)
    if name == "cc":
        return fit_cc(store)
    if name in ("saic", "sbic"):
        return fit_smoothed_ic(store, name[1:])
    if name in ("imp1", "imp2"):
        return fit_imp(store, "opt1" if name == "imp1" else "opt2")
    if name == "glasso":
        if groups is None:
            raise DataError("glasso requires column groups (a --groups sidecar)")
        return fit_glasso(store, groups, seed)
    raise ValueError(f"unknown method {name!r}; choose from {ALL_METHODS}")

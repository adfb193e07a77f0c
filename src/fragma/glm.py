"""Exponential-family GLMs fitted by Fisher scoring (IRLS).

Each candidate model is an ordinary GLM with canonical link on the
subjects observing that pattern's columns.  The log-likelihood kernel is

    l(beta) = sum_i [y_i * theta_i - b(theta_i)] / phi,   theta = X beta,

dropping the c(y, phi) term, which depends on neither beta nor the
averaging weights; absolute likelihood values therefore differ from
textbook ones by a data-only constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.special import expit

from .errors import DataError, NumericalError, RankDeficientError
from .patterns import FragmentaryDataset, Pattern, PatternIndex


@dataclass(frozen=True)
class ExponentialFamily:
    """Cumulant function triplet (b, b', b'') with known dispersion phi."""

    name: str
    b: callable
    b_prime: callable
    b_double_prime: callable
    phi: float = 1.0
    theta_from_mean: callable = None  # canonical link, mean -> theta


def _binomial_b(theta):
    return np.logaddexp(0.0, theta)


def _binomial_var(theta):
    mu = expit(theta)
    return mu * (1.0 - mu)


BINOMIAL = ExponentialFamily(
    name="binomial",
    b=_binomial_b,
    b_prime=expit,
    b_double_prime=_binomial_var,
    phi=1.0,
    theta_from_mean=lambda mu: np.log(mu) - np.log1p(-mu),
)

GAUSSIAN = ExponentialFamily(
    name="gaussian",
    b=lambda theta: 0.5 * np.square(theta),
    b_prime=lambda theta: np.asarray(theta, dtype=float),
    b_double_prime=lambda theta: np.ones_like(np.asarray(theta, dtype=float)),
    phi=1.0,
    theta_from_mean=lambda mu: np.asarray(mu, dtype=float),
)

POISSON = ExponentialFamily(
    name="poisson",
    b=np.exp,
    b_prime=np.exp,
    b_double_prime=np.exp,
    phi=1.0,
    theta_from_mean=np.log,
)

FAMILIES = {f.name: f for f in (BINOMIAL, GAUSSIAN, POISSON)}


def get_family(name) -> ExponentialFamily:
    if isinstance(name, ExponentialFamily):
        return name
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the IRLS fit (exposed as CLI flags).

    ``max_iter`` caps the Fisher-scoring iterations.  ``grad_tol`` is an
    early stop: the fit ends once max|score| falls to it.  Whatever its
    value, the fit also ends when the Newton decrement reaches the
    roundoff of the log-likelihood (see :func:`fit_glm`), so it never
    spins at an optimum whose score cannot get below ``grad_tol``.
    ``ridge`` is added to the Hessian once the coefficient norm passes
    1e4 (a separation guard).  All three must be nonnegative; a negative
    one is a :class:`~fragma.errors.DataError`.
    """

    max_iter: int = 100
    grad_tol: float = 1e-8
    ridge: float = 1e-8

    def __post_init__(self):
        for name in ("max_iter", "grad_tol", "ridge"):
            value = getattr(self, name)
            if not value >= 0:
                raise DataError(f"{name} must be nonnegative, got {value!r}")


@dataclass
class CandidateModel:
    """A fitted per-pattern GLM."""

    pattern: Pattern
    beta: np.ndarray
    n_k: int
    p_k: int
    loglik: float
    converged: bool
    iterations: int
    ridged: bool = False
    stop: str | None = None

    def to_dict(self) -> dict:
        return {
            "pattern": list(self.pattern.indices),
            "pattern_id": self.pattern.id,
            "beta": self.beta.tolist(),
            "n_k": self.n_k,
            "p_k": self.p_k,
            "loglik": self.loglik,
            "converged": self.converged,
            "iterations": self.iterations,
            "ridged": self.ridged,
            "stop": self.stop,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateModel":
        return cls(
            pattern=Pattern(tuple(d["pattern"]), id=d.get("pattern_id", 0)),
            beta=np.asarray(d["beta"], dtype=float),
            n_k=int(d["n_k"]),
            p_k=int(d["p_k"]),
            loglik=float(d["loglik"]),
            converged=bool(d["converged"]),
            iterations=int(d["iterations"]),
            ridged=bool(d.get("ridged", False)),
            stop=d.get("stop"),
        )


def loglik(family: ExponentialFamily, theta: np.ndarray, y: np.ndarray) -> float:
    """Log-likelihood kernel sum_i [y_i theta_i - b(theta_i)] / phi."""
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    if theta.shape != y.shape:
        raise ValueError("theta and y must have the same length")
    if not np.all(np.isfinite(theta)):
        raise NumericalError("non-finite linear predictor in loglik")
    return float((y @ theta - np.sum(family.b(theta))) / family.phi)


def loglik_gradient(
    family: ExponentialFamily, X: np.ndarray, y: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Score vector X^T (y - b'(X beta)) / phi."""
    theta = X @ beta
    return X.T @ (y - family.b_prime(theta)) / family.phi


def check_full_rank(X: np.ndarray, column_names=None):
    """Reject rank-deficient designs, naming the offending columns."""
    if X.shape[0] < X.shape[1]:
        names = list(column_names) if column_names is not None else []
        raise RankDeficientError(
            f"underdetermined design: {X.shape[0]} rows for {X.shape[1]} columns",
            columns=names,
        )
    _, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
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


# A Newton decrement this small relative to |loglik| is at its roundoff floor.
_DECREMENT_EPS = 16 * np.finfo(float).eps
# Past this coefficient norm the fit is taken to diverge and gets the ridge.
_DIVERGENCE_NORM = 1e4
_PIVOT_TOL = 1e-10  # a QR pivot below this share of the largest marks a dependent column


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    opts: FitOptions | None = None,
    column_names=None,
) -> tuple[np.ndarray, dict]:
    """Maximize the GLM log-likelihood by Fisher scoring with step halving.

    Returns the coefficient vector and a diagnostics dict (loglik,
    converged, iterations, ridged, stop: the fit fields of
    :class:`CandidateModel`).  The fit ends, with ``stop`` set to the
    reason, on the first of:

    * ``score``: max|score| <= ``grad_tol`` (tested before the Newton
      direction is solved, and once more after the last allowed iteration);
    * ``decrement``: the Newton decrement ``score @ direction`` is at most
      ``16 * eps * max(|loglik|, 1)``, so a full Newton step gains no more
      than the roundoff of the log-likelihood (Boyd & Vandenberghe,
      *Convex Optimization*, 9.5).  Step halving cannot judge such a step,
      so the full step is taken unless it loses more than that roundoff:
      as the last step of Newton's quadratic convergence it brings the
      coefficients to machine precision;
    * ``no_step``: 30 step halvings found no step that keeps the
      log-likelihood non-decreasing;
    * ``max_iter``: ``max_iter`` iterations were spent.

    ``converged`` is true exactly when the fit stopped at a first-order
    point, ``score`` or ``decrement``.  ``iterations`` counts the
    iterations that solved a Newton direction.  A ridge term is added to
    the weighted normal equations once the coefficient norm passes
    1e4 (separation guard), and the fit is flagged
    ``ridged``.
    """
    opts = opts or FitOptions()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    check_full_rank(X, column_names)

    beta = np.zeros(p)
    theta = X @ beta
    ll = loglik(family, theta, y)
    ridged = False
    stop = "max_iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        mu = family.b_prime(theta)
        score = X.T @ (y - mu) / family.phi
        if np.max(np.abs(score)) <= opts.grad_tol:
            stop = "score"
            iterations -= 1
            break
        w = family.b_double_prime(theta) / family.phi
        h = X.T @ (w[:, None] * X)
        if ridged:
            h = h + opts.ridge * np.eye(p)
        try:
            direction = scipy.linalg.solve(h, score, assume_a="pos")
        except scipy.linalg.LinAlgError:
            direction = np.linalg.lstsq(h, score, rcond=None)[0]
        floor = _DECREMENT_EPS * max(abs(ll), 1.0)
        if score @ direction <= floor:
            # Too small a gain for step halving to judge: take the full step
            # unless it loses more than the roundoff, and stop.
            beta_try = beta + direction
            theta_try = X @ beta_try
            ll_try = loglik(family, theta_try, y)
            if ll_try >= ll - floor:
                beta, theta, ll = beta_try, theta_try, ll_try
            stop = "decrement"
            break

        # Step halving keeps the log-likelihood non-decreasing.
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
        if not ridged and np.linalg.norm(beta) > _DIVERGENCE_NORM:
            ridged = True

    if stop == "max_iter":
        score = X.T @ (y - family.b_prime(theta)) / family.phi
        if np.max(np.abs(score)) <= opts.grad_tol:
            stop = "score"

    info = {
        "loglik": ll,
        "converged": stop in ("score", "decrement"),
        "iterations": iterations,
        "ridged": ridged,
        "stop": stop,
    }
    return beta, info


def fit_candidate(
    data: FragmentaryDataset,
    pattern: Pattern,
    family: ExponentialFamily,
    opts: FitOptions | None = None,
) -> CandidateModel:
    """Fit the GLM on ``pattern``'s columns on every subject observing them.

    For a pattern of an index built on ``data`` these subjects are its
    superset sample S_k; ``data`` may also be a zero-imputed copy
    (``data.filled()``), where every subject observes every column.
    """
    cols = list(pattern.indices)
    rows = np.flatnonzero(data.mask[:, cols].all(axis=1))
    n_k, p_k = rows.size, len(cols)
    if n_k < p_k:
        raise RankDeficientError(
            f"candidate {pattern.id}: sample size {n_k} below dimension {p_k}",
            columns=[data.column_names[j] for j in cols],
        )
    X = data.x[np.ix_(rows, cols)]
    y = data.y[rows]
    beta, info = fit_glm(
        X, y, family, opts, column_names=[data.column_names[j] for j in cols]
    )
    return CandidateModel(pattern, beta, n_k, p_k, **info)


def fit_all_candidates(
    data: FragmentaryDataset,
    index: PatternIndex,
    family: ExponentialFamily,
    opts: FitOptions | None = None,
) -> list[CandidateModel]:
    """Fit every candidate model of the index, in pattern order."""
    return [fit_candidate(data, pattern, family, opts) for pattern in index.patterns]


class CandidateStore:
    """The candidate fits of one run on one dataset, family and options.

    A candidate on columns C is fitted on every subject observing C, in
    row order, whichever pattern index asks for it, so fits are keyed by C
    and shared by the main model, sub-pattern refits and baselines.
    """

    def __init__(self, data: FragmentaryDataset, family, opts: FitOptions | None = None):
        self.data = data
        self.family = get_family(family)
        self.opts = opts
        self._fits: dict[tuple[int, ...], CandidateModel] = {}
        self._source: CandidateStore | None = None  # the store this one zero-fills
        # data.filled() and its fits, kept apart from their store: no reference cycle
        self._filled: tuple[FragmentaryDataset, dict] | None = None

    def fit(self, pattern: Pattern) -> CandidateModel:
        """The candidate on ``pattern``'s columns, fitted at most once per store."""
        cand = self._fits.get(pattern.indices)
        if cand is None:
            source = self._source
            if source is not None and source.data.mask[:, list(pattern.indices)].all():
                # zero-filling changed no cell of these columns: the same fit
                cand = source.fit(pattern)
            else:
                cand = fit_candidate(self.data, pattern, self.family, self.opts)
            self._fits[pattern.indices] = cand
        return replace(cand, pattern=pattern, beta=cand.beta.copy())

    def fit_all(self, index: PatternIndex) -> list[CandidateModel]:
        """Every candidate of ``index``, in pattern order."""
        return [self.fit(pattern) for pattern in index.patterns]

    def filled(self) -> "CandidateStore":
        """This run's store on ``data.filled()``, same family and options; its fits are kept."""
        if self._filled is None:
            self._filled = (self.data.filled(), {})
        store = CandidateStore(self._filled[0], self.family, self.opts)
        store._fits, store._source = self._filled[1], self
        return store

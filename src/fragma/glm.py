"""Exponential-family GLMs fitted by Fisher scoring (IRLS).

Each candidate model is an ordinary GLM with canonical link on the
subjects observing that pattern's columns.  The log-likelihood kernel is

    l(beta) = sum_i [y_i * theta_i - b(theta_i)],   theta = X beta,

at dispersion 1 (the binomial and Poisson families have none; the
gaussian family is taken at unit variance), dropping the c(y) term, which
depends on neither beta nor the averaging weights; absolute likelihood
values therefore differ from textbook ones by a data-only constant.

The binomial cumulant b(theta) = log(1 + e^theta) is computed element by
element as max(theta, 0) + log1p(e^-|theta|): within 4 ulp of
``np.logaddexp(0, theta)``, and an element's value does not depend on the
array around it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError, RankDeficientError
from .patterns import FragmentaryDataset, Pattern, PatternIndex, build_pattern_index


def expit(t):
    """Logistic function 1 / (1 + exp(-t)): exactly 0 or 1 far in the tails."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


@dataclass(frozen=True)
class ExponentialFamily:
    """Cumulant function b, mean b', variance function V, canonical link and support.

    The dispersion is 1.  ``variance`` takes the mean: b''(theta) =
    V(b'(theta)).  ``theta_from_mean`` is the canonical link, mean -> theta.
    """

    name: str
    b: callable
    b_prime: callable
    variance: callable
    theta_from_mean: callable
    support: tuple[float, float] = (-np.inf, np.inf)  # closed interval of the response

    def check_response(self, y: np.ndarray) -> None:
        """Reject responses outside ``support``, naming their data rows."""
        lo, hi = self.support
        bad = np.flatnonzero((y < lo) | (y > hi))
        if bad.size:
            raise DataError(
                f"response outside the {self.name} support [{lo:g}, {hi:g}] "
                f"at data rows {bad.tolist()}"
            )


def _binomial_b(theta):
    # e^-|theta| <= 1 cannot overflow; b(+inf) = inf, b(-inf) = 0, NaN stays NaN.
    theta = np.asarray(theta, dtype=float)
    return np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta)))


BINOMIAL = ExponentialFamily(
    name="binomial",
    b=_binomial_b,
    b_prime=expit,
    variance=lambda mu: mu * (1.0 - mu),
    theta_from_mean=lambda mu: np.log(mu) - np.log1p(-mu),
    support=(0.0, 1.0),
)

GAUSSIAN = ExponentialFamily(
    name="gaussian",
    b=lambda theta: 0.5 * np.square(theta),
    b_prime=lambda theta: np.asarray(theta, dtype=float),
    variance=np.ones_like,
    theta_from_mean=lambda mu: np.asarray(mu, dtype=float),
)

POISSON = ExponentialFamily(
    name="poisson",
    b=np.exp,
    b_prime=np.exp,
    variance=lambda mu: mu,
    theta_from_mean=np.log,
    support=(0.0, np.inf),
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
    """The IRLS fit's iteration budget, an argument of :func:`fit_glm` alone.

    ``max_iter`` caps the Fisher-scoring iterations; it must be a
    nonnegative integer, not a bool, or the options are a
    :class:`~fragma.errors.DataError`.  Every candidate the program fits
    takes the default, so a saved model records no options.  The fit has
    no tolerance to set: it stops when the Newton decrement reaches the
    roundoff of the log-likelihood (see :func:`fit_glm`).
    """

    max_iter: int = 100

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise DataError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.max_iter >= 0:
            raise DataError(f"max_iter must be nonnegative, got {self.max_iter!r}")


# What a value of a JSON record must be: in words, as a test, and how it is read.
Kind = namedtuple("Kind", "text test read", defaults=(lambda v: v,))
# type(), not isinstance(): a JSON true is a bool, and bool is an int
INTEGER = Kind("an integer", lambda v: type(v) is int)
NUMBER = Kind("a number", lambda v: type(v) in (int, float), float)
BOOLEAN = Kind("true or false", lambda v: type(v) is bool)
NUMBERS = Kind("a list of numbers", lambda v: isinstance(v, list) and all(map(NUMBER.test, v)),
               lambda v: np.array(v, dtype=float))
_COLUMNS = Kind("a list of column numbers in increasing order", lambda v: isinstance(v, list)
                and all(map(INTEGER.test, v)) and all(a < b for a, b in zip(v, v[1:])))
# fit_glm's stop reasons, and "score": earlier fits' stop on an absolute score bound
_STOPS = ("score", "decrement", "no_step", "max_iter")
_STOP = Kind(f"null or one of {list(_STOPS)}", lambda v: v is None or v in _STOPS)
REQUIRED = object()  # the default of a key that every record carries


def read_record(d, layout: dict[str, tuple[Kind, object]]) -> dict:
    """``d``'s value of each key of ``layout``, which maps a key to its kind and default.

    A non-object ``d``, a missing key whose default is REQUIRED or a value
    of another kind is a DataError; keys ``layout`` does not name are not read.
    """
    if not isinstance(d, dict):
        raise DataError(f"expected an object, got {d!r:.40}")
    record = {}
    for key, (kind, default) in layout.items():
        value = d.get(key, default)
        if value is REQUIRED:
            raise DataError(f"missing key {key!r}")
        if not kind.test(value):
            raise DataError(f"{key} must be {kind.text}, got {value!r:.40}")
        record[key] = kind.read(value)
    return record


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
    stop: str | None = None

    LAYOUT = {  # the keys of to_dict, in order
        "pattern": (_COLUMNS, REQUIRED),
        "pattern_id": (INTEGER, 0),
        "beta": (NUMBERS, REQUIRED),
        "n_k": (INTEGER, REQUIRED),
        "p_k": (INTEGER, REQUIRED),
        "loglik": (NUMBER, REQUIRED),
        "converged": (BOOLEAN, REQUIRED),
        "iterations": (INTEGER, REQUIRED),
        "stop": (_STOP, None),
    }

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
            "stop": self.stop,
        }

    @classmethod
    def from_dict(cls, d) -> "CandidateModel":
        """The fit record :meth:`to_dict` wrote; p_k and len(beta) are the pattern's length."""
        r = read_record(d, cls.LAYOUT)
        pattern = Pattern(tuple(r.pop("pattern")), id=r.pop("pattern_id"))
        if r["p_k"] != pattern.size:
            raise DataError(f"p_k is {r['p_k']} for a pattern of {pattern.size} columns")
        if r["beta"].shape != (pattern.size,):
            raise DataError(f"{r['beta'].size} coefficients for {pattern.size} columns")
        return cls(pattern=pattern, **r)


def loglik(family: ExponentialFamily, theta: np.ndarray, y: np.ndarray) -> float:
    """Log-likelihood kernel sum_i [y_i theta_i - b(theta_i)]."""
    return _loglik_sums(family, theta, y)[0]


def _loglik_sums(family: ExponentialFamily, theta, y) -> tuple[float, float]:
    """The log-likelihood and |y^T theta| + sum_i b(theta_i), the size of its two sums.

    The log-likelihood is the difference of those sums, so its rounding
    error is on their scale, not on its own: they cancel as the means
    approach the responses.  Every family's b is nonnegative.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    if theta.shape != y.shape:
        raise ValueError("theta and y must have the same length")
    if not np.all(np.isfinite(theta)):
        raise NumericalError("non-finite linear predictor in loglik")
    y_theta, b_sum = y @ theta, np.sum(family.b(theta))
    return float(y_theta - b_sum), float(abs(y_theta) + b_sum)


def check_full_rank(X: np.ndarray, column_names=None, gram=None):
    """Reject rank-deficient designs, naming the offending columns.

    The rule is that of a Householder QR with column pivoting: the rank is
    the number of pivots above ``_PIVOT_TOL`` times the first (the largest
    column norm), and the columns pivoted past the rank are named.  Every
    pivot is at least the smallest singular value of X, so a design whose
    sigma_min clears twice that threshold, t = 2 * _PIVOT_TOL * (largest
    column norm), is full rank.  A screen on ``gram`` accepts such designs
    before the pivoted QR runs, and only ever accepts them.  ``gram`` is
    X^T X times a positive power of two, as computed (:func:`fit_glm`
    passes its first Fisher information; the default is ``X.T @ X``).  In
    2-norm the computed product is within gamma_n * trace(gram) of the
    exact one (Higham, *Accuracy and Stability of Numerical Algorithms*,
    sec. 3.5, since || |X|^T |X| || is at most the trace), and ``eigvalsh``
    returns the exact eigenvalues of a matrix within a small multiple of
    p * eps * trace of the computed one; delta = (n + p) * eps * trace(gram)
    bounds the two together.  By Weyl's inequality the exact smallest
    eigenvalue is at least the computed one less delta, so a computed
    smallest eigenvalue above 2 * delta + 4 * t^2 (t^2 on the scale of
    ``gram``, from its largest diagonal entry) proves sigma_min above 2t,
    and sigma_min^2 above delta: far above the QR's own rounding error,
    about n * p * eps * ||X||_F.  A non-finite ``gram`` skips the screen.

    Every other design goes to the pivoted QR, which decides.  When
    ``gram`` is non-finite, the pivoted QR runs on X * 2^-e instead, where
    e is the binary exponent of max |x|, so that its column norms do not
    overflow: every threshold above is relative, and scaling by a power of
    two is exact away from underflow.  Accepting such a design says only
    that its columns are independent, not that a GLM on it can be fitted.
    """
    n, p = X.shape
    if n < p:
        names = list(column_names) if column_names is not None else []
        raise RankDeficientError(
            f"underdetermined design: {n} rows for {p} columns", columns=names
        )
    if gram is None:
        gram = X.T @ X
    if np.all(np.isfinite(gram)):
        delta = (n + p) * _EPS * np.trace(gram)
        t2 = (2 * _PIVOT_TOL) ** 2 * np.max(np.diag(gram), initial=0.0)
        if np.linalg.eigvalsh(gram).min(initial=np.inf) > 2 * delta + 4 * t2:
            return
    else:
        X = np.ldexp(X, -np.frexp(np.max(np.abs(X), initial=0.0))[1])
    diag, piv = _pivoted_qr(X)
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > _PIVOT_TOL * scale))
    if rank < p:
        bad = piv[rank:]
        names = (
            [column_names[j] for j in bad]
            if column_names is not None
            else [str(j) for j in bad]
        )
        raise RankDeficientError(
            f"rank-deficient design (rank {rank} < {p}); "
            f"dependent columns: {names}",
            columns=names,
        )


def _pivoted_qr(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|diag(R)| and the column order of a Householder QR with column pivoting.

    Each step pivots in the column of largest remaining norm (the first on
    a tie), as LAPACK's xLAQP2 does, but takes the remaining norms exactly
    instead of downdating them.
    """
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


_EPS = np.finfo(float).eps
_PIVOT_TOL = 1e-10  # a QR pivot below this share of the largest marks a dependent column


def roundoff(scale):
    """The slack of every descent test in the package: 16 eps max(scale, 1).

    ``scale`` sums the magnitudes of the objective's terms: an objective that
    is a difference of large sums has rounding error on their scale, not on
    its own (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 4.2).
    Elementwise on an array; ``max`` on a number is the cheaper call per step.
    """
    floor = np.maximum(scale, 1.0) if isinstance(scale, np.ndarray) else max(scale, 1.0)
    return 16 * _EPS * floor


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    family: ExponentialFamily,
    opts: FitOptions | None = None,
    column_names=None,
) -> tuple[np.ndarray, dict]:
    """Maximize the GLM log-likelihood by Fisher scoring with step halving.

    Returns the coefficient vector and a diagnostics dict (loglik,
    converged, iterations, stop: the fit fields of
    :class:`CandidateModel`).  Each iteration tries the steps 1, 1/2, ...
    along its Newton direction in one loop and keeps the first whose
    log-likelihood is finite and not lower; a trial whose linear predictor
    is not finite is a rejected step, wherever it occurs.  The fit ends,
    with ``stop`` set to the reason, on the first of:

    * ``decrement``: the Newton decrement ``score @ direction`` is at most
      :func:`roundoff` of |y^T theta| + sum b(theta), so a full Newton
      step gains no more than the roundoff of the log-likelihood, the
      difference of those two sums (Boyd & Vandenberghe, *Convex
      Optimization*, 9.5).  Step halving cannot judge such a step, so the
      full step is the loop's only trial, kept unless it loses more than
      that roundoff, and the fit stops either way: as the last step of
      Newton's quadratic convergence it brings beta to machine precision;
    * ``no_step``: 30 trials found no step that keeps the log-likelihood
      non-decreasing;
    * ``max_iter``: ``max_iter`` iterations were spent.

    ``converged`` is true exactly when the fit stopped on ``decrement``.
    ``iterations`` counts the Newton directions solved.  The Hessian is the
    Fisher information, unpenalized, and the decrement and both sums are
    unchanged when a column is scaled, so no stop sees the units of the
    columns; a singular Fisher information takes the least-squares
    direction.  Separation is not detected: without a maximum-likelihood
    estimate the fit runs until the decrement reaches the roundoff, as the
    fitted means reach the responses.

    The Fisher information at beta = 0, where every weight is the power of
    two b''(0), is X^T X exactly scaled: it is computed once, is the
    Gram matrix :func:`check_full_rank` screens the design on, and is the
    first iteration's Hessian.  Later iterations weight by the variance
    function at the means the score was computed from, V(mu) = b''(theta).
    When it overflows (entries near the square root of the largest float),
    no Newton step can be taken: once the rank check has ruled, that is a
    NumericalError naming the columns whose rows of it are not finite.
    """
    opts = opts or FitOptions()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(X.shape[1])
    theta = X @ beta
    mu = family.b_prime(theta)
    # every weight is the power of two b''(0): an exactly scaled Gram matrix
    w = family.variance(mu)
    with np.errstate(over="ignore"):
        fisher = X.T @ (w[:, None] * X)
    check_full_rank(X, column_names, gram=fisher)
    overflow = np.flatnonzero(~np.isfinite(fisher).all(axis=1))
    if overflow.size:
        names = [column_names[j] if column_names is not None else str(j) for j in overflow]
        raise NumericalError(f"Fisher information overflows at beta = 0; rescale columns {names}")

    ll, ll_scale = _loglik_sums(family, theta, y)
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        score = X.T @ (y - mu)
        try:
            direction = np.linalg.solve(fisher, score)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(fisher, score, rcond=None)[0]
        floor = roundoff(ll_scale)
        # A decrement step is the last: tried once, kept unless it loses more
        # than the roundoff, and the fit stops whether or not it is kept.
        last = score @ direction <= floor
        slack = floor if last else 0.0
        stop = "decrement" if last else "no_step"  # if the fit ends in this iteration
        step = 1.0
        for _ in range(1 if last else 30):
            beta_try = beta + step * direction
            theta_try = X @ beta_try
            try:
                ll_try, scale_try = _loglik_sums(family, theta_try, y)
            except NumericalError:  # a non-finite linear predictor rejects the step
                ll_try = -math.inf
            if ll_try >= ll - slack and math.isfinite(ll_try):
                beta, theta, ll, ll_scale = beta_try, theta_try, ll_try, scale_try
                break
            step *= 0.5
        else:
            break
        if last:
            break
        mu = family.b_prime(theta)
        fisher = X.T @ (family.variance(mu)[:, None] * X)
    else:
        stop = "max_iter"

    info = {
        "loglik": ll,
        "converged": stop == "decrement",
        "iterations": iterations,
        "stop": stop,
    }
    return beta, info


def fit_candidate(
    data: FragmentaryDataset, pattern: Pattern, family: ExponentialFamily
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
    beta, info = fit_glm(X, y, family, column_names=[data.column_names[j] for j in cols])
    return CandidateModel(pattern, beta, n_k, p_k, **info)


def fit_all_candidates(
    data: FragmentaryDataset, index: PatternIndex, family: ExponentialFamily
) -> list[CandidateModel]:
    """Fit every candidate model of the index, in pattern order."""
    return [fit_candidate(data, pattern, family) for pattern in index.patterns]


class CandidateStore:
    """One run: its dataset, GLM family, pattern index and candidate fits.

    Every method of :mod:`fragma.averaging` and :mod:`fragma.baselines`
    takes the store and reads ``data``, ``family`` and ``index`` (built on
    ``data`` at first use) from it, so a run cannot mix the fits or
    patterns of one dataset or family with another.  A candidate on
    columns C is fitted by :func:`fit_candidate` (at the default
    :class:`FitOptions`) on every subject observing C, in row order,
    whichever pattern index asks for it, so fits are keyed by C and shared
    by the main model, sub-pattern refits and baselines.  ``family`` is a
    name or an :class:`ExponentialFamily`.  A response outside the family's
    support is a :class:`~fragma.errors.DataError`.  ``saved`` are
    candidates already fitted on ``data`` under ``family`` (those of a
    saved model): the store returns them for their columns instead of
    fitting, and ``reused`` counts the column sets it so took.
    """

    def __init__(self, data: FragmentaryDataset, family, saved=()):
        self.data = data
        self.family = get_family(family)
        self.family.check_response(data.y)
        self._fits: dict[tuple[int, ...], CandidateModel] = {}
        self._saved = {c.pattern.indices: c for c in saved}
        self.reused = 0
        self._source: CandidateStore | None = None  # the store this one zero-fills
        # data.filled() and its fits, kept apart from their store: no reference cycle
        self._filled: tuple[FragmentaryDataset, dict] | None = None

    def fit(self, pattern: Pattern) -> CandidateModel:
        """The candidate on ``pattern``'s columns, fitted at most once per store."""
        cand = self._fits.get(pattern.indices)
        if cand is None:
            source = self._source
            if pattern.indices in self._saved:
                cand = self._saved.pop(pattern.indices)
                self.reused += 1
            elif source is not None and source.data.mask[:, list(pattern.indices)].all():
                # zero-filling changed no cell of these columns: the same fit
                cand = source.fit(pattern)
            else:
                cand = fit_candidate(self.data, pattern, self.family)
            self._fits[pattern.indices] = cand
        return replace(cand, pattern=pattern, beta=cand.beta.copy())

    @cached_property
    def index(self) -> PatternIndex:
        """The pattern index of ``data``; a ``filled()`` store keeps its source's."""
        if self._source is not None:
            return self._source.index
        return build_pattern_index(self.data)

    def fit_all(self, index: PatternIndex) -> list[CandidateModel]:
        """Every candidate of ``index``, in pattern order."""
        return [self.fit(pattern) for pattern in index.patterns]

    def filled(self) -> "CandidateStore":
        """This run's store on ``data.filled()``: same family and index; fits kept."""
        if self._filled is None:
            self._filled = (self.data.filled(), {})
        store = CandidateStore(self._filled[0], self.family)
        store._fits, store._source = self._filled[1], self
        return store

"""Monte Carlo comparison of the averaging method against its baselines.

One replication draws equicorrelated covariates, a Bernoulli response
from a logistic truth, then imposes group-wise availability: the last
covariate is withheld from every subject (so every candidate model is
misspecified) and each of three 4-covariate groups is observed exactly
when its leading covariate falls below 1.  Methods are scored by the
per-observation KL-type loss between the true and fitted response
distributions on the complete cases.  Each method is fitted through
:func:`~fragma.baselines.fit_method`, the one method table that ``compare``
also uses, on one candidate store per replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import kl_loss, predict
from .baselines import DEFAULT_METHODS, check_methods, fit_method
from .errors import DataError, NumericalError
from .glm import BINOMIAL, CandidateStore, expit
from .patterns import FragmentaryDataset, cc_fraction

BETA_CASES = ("decay", "flat", "rise")

N_GROUPS = 3
GROUP_WIDTH = 4


def beta_vector(case: str, p: int) -> np.ndarray:
    """True coefficient vectors of the three signal shapes."""
    j = np.arange(1, p + 1)
    if case == "decay":
        return 0.4 / j
    if case == "flat":
        return 0.1 * np.ones(p)
    if case == "rise":
        return 0.2 / (p - j + 1)
    raise ValueError(f"unknown beta case {case!r}; choose from {BETA_CASES}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell."""

    p = 1 + N_GROUPS * GROUP_WIDTH + 1  # not a field: intercept, groups, withheld covariate
    n: int = 400
    beta_case: str = "decay"
    rho: float = 0.3
    reps: int = 50
    seed: int = 0
    methods: tuple = DEFAULT_METHODS

    def __post_init__(self):
        if self.n < self.p:
            raise DataError("n must be at least p")
        if not 0.0 <= self.rho < 1.0:
            raise DataError("rho must lie in [0, 1)")
        if self.beta_case not in BETA_CASES:
            raise DataError(f"unknown beta case {self.beta_case!r}")
        if self.reps < 1:
            raise DataError("reps must be at least 1")
        check_seed(self.seed)
        check_methods(self.methods)


def check_seed(seed) -> None:
    """A seed is a nonnegative integer, as numpy's generators take; else a DataError."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass
class TrueSignal:
    """Per-subject true linear predictor and response mean.

    ``x_full`` keeps the unmasked covariate draw so invariants of the
    missingness mechanism can be checked exhaustively.
    """

    theta: np.ndarray
    mean: np.ndarray
    x_full: np.ndarray = None


@dataclass
class SimResult:
    """Replication-level losses plus per-method summaries."""

    methods: list[str]
    per_rep_kl: np.ndarray
    cc_fraction_per_rep: np.ndarray
    summary: dict
    diagnostics: dict = field(default_factory=dict)


def _rep_rng(seed: int, rep: int, attempt: int = 0) -> np.random.Generator:
    """Counter-based per-replication stream (Philox keyed on seed/rep/attempt)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed), int(rep), int(attempt))))
    )


def sim_groups() -> dict[str, list[int]]:
    """The three availability groups as 0-based column index lists."""
    groups = {}
    for s in range(N_GROUPS):
        start = 1 + s * GROUP_WIDTH
        groups[f"group{s + 1}"] = list(range(start, start + GROUP_WIDTH))
    return groups


def generate_replication(
    cfg: SimConfig, rep: int, attempt: int = 0
) -> tuple[FragmentaryDataset, TrueSignal]:
    """Draw one replication of the design.

    Covariates beyond the intercept share mean 1, variance 1 and pairwise
    covariance rho (one-factor construction, exact for equicorrelation).
    The last covariate is deleted from every subject; group s of four
    covariates is observed exactly when its leading covariate is below 1.
    """
    rng = _rep_rng(cfg.seed, rep, attempt)
    n, p = cfg.n, cfg.p
    beta = beta_vector(cfg.beta_case, p)

    z0 = rng.standard_normal(n)
    z = rng.standard_normal((n, p - 1))
    x = np.empty((n, p))
    x[:, 0] = 1.0
    x[:, 1:] = 1.0 + np.sqrt(cfg.rho) * z0[:, None] + np.sqrt(1.0 - cfg.rho) * z

    theta = x @ beta
    mean = expit(theta)
    y = (rng.random(n) < mean).astype(float)

    mask = np.zeros((n, p), dtype=bool)
    mask[:, 0] = True
    for s in range(N_GROUPS):
        lead = 1 + s * GROUP_WIDTH
        avail = x[:, lead] < 1.0
        mask[:, lead : lead + GROUP_WIDTH] = avail[:, None]
    mask[:, p - 1] = False

    data = FragmentaryDataset(
        y=y,
        x=np.where(mask, x, np.nan),
        mask=mask,
        column_names=[f"X{j}" for j in range(1, p + 1)],
    )
    return data, TrueSignal(theta=theta, mean=mean, x_full=x)


def run_study(cfg: SimConfig) -> SimResult:
    """Run all replications of one cell; deterministic given cfg.seed.

    ``diagnostics`` holds the regenerated-draw count, the failed (rep, method)
    fits and, in fitting order, every weight optimizer's KKT residual and
    stop (``decrement`` when it converged).
    """
    methods = list(cfg.methods)
    per_rep = np.full((cfg.reps, len(methods)), np.nan)
    cc_frac = np.zeros(cfg.reps)
    diagnostics: dict = {"regenerated": 0, "failures": [],
                         "kkt_residuals": [], "optimizer_stops": []}

    groups = sim_groups()
    min_cc = cfg.p - 1  # leading pattern has p - 1 columns
    for rep in range(cfg.reps):
        for attempt in range(20):
            data, truth = generate_replication(cfg, rep, attempt)
            store = CandidateStore(data, BINOMIAL)
            index = store.index
            # Degenerate draws (some candidate with fewer subjects than
            # columns) are regenerated from the next sub-stream, before
            # any fitting happens.
            sizes_ok = index.patterns[0].size == min_cc and all(
                index.s_sets[k].size >= index.patterns[k].size
                for k in range(index.K)
            )
            if sizes_ok:
                break
            diagnostics["regenerated"] += 1
        else:
            raise NumericalError(f"replication {rep}: no usable draw in 20 attempts")
        cc_rows = index.s_sets[0]
        cc_frac[rep] = cc_fraction(index, data.n)
        mu = truth.mean[cc_rows]
        for m, method in enumerate(methods):
            try:
                model = fit_method(method, store, groups=groups, seed=cfg.seed + rep)
                theta = predict(model, data.x[cc_rows])[0]
                per_rep[rep, m] = kl_loss(theta, mu, BINOMIAL, per_obs=True)
            except NumericalError as exc:
                diagnostics["failures"].append({"rep": rep, "method": method, "error": str(exc)})
                continue
            if "kkt_residual" in model.diagnostics:
                diagnostics["kkt_residuals"].append(model.diagnostics["kkt_residual"])
                diagnostics["optimizer_stops"].append(model.diagnostics["optimizer_stop"])

    summary = {}
    for m, method in enumerate(methods):
        col = per_rep[:, m]
        ok = np.isfinite(col)
        summary[method] = {
            "median": float(np.median(col[ok])) if ok.any() else float("nan"),
            "q25": float(np.percentile(col[ok], 25)) if ok.any() else float("nan"),
            "q75": float(np.percentile(col[ok], 75)) if ok.any() else float("nan"),
            "mean": float(np.mean(col[ok])) if ok.any() else float("nan"),
            "failures": int((~ok).sum()),
        }
    return SimResult(
        methods=methods,
        per_rep_kl=per_rep,
        cc_fraction_per_rep=cc_frac,
        summary=summary,
        diagnostics=diagnostics,
    )

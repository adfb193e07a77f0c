"""Model averaging for generalized linear models on fragmentary data.

Subjects observe arbitrary subsets of the covariates; one GLM is fitted
per availability pattern on every subject possessing that pattern's
columns, and the fits are combined with simplex weights chosen by a
penalized complete-case criterion.  Includes comparator methods and a
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .averaging import (
    AveragedModel,
    CriterionContext,
    WeightFit,
    build_criterion_context,
    criterion,
    criterion_gradient,
    fit_averaged,
    kl_loss,
    optimize_weights,
    predict,
    predict_for_pattern,
    score_rows,
)
from .baselines import (
    fit_cc,
    fit_glasso,
    fit_imp,
    fit_smoothed_ic,
)
from .errors import DataError, NumericalError, RankDeficientError
from .glm import (
    BINOMIAL,
    FAMILIES,
    GAUSSIAN,
    POISSON,
    CandidateModel,
    CandidateStore,
    ExponentialFamily,
    FitOptions,
    fit_candidate,
    fit_glm,
    get_family,
    loglik,
)
from .io import read_fragmentary_csv, read_groups_sidecar
from .patterns import (
    FragmentaryDataset,
    Pattern,
    PatternIndex,
    build_pattern_index,
    cc_fraction,
    restrict_to,
)
from .screening import screen_groups
from .sim import SimConfig, SimResult, generate_replication, run_study

__all__ = [
    "AveragedModel",
    "BINOMIAL",
    "CandidateModel",
    "CandidateStore",
    "CriterionContext",
    "DataError",
    "ExponentialFamily",
    "FAMILIES",
    "FitOptions",
    "FragmentaryDataset",
    "GAUSSIAN",
    "NumericalError",
    "POISSON",
    "Pattern",
    "PatternIndex",
    "RankDeficientError",
    "SimConfig",
    "SimResult",
    "WeightFit",
    "build_criterion_context",
    "build_pattern_index",
    "cc_fraction",
    "criterion",
    "criterion_gradient",
    "fit_averaged",
    "fit_candidate",
    "fit_cc",
    "fit_glasso",
    "fit_glm",
    "fit_imp",
    "fit_smoothed_ic",
    "generate_replication",
    "get_family",
    "kl_loss",
    "loglik",
    "optimize_weights",
    "predict",
    "predict_for_pattern",
    "read_fragmentary_csv",
    "read_groups_sidecar",
    "restrict_to",
    "run_study",
    "score_rows",
    "screen_groups",
]

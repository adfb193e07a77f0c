"""Synthetic fragmentary datasets for tests, demos and pipeline checks."""

from __future__ import annotations

import numpy as np

from .glm import expit
from .patterns import FragmentaryDataset

# Availability of the 10-subject, 8-covariate illustrative table
# (True = observed).
TABLE1_MASK = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 1, 1],
        [1, 0, 0, 1, 1, 1, 0, 0],
        [1, 0, 0, 1, 1, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 1, 1],
        [1, 1, 0, 0, 0, 0, 1, 1],
        [1, 1, 0, 0, 0, 0, 1, 1],
    ],
    dtype=bool,
)

# Block availability per pattern of the four-source medical example
# (CSF, PET, MRI, GENE), with the number of subjects in each pattern.
ADNI_BLOCK_PATTERNS = [
    ((1, 1, 1, 1), 409),
    ((1, 1, 1, 0), 368),
    ((1, 1, 0, 1), 40),
    ((0, 1, 1, 1), 105),
    ((0, 1, 0, 1), 86),
    ((0, 1, 1, 0), 53),
    ((0, 0, 0, 1), 53),
    ((0, 0, 1, 0), 56),
]

ADNI_BLOCK_NAMES = ("CSF", "PET", "MRI", "GENE")
ADNI_BLOCK_SIZES = {"CSF": 3, "PET": 5, "MRI": 5, "GENE": 5}
ADNI_RHO = 0.2  # pairwise correlation of the covariates beyond the intercept


def table1_toy(family: str = "gaussian", seed: int = 0) -> FragmentaryDataset:
    """The 10 x 8 illustrative fragmentary dataset with random values."""
    rng = np.random.default_rng(seed)
    n, p = TABLE1_MASK.shape
    x = np.where(TABLE1_MASK, rng.standard_normal((n, p)), np.nan)
    if family == "binomial":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    return FragmentaryDataset(
        y=y, x=x, mask=TABLE1_MASK.copy(), column_names=[f"X{j}" for j in range(1, p + 1)]
    )


def adni_like(seed: int = 0, scale: float = 1.0) -> tuple[FragmentaryDataset, dict]:
    """Synthetic dataset with the 8-pattern block structure of the ADNI table.

    Columns are an always-observed intercept followed by four blocks of
    :data:`ADNI_BLOCK_SIZES` columns, pairwise correlated by
    :data:`ADNI_RHO`.  Block availability per
    pattern and pattern sample sizes follow the published table; ``scale``
    shrinks all sample sizes proportionally (minimum 2 per pattern).
    Returns the dataset and the block -> column-index grouping.
    """
    rng = np.random.default_rng(seed)

    names = ["intercept"]
    groups: dict[str, list[int]] = {}
    for bname in ADNI_BLOCK_NAMES:
        cols = []
        for t in range(ADNI_BLOCK_SIZES[bname]):
            cols.append(len(names))
            names.append(f"{bname}_{t + 1}")
        groups[bname] = cols
    p = len(names)

    counts = [max(2, int(round(c * scale))) for _, c in ADNI_BLOCK_PATTERNS]
    n = sum(counts)

    z0 = rng.standard_normal(n)
    x = np.empty((n, p))
    x[:, 0] = 1.0
    z = rng.standard_normal((n, p - 1))
    x[:, 1:] = np.sqrt(ADNI_RHO) * z0[:, None] + np.sqrt(1 - ADNI_RHO) * z

    beta = 0.5 / np.arange(1, p + 1)
    theta = x @ beta
    y = (rng.random(n) < expit(theta)).astype(float)

    mask = np.zeros((n, p), dtype=bool)
    mask[:, 0] = True
    row = 0
    for (avail, _), cnt in zip(ADNI_BLOCK_PATTERNS, counts):
        for bname, a in zip(ADNI_BLOCK_NAMES, avail):
            if a:
                mask[row : row + cnt, groups[bname]] = True
        row += cnt

    x = np.where(mask, x, np.nan)
    return FragmentaryDataset(y=y, x=x, mask=mask, column_names=names), groups


def random_fragmentary(
    rng: np.random.Generator,
    n: int,
    p: int,
    family: str = "gaussian",
    obs_prob: float = 0.6,
    ensure_full: bool = False,
) -> FragmentaryDataset:
    """Random mask (every row nonempty), normal covariates, family-matched y."""
    mask = rng.random((n, p)) < obs_prob
    empty = ~mask.any(axis=1)
    while empty.any():
        mask[empty] = rng.random((int(empty.sum()), p)) < obs_prob
        empty = ~mask.any(axis=1)
    if ensure_full:
        mask[: max(1, n // 10)] = True
    x = rng.standard_normal((n, p))
    theta = np.where(mask, x, 0.0) @ (1.0 / np.arange(2, p + 2))
    if family == "binomial":
        y = (rng.random(n) < expit(theta)).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(np.clip(theta, -10, 3))).astype(float)
    else:
        y = theta + rng.standard_normal(n)
    x = np.where(mask, x, np.nan)
    return FragmentaryDataset(
        y=y, x=x, mask=mask, column_names=[f"x{j}" for j in range(p)]
    )

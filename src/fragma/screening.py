"""Marginal-correlation screening within column groups."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .patterns import FragmentaryDataset


def pairwise_correlation(data: FragmentaryDataset, j: int) -> float:
    """Pearson correlation of column j with the response on observed rows.

    Degenerate columns (fewer than two observations, or zero variance)
    score 0 so they rank last.
    """
    obs = data.mask[:, j]
    if obs.sum() < 2:
        return 0.0
    xj = data.x[obs, j]
    yj = data.y[obs]
    sx = xj.std()
    sy = yj.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((xj - xj.mean()) * (yj - yj.mean())) / (sx * sy))


def screen_groups(
    data: FragmentaryDataset, groups: dict[str, list[int]], keep: int
) -> dict[str, list[tuple[int, float]]]:
    """Keep the ``keep`` columns most correlated with the response, per group.

    Correlations are computed on pairwise-complete observations.  Groups
    smaller than ``keep`` are kept whole.  A group with no observed
    overlap with the response is an error.
    """
    if keep < 1:
        raise DataError(f"keep must be at least 1, got {keep}")
    out: dict[str, list[tuple[int, float]]] = {}
    for name, cols in groups.items():
        if not cols:
            raise DataError(f"group {name!r} is empty")
        if not data.mask[:, cols].any():
            raise DataError(f"group {name!r} has no observed overlap with the response")
        scored = [(j, pairwise_correlation(data, j)) for j in cols]
        scored.sort(key=lambda t: (-abs(t[1]), t[0]))
        out[name] = scored[:keep]
    return out

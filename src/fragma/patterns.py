"""Availability-pattern decomposition for fragmentary datasets.

A fragmentary dataset observes, for each subject, only a subset of the
covariate columns.  This module groups subjects by their availability
pattern and derives, for every distinct pattern, the two subject sets the
averaging machinery needs: the subjects whose pattern equals it exactly,
and the (larger) set of subjects observing at least those columns.  An
index can also be taken through a subset of the columns (the data as a
sub-pattern query sees it), still in the dataset's own row and column
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class FragmentaryDataset:
    """Response vector plus covariate matrix with a per-cell availability mask.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response values, fully observed ({0,1} for the binomial family).
    x : ndarray, shape (n, p)
        Covariate values.  Cells where ``mask`` is False carry no
        information and must never be read; constructors in this package
        poison them with NaN so accidental reads propagate.
    mask : ndarray of bool, shape (n, p)
        True where the covariate is observed.
    column_names : list of str
        Covariate column names, length p.
    """

    y: np.ndarray
    x: np.ndarray
    mask: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.y.ndim != 1 or self.x.ndim != 2:
            raise DataError("y must be 1-d and x 2-d")
        if self.x.shape != self.mask.shape:
            raise DataError(
                f"x shape {self.x.shape} and mask shape {self.mask.shape} differ"
            )
        if self.y.shape[0] != self.x.shape[0]:
            raise DataError("y and x disagree on the number of subjects")
        if self.y.shape[0] == 0:
            raise DataError("dataset is empty")
        if len(self.column_names) != self.x.shape[1]:
            raise DataError("column_names length does not match x")
        if not np.all(np.isfinite(self.y)):
            raise DataError("response contains missing or non-finite entries")
        rows_empty = ~self.mask.any(axis=1)
        if rows_empty.any():
            bad = np.flatnonzero(rows_empty)
            raise DataError(f"subjects with no observed covariate: rows {bad.tolist()}")
        if not np.all(np.isfinite(self.x[self.mask])):
            raise DataError("observed covariate cells contain non-finite values")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take(self, rows) -> "FragmentaryDataset":
        """The subjects ``rows`` (row numbers or a boolean mask), in that order."""
        return FragmentaryDataset(
            self.y[rows], self.x[rows], self.mask[rows], list(self.column_names)
        )

    def filled(self) -> "FragmentaryDataset":
        """Zero-imputed copy: unobserved cells set to zero and marked observed."""
        return FragmentaryDataset(
            self.y.copy(),
            np.where(self.mask, self.x, 0.0),
            np.ones_like(self.mask),
            list(self.column_names),
        )


@dataclass(frozen=True)
class Pattern:
    """One distinct availability pattern: a sorted set of column indices.

    ``id`` is the 1-based position within a :class:`PatternIndex`; ad-hoc
    patterns (e.g. query patterns) use ``id=0``.
    """

    indices: tuple[int, ...]
    id: int = 0

    def __post_init__(self):
        idx = tuple(int(j) for j in self.indices)
        if len(idx) == 0:
            raise DataError("pattern must contain at least one column")
        if len(set(idx)) != len(idx):
            raise DataError("pattern indices must be unique")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            idx = tuple(sorted(idx))
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class PatternIndex:
    """The K distinct patterns of a dataset with their subject sets.

    For pattern k (0-based list position, 1-based ``Pattern.id``):

    * ``t_sets[k]``  — subjects whose availability equals the pattern exactly;
    * ``s_sets[k]``  — subjects observing at least all of the pattern's columns;
    * ``projections[k]`` — the 0/1 selection matrix of shape (p_k, p) mapping a
      full-length vector onto the pattern's coordinates (built on access).

    Subject indices are 0-based row numbers and pattern indices 0-based
    column numbers of the originating dataset.  ``columns`` are the columns
    the index sees; subjects observing none of them belong to no pattern.
    Rows are never physically reordered: the T sets partition the subjects
    the index sees.
    """

    patterns: list[Pattern]
    t_sets: list[np.ndarray]
    s_sets: list[np.ndarray]
    p: int
    columns: tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.patterns)

    @property
    def full_first(self) -> bool:
        """True when the first pattern covers every column the index sees."""
        return self.patterns[0].size == len(self.columns)

    @property
    def projections(self) -> list[np.ndarray]:
        eye = np.eye(self.p)
        return [eye[list(pat.indices)] for pat in self.patterns]


def split_rows_by_pattern(mask: np.ndarray) -> list[np.ndarray]:
    """Row numbers of each distinct row of a boolean mask, in order of first appearance."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    keys = mask.view(np.dtype((np.void, mask.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    return [groups[u] for u in np.argsort(first)]


def holdout_rows(index: PatternIndex, split: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sorted training and held-out rows, split within each pattern's T set.

    For 0 < ``split`` < 1 a random ``max(1, round(split * |T|))`` rows of
    each T set train and the rest are held out; ``rng`` draws one
    permutation per T set, in index order.
    """
    train, held = [], []
    for t in index.t_sets:
        perm = rng.permutation(t)
        n_train = max(1, int(round(split * len(t))))
        train.append(perm[:n_train])
        held.append(perm[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(held))


def build_pattern_index(data: FragmentaryDataset, columns=None) -> PatternIndex:
    """Decompose a fragmentary dataset into its availability patterns.

    The pattern with the most columns comes first (ties broken
    lexicographically by index set); the remaining patterns follow in
    order of first appearance over the subject rows, matching the usual
    convention of rearranging subjects into contiguous pattern blocks.

    With ``columns`` the data are seen through those columns only, as
    :func:`restrict_to` would restrict them, but rows and columns keep
    their numbers in ``data``: patterns are intersected with ``columns``
    and subjects observing none of them are left out.

    Returns
    -------
    PatternIndex
        All K distinct patterns with exact-match and superset sets;
        1 <= K <= 2**p - 1.
    """
    p = data.p
    cols = np.arange(p) if columns is None else np.asarray(Pattern(tuple(columns)).indices)
    if cols[0] < 0 or cols[-1] >= p:
        raise DataError(f"columns {cols.tolist()} reference columns outside 0..{p - 1}")
    mask = data.mask[:, cols]
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        raise DataError("no subject observes any of the index columns")
    groups = split_rows_by_pattern(mask[rows])

    index_tuples = [tuple(cols[mask[rows[g[0]]]].tolist()) for g in groups]
    # Leader: largest pattern, lexicographic tie-break; rest by first appearance.
    leader = min(range(len(groups)), key=lambda u: (-len(index_tuples[u]), index_tuples[u]))
    order = [leader] + [u for u in range(len(groups)) if u != leader]

    patterns = [Pattern(indices=index_tuples[u], id=rank + 1) for rank, u in enumerate(order)]
    t_sets = [rows[groups[u]] for u in order]
    s_sets = [np.flatnonzero(data.mask[:, list(pat.indices)].all(axis=1)) for pat in patterns]
    return PatternIndex(patterns, t_sets, s_sets, p, tuple(cols.tolist()))


def restrict_to(data: FragmentaryDataset, target: Pattern) -> FragmentaryDataset:
    """Restrict a dataset to the columns of ``target``, dropping subjects observing none.

    No prediction path calls it: sub-pattern refits index the data through
    ``build_pattern_index(columns=)``, for which this copy is the reference.
    """
    idx = list(target.indices)
    if max(idx) >= data.p or min(idx) < 0:
        raise DataError(
            f"target pattern {target.indices} references columns outside 0..{data.p - 1}"
        )
    sub_mask = data.mask[:, idx]
    keep = sub_mask.any(axis=1)
    if not keep.any():
        raise DataError("no subject observes any column of the target pattern")
    return FragmentaryDataset(
        y=data.y[keep],
        x=data.x[np.ix_(keep, idx)],
        mask=sub_mask[keep],
        column_names=[data.column_names[j] for j in idx],
    )


def cc_fraction(index: PatternIndex, n: int) -> float:
    """Share of the n subjects belonging to the leading pattern's S-set.

    When the first pattern covers every column this is the complete-case
    fraction; otherwise (e.g. a column withheld from every subject) the
    maximal pattern's superset sample stands in.
    """
    return float(index.s_sets[0].size) / float(n)

import numpy as np
import pytest

from fragma.datasets import adni_like, random_fragmentary, table1_toy
from fragma.errors import DataError
from fragma.patterns import (
    FragmentaryDataset,
    Pattern,
    build_pattern_index,
    cc_fraction,
    restrict_to,
)
from fragma.sim import SimConfig, generate_replication

from oracles import brute_force_pattern_sets, poisoned


def test_table1_sets_match_published_example():
    data = table1_toy()
    index = build_pattern_index(data)
    assert index.K == 7
    # 0-based row indices of the published 1-based sets.
    assert set(index.t_sets[0]) == {0, 1}
    assert set(index.s_sets[0]) == {0, 1}
    assert set(index.t_sets[1]) == {2}
    assert set(index.s_sets[1]) == {0, 1, 2, 3}
    assert set(index.t_sets[6]) == {8, 9}
    assert set(index.s_sets[6]) == {0, 1, 3, 8, 9}
    assert index.patterns[0].indices == tuple(range(8))
    assert index.patterns[1].indices == (0, 1, 2)
    assert index.patterns[6].indices == (0, 1, 6, 7)


def test_fully_observed_single_pattern(rng):
    n, p = 17, 4
    data = FragmentaryDataset(
        y=rng.standard_normal(n),
        x=rng.standard_normal((n, p)),
        mask=np.ones((n, p), dtype=bool),
        column_names=[f"c{j}" for j in range(p)],
    )
    index = build_pattern_index(data)
    assert index.K == 1
    assert set(index.t_sets[0]) == set(range(n))
    assert set(index.s_sets[0]) == set(range(n))
    assert index.full_first


def test_random_masks_match_brute_force(rng):
    data = random_fragmentary(rng, 30, 6)
    index = build_pattern_index(data)
    oracle = brute_force_pattern_sets(data.mask)
    assert index.K == len(oracle)
    for k, pat in enumerate(index.patterns):
        t, s = oracle[frozenset(pat.indices)]
        assert set(index.t_sets[k]) == t
        assert set(index.s_sets[k]) == s
        assert pat.id == k + 1


def test_partition_superset_projection_properties(rng):
    for _ in range(200):
        n = int(rng.integers(4, 26))
        p = int(rng.integers(2, 7))
        data = random_fragmentary(rng, n, p, obs_prob=float(rng.uniform(0.3, 0.9)))
        index = build_pattern_index(data)
        # partition
        all_t = np.concatenate(index.t_sets)
        assert len(all_t) == n
        assert len(set(all_t.tolist())) == n
        # superset: S_k is exactly the set of rows covering the pattern
        for k, pat in enumerate(index.patterns):
            cover = data.mask[:, list(pat.indices)].all(axis=1)
            assert set(index.s_sets[k]) == set(np.flatnonzero(cover))
            assert set(index.t_sets[k]) <= set(index.s_sets[k])
        # projection extracts exactly the pattern coordinates
        v = rng.standard_normal(p)
        for k, pat in enumerate(index.patterns):
            assert np.array_equal(index.projections[k] @ v, v[list(pat.indices)])
        # monotonicity
        for k, pk in enumerate(index.patterns):
            for l, pl in enumerate(index.patterns):
                if set(pk.indices) <= set(pl.indices):
                    assert set(index.s_sets[k]) >= set(index.s_sets[l])


def test_t_sets_partition_the_subjects(rng):
    data = random_fragmentary(rng, 40, 5)
    index = build_pattern_index(data)
    assert np.array_equal(np.sort(np.concatenate(index.t_sets)), np.arange(40))
    # rows are never physically reordered
    assert data.y.shape[0] == 40


def test_leader_has_maximal_size(rng):
    for _ in range(50):
        data = random_fragmentary(rng, 20, 5)
        index = build_pattern_index(data)
        sizes = [pat.size for pat in index.patterns]
        assert sizes[0] == max(sizes)


def test_restrict_to_adni_blocks_gives_five_patterns():
    data, groups = adni_like(seed=3)
    target = Pattern(tuple([0] + groups["PET"] + groups["MRI"] + groups["GENE"]))
    restricted = restrict_to(data, target)
    index = build_pattern_index(restricted)
    assert index.K == 5


def test_restrict_to_full_is_identity():
    data = table1_toy()
    restricted = restrict_to(data, Pattern(tuple(range(8))))
    assert np.array_equal(restricted.mask, data.mask)
    assert np.array_equal(restricted.y, data.y)
    assert restricted.column_names == data.column_names


def test_restrict_to_single_column():
    data = table1_toy()
    restricted = restrict_to(data, Pattern((0,)))
    index = build_pattern_index(restricted)
    assert index.K == 1
    assert set(index.t_sets[0]) == set(range(10))


def test_restrict_then_index_stays_inside_target(rng):
    for _ in range(30):
        data = random_fragmentary(rng, 25, 6)
        cols = tuple(sorted(rng.choice(6, size=3, replace=False).tolist()))
        try:
            restricted = restrict_to(data, Pattern(cols))
        except DataError:
            continue
        index = build_pattern_index(restricted)
        for pat in index.patterns:
            assert set(pat.indices) <= set(range(len(cols)))


def test_restrict_to_rejects_out_of_range():
    data = table1_toy()
    with pytest.raises(DataError):
        restrict_to(data, Pattern((0, 99)))


@pytest.mark.parametrize("rho,target", [(0.3, 0.190), (0.9, 0.388)])
def test_cc_fraction_under_group_missingness(rho, target):
    cfg = SimConfig(n=200_000, rho=rho, reps=1, seed=42)
    data, _ = generate_replication(cfg, 0)
    index = build_pattern_index(data)
    assert abs(cc_fraction(index, data.n) - target) <= 0.015


def test_cc_fraction_fully_observed(rng):
    data = random_fragmentary(rng, 40, 3, obs_prob=1.0)
    index = build_pattern_index(data)
    assert cc_fraction(index, data.n) == 1.0


def test_dataset_invariants_enforced(rng):
    with pytest.raises(DataError):
        FragmentaryDataset(
            y=np.array([]), x=np.empty((0, 2)), mask=np.empty((0, 2), bool),
            column_names=["a", "b"],
        )
    with pytest.raises(DataError):
        FragmentaryDataset(
            y=np.zeros(2),
            x=np.zeros((2, 2)),
            mask=np.array([[True, False], [False, False]]),
            column_names=["a", "b"],
        )
    with pytest.raises(DataError):
        FragmentaryDataset(
            y=np.array([1.0, np.nan]),
            x=np.zeros((2, 2)),
            mask=np.ones((2, 2), bool),
            column_names=["a", "b"],
        )
    with pytest.raises(DataError):
        FragmentaryDataset(
            y=np.zeros(2), x=np.zeros((2, 2)), mask=np.ones((2, 3), bool),
            column_names=["a", "b"],
        )


def test_pattern_validation():
    with pytest.raises(DataError):
        Pattern(())
    with pytest.raises(DataError):
        Pattern((1, 1))
    assert Pattern((3, 1, 2)).indices == (1, 2, 3)


def test_poisoned_payload_never_read(rng):
    data = poisoned(random_fragmentary(rng, 40, 4))
    index = build_pattern_index(data)
    for k, pat in enumerate(index.patterns):
        sub = data.x[np.ix_(index.s_sets[k], list(pat.indices))]
        assert np.all(np.isfinite(sub))

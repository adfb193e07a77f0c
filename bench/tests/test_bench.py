"""Tests of the benchmark itself: span arithmetic, fixtures, repeatable counters.

Run with ``python3 -m pytest bench/tests``.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from spans import PER_LAYER, TIME_UNITS, Probe, outermost_totals, self_times
from workloads import ManyPatterns, block_fixture, run_cli, write_dataset_csv

from fragma.datasets import adni_like
from fragma.glm import BINOMIAL, fit_all_candidates
from fragma.patterns import build_pattern_index

RUN = Path(__file__).resolve().parents[1] / "run.py"


def test_self_times_subtract_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("io.read", 1.0, 3.0, 0),
        ("io.read", 1.5, 2.5, 1),
        ("glm.fit", 4.0, 8.0, 0),
        ("glm.rank_check", 4.5, 5.0, 3),
        ("trace.hook", 8.0, 8.25, 0),
    ]
    assert self_times(spans) == pytest.approx([3.75, 1.0, 1.0, 3.5, 0.5, 0.25])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    totals = outermost_totals(spans)
    assert totals["io.read"] == pytest.approx(2.0)  # the nested read counted once
    assert totals["glm.fit"] == pytest.approx(4.0)
    assert totals["cli.main"] == pytest.approx(10.0)


def test_traced_call_self_times_add_up_to_the_command(tmp_path):
    data, _ = adni_like(seed=0, scale=1)
    write_dataset_csv(data, tmp_path / "d.csv")
    probe = Probe()
    probe.begin(trace=True)
    try:
        with redirect_stdout(io.StringIO()):
            code = run_cli(["fit", "--input", str(tmp_path / "d.csv"), "--response", "y",
                            "--add-intercept", "--out", str(tmp_path / "out")])
    finally:
        probe.end()
    assert code == 0
    roots = [s for s in probe.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    assert sum(self_times(probe.spans)) == pytest.approx(roots[0][2] - roots[0][1], abs=1e-9)
    m = probe.layer_metrics()
    assert m["glm.fits"] == 8 and m["patterns.index_calls"] == 2
    assert m["averaging.opt_calls"] == 1 and m["io.rows_read"] == data.n
    # The wrappers are gone again.
    import fragma.baselines
    import fragma.glm

    assert fragma.baselines.fit_glm is fragma.glm.fit_glm
    assert fragma.glm.fit_glm.__module__ == "fragma.glm"


@pytest.mark.parametrize("instance", range(ManyPatterns.instances))
def test_many_patterns_fixture_has_every_pattern_fittable(instance):
    data = block_fixture(instance, blocks=ManyPatterns.blocks)
    index = build_pattern_index(data)
    assert index.K == 2**ManyPatterns.blocks
    assert index.full_first
    candidates = fit_all_candidates(data, index, BINOMIAL)
    assert len(candidates) == index.K
    assert all(c.n_k >= c.p_k for c in candidates)


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    units = dict(PER_LAYER)
    return {k: v["value"] for k, v in result["metrics"].items() if units[k] not in TIME_UNITS}


@pytest.mark.parametrize("workload", ["sim-cell", "predict-mixed", "compare", "many-patterns"])
def test_work_counters_repeat_exactly_across_runs(workload):
    first = _traced_counts(workload, seed=5)
    second = _traced_counts(workload, seed=5)
    assert first == second
    for name in ("glm.irls_iters", "glm.fits", "patterns.index_calls",
                 "averaging.criterion_evals"):
        assert first[name] > 0

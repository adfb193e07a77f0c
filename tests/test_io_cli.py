import argparse
import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fragma
from fragma.averaging import (
    AveragedModel,
    fit_averaged,
    kl_loss,
    predict,
    predict_for_pattern,
    score_rows,
)
from fragma.baselines import fit_cc, fit_imp
from fragma.cli import main
from fragma.datasets import adni_like, random_fragmentary, table1_toy
from fragma.errors import DataError
from fragma.glm import CandidateModel, CandidateStore
from fragma.io import (
    read_fragmentary_csv,
    read_groups_sidecar,
    read_matrix_csv,
    write_csv,
    write_predictions,
)
from fragma.patterns import build_pattern_index, holdout_rows, split_rows_by_pattern
from fragma.screening import screen_groups


def dataset_to_csv(data, path, response="y", na_marker="NA"):
    header = [response] + data.column_names
    rows = []
    for i in range(data.n):
        row = [repr(float(data.y[i]))]
        for j in range(data.p):
            row.append(repr(float(data.x[i, j])) if data.mask[i, j] else na_marker)
        rows.append(row)
    write_csv(path, header, rows)


def test_runtime_imports_no_scipy():
    src = str(Path(fragma.__file__).resolve().parents[1])
    code = "import sys, fragma, fragma.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    data = table1_toy()
    f = tmp_path / "toy.csv"
    dataset_to_csv(data, f)
    loaded = read_fragmentary_csv(f, "y")
    assert loaded.column_names == data.column_names
    assert np.array_equal(loaded.mask, data.mask)
    assert np.allclose(loaded.y, data.y)
    assert np.allclose(loaded.x[loaded.mask], data.x[data.mask])


def test_csv_custom_marker_and_empty_cells(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a,b\n1,2.5,?\n0,,3.0\n")
    data = read_fragmentary_csv(f, "y", na_marker="?")
    assert data.mask.tolist() == [[True, False], [False, True]]


def test_csv_ragged_row_names_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,a,b\n1,2,3\n0,4\n")
    with pytest.raises(DataError, match="line 3"):
        read_matrix_csv(f)


def test_csv_missing_response_and_bad_values(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a\n1,2\n,3\n")
    with pytest.raises(DataError, match=r": response has missing values at data rows \[1\]$"):
        read_fragmentary_csv(f, "y")
    f2 = tmp_path / "e.csv"
    f2.write_text("y,a\n1,zap\n")
    with pytest.raises(DataError, match="zap"):
        read_fragmentary_csv(f2, "y")
    with pytest.raises(DataError, match="not in header"):
        read_fragmentary_csv(f, "z")


def test_csv_nan_marker_reads_nan_as_missing(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a,b\n1,2.5,nan\n0,,3.0\n")
    data = read_fragmentary_csv(f, "y", na_marker="nan")
    assert data.mask.tolist() == [[True, False], [False, True]]
    f.write_text("y,a,b\n1,2.5,nan\n0,inf,3.0\n")
    with pytest.raises(DataError, match=r"line 3: non-finite value 'inf'"):
        read_fragmentary_csv(f, "y", na_marker="nan")


def test_csv_duplicate_header(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a,a\n1,2,3\n")
    with pytest.raises(DataError, match=r": column 3 of the header: duplicate 'a'$"):
        read_matrix_csv(f)


def test_add_intercept(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a\n1,2\n0,4\n")
    data = read_fragmentary_csv(f, "y", add_intercept=True)
    assert data.column_names == ["intercept", "a"]
    assert np.all(data.x[:, 0] == 1.0)
    assert data.mask[:, 0].all()


def test_groups_sidecar(tmp_path):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"groups": {"g1": ["a", "b"], "g2": ["c"]}}))
    groups = read_groups_sidecar(f, ["a", "b", "c", "d"])
    assert groups == {"g1": [0, 1], "g2": [2]}
    f.write_text(json.dumps({"g1": ["a"], "g2": ["a"]}))
    with pytest.raises(DataError, match="more than one group"):
        read_groups_sidecar(f, ["a"])
    with pytest.raises(DataError, match="'a' appears in more than one group: 'g1' and 'g2'$"):
        read_groups_sidecar(f, ["a"])
    f.write_text(json.dumps({"g1": ["a", "b", "a"]}))
    with pytest.raises(DataError, match="'a' appears twice in group 'g1'$"):
        read_groups_sidecar(f, ["a", "b"])
    f.write_text(json.dumps({"g1": ["zz"]}))
    with pytest.raises(DataError, match="unknown column"):
        read_groups_sidecar(f, ["a"])



@pytest.mark.parametrize("layout", [
    {"groups": ["a"], "g2": ["b", "c"]},
    {"groups": {"groups": ["a"], "g2": ["b", "c"]}},
], ids=["flat", "wrapped"])
def test_groups_sidecar_may_name_a_group_groups(tmp_path, layout):
    # Only an object under "groups" is the wrapped layout; a list there is a group.
    f = tmp_path / "g.json"
    f.write_text(json.dumps(layout))
    assert read_groups_sidecar(f, ["a", "b", "c"]) == {"groups": [0], "g2": [1, 2]}

# ---------------------------------------------------------------------------
# screening
# ---------------------------------------------------------------------------

def test_screen_keeps_small_groups_whole(rng):
    data, groups = adni_like(seed=1, scale=0.3)
    kept = screen_groups(data, {"CSF": groups["CSF"]}, keep=10)
    assert len(kept["CSF"]) == 3


def test_screen_ranks_by_known_correlation(rng):
    n = 400
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    x3 = rng.standard_normal(n)
    y = x1 + 0.1 * rng.standard_normal(n)
    x = np.column_stack([x1 * 0 + x1, 0.5 * x1 + np.sqrt(1 - 0.25) * x2, x3])
    from fragma.patterns import FragmentaryDataset

    data = FragmentaryDataset(y, x, np.ones_like(x, dtype=bool), ["hi", "mid", "lo"])
    kept = screen_groups(data, {"all": [0, 1, 2]}, keep=1)
    assert kept["all"][0][0] == 0
    corrs = [abs(r) for _, r in screen_groups(data, {"all": [0, 1, 2]}, keep=3)["all"]]
    assert corrs[0] > corrs[1] > corrs[2]


def test_screen_adni_csf_block_all_kept():
    data, groups = adni_like(seed=2)
    kept = screen_groups(data, groups, keep=10)
    assert len(kept["CSF"]) == 3
    assert {j for j, _ in kept["CSF"]} == set(groups["CSF"])


def test_screen_zero_overlap_errors():
    data, groups = adni_like(seed=2, scale=0.1)
    from fragma.patterns import FragmentaryDataset

    blind = FragmentaryDataset(
        data.y,
        data.x,
        np.column_stack([data.mask[:, :-1], np.zeros((data.n, 1), bool)]),
        data.column_names,
    )
    with pytest.raises(DataError, match="overlap"):
        screen_groups(blind, {"dead": [data.p - 1]}, keep=2)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_fit_table1_reports_patterns_then_fails_fit(tmp_path, capsys):
    f = tmp_path / "toy.csv"
    dataset_to_csv(table1_toy(), f)
    out = tmp_path / "out"
    code = run_cli(
        "fit", "--input", str(f), "--response", "y", "--family", "gaussian",
        "--out", str(out),
    )
    # candidate 1 is underdetermined (2 subjects, 8 covariates): numerical failure
    assert code == 1
    report = (out / "report.txt").read_text()
    assert "patterns: 7" in report
    assert "pattern 1: T=[1, 2] S=[1, 2]" in report
    assert "pattern 2: T=[3] S=[1, 2, 3, 4]" in report
    assert "pattern 7: T=[9, 10] S=[1, 2, 4, 9, 10]" in report
    assert json.loads((out / "error.json").read_text())["exit_code"] == 1


def test_cli_fit_fully_observed(tmp_path):
    rng = np.random.default_rng(5)
    f = tmp_path / "full.csv"
    n = 40
    x = rng.standard_normal((n, 2))
    y = (rng.random(n) < 0.5).astype(float)
    rows = [["y", "a", "b"]] + [
        [repr(float(y[i])), repr(float(x[i, 0])), repr(float(x[i, 1]))] for i in range(n)
    ]
    f.write_text("\n".join(",".join(r) for r in rows) + "\n")
    out = tmp_path / "out"
    code = run_cli(
        "fit", "--input", str(f), "--response", "y", "--add-intercept",
        "--out", str(out),
    )
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert len(model["candidates"]) == 1
    assert model["weights"] == [1.0]
    report = (out / "report.txt").read_text()
    assert "patterns: 1" in report
    assert "weight=1.000000" in report
    stop = model["candidates"][0]["stop"]
    assert stop == "decrement"
    assert f"converged=True iterations={model['candidates'][0]['iterations']} stop={stop} " in report
    assert model["diagnostics"]["optimizer_stop"] == "decrement"
    assert "optimizer: stop=decrement iterations=1 " in report
    assert (out / "config.json").exists()


def test_cli_fit_overflowing_design_is_a_numerical_failure(tmp_path):
    # Full rank, but X^T X overflows: no Newton step can be taken, so the
    # fit must not be written as a model with beta = 0.
    rng = np.random.default_rng(5)
    n = 60
    x = 1e160 * rng.standard_normal((n, 3))
    y = (rng.random(n) < 0.5).astype(float)
    f = tmp_path / "huge.csv"
    rows = [["y", "a", "b", "c"]] + [[repr(float(y[i]))] + [repr(float(v)) for v in x[i]]
                                     for i in range(n)]
    f.write_text("\n".join(",".join(r) for r in rows) + "\n")
    out = tmp_path / "out"
    assert run_cli("fit", "--input", str(f), "--response", "y", "--out", str(out)) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "NumericalError"
    assert error["message"] == (
        "Fisher information overflows at beta = 0; rescale columns ['a', 'b', 'c']"
    )
    assert not (out / "model.json").exists()


def test_cli_fit_ragged_csv_exit_2(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,a,b\n1,2,3\n0,4\n")
    code = run_cli("fit", "--input", str(f), "--response", "y", "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize(
    "text, line, raw",
    [
        ("y,a,b\n1,0.5,2\n0,inf,1\n1,0.3,NA\n", 3, "inf"),
        ("y,a,b\n1,0.5,2\n0,1,1\ninf,0.3,NA\n", 4, "inf"),
        ("y,a,b\n1,0.5,2\n0,-Infinity,1\n", 3, "-Infinity"),
    ],
    ids=["covariate", "response", "covariate-negative"],
)
def test_cli_fit_non_finite_cell_exit_2(tmp_path, text, line, raw):
    # an infinite cell is bad input, not an unobserved cell or a missing response
    f = tmp_path / "d.csv"
    f.write_text(text)
    out = tmp_path / "o"
    assert run_cli("fit", "--input", str(f), "--response", "y", "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    cause = f"non-finite value {raw!r}; a missing cell is empty or 'NA'"
    assert error["message"] == f"{f}: line {line}: {cause}"
    assert not (out / "model.json").exists()


def test_cli_predict_nan_query_cell_exit_2(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("y,a\n1,0.5\n0,-0.2\n1,1.5\n0,0.1\n1,-0.7\n0,0.9\n")
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(train), "--response", "y", "--add-intercept",
                   "--out", str(out)) == 0
    query = tmp_path / "q.csv"
    query.write_text("a\n0.3\nnan\n")
    pred = tmp_path / "p"
    assert run_cli("predict", "--model", str(out / "model.json"), "--input", str(query),
                   "--train", str(train), "--response", "y", "--add-intercept",
                   "--out", str(pred)) == 2
    message = json.loads((pred / "error.json").read_text())["message"]
    assert message.startswith(f"{query}: line 3: non-finite value 'nan'")
    assert not (pred / "predictions.csv").exists()


def test_cli_fit_predict_round_trip_reproduces_fitted_means(tmp_path):
    rng = np.random.default_rng(7)
    n = 60
    x = rng.standard_normal((n, 2))
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.4 + x[:, 0] - 0.5 * x[:, 1])))).astype(float)
    train = tmp_path / "train.csv"
    rows = [["y", "a", "b"]] + [
        [repr(float(y[i])), repr(float(x[i, 0])), repr(float(x[i, 1]))] for i in range(n)
    ]
    train.write_text("\n".join(",".join(r) for r in rows) + "\n")
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--input", str(train), "--response", "y", "--add-intercept",
        "--out", str(out),
    ) == 0

    query = tmp_path / "query.csv"
    qrows = [["a", "b"]] + [[repr(float(x[i, 0])), repr(float(x[i, 1]))] for i in range(n)]
    query.write_text("\n".join(",".join(r) for r in qrows) + "\n")
    pred_out = tmp_path / "pred"
    assert run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(query),
        "--out", str(pred_out),
    ) == 0

    model = json.loads((out / "model.json").read_text())
    beta = np.asarray(model["beta_combined"])
    with open(pred_out / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n
    for i, row in enumerate(rows):
        theta = 1.0 * beta[0] + x[i, 0] * beta[1] + x[i, 1] * beta[2]
        assert abs(float(row["theta"]) - theta) < 1e-10
        assert abs(float(row["mean"]) - 1 / (1 + np.exp(-theta))) < 1e-10
        assert row["rule"] == "full"


def test_cli_predict_subpattern_requires_train(tmp_path, capsys):
    data, groups = adni_like(seed=4, scale=0.15)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--input", str(train), "--response", "y", "--out", str(out)
    ) == 0

    q = tmp_path / "q.csv"
    cols = data.column_names
    vals = ["1.0" if c == "intercept" else ("NA" if c.startswith("CSF") else "0.1") for c in cols]
    q.write_text(",".join(cols) + "\n" + ",".join(vals) + "\n")

    capsys.readouterr()
    no_train = run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--out", str(tmp_path / "p1"),
    )
    assert no_train == 2
    err = capsys.readouterr().err
    assert "query row 1 observes only a sub-pattern" in err and "--train" in err

    ok = run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--train", str(train), "--response", "y", "--out", str(tmp_path / "p2"),
    )
    assert ok == 0
    with open(tmp_path / "p2" / "predictions.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["rule"].startswith("restricted:")
    assert np.isfinite(float(row["theta"]))


def _older_model_run(tmp_path, edit):
    """Fit, predict complete cases, then ``edit`` model.json as an earlier fit wrote it.

    Returns the predict argv without --out, the predictions before the
    edit, and the model.json path.
    """
    data, _ = adni_like(seed=4, scale=0.15)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(train), "--response", "y", "--out", str(out)) == 0
    q = tmp_path / "q.csv"
    write_csv(q, data.column_names, [[repr(v) for v in row]
                                     for row in data.x[data.mask.all(axis=1)].tolist()])
    predict_argv = ["predict", "--model", str(out / "model.json"), "--input", str(q)]
    assert run_cli(*predict_argv, "--out", str(tmp_path / "p")) == 0
    model = json.loads((out / "model.json").read_text())
    edit(model)
    (out / "model.json").write_text(json.dumps(model))
    return predict_argv, train, tmp_path / "p" / "predictions.csv", out / "model.json"


def _assert_train_refits(tmp_path, capsys, model_json, train):
    """``predict --train`` on a query of every pattern parses ``train`` and refits.

    The record of an earlier model.json has another layout than a fit
    writes: its fit options are not read, and the candidates a sub-pattern
    query needs are refitted at the default budget.
    """
    data = read_fragmentary_csv(train, "y")
    xq = np.where(data.mask, data.x, np.nan)
    xq = xq[[int(g[0]) for g in split_rows_by_pattern(data.mask)]]
    q = tmp_path / "q-every-pattern.csv"
    write_csv(q, data.column_names,
              [["NA" if np.isnan(v) else repr(v) for v in row] for row in xq.tolist()])
    capsys.readouterr()
    assert run_cli("predict", "--model", str(model_json), "--input", str(q), "--train",
                   str(train), "--response", "y", "--out", str(tmp_path / "p-train")) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"training data: parsed {train} (a record of another layout")
    assert "reused 0 of" in stdout
    model = AveragedModel.from_dict(json.loads(model_json.read_text()))
    theta, _ = score_rows(model, xq, lambda: CandidateStore(data, "binomial"))
    rows = _theta_column(tmp_path / "p-train" / "predictions.csv")
    assert [t for _, t in rows] == theta.tolist()
    assert any(r.startswith("restricted:") for r, _ in rows)


def test_cli_predict_train_refits_an_earlier_model_json_with_fit_options(tmp_path, capsys):
    # Fits once recorded their IRLS budget, and any option named there, as
    # fit_options in model.json and in its training record.
    def fit_options_of_earlier_fits(model):
        for record in (model, model["training"]):
            record["fit_options"] = {"max_iter": 2, "step": 1.0}

    predict_argv, train, new, path = _older_model_run(tmp_path, fit_options_of_earlier_fits)
    assert run_cli(*predict_argv, "--out", str(tmp_path / "p-old")) == 0
    assert (tmp_path / "p-old" / "predictions.csv").read_bytes() == new.read_bytes()
    _assert_train_refits(tmp_path, capsys, path, train)


def _grad_tol_of_older_fits(model):
    # Fits once also stopped on max|score| <= grad_tol, recorded as "score",
    # and recorded grad_tol among their fit_options.
    for c in model["candidates"]:
        c["stop"] = "score"
    for record in (model, model["training"]):
        record["fit_options"] = {"max_iter": 100, "grad_tol": 1e-8}


def test_cli_predict_scores_a_model_json_whose_fits_stopped_on_score(tmp_path):
    predict_argv, _, new, _ = _older_model_run(tmp_path, _grad_tol_of_older_fits)
    assert run_cli(*predict_argv, "--out", str(tmp_path / "p-old")) == 0
    assert (tmp_path / "p-old" / "predictions.csv").read_bytes() == new.read_bytes()


def test_cli_predict_train_refits_an_older_model_json_with_grad_tol(tmp_path, capsys):
    _, train, _, path = _older_model_run(tmp_path, _grad_tol_of_older_fits)
    _assert_train_refits(tmp_path, capsys, path, train)


def test_cli_predict_reads_a_model_json_with_the_ridge_keys_of_older_fits(tmp_path, capsys):
    # Fits once recorded "ridged" per candidate and "ridge" among their
    # fit_options.  Nothing reads either, with or without --train.
    def ridge_of_older_fits(model):
        for c in model["candidates"]:
            c["ridged"] = False
        for record in (model, model["training"]):
            record["fit_options"] = {"max_iter": 100, "ridge": 1e-8}

    predict_argv, train, new, path = _older_model_run(tmp_path, ridge_of_older_fits)
    assert run_cli(*predict_argv, "--out", str(tmp_path / "p-old")) == 0
    assert (tmp_path / "p-old" / "predictions.csv").read_bytes() == new.read_bytes()
    _assert_train_refits(tmp_path, capsys, path, train)


def test_cli_compare_runs_and_is_reproducible(tmp_path):
    data, groups = adni_like(seed=6, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in cols] for n, cols in groups.items()}))
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = [
        "compare", "--input", str(f), "--response", "y",
        "--methods", "opt1,opt2,cc,saic,sbic,imp1,imp2,glasso",
        "--groups", str(g), "--seed", "3",
    ]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    with open(out1 / "kl_summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert [r["method"] for r in summary] == [
        "opt1", "opt2", "cc", "saic", "sbic", "imp1", "imp2", "glasso"
    ]
    for r in summary:
        assert int(r["n_eval"]) > 0
        assert np.isfinite(float(r["loss_per_obs"]))
    assert (out1 / "kl_summary.csv").read_bytes() == (out2 / "kl_summary.csv").read_bytes()
    assert (out1 / "predictions_opt1.csv").read_bytes() == (out2 / "predictions_opt1.csv").read_bytes()


def test_cli_compare_refits_per_method(tmp_path):
    # opt2's sub-pattern refits must use opt2's penalty, whatever ran before it
    data, _ = adni_like(seed=6, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    args = ["compare", "--input", str(f), "--response", "y", "--seed", "3"]
    alone, after_opt1 = tmp_path / "alone", tmp_path / "after_opt1"
    assert run_cli(*args, "--methods", "opt2", "--out", str(alone)) == 0
    assert run_cli(*args, "--methods", "opt1,opt2", "--out", str(after_opt1)) == 0
    with open(alone / "predictions_opt2.csv") as fh:
        assert any(r["rule"] == "restricted" for r in csv.DictReader(fh))
    assert (alone / "predictions_opt2.csv").read_bytes() == (
        after_opt1 / "predictions_opt2.csv"
    ).read_bytes()


def test_cli_compare_fits_each_candidate_column_set_once(tmp_path, monkeypatch):
    # the main fits, the baselines, every sub-pattern refit, the imp fits and
    # the group-lasso refit share one store of candidate fits: no GLM input
    # (X, y) is fitted twice.  opt1 and opt2 refit on the same 7 query
    # patterns, and each pattern's index and criterion context are built
    # once, as are the full fits' contexts, one per store (zero-filled too).
    import fragma.averaging
    import fragma.baselines
    import fragma.glm

    calls = []
    for name in ("build_pattern_index", "_criterion_context"):
        def counted(*args, _name=name, _original=getattr(fragma.averaging, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fragma.averaging, name, counted)
    inputs = []
    original = fragma.glm.fit_glm

    def counting(X, y, *args, **kwargs):
        X, y = np.ascontiguousarray(X, dtype=float), np.ascontiguousarray(y, dtype=float)
        digest = hashlib.blake2b(X.tobytes() + y.tobytes() + repr(X.shape).encode())
        inputs.append(digest.digest())
        return original(X, y, *args, **kwargs)

    monkeypatch.setattr(fragma.glm, "fit_glm", counting)
    monkeypatch.setattr(fragma.baselines, "fit_glm", counting)
    data, groups = adni_like(seed=0)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in c] for n, c in groups.items()}))
    out = tmp_path / "c"
    assert run_cli(
        "compare", "--input", str(f), "--response", "y", "--seed", "0", "--groups", str(g),
        "--methods", "opt1,opt2,cc,saic,sbic,imp1,imp2,glasso", "--out", str(out),
    ) == 0
    with open(out / "predictions_opt1.csv") as fh:
        assert any(r["rule"] == "restricted" for r in csv.DictReader(fh))
    assert inputs
    assert len(inputs) == len(set(inputs))
    assert calls.count("build_pattern_index") == 7
    assert calls.count("_criterion_context") == 9


def test_cli_simulate_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = [
        "simulate", "--n", "200", "--rho", "0.3", "--reps", "2",
        "--methods", "opt1,cc", "--seed", "9",
    ]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "kl_per_rep.csv").read_bytes() == (out2 / "kl_per_rep.csv").read_bytes()
    with open(out1 / "kl_per_rep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"rep", "cc_fraction", "opt1", "cc"}
    assert (out1 / "summary.csv").exists()
    cfg = json.loads((out1 / "config.json").read_text())
    assert cfg["seed"] == 9 and cfg["n"] == 200


def test_cli_screen_end_to_end(tmp_path):
    data, groups = adni_like(seed=8, scale=0.5)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in cols] for n, cols in groups.items()}))
    out = tmp_path / "scr"
    assert run_cli(
        "screen", "--input", str(f), "--response", "y", "--groups", str(g),
        "--keep", "2", "--out", str(out),
    ) == 0
    header, values = read_matrix_csv(out / "reduced.csv")
    # intercept (ungrouped) + 2 per block + response
    assert header[0] == "y"
    assert "intercept" in header
    assert len(header) == 1 + 1 + 2 * 4
    report = json.loads((out / "screen_report.json").read_text())
    assert set(report) == {"CSF", "PET", "MRI", "GENE"}
    assert all(len(v) == 2 for v in report.values())


def test_cli_unknown_method_is_input_error(tmp_path):
    data, _ = adni_like(seed=6, scale=0.1)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    code = run_cli(
        "compare", "--input", str(f), "--response", "y", "--methods", "opt1,zap",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--methods", "opt1,nope"],
        ["simulate", "--rho", "1.0"],
        ["simulate", "--reps", "0"],
        ["simulate", "--methods", ","],
        ["compare", "--methods", ","],
    ],
    ids=["sim-unknown-method", "sim-rho", "sim-reps", "sim-no-method", "compare-no-method"],
)
def test_cli_bad_method_or_cell_is_input_error(tmp_path, argv):
    if argv[0] == "compare":
        data, _ = adni_like(seed=6, scale=0.1)
        f = tmp_path / "d.csv"
        dataset_to_csv(data, f)
        argv = argv + ["--input", str(f), "--response", "y"]
    else:
        argv = argv + ["--n", "200"]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError" and error["exit_code"] == 2
    assert not (out / "summary.csv").exists() and not (out / "kl_summary.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--lambda", "abc"],
        ["fit", "--lambda", "-1"],
        ["screen", "--keep", "0"],
        ["compare", "--split", "0"],
        ["compare", "--split", "-0.5"],
        ["predict", "--train", "model.json"],
        ["predict", "--train", "missing/model.json"],
        ["compare", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
    ],
    ids=["lambda-text", "lambda-negative", "keep", "split-zero", "split-negative",
         "predict-train-no-response", "predict-train-no-response-no-model",
         "compare-seed-negative", "simulate-seed-negative"],
)
def test_cli_bad_argument_is_input_error(tmp_path, argv):
    data, groups = adni_like(seed=6, scale=0.1)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    if argv[0] == "predict":
        # the flags are checked before model.json or the query is read
        _, q, _ = _saved_model_run(tmp_path, fit_cc, [0])
        model = tmp_path / argv[-1]
        argv = argv[:-1] + [str(f), "--model", str(model), "--input", str(q)]
    elif argv[0] == "simulate":
        argv = argv + ["--n", "200", "--reps", "1"]
    else:
        argv = argv + ["--input", str(f), "--response", "y"]
    if argv[0] == "screen":
        g = tmp_path / "groups.json"
        g.write_text(json.dumps(
            {n: [data.column_names[j] for j in cols] for n, cols in groups.items()}
        ))
        argv += ["--groups", str(g)]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError" and error["exit_code"] == 2
    assert not (out / "model.json").exists() and not (out / "kl_summary.csv").exists()
    if argv[0] == "predict":
        assert error["message"] == "--train needs --response"
        assert not (out / "predictions.csv").exists()
    if "--seed" in argv:
        assert error["message"] == "seed must be a nonnegative integer, got -1"


def test_cli_compare_writes_diagnostics(tmp_path):
    data, groups = adni_like(seed=6, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in cols] for n, cols in groups.items()}))
    out = tmp_path / "c"
    assert run_cli(
        "compare", "--input", str(f), "--response", "y", "--seed", "3",
        "--methods", "opt1,cc,glasso", "--groups", str(g), "--out", str(out),
    ) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert list(diag) == ["cc", "glasso", "opt1"]
    assert "selected_groups" in diag["glasso"]["model"]
    assert "lambda_max_fit" in diag["glasso"]["model"]
    assert diag["opt1"]["model"]["kkt_residual"] <= 1e-7
    assert diag["opt1"]["unavailable"] == []
    with open(out / "predictions_cc.csv") as fh:
        n_unavailable = sum(r["rule"] == "unavailable" for r in csv.DictReader(fh))
    assert n_unavailable > 0
    assert sum(u["rows"] for u in diag["cc"]["unavailable"]) == n_unavailable
    assert all("unobserved" in u["error"] for u in diag["cc"]["unavailable"])


def test_cli_simulate_writes_diagnostics(tmp_path):
    out = tmp_path / "s"
    assert run_cli(
        "simulate", "--n", "200", "--rho", "0.3", "--reps", "3",
        "--methods", "opt1,cc", "--seed", "9", "--out", str(out),
    ) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["regenerated"] >= 0 and diag["failures"] == []
    assert len(diag["kkt_residuals"]) == 3
    assert all(0.0 <= r <= 1e-7 for r in diag["kkt_residuals"])
    assert diag["optimizer_stops"] == ["decrement"] * 3


@pytest.mark.parametrize("family", ["gaussian", "poisson"])
def test_cli_compare_scores_every_family_by_kl_loss(tmp_path, family):
    # loss_per_obs is kl_loss of the written theta against the held-out
    # response on the evaluated rows: the deviance per observation, >= 0
    for seed in (0, 1):
        data = random_fragmentary(np.random.default_rng(seed), 600, 4, family, ensure_full=True)
        f = tmp_path / f"d{seed}.csv"
        dataset_to_csv(data, f)
        out = tmp_path / f"c{seed}"
        assert run_cli(
            "compare", "--input", str(f), "--response", "y", "--family", family,
            "--add-intercept", "--seed", str(seed), "--out", str(out),
        ) == 0
        data = read_fragmentary_csv(f, "y", add_intercept=True)
        train_rows, test_rows = holdout_rows(
            build_pattern_index(data), 0.75, np.random.default_rng(seed)
        )
        lead = list(build_pattern_index(data.take(train_rows)).patterns[0].indices)
        test = data.take(test_rows)
        evaluated = test.mask[:, lead].all(axis=1)
        with open(out / "kl_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 7
        for r in summary:
            theta = np.array([t for _, t in _theta_column(out / f"predictions_{r['method']}.csv")])
            ok = evaluated & np.isfinite(theta)
            expected = kl_loss(theta[ok], test.y[ok], family, per_obs=True)
            assert int(r["n_eval"]) == ok.sum() > 0
            assert r["loss_per_obs"] == f"{expected:.10g}" and expected >= 0.0, r


def test_cli_fit_lambda_names_write_the_bytes_of_their_modes(tmp_path):
    data, _ = adni_like(seed=0)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)

    def model_bytes(lam):
        out = tmp_path / lam
        assert run_cli(
            "fit", "--input", str(train), "--response", "y", "--lambda", lam, "--out", str(out)
        ) == 0
        return (out / "model.json").read_bytes()

    assert model_bytes("log-n1") == model_bytes("opt2")
    assert model_bytes("2") == model_bytes("opt1")
    model = json.loads(model_bytes("log-n1"))
    assert model["lambda_n"] == np.log(model["diagnostics"]["n_weighting"]) == 6.013715156042802
    expected = fit_averaged(CandidateStore(data, "binomial"), "opt2")
    assert model["weights"] == np.asarray(expected.weights).tolist()


def test_cli_predict_train_without_the_fit_s_intercept_exits_2(tmp_path):
    rng = np.random.default_rng(7)
    rows = np.column_stack([(rng.random(60) < 0.5), rng.standard_normal((60, 2))]).tolist()
    train = tmp_path / "train.csv"
    write_csv(train, ["y", "a", "b"], [[repr(float(v)) for v in row] for row in rows])
    fit_out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(train), "--response", "y", "--add-intercept",
                   "--out", str(fit_out)) == 0
    q = tmp_path / "q.csv"
    q.write_text("a\n0.3\n")  # b unobserved: the sub-pattern refit reads --train
    out = tmp_path / "p"
    assert run_cli("predict", "--model", str(fit_out / "model.json"), "--input", str(q),
                   "--train", str(train), "--response", "y", "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    assert error["message"] == "training CSV columns do not match the model's columns"
    assert not (out / "predictions.csv").exists()


def test_cli_fit_add_intercept_on_an_intercept_column_exits_2(tmp_path):
    data, _ = adni_like(seed=6, scale=0.1)
    assert "intercept" in data.column_names
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    out = tmp_path / "o"
    assert run_cli("fit", "--input", str(f), "--response", "y", "--add-intercept",
                   "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    assert error["message"] == "column 'intercept' already present; drop --add-intercept"
    assert not (out / "model.json").exists()


def test_cli_simulate_without_a_usable_draw_exits_1(tmp_path, monkeypatch):
    import fragma.sim as sim

    draws, generate = [], sim.generate_replication
    monkeypatch.setattr(sim, "generate_replication", lambda *a: draws.append(a) or generate(*a))
    out = tmp_path / "s"
    assert run_cli("simulate", "--n", "20", "--reps", "1", "--seed", "0", "--out", str(out)) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "NumericalError"
    assert error["message"] == "replication 0: no usable draw in 20 attempts"
    assert len(draws) == 20
    assert not (out / "kl_per_rep.csv").exists()


def test_cli_predict_fills_only_an_intercept_the_fit_added(tmp_path):
    # Here "intercept" is a data column of the training CSV, fitted without
    # --add-intercept: a query that does not state it does not observe it,
    # and is scored by the refit on the columns it does observe.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 3))
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-x @ [0.5, 1.0, -1.0]))).astype(float)
    x[rng.random(200) < 0.3, 2] = np.nan
    train = tmp_path / "train.csv"
    write_csv(train, ["y", "intercept", "x1", "x2"], [
        [yi] + ["NA" if np.isnan(v) else v for v in row] for yi, row in zip(y.tolist(), x.tolist())
    ])
    fit_out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(train), "--response", "y", "--out", str(fit_out)) == 0
    q = tmp_path / "q.csv"
    q.write_text("x1,x2\n0.5,0.1\n")
    out = tmp_path / "p"
    assert run_cli("predict", "--model", str(fit_out / "model.json"), "--input", str(q),
                   "--train", str(train), "--response", "y", "--out", str(out)) == 0
    with open(out / "predictions.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["rule"] == "restricted:x1+x2"
    model = json.loads((fit_out / "model.json").read_text())
    store = CandidateStore(read_fragmentary_csv(train, "y"), "binomial")
    theta = predict_for_pattern(store, model["lambda_n"], np.array([np.nan, 0.5, 0.1]))[0]
    assert float(row["theta"]) == theta


def _input_error(tmp_path, *argv) -> str:
    """The message of ``argv``'s input error (exit 2)."""
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    return error["message"]


@pytest.mark.parametrize("sidecar, message", [
    (["intercept"], ": expected an object mapping group names to column lists"),
    ({"groups": {}}, ": no groups declared"),
], ids=["list", "no-groups"])
def test_cli_malformed_groups_sidecar_is_input_error(tmp_path, sidecar, message):
    data, _ = adni_like(seed=6, scale=0.1)
    f, g = tmp_path / "d.csv", tmp_path / "groups.json"
    dataset_to_csv(data, f)
    g.write_text(json.dumps(sidecar))
    assert re.search(re.escape(message) + "$", _input_error(
        tmp_path, "compare", "--input", str(f), "--response", "y", "--groups", str(g)
    ))


@pytest.mark.parametrize("complete_cases, blocks, message", [
    (6, None, "complete-case sample (4) smaller than 5 CV folds"),
    (0, ["CSF"], "no group overlaps the complete-case columns"),
], ids=["too-few-complete-cases", "no-complete-cases"])
def test_cli_glasso_without_enough_complete_cases_is_input_error(
    tmp_path, complete_cases, blocks, message
):
    data, groups = adni_like(seed=0)
    complete = np.flatnonzero(data.mask.all(axis=1))
    assert complete.size == 409
    data = data.take(np.setdiff1d(np.arange(data.n), complete[complete_cases:]))
    f, g = tmp_path / "d.csv", tmp_path / "groups.json"
    dataset_to_csv(data, f)
    g.write_text(json.dumps({
        b: [data.column_names[j] for j in cols] for b, cols in groups.items()
        if blocks is None or b in blocks
    }))
    assert re.search(re.escape(message) + "$", _input_error(
        tmp_path, "compare", "--input", str(f), "--response", "y", "--groups", str(g),
        "--methods", "glasso",
    ))


# ---------------------------------------------------------------------------
# One scoring route for saved models; no flag a subcommand never reads
# ---------------------------------------------------------------------------

def _saved_model_run(tmp_path, fit, query_rows):
    """Write ``fit`` on adni_like's training CSV as model.json, plus a query CSV."""
    data, _ = adni_like(seed=0, scale=0.25)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    model = fit(CandidateStore(data, "binomial"))
    (tmp_path / "model.json").write_text(json.dumps(model.to_dict()))
    xq = np.where(data.mask, data.x, np.nan)[query_rows]
    q = tmp_path / "q.csv"
    write_csv(q, data.column_names,
              [["NA" if np.isnan(v) else repr(v) for v in row] for row in xq.tolist()])
    return train, q, xq


def _predict_argv(tmp_path, q, train, out):
    argv = ["predict", "--model", str(tmp_path / "model.json"), "--input", str(q),
            "--out", str(out)]
    return argv + (["--train", str(train), "--response", "y"] if train else [])


@pytest.mark.parametrize("with_train", [True, False], ids=["train", "no-train"])
def test_cli_predict_saved_cc_model_names_the_missing_columns(tmp_path, with_train):
    data, _ = adni_like(seed=0, scale=0.25)
    full = int(np.flatnonzero(data.mask.all(axis=1))[0])
    no_csf = int(np.flatnonzero(~data.mask[:, 1] & data.mask[:, 4:].all(axis=1))[0])
    train, q, _ = _saved_model_run(tmp_path, fit_cc, [full, no_csf])
    out = tmp_path / "p"
    assert run_cli(*_predict_argv(tmp_path, q, train if with_train else None, out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    assert error["message"] == (
        "required covariates unobserved in query: ['CSF_1', 'CSF_2', 'CSF_3']"
    )
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("with_train", [True, False], ids=["train", "no-train"])
def test_cli_predict_saved_imp_model_zero_imputes_every_row(tmp_path, with_train):
    train, q, xq = _saved_model_run(tmp_path, lambda s: fit_imp(s, "opt1"), slice(None))
    out = tmp_path / "p"
    assert run_cli(*_predict_argv(tmp_path, q, train if with_train else None, out)) == 0
    with open(out / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    model = AveragedModel.from_dict(json.loads((tmp_path / "model.json").read_text()))
    theta = np.array([float(r["theta"]) for r in rows])
    assert {r["rule"] for r in rows} == {"zero-imputed"} and len(rows) == xq.shape[0]
    # Each pattern group is one block call; BLAS may round a row's dot product
    # differently by its position in a block, so compare group by group.
    for g in split_rows_by_pattern(np.isfinite(xq)):
        assert np.array_equal(theta[g], predict(model, xq[g])[0])


@pytest.mark.parametrize("case", ["imp1", "opt1-full-rows", "opt1-sub-pattern-rows"])
def test_cli_predict_reads_train_only_for_a_refit(tmp_path, case):
    data, _ = adni_like(seed=0, scale=0.25)
    full = np.flatnonzero(data.mask.all(axis=1))
    if case == "imp1":
        fit, rows, rule = (lambda s: fit_imp(s, "opt1")), slice(None), "zero-imputed"
    else:
        fit, rule = (lambda s: fit_averaged(s, "opt1")), "full"
        rows = full[:5] if case == "opt1-full-rows" else np.flatnonzero(~data.mask[:, 1])[:5]
    _, q, _ = _saved_model_run(tmp_path, fit, rows)
    missing = tmp_path / "missing.csv"
    out = tmp_path / "p"
    code = run_cli(*_predict_argv(tmp_path, q, missing, out))
    if case == "opt1-sub-pattern-rows":
        # a refit reads --train, so the missing file is an input error again
        assert code == 2
        assert str(missing) in json.loads((out / "error.json").read_text())["message"]
        return
    assert code == 0
    with open(out / "predictions.csv") as fh:
        assert {r["rule"] for r in csv.DictReader(fh)} == {rule}


def _first_candidate(m, **fields):
    return {**m, "candidates": [{**m["candidates"][0], **fields}] + m["candidates"][1:]}


def _first_candidate_alone(m, weight):
    """The model of the first candidate only, at ``weight``, its coefficients embedded."""
    c = m["candidates"][0]
    beta = [0.0] * len(m["beta_combined"])
    for j, b in zip(c["pattern"], c["beta"]):
        beta[j] = b
    return {**m, "candidates": [c], "weights": [weight], "beta_combined": beta}


BAD_JSON = [
    ("model", "invalid-json", lambda m: "{"),
    ("model", "no-candidates", lambda m: {k: v for k, v in m.items() if k != "candidates"}),
    ("model", "unknown-family", lambda m: {**m, "family": "weibull"}),
    ("model", "short-beta", lambda m: {**m, "beta_combined": m["beta_combined"][:-1]}),
    ("model", "weight-short", lambda m: {**m, "weights": m["weights"][:-1]}),
    ("model", "weights-scaled", lambda m: {**m, "weights": [2.0 * w for w in m["weights"]]}),
    ("model", "weight-negative",
     lambda m: {**m, "weights": [-1e-10 if k == m["weights"].index(0.0) else w
                                 for k, w in enumerate(m["weights"])]}),
    ("model", "column-outside",
     lambda m: {**m, "candidates": [{**m["candidates"][0], "pattern": [0, 99]}]
                + m["candidates"][1:]}),
    ("groups", "invalid-json", lambda g: "{"),
    ("groups", "not-a-list", lambda g: {"groups": {"A": 3}}),
    # json.load would keep the last value of a repeated key: CSF_1 in no group,
    # and the valid weights after scaled ones
    ("groups", "repeated-key", lambda g: '{"g1": ["CSF_1"], "g1": ["CSF_2"]}'),
    ("model", "repeated-key",
     lambda m: '{"weights": %s, %s' % ([2.0 * w for w in m["weights"]], json.dumps(m)[1:])),
    ("model", "beta-combined-zero",
     lambda m: {**m, "beta_combined": [0.0] * len(m["beta_combined"])}),
    ("model", "weights-null", lambda m: {**m, "weights": None}),
    ("model", "lambda-mode-string", lambda m: {**m, "lambda_n": "opt2"}),
    ("model", "lambda-list", lambda m: {**m, "lambda_n": [2.0]}),
    ("model", "lambda-negative", lambda m: {**m, "lambda_n": -1}),
    ("model", "zero-impute-string", lambda m: {**m, "zero_impute": "false"}),
    ("model", "converged-string", lambda m: _first_candidate(m, converged="false")),
    ("model", "p-k-float", lambda m: _first_candidate(m, p_k=1.9)),
    ("model", "p-k-not-pattern-length",
     lambda m: _first_candidate(m, p_k=m["candidates"][0]["p_k"] + 1)),
    ("model", "iterations-float", lambda m: _first_candidate(m, iterations=2.7)),
    ("model", "n-k-bool", lambda m: _first_candidate(m, n_k=True)),
    ("model", "stop-unknown", lambda m: _first_candidate(m, stop="tired")),
    ("model", "pattern-decreasing",
     lambda m: _first_candidate(m, pattern=m["candidates"][0]["pattern"][::-1])),
    ("model", "loglik-bool", lambda m: _first_candidate(m, loglik=True)),
    ("model", "loglik-string", lambda m: _first_candidate(m, loglik="1e3")),
    ("model", "beta-bool", lambda m: _first_candidate(m, pattern=[0], p_k=1, beta=[True])),
    ("model", "beta-combined-bool", lambda m: {**m, "beta_combined": [True]}),
    ("model", "weights-bool", lambda m: _first_candidate_alone(m, True)),
    ("model", "criterion-value-string", lambda m: {**m, "criterion_value": "abc"}),
    ("model", "column-names-string",
     lambda m: {**m, "column_names": "x" * len(m["column_names"])}),
    ("model", "column-names-numbers",
     lambda m: {**m, "column_names": list(range(len(m["column_names"])))}),
    ("model", "column-names-repeated",
     lambda m: {**m, "column_names": [m["column_names"][0]] * len(m["column_names"])}),
    ("model", "top-level-list", lambda m: [1, 2]),
    ("model", "candidate-number", lambda m: {**m, "candidates": [3]}),
    ("model", "candidates-object", lambda m: {**m, "candidates": {"a": 1}}),
    ("model", "family-list", lambda m: {**m, "family": ["binomial"]}),
    ("model", "diagnostics-string", lambda m: {**m, "diagnostics": "ab"}),
    ("model", "diagnostics-pairs", lambda m: {**m, "diagnostics": [["a", 1]]}),
    ("model", "pattern-id-string", lambda m: _first_candidate(m, pattern_id="x")),
]
# the whole message after the file's path, where a case (or its test id) pins it
BAD_JSON_MESSAGES = {
    "weights-null": "weights must be a list of numbers, got None",
    "lambda-mode-string": "lambda_n must be null or a nonnegative finite number, got 'opt2'",
    "lambda-list": "lambda_n must be null or a nonnegative finite number, got [2.0]",
    "lambda-negative": "lambda_n must be null or a nonnegative finite number, got -1",
    "zero-impute-string": "zero_impute must be true or false, got 'false'",
    "converged-string": "candidate 0: converged must be true or false, got 'false'",
    "p-k-float": "candidate 0: p_k must be an integer, got 1.9",
    "iterations-float": "candidate 0: iterations must be an integer, got 2.7",
    "n-k-bool": "candidate 0: n_k must be an integer, got True",
    "stop-unknown": "candidate 0: stop must be null or one of "
                    "['score', 'decrement', 'no_step', 'max_iter'], got 'tired'",
    "loglik-bool": "candidate 0: loglik must be a number, got True",
    "loglik-string": "candidate 0: loglik must be a number, got '1e3'",
    "beta-bool": "candidate 0: beta must be a list of numbers, got [True]",
    "beta-combined-bool": "beta_combined must be a list of numbers, got [True]",
    "weights-bool": "weights must be a list of numbers, got [True]",
    "criterion-value-string": "criterion_value must be null or a number, got 'abc'",
    "column-names-string": f"column_names must be a list of distinct strings, got {'x' * 19!r}",
    "top-level-list": "expected an object, got [1, 2]",
    "candidate-number": "candidates must be a list of objects, got [3]",
    "candidates-object": "candidates must be a list of objects, got {'a': 1}",
    "family-list": "family must be one of ['binomial', 'gaussian', 'poisson'], got ['binomial']",
    "diagnostics-string": "diagnostics must be an object, got 'ab'",
    "diagnostics-pairs": "diagnostics must be an object, got [['a', 1]]",
    "pattern-id-string": "candidate 0: pattern_id must be an integer, got 'x'",
    "groups-repeated-key": "repeated key 'g1'",
    "model-repeated-key": "repeated key 'weights'",
}


@pytest.mark.parametrize(
    "which, case, mutate", BAD_JSON, ids=[f"{w}-{c}" for w, c, _ in BAD_JSON]
)
def test_cli_bad_model_or_groups_json_exits_2_naming_the_file(tmp_path, which, case, mutate):
    train, q, _ = _saved_model_run(tmp_path, lambda s: fit_averaged(s, "opt1"), slice(0, 5))
    out = tmp_path / "o"
    path = tmp_path / f"{which}.json"
    if which == "model":
        argv = _predict_argv(tmp_path, q, train, out)
        bad = mutate(json.loads(path.read_text()))
    else:
        argv = ["compare", "--input", str(train), "--response", "y", "--methods", "glasso",
                "--groups", str(path), "--out", str(out)]
        bad = mutate({})
    path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    assert run_cli(*argv) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError" and error["exit_code"] == 2
    assert error["message"].startswith(f"{path}: ")
    message = BAD_JSON_MESSAGES.get(f"{which}-{case}", BAD_JSON_MESSAGES.get(case))
    if message is not None:
        assert error["message"] == f"{path}: {message}"
    assert not (out / "predictions.csv").exists() and not (out / "kl_summary.csv").exists()


@pytest.mark.parametrize("command", ["compare", "screen"])
def test_cli_empty_group_exits_2_naming_the_file(tmp_path, command):
    data, groups = adni_like(seed=0, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    named = {n: [data.column_names[j] for j in cols] for n, cols in groups.items()}
    g.write_text(json.dumps({**named, "EMPTY": []}))
    out = tmp_path / "o"
    extra = ["--methods", "glasso"] if command == "compare" else []
    assert run_cli(command, "--input", str(f), "--response", "y", "--groups", str(g),
                   "--out", str(out), *extra) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == 2 and error["message"] == f"{g}: group 'EMPTY' is empty"
    with pytest.raises(DataError, match="is empty"):
        read_groups_sidecar(g, data.column_names)


def test_cli_predict_reads_a_model_json_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    train, fit_out, q, _ = _fit_with_subpattern_queries(tmp_path)
    model_json = fit_out / "model.json"

    def predict(out):
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model_json), "--input", str(q), "--train",
                       str(train), "--response", "y", "--out", str(out)) == 0
        return (out / "predictions.csv").read_bytes(), capsys.readouterr().out.splitlines()[0]

    plain = predict(tmp_path / "plain")
    # as an editor writes the file when it re-saves it as "UTF-8 with BOM"
    model_json.write_bytes(b"\xef\xbb\xbf" + model_json.read_bytes())
    assert predict(tmp_path / "bom") == plain
    assert "saved from the same bytes" in plain[1]


@pytest.mark.parametrize("header, fault", [
    ("y,,b", "column 2 of the header: no name"),
    ('y, ,"b"', "column 2 of the header: no name"),
    ("y,b,b", "column 3 of the header: duplicate 'b'"),
    ('y,b," b"', "column 3 of the header: duplicate 'b'"),
])
def test_cli_an_empty_or_repeated_column_name_exits_2_naming_its_position(
    tmp_path, header, fault
):
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "\n1,0.5,0.2\n0,-0.2,0.1\n1,1.5,-0.3\n0,0.1,0.4\n")
    _, q, _ = _saved_model_run(tmp_path, lambda s: fit_averaged(s, "opt1"), slice(0, 5))
    argvs = {
        "fit": ["fit", "--input", str(bad), "--response", "y"],
        "predict": ["predict", "--model", str(tmp_path / "model.json"), "--input", str(bad)],
    }
    for command, argv in argvs.items():
        out = tmp_path / command
        assert run_cli(*argv, "--out", str(out)) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "DataError" and error["message"] == f"{bad}: {fault}"
    with pytest.raises(DataError, match=fault):
        read_matrix_csv(bad)


@pytest.mark.parametrize("case", ["not-utf8", "oversized-cell", "input-directory"])
def test_cli_unreadable_csv_exits_2_naming_the_file(tmp_path, case):
    f = tmp_path / "d.csv"
    if case == "not-utf8":
        f.write_bytes(b"y,a\n1,\xff\n0,2\n")
    elif case == "oversized-cell":
        f.write_text("y,a\n1," + "1" * 140_000 + "\n0,2\n")
    else:
        f.mkdir()
    out = tmp_path / "o"
    assert run_cli("fit", "--input", str(f), "--response", "y", "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == 2 and str(f) in error["message"]
    if case != "input-directory":
        assert error["error"] == "DataError" and error["message"].startswith(f"{f}: ")
    assert not (out / "model.json").exists()


def test_cli_out_an_existing_file_exits_2_naming_it(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("y,a\n1,0.5\n0,-0.2\n1,1.5\n0,0.1\n")
    out = tmp_path / "taken"
    out.write_text("keep")
    assert run_cli("fit", "--input", str(f), "--response", "y", "--out", str(out)) == 2
    # no output directory to hold error.json: the JSON line on stderr is the record
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == 2 and str(out) in error["message"]
    assert out.read_text() == "keep"


@pytest.mark.parametrize("which", ["groups", "model"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_sidecar_exits_2_naming_it(tmp_path, which, kind):
    data, _ = adni_like(seed=0, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    side = tmp_path / f"{which}.json"
    if kind == "directory":
        side.mkdir()
    else:
        side.write_bytes(b'{"A": ["\xff"]}')
    if which == "groups":
        argv = ["compare", "--input", str(f), "--response", "y", "--methods", "glasso",
                "--groups", str(side)]
    else:
        argv = ["predict", "--model", str(side), "--input", str(f)]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == 2 and str(side) in error["message"]
    if kind == "not-utf8":
        assert error["message"].startswith(f"{side}: invalid JSON: ")


def test_model_from_dict_checks_coefficients_against_candidates():
    data, _ = adni_like(seed=0, scale=0.25)
    saved = json.loads(json.dumps(fit_averaged(CandidateStore(data, "binomial"), "opt1").to_dict()))
    assert AveragedModel.from_dict(saved).beta_combined.tolist() == saved["beta_combined"]
    nudged = [b * (1 + 1e-9) for b in saved["beta_combined"]]
    with pytest.raises(DataError, match="differs from the weighted candidates"):
        AveragedModel.from_dict({**saved, "beta_combined": nudged})
    short = [{**saved["candidates"][0], "beta": saved["candidates"][0]["beta"][:-1]}]
    with pytest.raises(DataError, match="candidate 0: .* coefficients for"):
        AveragedModel.from_dict({**saved, "candidates": short + saved["candidates"][1:]})


def test_to_dict_writes_the_keys_of_its_layout_in_order():
    # A key is declared once, in LAYOUT, and to_dict writes it in that place.
    data, _ = adni_like(seed=0, scale=0.25)
    store = CandidateStore(data, "binomial")
    candidate = store.fit(store.index.patterns[0])
    assert list(candidate.to_dict()) == list(CandidateModel.LAYOUT)
    for model in (fit_averaged(store, "opt1"), fit_imp(store, "opt1")):
        keys = [k for k in AveragedModel.LAYOUT if model.zero_impute or k != "zero_impute"]
        assert list(model.to_dict()) == keys
    # a model.json without diagnostics reads a new dict each time
    saved = {k: v for k, v in model.to_dict().items() if k != "diagnostics"}
    first = AveragedModel.from_dict(saved)
    first.diagnostics["edited"] = True
    assert AveragedModel.from_dict(saved).diagnostics == {}


DEAD_FLAGS = [
    ["fit", "--seed", "1"],
    ["fit", "--ridge", "1e-3"],
    ["compare", "--ridge", "1e-3"],
    ["fit", "--max-iter", "2"],
    ["compare", "--max-iter", "2"],
    ["predict", "--family", "gaussian"],
    ["predict", "--seed", "1"],
    ["simulate", "--family", "gaussian"],
    ["simulate", "--na-marker", "?"],
    ["screen", "--family", "gaussian"],
    ["screen", "--seed", "1"],
]


@pytest.mark.parametrize("argv", DEAD_FLAGS, ids=[" ".join(a[:2]) for a in DEAD_FLAGS])
def test_cli_flag_the_subcommand_never_reads_exits_2(tmp_path, capsys, argv):
    required = {
        "fit": ["--input", "d.csv", "--response", "y"],
        "compare": ["--input", "d.csv", "--response", "y"],
        "predict": ["--model", "model.json", "--input", "q.csv"],
        "simulate": [],
        "screen": ["--input", "d.csv", "--response", "y", "--groups", "g.json"],
    }[argv[0]]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *required, "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def _unread_flags():
    """``subcommand --flag`` for each option no code of that subcommand reads.

    A subcommand reads ``args.<dest>`` in its ``cmd_*`` function or in a
    helper of ``cli.py`` it passes ``args`` to; ``_write_config``, which
    records every argument, does not count.
    """
    from fragma import cli

    funcs = {
        node.name: node
        for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.FunctionDef)
    }

    def reads(name, seen):
        if name in seen or name == "_write_config":
            return set()
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                found.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in funcs
                and any(getattr(a, "id", None) == "args" for a in node.args)
            ):
                found |= reads(node.func.id, seen)
        return found

    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unread = []
    for command, parser in sub.choices.items():
        used = reads(parser.get_default("func").__name__, set())
        unread += [
            f"{command} {action.option_strings[0]}"
            for action in parser._actions
            if action.dest not in ("help", "func", "command") and action.dest not in used
        ]
    return unread


def test_cli_every_flag_is_read_by_its_subcommand():
    assert _unread_flags() == []


def _subparser(name):
    from fragma import cli

    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[name]


def _option(parser, flag):
    return next(a for a in parser._actions if flag in a.option_strings)


def test_cli_defaults_and_choices_are_the_library_declarations():
    from fragma.glm import FAMILIES
    from fragma.io import NA_MARKER
    from fragma.sim import BETA_CASES, SimConfig

    for command in ("fit", "compare"):
        parser = _subparser(command)
        assert list(_option(parser, "--family").choices) == sorted(FAMILIES)
    for command in ("fit", "predict", "compare", "screen"):
        assert _option(_subparser(command), "--na-marker").default == NA_MARKER
    sim = _subparser("simulate")
    for flag in ("--n", "--rho", "--reps", "--seed", "--beta-case"):
        field = flag[2:].replace("-", "_")
        assert _option(sim, flag).default == getattr(SimConfig(), field)
    assert tuple(_option(sim, "--beta-case").choices) == BETA_CASES

    with pytest.raises(TypeError):
        SimConfig(p=10)
    assert SimConfig().p == 14


def _fully_observed_csv(path, y):
    x = np.random.default_rng(5).standard_normal((len(y), 2))
    rows = [["y", "a", "b"]] + [
        [repr(float(y[i])), repr(float(x[i, 0])), repr(float(x[i, 1]))] for i in range(len(y))
    ]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize(
    "family, y, bad",
    [
        ("binomial", [2.0, 3.0] * 20, list(range(40))),
        ("poisson", [-1.0] + [0.0, 1.0, 2.0, 3.0] * 10, [0]),
    ],
    ids=["binomial-2-3", "poisson-negative"],
)
def test_cli_fit_response_outside_the_family_support_exits_2(tmp_path, family, y, bad):
    f = tmp_path / "d.csv"
    _fully_observed_csv(f, y)
    out = tmp_path / "o"
    argv = ["fit", "--input", str(f), "--response", "y", "--add-intercept"]
    assert run_cli(*argv, "--family", family, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    assert error["message"].startswith(f"response outside the {family} support")
    assert error["message"].endswith(f"at data rows {bad}")
    assert not (out / "model.json").exists()
    assert run_cli(*argv, "--family", "gaussian", "--out", str(tmp_path / "g")) == 0


def test_cli_compare_response_outside_the_support_in_the_test_split_exits_2(tmp_path):
    from fragma.patterns import build_pattern_index, holdout_rows

    data, _ = adni_like(seed=6, scale=0.1)
    test_rows = holdout_rows(build_pattern_index(data), 0.75, np.random.default_rng(0))[1]
    bad = int(test_rows[0])
    data.y[bad] = 2.0
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    out = tmp_path / "o"
    assert run_cli(
        "compare", "--input", str(f), "--response", "y", "--methods", "opt1,cc",
        "--out", str(out),
    ) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError"
    assert error["message"].endswith(f"at data rows [{bad}]")
    assert not (out / "kl_summary.csv").exists()


def test_cli_compare_empty_test_split_exits_2(tmp_path):
    # T sets of 41, 37, 4, 10, 9, 5, 5 and 6 rows: round(0.99 |T|) = |T| trains them all
    data, _ = adni_like(seed=6, scale=0.1)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    out = tmp_path / "o"
    assert run_cli(
        "compare", "--input", str(f), "--response", "y", "--methods", "opt1,cc",
        "--split", "0.99", "--out", str(out),
    ) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError" and error["message"] == "test split is empty; lower --split"
    assert not (out / "kl_summary.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_cli_repeated_method_exits_2_naming_it(tmp_path, command):
    argv = [command, "--methods", "opt1,cc,opt1"]
    if command == "compare":
        data, _ = adni_like(seed=6, scale=0.1)
        f = tmp_path / "d.csv"
        dataset_to_csv(data, f)
        argv += ["--input", str(f), "--response", "y"]
    else:
        argv += ["--n", "200", "--reps", "1"]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DataError" and "['opt1']" in error["message"]
    assert not (out / "kl_per_rep.csv").exists() and not (out / "kl_summary.csv").exists()


# ---------------------------------------------------------------------------
# predict --train reuses the fit's parsed training matrix and candidate fits
# ---------------------------------------------------------------------------

def _fit_with_subpattern_queries(tmp_path, na_marker="NA"):
    """``fit`` on adni_like's CSV, plus a query CSV with one row of every pattern."""
    data, _ = adni_like(seed=0, scale=0.25)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train, na_marker=na_marker)
    fit_out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(train), "--response", "y", "--out", str(fit_out)) == 0
    xq = np.where(data.mask, data.x, np.nan)
    xq = xq[[int(g[0]) for g in split_rows_by_pattern(data.mask)]]
    q = tmp_path / "q.csv"
    write_csv(q, data.column_names,
              [[na_marker if np.isnan(v) else repr(v) for v in row] for row in xq.tolist()])
    return train, fit_out, q, xq


def _counted_predict(tmp_path, monkeypatch, capsys, fit_out, q, train, out, *extra):
    """Run predict; return the paths read_matrix_csv parsed, the column sets fitted, stdout."""
    import fragma.cli
    import fragma.glm
    import fragma.io

    parsed, fitted = [], []
    read, fit = fragma.io.read_matrix_csv, fragma.glm.fit_candidate

    def reading(path, *args, **kwargs):
        parsed.append(Path(path))
        return read(path, *args, **kwargs)

    def fitting(data, pattern, *args, **kwargs):
        fitted.append(pattern.indices)
        return fit(data, pattern, *args, **kwargs)

    for module in (fragma.io, fragma.cli):
        monkeypatch.setattr(module, "read_matrix_csv", reading)
    monkeypatch.setattr(fragma.glm, "fit_candidate", fitting)
    capsys.readouterr()
    assert run_cli("predict", "--model", str(fit_out / "model.json"), "--input", str(q),
                   "--train", str(train), "--response", "y", "--out", str(out), *extra) == 0
    monkeypatch.undo()
    return parsed, fitted, capsys.readouterr().out


def _theta_column(path):
    with open(path) as fh:
        return [(r["rule"], float(r["theta"])) for r in csv.DictReader(fh)]


def test_cli_predict_takes_the_fit_s_matrix_and_fits_for_the_same_train(
    tmp_path, monkeypatch, capsys
):
    train, fit_out, q, _ = _fit_with_subpattern_queries(tmp_path)
    saved = json.loads((fit_out / "model.json").read_text())
    in_model = {tuple(c["pattern"]) for c in saved["candidates"]}
    parsed, fitted, stdout = _counted_predict(
        tmp_path, monkeypatch, capsys, fit_out, q, train, tmp_path / "hit"
    )
    assert train not in parsed and q in parsed
    assert fitted and not set(fitted) & in_model
    assert len(fitted) == len(set(fitted))
    line = stdout.splitlines()[0]
    npy = fit_out / "training.npy"
    assert line.startswith(f"training data: {npy}, saved from the same bytes as {train}; reused ")
    assert any(r.startswith("restricted:") for r, _ in _theta_column(tmp_path / "hit" / "predictions.csv"))

    # the same run without the saved matrix and record fits and parses as before
    npy.unlink()
    del saved["training"]
    (fit_out / "model.json").write_text(json.dumps(saved))
    parsed, fitted_again, stdout = _counted_predict(
        tmp_path, monkeypatch, capsys, fit_out, q, train, tmp_path / "plain"
    )
    assert train in parsed and set(fitted) < set(fitted_again)
    assert "reused 0 of" in stdout
    assert (tmp_path / "hit" / "predictions.csv").read_bytes() == (
        tmp_path / "plain" / "predictions.csv"
    ).read_bytes()


MISSES = ["cell-edited", "na-marker", "npy-deleted", "npy-replaced", "npy-header-corrupt",
          "old-record", "fit-options-record", "header-short"]


@pytest.mark.parametrize("case", MISSES)
def test_cli_predict_parses_or_refits_what_the_fit_s_record_does_not_cover(
    tmp_path, monkeypatch, capsys, case
):
    train, fit_out, q, xq = _fit_with_subpattern_queries(
        tmp_path, na_marker="" if case == "na-marker" else "NA"
    )
    npy, extra = fit_out / "training.npy", []
    model_json = json.loads((fit_out / "model.json").read_text())
    if case == "cell-edited":
        lines = train.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) + 0.5) + "\n"
        lines[1] = ",".join(cells)
        train.write_text("".join(lines))
    elif case == "na-marker":
        extra = ["--na-marker", "?"]  # the file's missing cells are empty: same matrix
    elif case == "npy-deleted":
        npy.unlink()
    elif case == "npy-replaced":
        values = np.load(npy)
        np.save(npy, np.where(np.isnan(values), values, values + 1.0))
    elif case == "npy-header-corrupt":
        # a header claiming 4.75 PiB: loading it fails at the allocation, which
        # commits no memory, so the file must not be opened before its digest matched
        with open(npy, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (2**45, 19)}
            )
            fh.write(bytes(64))
    elif case == "old-record":
        # the record of a fit that named the matrix by shape and values digest
        record = model_json["training"]
        values = np.load(npy)
        digest = hashlib.sha256(json.dumps(record["header"]).encode())
        digest.update(values.data)
        del record["npy_sha256"]
        record.update(shape=list(values.shape), sha256=digest.hexdigest())
        (fit_out / "model.json").write_text(json.dumps(model_json))
    elif case == "fit-options-record":
        # a fit that also recorded its IRLS budget: the record has another layout
        for record in (model_json, model_json["training"]):
            record["fit_options"] = {"max_iter": 100}
        (fit_out / "model.json").write_text(json.dumps(model_json))
    else:
        # both digests match, but the recorded header has lost a name
        model_json["training"]["header"].pop()
        (fit_out / "model.json").write_text(json.dumps(model_json))
    parsed, fitted, stdout = _counted_predict(
        tmp_path, monkeypatch, capsys, fit_out, q, train, tmp_path / "p", *extra
    )
    assert train in parsed
    assert stdout.startswith(f"training data: parsed {train} (")
    if case in ("old-record", "fit-options-record"):
        assert stdout.startswith(f"training data: parsed {train} (a record of another layout")
    if case == "header-short":
        assert stdout.startswith(
            f"training data: parsed {train} (the recorded header does not name {npy}'s columns)"
        )
    model = AveragedModel.from_dict(model_json)
    fresh = CandidateStore(read_fragmentary_csv(train, "y", extra[-1] if extra else "NA"),
                           "binomial")
    theta, _ = score_rows(model, xq, lambda: fresh)
    rows = _theta_column(tmp_path / "p" / "predictions.csv")
    assert [t for _, t in rows] == theta.tolist()
    assert any(r.startswith("restricted:") for r, _ in rows)
    # the model's fits come only with the saved matrix
    assert "reused 0 of" in stdout
    assert {tuple(c["pattern"]) for c in model_json["candidates"]} & set(fitted)


def test_cli_fit_writes_the_same_bytes_twice(tmp_path):
    data, _ = adni_like(seed=1, scale=0.25)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("fit", "--input", str(train), "--response", "y", "--out", str(out)) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "training.npy" in names and names == sorted(p.name for p in outs[1].iterdir())
    for name in set(names) - {"config.json"}:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    model = json.loads((outs[0] / "model.json").read_text())
    config = json.loads((outs[0] / "config.json").read_text())
    # every candidate is fitted at FitOptions()'s budget: no file records options
    assert not {"fit_options", "max_iter"} & (set(model) | set(config))
    record = model["training"]
    assert record["csv_sha256"] == hashlib.sha256(train.read_bytes()).hexdigest()
    npy = (outs[0] / "training.npy").read_bytes()
    assert record["npy_sha256"] == hashlib.sha256(npy).hexdigest()
    assert record["header"] == ["y"] + data.column_names
    assert sorted(record) == ["csv_sha256", "family", "header", "na_marker", "npy_sha256"]


# ---------------------------------------------------------------------------
# The prediction table: the bytes csv.writer writes for its rows
# ---------------------------------------------------------------------------

def _csv_writer_bytes(tmp_path, rules, theta, mean) -> bytes:
    reference = tmp_path / "csv_writer.csv"
    write_csv(reference, ["row", "rule", "theta", "mean"], [
        [i + 1, rule, f"{t:.17g}", f"{m:.17g}"]
        for i, (rule, t, m) in enumerate(zip(rules, theta.tolist(), mean.tolist()))
    ])
    return reference.read_bytes()


def _recorded_prediction_tables(monkeypatch) -> list:
    import fragma.cli

    calls = []
    real = fragma.cli.write_predictions

    def recording(path, rules, theta, mean):
        calls.append((Path(path), rules.copy(), theta.copy(), mean.copy()))
        real(path, rules, theta, mean)

    monkeypatch.setattr(fragma.cli, "write_predictions", recording)
    return calls


def test_write_predictions_writes_what_csv_writer_writes(tmp_path):
    rules = np.array(["full", 'restricted:CSF "1", a+PET\n2', "unavailable", "zero-imputed",
                      "restricted:a\rb", " lead", "full", "unavailable"], dtype=object)
    theta = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1e-300, -5e300])
    mean = np.array([-0.0, 1.0, np.nan, -np.inf, np.inf, 5e-324, 1.7976931348623157e308, 0.5])
    path = tmp_path / "predictions.csv"
    write_predictions(path, rules, theta, mean)
    written = path.read_bytes()
    assert written == _csv_writer_bytes(tmp_path, rules, theta, mean)
    assert written.startswith(b"row,rule,theta,mean\r\n1,full,0,-0\r\n2,\"restricted:CSF ")
    assert b"\r\n3,unavailable,nan,nan\r\n4,zero-imputed,inf,-inf\r\n" in written
    with open(path, newline="") as fh:
        assert [r["rule"] for r in csv.DictReader(fh)] == rules.tolist()
    write_predictions(path, rules[:0], theta[:0], mean[:0])
    assert path.read_bytes() == b"row,rule,theta,mean\r\n"


def test_cli_predict_table_quotes_rules_whose_column_names_need_it(tmp_path, monkeypatch):
    data, _ = adni_like(seed=4, scale=0.15)
    odd = {"CSF_1": 'CSF "1", a', "PET_1": "PET\n2"}
    data = dataclasses.replace(data, column_names=[odd.get(c, c) for c in data.column_names])
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    assert run_cli("fit", "--input", str(train), "--response", "y", "--out",
                   str(tmp_path / "fit")) == 0
    xq = np.where(data.mask, data.x, np.nan)
    q = tmp_path / "q.csv"
    write_csv(q, data.column_names,
              [["NA" if np.isnan(v) else repr(v) for v in row] for row in xq.tolist()])
    tables = _recorded_prediction_tables(monkeypatch)
    out = tmp_path / "p"
    assert run_cli("predict", "--model", str(tmp_path / "fit" / "model.json"), "--input",
                   str(q), "--train", str(train), "--response", "y", "--out", str(out)) == 0
    [(path, rules, theta, mean)] = tables
    assert path == out / "predictions.csv"
    assert any('CSF "1", a' in r and "PET\n2" in r for r in rules if r.startswith("restricted:"))
    written = path.read_bytes()
    assert written == _csv_writer_bytes(tmp_path, rules, theta, mean)
    assert b'"restricted:intercept+CSF ""1"", a+' in written
    model = AveragedModel.from_dict(json.loads((tmp_path / "fit" / "model.json").read_text()))
    expected, _ = score_rows(model, xq, lambda: CandidateStore(data, "binomial"))
    assert theta.tolist() == expected.tolist()


def test_cli_compare_tables_are_what_csv_writer_writes(tmp_path, monkeypatch):
    data, groups = adni_like(seed=6, scale=0.25)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
    g = tmp_path / "groups.json"
    g.write_text(json.dumps({n: [data.column_names[j] for j in c] for n, c in groups.items()}))
    methods = ["opt1", "opt2", "cc", "saic", "sbic", "imp1", "imp2", "glasso"]
    tables = _recorded_prediction_tables(monkeypatch)
    out = tmp_path / "c"
    assert run_cli("compare", "--input", str(f), "--response", "y", "--seed", "3",
                   "--methods", ",".join(methods), "--groups", str(g), "--out", str(out)) == 0
    assert [path for path, *_ in tables] == [out / f"predictions_{m}.csv" for m in methods]
    for path, rules, theta, mean in tables:
        assert path.read_bytes() == _csv_writer_bytes(tmp_path, rules, theta, mean), path.name
    cc_rules, cc_theta = tables[2][1], tables[2][2]
    assert (cc_rules == "unavailable").any()
    assert np.isnan(cc_theta[cc_rules == "unavailable"]).all()
    assert b",unavailable,nan,nan\r\n" in tables[2][0].read_bytes()

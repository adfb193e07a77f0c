import csv
import hashlib
import json

import numpy as np
import pytest

from fragma.averaging import predict_for_pattern
from fragma.cli import main
from fragma.datasets import adni_like, table1_toy
from fragma.errors import DataError
from fragma.glm import CandidateStore, FitOptions
from fragma.io import (
    read_fragmentary_csv,
    read_groups_sidecar,
    read_matrix_csv,
    write_csv,
)
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
    with pytest.raises(DataError, match="response"):
        read_fragmentary_csv(f, "y")
    f2 = tmp_path / "e.csv"
    f2.write_text("y,a\n1,zap\n")
    with pytest.raises(DataError, match="zap"):
        read_fragmentary_csv(f2, "y")
    with pytest.raises(DataError, match="not in header"):
        read_fragmentary_csv(f, "z")


def test_csv_duplicate_header(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("y,a,a\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate"):
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
    f.write_text(json.dumps({"g1": ["zz"]}))
    with pytest.raises(DataError, match="unknown column"):
        read_groups_sidecar(f, ["a"])


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
    assert stop in ("score", "decrement")
    assert f"converged=True iterations={model['candidates'][0]['iterations']} stop={stop} " in report
    assert (out / "config.json").exists()


def test_cli_fit_ragged_csv_exit_2(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("y,a,b\n1,2,3\n0,4\n")
    code = run_cli("fit", "--input", str(f), "--response", "y", "--out", str(tmp_path / "o"))
    assert code == 2


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


def test_cli_predict_subpattern_requires_train(tmp_path):
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

    no_train = run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--out", str(tmp_path / "p1"),
    )
    assert no_train == 2

    ok = run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--train", str(train), "--response", "y", "--out", str(tmp_path / "p2"),
    )
    assert ok == 0
    with open(tmp_path / "p2" / "predictions.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["rule"].startswith("restricted:")
    assert np.isfinite(float(row["theta"]))


def test_cli_predict_refits_under_the_model_fit_options(tmp_path):
    data, _ = adni_like(seed=4, scale=0.15)
    train = tmp_path / "train.csv"
    dataset_to_csv(data, train)
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--input", str(train), "--response", "y", "--max-iter", "2",
        "--ridge", "1e-3", "--out", str(out),
    ) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["fit_options"] == {"max_iter": 2, "grad_tol": 1e-8, "ridge": 1e-3}

    cols = data.column_names
    x_star = np.array([np.nan if c.startswith("CSF") else (1.0 if c == "intercept" else 0.1)
                       for c in cols])
    q = tmp_path / "q.csv"
    q.write_text(",".join(cols) + "\n" + ",".join(
        "NA" if np.isnan(v) else repr(float(v)) for v in x_star) + "\n")
    assert run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--train", str(train), "--response", "y", "--out", str(tmp_path / "p"),
    ) == 0
    with open(tmp_path / "p" / "predictions.csv") as fh:
        row = next(csv.DictReader(fh))

    train_data = read_fragmentary_csv(train, "y")
    opts = FitOptions(max_iter=2, grad_tol=1e-8, ridge=1e-3)
    theta, mean, _ = predict_for_pattern(
        train_data, "binomial", model["lambda_n"], x_star,
        store=CandidateStore(train_data, "binomial", opts),
    )
    assert row["rule"].startswith("restricted:")
    assert float(row["theta"]) == theta
    assert float(row["mean"]) == mean

    model["fit_options"]["step"] = 1.0
    (out / "model.json").write_text(json.dumps(model))
    assert run_cli(
        "predict", "--model", str(out / "model.json"), "--input", str(q),
        "--train", str(train), "--response", "y", "--out", str(tmp_path / "p2"),
    ) == 2


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
    # (X, y) is fitted twice
    import fragma.baselines
    import fragma.glm

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
        ["fit", "--max-iter", "-3"],
        ["fit", "--grad-tol", "-1"],
        ["fit", "--ridge", "-1"],
        ["screen", "--keep", "0"],
        ["compare", "--split", "0"],
        ["compare", "--split", "-0.5"],
    ],
    ids=["lambda-text", "lambda-negative", "max-iter", "grad-tol", "ridge", "keep",
         "split-zero", "split-negative"],
)
def test_cli_bad_argument_is_input_error(tmp_path, argv):
    data, groups = adni_like(seed=6, scale=0.1)
    f = tmp_path / "d.csv"
    dataset_to_csv(data, f)
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

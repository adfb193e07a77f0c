"""Command-line front end: fit, predict, compare, simulate, screen.

Every subcommand writes a ``config.json`` into its output directory that
records the resolved arguments and the package version; no subcommand
reads it back.  Exit codes: 0 success, 1 numerical failure, 2 input error
(such as an unknown or empty method list).  ``compare`` and ``simulate``
fit every method through :func:`~fragma.baselines.fit_method` and write
their fit records and failures to ``diagnostics.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import (
    AveragedModel,
    fit_averaged,
    predict,
    predict_for_pattern,
)
from .baselines import DEFAULT_METHODS, check_methods, fit_method
from .errors import DataError, NumericalError
from .glm import CandidateStore, FitOptions, get_family
from .io import (
    format_cell,
    read_fragmentary_csv,
    read_groups_sidecar,
    read_matrix_csv,
    write_csv,
)
from .patterns import FragmentaryDataset, build_pattern_index, split_rows_by_pattern
from .screening import screen_groups
from .sim import SimConfig, run_study


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_config(out: Path, args) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    _write_json(out / "config.json", cfg)


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_lambda(text: str):
    if text in ("log-n1", "opt2"):
        return "opt2"
    if text in ("2", "opt1"):
        return "opt1"
    try:
        return float(text)
    except ValueError:
        raise DataError(f"--lambda must be 2, log-n1 or a number, got {text!r}") from None


def _fit_options(args) -> FitOptions:
    return FitOptions(
        max_iter=args.max_iter, grad_tol=args.grad_tol, ridge=args.ridge
    )


def _patterns_report(data: FragmentaryDataset, index) -> str:
    lines = []
    lines.append(f"subjects: {data.n}    columns: {data.p}    patterns: {index.K}")
    lines.append("")
    width = max(len(c) for c in data.column_names)
    head = "  k     |T|     |S|   p_k   " + "  ".join(
        c.rjust(width) for c in data.column_names
    )
    lines.append(head)
    lines.append("-" * len(head))
    for k, pat in enumerate(index.patterns, start=1):
        stars = [
            ("*" if j in pat.indices else "").rjust(width) for j in range(data.p)
        ]
        lines.append(
            f"{k:>3}   {index.t_sets[k - 1].size:>5}   {index.s_sets[k - 1].size:>5}"
            f"   {pat.size:>3}   " + "  ".join(stars)
        )
    if data.n <= 30:
        lines.append("")
        lines.append("subject rows per pattern (1-based; T = availability equals the "
                     "pattern, S = availability includes it):")
        for k in range(1, index.K + 1):
            t = (index.t_sets[k - 1] + 1).tolist()
            s = (index.s_sets[k - 1] + 1).tolist()
            lines.append(f"  pattern {k}: T={t} S={s}")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    lam = _parse_lambda(args.lam)
    fopts = _fit_options(args)
    family = get_family(args.family)
    data = read_fragmentary_csv(
        args.input, args.response, args.na_marker, args.add_intercept
    )
    index = build_pattern_index(data)
    report = _patterns_report(data, index)
    (out / "report.txt").write_text(report)

    model = fit_averaged(data, family, lam, store=CandidateStore(data, family, fopts))
    # predict refits sub-pattern candidates under the same IRLS options
    options = {"max_iter": fopts.max_iter, "grad_tol": fopts.grad_tol, "ridge": fopts.ridge}
    with open(out / "model.json", "w") as fh:
        json.dump({**model.to_dict(), "fit_options": options}, fh, indent=2)

    w = np.asarray(model.weights)
    lines = [report, "candidates and weights:"]
    for k, cand in enumerate(model.candidates):
        cols = [model.column_names[j] for j in cand.pattern.indices]
        lines.append(
            f"  {k + 1}: n_k={cand.n_k} p_k={cand.p_k} weight={w[k]:.6f} "
            f"loglik={cand.loglik:.4f} converged={cand.converged} "
            f"iterations={cand.iterations} stop={cand.stop} columns={cols}"
        )
    lines.append(f"lambda_n={model.lambda_n:.6g}  criterion={model.criterion_value:.8g}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"fit: K={index.K} candidates, weighting sample {model.diagnostics['n_weighting']}")
    print(f"wrote {out / 'model.json'}")
    return 0


def _align_query(header, values, column_names):
    """Arrange query CSV columns to the model's column order (absent = unobserved)."""
    q = np.full((values.shape[0], len(column_names)), np.nan)
    pos = {name: j for j, name in enumerate(header)}
    for t, name in enumerate(column_names):
        if name in pos:
            q[:, t] = values[:, pos[name]]
        elif name == "intercept":
            q[:, t] = 1.0
    return q


def _prediction_rows(rules, theta, mean) -> list[list]:
    return [
        [i + 1, rule, f"{t:.17g}", f"{m:.17g}"]
        for i, (rule, t, m) in enumerate(zip(rules, theta.tolist(), mean.tolist()))
    ]


def cmd_predict(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    with open(args.model) as fh:
        saved = json.load(fh)
    model = AveragedModel.from_dict(saved)
    header, values = read_matrix_csv(args.input, args.na_marker)
    q = _align_query(header, values, model.column_names)

    train = None
    if args.train:
        train = read_fragmentary_csv(
            args.train, args.response, args.na_marker, args.add_intercept
        )
        if train.column_names != model.column_names:
            raise DataError("training CSV columns do not match the model's columns")
        try:
            fopts = FitOptions(**saved.get("fit_options", {}))
        except TypeError as exc:
            raise DataError(f"model.json fit_options: {exc}") from exc
        store = CandidateStore(train, model.family, fopts)

    lead = list(model.candidates[0].pattern.indices)
    observed = np.isfinite(q)
    theta, mean = np.empty((2, q.shape[0]))
    rules = np.empty(q.shape[0], dtype=object)
    for rows in split_rows_by_pattern(observed):
        obs = np.flatnonzero(observed[rows[0]])
        if observed[rows[0], lead].all():
            sub, rule = model, "full"
        else:
            if train is None:
                raise DataError(
                    f"query row {rows[0] + 1} observes only a sub-pattern; "
                    "re-fitting requires --train"
                )
            sub = predict_for_pattern(
                train, model.family, model.lambda_n, q[rows[0]], store=store
            )[2]
            rule = "restricted:" + "+".join(model.column_names[j] for j in obs)
        theta[rows], mean[rows] = predict(sub, q[rows])
        rules[rows] = rule
    write_csv(out / "predictions.csv", ["row", "rule", "theta", "mean"],
              _prediction_rows(rules, theta, mean))
    print(f"wrote {out / 'predictions.csv'} ({q.shape[0]} rows)")
    return 0


def _split_by_pattern(data, index, split, rng):
    train_rows, test_rows = [], []
    for t in index.t_sets:
        perm = rng.permutation(t)
        n_train = min(len(t), max(1, int(round(split * len(t)))))
        train_rows.extend(perm[:n_train])
        test_rows.extend(perm[n_train:])
    return np.sort(np.asarray(train_rows, dtype=int)), np.sort(
        np.asarray(test_rows, dtype=int)
    )


def _subset(data, rows):
    return FragmentaryDataset(
        y=data.y[rows],
        x=data.x[rows],
        mask=data.mask[rows],
        column_names=list(data.column_names),
    )


def cmd_compare(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    if not 0.0 < args.split < 1.0:
        raise DataError(f"--split must lie strictly between 0 and 1, got {args.split}")
    family = get_family(args.family)
    fopts = _fit_options(args)
    data = read_fragmentary_csv(
        args.input, args.response, args.na_marker, args.add_intercept
    )
    methods = check_methods(_parse_methods(args.methods))
    groups = None
    if args.groups:
        groups = read_groups_sidecar(args.groups, data.column_names)

    rng = np.random.default_rng(args.seed)
    index_all = build_pattern_index(data)
    train_rows, test_rows = _split_by_pattern(data, index_all, args.split, rng)
    if test_rows.size == 0:
        raise DataError("test split is empty; lower --split")
    train = _subset(data, train_rows)
    test = _subset(data, test_rows)

    index = build_pattern_index(train)
    lead = list(index.patterns[0].indices)
    store = CandidateStore(train, family, fopts)
    fits = {m: fit_method(m, store, index, groups=groups, seed=args.seed) for m in methods}

    eval_rows = np.flatnonzero(test.mask[:, lead].all(axis=1))
    xq = np.where(test.mask, test.x, np.nan)
    summary = []
    diagnostics = {}
    for m in methods:
        fit = fits[m]
        theta = np.full(test.n, np.nan)
        rules = np.full(test.n, "unavailable", dtype=object)
        unavailable = []
        for rows in split_rows_by_pattern(test.mask):
            if fit.zero_impute:
                sub, rule = fit, "zero-imputed"
            elif fit.lambda_n is None or test.mask[rows[0], lead].all():
                sub, rule = fit, "full"
            else:
                sub, rule = None, "restricted"
            try:
                if sub is None:
                    sub = predict_for_pattern(
                        train, family, fit.lambda_n, xq[rows[0]], store=store
                    )[2]
                theta[rows] = predict(sub, xq[rows])[0]
            except (ValueError, NumericalError) as exc:
                unavailable.append({"rows": int(rows.size), "error": str(exc)})
                continue
            rules[rows] = rule
        diagnostics[m] = {"model": fit.diagnostics, "unavailable": unavailable}
        preds = _prediction_rows(rules, theta, family.b_prime(theta))
        write_csv(out / f"predictions_{m}.csv", ["row", "rule", "theta", "mean"], preds)

        theta_eval = theta[eval_rows]
        ok = np.isfinite(theta_eval)
        y_eval = test.y[eval_rows][ok]
        loss = (
            2.0 / family.phi * float(np.mean(family.b(theta_eval[ok]) - y_eval * theta_eval[ok]))
            if ok.any()
            else float("nan")
        )
        summary.append([m, int(ok.sum()), f"{loss:.10g}"])
    write_csv(out / "kl_summary.csv", ["method", "n_eval", "loss_per_obs"], summary)
    _write_json(out / "diagnostics.json", diagnostics)
    print(f"train={train.n} test={test.n} evaluated on {eval_rows.size} full-pattern test rows")
    print(f"wrote {out / 'kl_summary.csv'}")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    methods = _parse_methods(args.methods)
    cfg = SimConfig(
        n=args.n,
        beta_case=args.beta_case,
        rho=args.rho,
        reps=args.reps,
        seed=args.seed,
        methods=methods,
    )
    result = run_study(cfg)

    rows = []
    for rep in range(cfg.reps):
        rows.append(
            [rep, f"{result.cc_fraction_per_rep[rep]:.6f}"]
            + [f"{v:.10g}" for v in result.per_rep_kl[rep]]
        )
    write_csv(out / "kl_per_rep.csv", ["rep", "cc_fraction"] + list(methods), rows)
    srows = [
        [
            m,
            f"{s['median']:.10g}",
            f"{s['q25']:.10g}",
            f"{s['q75']:.10g}",
            f"{s['mean']:.10g}",
            s["failures"],
        ]
        for m, s in result.summary.items()
    ]
    write_csv(
        out / "summary.csv", ["method", "median", "q25", "q75", "mean", "failures"], srows
    )
    _write_json(out / "diagnostics.json", result.diagnostics)
    print(f"simulate: n={cfg.n} rho={cfg.rho} beta={cfg.beta_case} reps={cfg.reps}")
    for m, s in result.summary.items():
        print(f"  {m}: median KL = {s['median']:.5f}")
    print(f"wrote {out / 'kl_per_rep.csv'}")
    return 0


def cmd_screen(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    data = read_fragmentary_csv(args.input, args.response, args.na_marker)
    groups = read_groups_sidecar(args.groups, data.column_names)
    kept = screen_groups(data, groups, keep=args.keep)

    kept_cols = sorted({j for pairs in kept.values() for j, _ in pairs})
    grouped = {j for cols in groups.values() for j in cols}
    ungrouped = [j for j in range(data.p) if j not in grouped]
    final_cols = sorted(set(kept_cols) | set(ungrouped))

    header = [args.response] + [data.column_names[j] for j in final_cols]
    rows = []
    for i in range(data.n):
        row = [format_cell(data.y[i], args.na_marker)]
        for j in final_cols:
            row.append(
                format_cell(data.x[i, j] if data.mask[i, j] else np.nan, args.na_marker)
            )
        rows.append(row)
    write_csv(out / "reduced.csv", header, rows)

    report = {
        name: [
            {"column": data.column_names[j], "correlation": r} for j, r in pairs
        ]
        for name, pairs in kept.items()
    }
    with open(out / "screen_report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"kept {len(final_cols)} columns; wrote {out / 'reduced.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragma",
        description="Model averaging for GLMs on fragmentary (pattern-missing) data",
    )
    parser.add_argument("--version", action="version", version=f"fragma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--na-marker", default="NA", dest="na_marker")
    common.add_argument(
        "--family", default="binomial", choices=["binomial", "gaussian", "poisson"]
    )

    fitlike = argparse.ArgumentParser(add_help=False)
    fitlike.add_argument("--input", required=True, help="pattern-structured CSV")
    fitlike.add_argument("--response", required=True, help="response column name")
    fitlike.add_argument("--add-intercept", action="store_true", dest="add_intercept")
    fitlike.add_argument(
        "--max-iter",
        type=int,
        default=100,
        dest="max_iter",
        help="cap on IRLS iterations per GLM fit; a fit stopped by it is not converged",
    )
    fitlike.add_argument(
        "--grad-tol",
        type=float,
        default=1e-8,
        dest="grad_tol",
        help="early stop once max|score| falls to this value; fits also stop "
        "when the Newton decrement reaches the log-likelihood's roundoff",
    )
    fitlike.add_argument("--ridge", type=float, default=1e-8)

    p_fit = sub.add_parser("fit", parents=[common, fitlike], help="fit an averaged model")
    p_fit.add_argument(
        "--lambda",
        default="2",
        dest="lam",
        help="penalty level: 2, log-n1, or a float",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", parents=[common], help="score a query CSV")
    p_pred.add_argument("--model", required=True, help="model.json from fit")
    p_pred.add_argument("--input", required=True, help="query CSV (cells may be missing)")
    p_pred.add_argument(
        "--train", default=None, help="training CSV (needed for sub-pattern queries)"
    )
    p_pred.add_argument("--response", default=None, help="response column of --train")
    p_pred.add_argument("--add-intercept", action="store_true", dest="add_intercept")
    p_pred.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser(
        "compare", parents=[common, fitlike], help="train/test comparison of methods"
    )
    p_cmp.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_cmp.add_argument("--split", type=float, default=0.75)
    p_cmp.add_argument("--groups", default=None, help="JSON sidecar of column groups")
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the Monte Carlo study")
    p_sim.add_argument("--n", type=int, default=400)
    p_sim.add_argument("--rho", type=float, default=0.3)
    p_sim.add_argument(
        "--beta-case", default="decay", choices=["decay", "flat", "rise"], dest="beta_case"
    )
    p_sim.add_argument("--reps", type=int, default=50)
    p_sim.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_sim.set_defaults(func=cmd_simulate)

    p_scr = sub.add_parser(
        "screen", parents=[common], help="marginal-correlation screening within groups"
    )
    p_scr.add_argument("--input", required=True)
    p_scr.add_argument("--response", required=True)
    p_scr.add_argument("--groups", required=True, help="JSON sidecar of column groups")
    p_scr.add_argument("--keep", type=int, default=10)
    p_scr.set_defaults(func=cmd_screen)
    return parser


def _emit_error(args, exc, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    out = getattr(args, "out", None)
    if out is not None and Path(out).is_dir():
        with open(Path(out) / "error.json", "w") as fh:
            json.dump(payload, fh, indent=2)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FileNotFoundError) as exc:
        return _emit_error(args, exc, 2)
    except (NumericalError, ValueError) as exc:
        return _emit_error(args, exc, 1)


if __name__ == "__main__":
    sys.exit(main())

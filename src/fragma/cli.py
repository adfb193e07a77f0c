"""Command-line front end: fit, predict, compare, simulate, screen.

Every subcommand writes a ``config.json`` into its output directory that
records the resolved arguments and the package version; no subcommand
reads it back.  Exit codes: 0 success, 1 numerical failure, 2 input error
(such as an unknown, repeated or empty method list, a response outside
the family's support, or a path that cannot be opened as the file or
directory it should be).  ``compare`` and ``simulate`` fit every method
through :func:`~fragma.baselines.fit_method` and write their fit records
and failures to ``diagnostics.json``.  ``predict`` and ``compare`` score
rows through :func:`~fragma.averaging.score_rows`, and ``compare`` holds
out rows with :func:`~fragma.patterns.holdout_rows`; this module only
reads, arranges and writes.  ``predict`` reads ``model.json`` with
:func:`~fragma.io.read_model`.  ``fit`` saves its parsed input beside it as
``training.npy``, which ``predict --train`` (needing ``--response``) takes
only when both files hash as recorded (:func:`~fragma.io.reread_matrix_csv`),
and the model's candidate fits only with that matrix and under the recorded
family.  A ``model.json`` whose ``training`` record has another layout still
predicts; with ``--train`` its training CSV is parsed and the candidates it
needs are refitted at the default :class:`~fragma.glm.FitOptions`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import fit_averaged, kl_loss, score_rows
from .baselines import DEFAULT_METHODS, check_methods, fit_method
from .errors import DataError, NumericalError
from .glm import FAMILIES, CandidateStore
from .io import (
    NA_MARKER,
    TRAINING_FILE,
    format_cell,
    matrix_to_dataset,
    read_fragmentary_csv,
    read_groups_sidecar,
    read_matrix_csv,
    read_model,
    reread_matrix_csv,
    save_matrix,
    write_csv,
    write_predictions,
)
from .patterns import FragmentaryDataset, build_pattern_index, holdout_rows
from .screening import screen_groups
from .sim import BETA_CASES, SimConfig, run_study


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
    header, values = read_matrix_csv(args.input, args.na_marker)
    data = matrix_to_dataset(args.input, header, values, args.response, args.add_intercept)
    index = build_pattern_index(data)
    report = _patterns_report(data, index)
    (out / "report.txt").write_text(report)

    model = fit_averaged(CandidateStore(data, args.family), lam)
    # predict takes these fits with training.npy while both files hash as recorded
    training = save_matrix(
        out / TRAINING_FILE, args.input, args.na_marker, header, values, model.family.name
    )
    (out / "model.json").write_text(json.dumps({**model.to_dict(), "training": training}, indent=2))

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
    diag = model.diagnostics
    lines.append(
        f"optimizer: stop={diag['optimizer_stop']} iterations={diag['optimizer_iterations']} "
        f"kkt_residual={diag['kkt_residual']:.3g} converged={diag['optimizer_converged']}"
    )
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"fit: K={index.K} candidates, weighting sample {model.diagnostics['n_weighting']}")
    print(f"wrote {out / 'model.json'}")
    return 0


def _align_query(header, values, column_names, training):
    """Arrange query CSV columns to the model's column order (absent = unobserved)."""
    # an absent intercept reads 1.0 if the fit added it: its recorded header (if any) lacks it
    fit_header = training.get("header") if isinstance(training, dict) else None
    added = not (isinstance(fit_header, list) and "intercept" in fit_header)
    q = np.full((values.shape[0], len(column_names)), np.nan)
    pos = {name: j for j, name in enumerate(header)}
    for t, name in enumerate(column_names):
        if name in pos:
            q[:, t] = values[:, pos[name]]
        elif name == "intercept" and added:
            q[:, t] = 1.0
    return q


def cmd_predict(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    if args.train and args.response is None:
        raise DataError("--train needs --response")
    model, training = read_model(args.model)
    header, values = read_matrix_csv(args.input, args.na_marker)
    q = _align_query(header, values, model.column_names, training)
    loaded = []

    def load_train():
        if not args.train:
            return None
        header, values, reuse, source = reread_matrix_csv(
            args.train, args.na_marker, training,
            Path(args.model).with_name(TRAINING_FILE), model.family.name,
        )
        train = matrix_to_dataset(args.train, header, values, args.response, args.add_intercept)
        if train.column_names != model.column_names:
            raise DataError("training CSV columns do not match the model's columns")
        # Given the model's columns, the fit's header and values fix its
        # response and intercept too: the model's candidates are this data's.
        store = CandidateStore(train, model.family, saved=model.candidates if reuse else ())
        loaded.append((store, source, reuse))
        return store

    theta, scored = score_rows(model, q, load_train)
    rules = np.empty(q.shape[0], dtype=object)
    for rows, rule, error in scored:
        if error is not None and rule == "restricted" and not args.train:
            raise DataError(f"{error}: pass it with --train") from error
        if error is not None:
            raise error
        if rule == "restricted":
            rule += ":" + "+".join(np.array(model.column_names)[np.isfinite(q[rows[0]])])
        rules[rows] = rule
    write_predictions(out / "predictions.csv", rules, theta, model.family.b_prime(theta))
    for store, source, reuse in loaded:
        fits = f"reused {store.reused} of the {len(model.candidates)} fits in {args.model}"
        if not reuse:
            fits += " (not recorded as fitted on these data and family)"
        print(f"training data: {source}; {fits}")
    print(f"wrote {out / 'predictions.csv'} ({q.shape[0]} rows)")
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args)
    _write_config(out, args)
    if not 0.0 < args.split < 1.0:
        raise DataError(f"--split must lie strictly between 0 and 1, got {args.split}")
    methods = check_methods(_parse_methods(args.methods))
    data = read_fragmentary_csv(
        args.input, args.response, args.na_marker, args.add_intercept
    )
    # before the split, so that an error names the input's rows
    FAMILIES[args.family].check_response(data.y)
    groups = None
    if args.groups:
        groups = read_groups_sidecar(args.groups, data.column_names)

    train_rows, test_rows = holdout_rows(
        build_pattern_index(data), args.split, np.random.default_rng(args.seed)
    )
    if test_rows.size == 0:
        raise DataError("test split is empty; lower --split")
    train, test = data.take(train_rows), data.take(test_rows)

    store = CandidateStore(train, args.family)
    family = store.family
    fits = {m: fit_method(m, store, groups=groups, seed=args.seed) for m in methods}

    eval_rows = np.flatnonzero(test.mask[:, list(store.index.patterns[0].indices)].all(axis=1))
    xq = np.where(test.mask, test.x, np.nan)
    summary = []
    diagnostics = {}
    for m, fit in fits.items():
        theta, scored = score_rows(fit, xq, lambda: store)
        rules = np.empty(test.n, dtype=object)
        for rows, rule, error in scored:
            rules[rows] = rule if error is None else "unavailable"
        unavailable = [
            {"rows": int(r.size), "error": str(e)} for r, _, e in scored if e is not None
        ]
        diagnostics[m] = {"model": fit.diagnostics, "unavailable": unavailable}
        write_predictions(out / f"predictions_{m}.csv", rules, theta, family.b_prime(theta))

        ok_rows = eval_rows[np.isfinite(theta[eval_rows])]
        t, y = theta[ok_rows], test.y[ok_rows]
        loss = kl_loss(t, y, family, per_obs=True) if ok_rows.size else np.nan
        summary.append([m, ok_rows.size, f"{loss:.10g}"])
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

    fitlike = argparse.ArgumentParser(add_help=False)
    fitlike.add_argument("--input", required=True, help="pattern-structured CSV")
    fitlike.add_argument("--response", required=True, help="response column name")
    fitlike.add_argument("--add-intercept", action="store_true", dest="add_intercept")
    fitlike.add_argument("--na-marker", default=NA_MARKER, dest="na_marker")
    fitlike.add_argument("--family", default="binomial", choices=sorted(FAMILIES))

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
    p_pred.add_argument("--na-marker", default=NA_MARKER, dest="na_marker")
    p_pred.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser(
        "compare", parents=[common, fitlike], help="train/test comparison of methods"
    )
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_cmp.add_argument("--split", type=float, default=0.75)
    p_cmp.add_argument("--groups", default=None, help="JSON sidecar of column groups")
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the Monte Carlo study")
    p_sim.add_argument("--seed", type=int, default=SimConfig.seed)
    p_sim.add_argument("--n", type=int, default=SimConfig.n)
    p_sim.add_argument("--rho", type=float, default=SimConfig.rho)
    p_sim.add_argument(
        "--beta-case", default=SimConfig.beta_case, choices=BETA_CASES, dest="beta_case"
    )
    p_sim.add_argument("--reps", type=int, default=SimConfig.reps)
    p_sim.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_sim.set_defaults(func=cmd_simulate)

    p_scr = sub.add_parser(
        "screen", parents=[common], help="marginal-correlation screening within groups"
    )
    p_scr.add_argument("--input", required=True)
    p_scr.add_argument("--response", required=True)
    p_scr.add_argument("--groups", required=True, help="JSON sidecar of column groups")
    p_scr.add_argument("--keep", type=int, default=10)
    p_scr.add_argument("--na-marker", default=NA_MARKER, dest="na_marker")
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
    except (DataError, OSError) as exc:
        return _emit_error(args, exc, 2)
    except (NumericalError, ValueError) as exc:
        return _emit_error(args, exc, 1)


if __name__ == "__main__":
    sys.exit(main())

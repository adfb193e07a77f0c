"""Benchmark of the fragma CLI on four workloads, end to end and per layer.

    python3 bench/run.py --workload predict-mixed --seed 1 --seconds 20 --trace 0

Run from any directory; the package is imported from ``src/`` of the
checkout this file sits in.  Each run starts fresh worker processes
(``bench/worker.py``) with the BLAS thread count pinned to 1 in their
environment.  With ``--trace 0`` two workers only set the workload up
(interpreter start, imports, fixtures, warm-up) and a third sets it up and
times operations for ``--seconds``; ``setup_s`` is the median of the three
set-ups.  With ``--trace 1`` one worker alternates untraced and traced
operations and reports the per-layer metrics (``bench/spans.py``) plus the
tracing overhead.  Times are scaled to a reference machine speed
(``bench/calibration.py``).  Every operation's outputs are checked; the
last line of standard output is the JSON result.  A full record, with raw
times, machine information and fingerprint drift, goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S
from spans import PER_LAYER, TIME_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("sim-cell", "predict-mixed", "compare", "many-patterns")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("loss_per_obs", "nats"),
]
SETUPS = 3
RUN_LIMIT_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


class RunFailed(Exception):
    """A worker did not produce a usable record."""


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return None


def run_worker(args, workdir: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    result = workdir / f"{tag}.json"
    result.unlink(missing_ok=True)
    log = workdir / f"{tag}.log"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir / tag),
        "--result", str(result),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, **THREAD_ENV)
    spawned = time.monotonic()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{tag} passed the {RUN_LIMIT_S:.0f} s run limit; see {log}")
    if not result.exists():
        raise RunFailed(f"{tag} exited {proc.returncode} without a record; see {log}")
    rec = json.loads(result.read_text())
    if not rec["ok"]:
        raise RunFailed(f"{tag}: {rec['error']}")
    rec["setup_raw_s"] = rec["ready"] - spawned
    rec["setup_s"] = rec["setup_raw_s"] * REFERENCE_S / rec["setup_calib_s"]
    for op in rec["ops"]:
        op["scale"] = REFERENCE_S / op["calib_s"]
    return rec


def by_instance(ops: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for op in ops:
        groups.setdefault(op["instance"], []).append(op)
    return dict(sorted(groups.items()))


def same(values: list) -> bool:
    first = json.dumps(values[0], sort_keys=True)
    return all(json.dumps(v, sort_keys=True) == first for v in values[1:])


def instance_mean(ops: list[dict], value) -> float:
    """Mean over instances of each instance's median ``value(op)``.

    Instances differ in cost, so their medians are averaged with equal
    weight, however many operations each one got in the run.
    """
    return statistics.fmean(
        statistics.median(value(op) for op in group) for group in by_instance(ops).values()
    )


def end_to_end(measured: dict, setups: list[float]) -> dict[str, float]:
    ops = measured["ops"]
    terms = [t for group in by_instance(ops).values() for t in group[0]["loss_terms"]]
    reduce = statistics.median if measured["loss_stat"] == "median" else statistics.fmean
    attempted = sum(op["attempted_units"] for op in ops)
    failed = sum(op["failed_units"] for op in ops)
    wall = instance_mean(ops, lambda op: op["wall_s"] * op["scale"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": instance_mean(ops, lambda op: op["cpu_s"] * op["scale"]),
        "items_per_s": statistics.fmean(op["items"] for op in ops) / wall,
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
        "loss_per_obs": reduce(terms),
    }


def per_layer(ops: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Times: mean over instances of the median over traced operations.
    Counts: mean over instances of each instance's count, which must repeat
    exactly across that instance's operations."""
    traced = [op for op in ops if op["trace"]]
    untraced = [op for op in ops if not op["trace"]]
    problems = []
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = (
                instance_mean(traced, lambda op: op["wall_s"] * op["scale"])
                / instance_mean(untraced, lambda op: op["wall_s"] * op["scale"])
                - 1.0
            )
        elif unit in TIME_UNITS:
            metrics[name] = instance_mean(traced, lambda op: op["layers"][name] * op["scale"])
        else:
            per_instance = []
            for v, group in by_instance(traced).items():
                values = [op["layers"][name] for op in group]
                if not same(values):
                    problems.append(f"{name} differs between repeats of instance {v}: {values}")
                per_instance.append(values[0])
            metrics[name] = statistics.fmean(per_instance)
    return metrics, problems


def drift(fp: dict, ref: dict | None) -> dict:
    """How far per-instance fingerprints moved from the recorded reference.

    Reported, not gated: a refactor may change the last digits.
    """
    if ref is None:
        return {"reference": "none recorded for this workload and seed"}
    if sorted(fp) != sorted(ref):
        return {"instances": f"{sorted(fp)} vs reference {sorted(ref)}"}
    out = {"criterion_max_rel": 0.0, "weights_max_abs": 0.0, "files_changed": [], "shape": []}
    for v in sorted(fp):
        a, b = fp[v], ref[v]
        ca, cb = a.get("criterion", []), b.get("criterion", [])
        wa, wb = a.get("weights", []), b.get("weights", [])
        if len(ca) != len(cb) or [len(w) for w in wa] != [len(w) for w in wb]:
            out["shape"].append(f"instance {v}: optimizer calls or weight lengths differ")
            continue
        out["criterion_max_rel"] = max(
            [out["criterion_max_rel"]]
            + [abs(x - y) / max(abs(y), 1e-300) for x, y in zip(ca, cb)]
        )
        out["weights_max_abs"] = max(
            [out["weights_max_abs"]]
            + [abs(x - y) for u, w in zip(wa, wb) for x, y in zip(u, w)]
        )
        fa, fb = a.get("files", {}), b.get("files", {})
        out["files_changed"] += [
            f"i{v}/{k}" for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)
        ]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--update-reference", action="store_true",
        help="store this run's fingerprint as the reference for its workload and seed",
    )
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "fragma" / "__init__.py").is_file():
        print(f"bench: no fragma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src" / "fragma", quiet=1):
        print("bench: fragma sources do not compile", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)

    load_start = loadavg()
    try:
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # Two extra set-ups, so that setup_s is a median of three.
        probes = [] if args.trace else [
            run_worker(args, workdir, f"{tag}-setup{k}", deadline, setup_only=True)
            for k in (1, 2)
        ]
        measured = run_worker(args, workdir, f"{tag}-main", deadline, setup_only=False)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    load_end = loadavg()

    ops = measured["ops"]
    groups = by_instance(ops)
    problems = [
        f"outputs of instance {v} differ between repeats"
        for v, group in groups.items()
        if not same([(op["fingerprint"], op["loss_terms"]) for op in group])
    ]
    setups = [rec["setup_s"] for rec in probes + [measured]]
    if args.trace:
        metrics, layer_problems = per_layer(ops)
        problems += layer_problems
    else:
        metrics = end_to_end(measured, setups)
    unit_of = dict(PER_LAYER if args.trace else END_TO_END)

    fingerprint = {str(v): group[0]["fingerprint"] for v, group in groups.items()}
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    fp_drift = drift(fingerprint, references.get(args.workload, {}).get(str(args.seed)))
    if args.update_reference:
        references.setdefault(args.workload, {})[str(args.seed)] = fingerprint
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    walls = [op["wall_s"] * op["scale"] for op in ops if not op["trace"]]
    wall_tail = tail(walls)
    machine = measured["machine"]
    blas = machine["blas"]
    speed = statistics.median(op["scale"] for op in ops)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} instances={len(groups)} operations={len(ops)}")
    print(f"machine: nproc={machine['nproc']} affinity={machine['affinity']} "
          f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']} "
          f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas.get('threads')} "
          f"loadavg {load_start} -> {load_end}")
    print(f"speed: times are scaled to the reference machine speed; median scale {speed:.4g} "
          f"(raw = scaled / scale); raw set-ups {[round(r['setup_raw_s'], 3) for r in probes + [measured]]} s")
    print(f"scaled wall_s over all operations: {len(walls)} samples, "
          f"median {statistics.median(walls):.6g} s, "
          + (f"p{wall_tail[0]:g} {wall_tail[1]:.6g} s ({wall_tail[2]} samples above)"
             if wall_tail else "no percentile above the median has 10 samples beyond it"))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit_of[name]}")
    print(f"fingerprint drift: {json.dumps(fp_drift, sort_keys=True)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed_units"]),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    record = {
        "args": vars(args), "machine": machine, "loadavg": [load_start, load_end],
        "setup_s": setups,
        "ops": [{k: v for k, v in op.items() if k != "fingerprint"} for op in ops],
        "fingerprint": fingerprint, "drift": fp_drift, "problems": problems,
        "result": result,
    }
    (workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

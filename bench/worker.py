"""One benchmark process: set up a workload, time its operation, check outputs.

Started by ``run.py`` with the BLAS thread count pinned to 1 in its
environment, so the pin holds before numpy loads.  Writes a JSON record
to ``--result``; the parent reads setup time from the ``ready`` timestamp
(``time.monotonic`` is system-wide on Linux, so the parent's spawn time
and this process's ready time share one clock).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_info() -> dict:
    """BLAS library, version and live thread count, as far as they can be read."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None
    return info


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _time_op(wl, probe, trace: bool) -> dict:
    probe.begin(trace)
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        codes = wl.op()
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        probe.end()
    outcome = wl.check(codes, probe.weight_fits)
    rec = {
        "instance": wl.instance,
        "trace": trace,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "items": outcome.items,
        "attempted_units": outcome.attempted_units,
        "failed_units": outcome.failed_units,
        "loss_terms": outcome.loss_terms,
        "fingerprint": outcome.fingerprint,
    }
    if trace:
        rec["layers"] = probe.layer_metrics()
    return rec


def measure(instances, probe, calibrate, seconds: float, trace: bool, first: int) -> list[dict]:
    """Cycle operations over the instances until ``seconds`` pass and each ran once.

    Traced runs time an untraced and a traced operation per step, on the
    same instance, in an order that alternates from one cycle to the next,
    so the tracing overhead is measured on the same inputs.  A calibration
    sample is taken between operations; each operation's ``calib_s`` is the
    mean of the two samples around it.
    """
    ops = []
    before = calibrate()
    start = time.perf_counter()
    step = 0
    while step < len(instances) or time.perf_counter() - start < seconds:
        wl = instances[(first + step) % len(instances)]
        if trace:
            order = (False, True) if (step // len(instances)) % 2 == 0 else (True, False)
        else:
            order = (False,)
        for t in order:
            rec = _time_op(wl, probe, t)
            after = calibrate()
            rec["calib_s"] = 0.5 * (before + after)
            before = after
            ops.append(rec)
        step += 1
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help="exit once set up")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fragma

    if Path(fragma.__file__).resolve().parent != ROOT / "src" / "fragma":
        raise RuntimeError(f"fragma imported from {fragma.__file__}, not this checkout")

    from calibration import Calibration
    from spans import Probe
    from workloads import WORKLOADS, CheckFailed

    record = {"ok": False, "ops": [], "error": None}
    try:
        workdir = Path(args.workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        cls = WORKLOADS[args.workload]
        instances = [cls(workdir / f"i{i}", i, args.seed) for i in range(cls.instances)]
        for wl in instances:
            wl.setup()
        first = args.seed % len(instances)
        instances[first].warmup()
        record["ready"] = time.monotonic()
        record["loss_stat"] = cls.loss_stat
        calibrate = Calibration()
        record["setup_calib_s"] = statistics.median(calibrate() for _ in range(3))
        if not args.setup_only:
            record["ops"] = measure(
                instances, Probe(), calibrate, args.seconds, bool(args.trace), first
            )
        record["ok"] = True
    except CheckFailed as exc:
        record["error"] = f"check failed: {exc}"
    except Exception:  # reported to the parent, which fails the run
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["machine"] = _machine()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

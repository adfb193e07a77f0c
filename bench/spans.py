"""Spans and work counters recorded around fragma's layer functions.

The wrappers live here, not in the program.  fragma modules import layer
functions by name (``fit_glm`` is bound in both ``fragma.glm`` and
``fragma.baselines``, ``optimize_weights`` in ``averaging``, ``sim`` and
``baselines``), so :class:`Probe` replaces the function at every fragma
module attribute that holds it, and puts the originals back afterwards.

A span is ``(name, start, end, parent)``, with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory for one operation; per-layer
numbers are derived from them and from the counters the hooks take off
return values (the ``fit_glm`` info dict, ``WeightFit``, ``PatternIndex``,
``SimResult``).  Hook work is itself recorded as a ``trace.hook`` span, so
it is not charged to the caller's self time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("patterns", "glm", "averaging", "baselines", "sim", "io", "cli")

# name, unit; every metric is per operation.  Units ms/us are times, the
# rest are work counts or values that must repeat exactly for the same input.
PER_LAYER = [
    ("patterns.index_ms", "ms"),
    ("patterns.index_calls", "count"),
    ("patterns.restrict_ms", "ms"),
    ("patterns.projection_bytes", "bytes"),
    ("patterns.self_ms", "ms"),
    ("glm.fit_ms", "ms"),
    ("glm.rank_check_ms", "ms"),
    ("glm.fits", "count"),
    ("glm.irls_iters", "count"),
    ("glm.nonconverged", "count"),
    ("glm.iters_at_cap", "count"),
    ("glm.distinct_fit_share", "ratio"),
    ("glm.self_ms", "ms"),
    ("averaging.ctx_ms", "ms"),
    ("averaging.opt_ms", "ms"),
    ("averaging.opt_calls", "count"),
    ("averaging.opt_iters", "count"),
    ("averaging.criterion_evals", "count"),
    ("averaging.gradient_evals", "count"),
    ("averaging.opt_nonconverged", "count"),
    ("averaging.kkt_max", "residual"),
    ("averaging.refits", "count"),
    ("averaging.refit_ms", "ms"),
    ("averaging.predict_row_us", "us"),
    ("averaging.self_ms", "ms"),
    ("baselines.cc_ms", "ms"),
    ("baselines.ic_ms", "ms"),
    ("baselines.imp_ms", "ms"),
    ("baselines.glasso_ms", "ms"),
    ("baselines.glasso_path_fits", "count"),
    ("baselines.self_ms", "ms"),
    ("sim.generate_ms", "ms"),
    ("sim.regenerated", "count"),
    ("sim.self_ms", "ms"),
    ("io.read_ms", "ms"),
    ("io.rows_read", "count"),
    ("io.write_ms", "ms"),
    ("io.bytes_written", "bytes"),
    ("io.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]
TIME_UNITS = ("ms", "us", "frac")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Probe:
    """Installs wrappers on fragma's layer functions for one operation.

    ``begin(trace=False)`` wraps only ``optimize_weights``, to collect the
    ``WeightFit`` results the output checks need; ``begin(trace=True)``
    also records spans and counters for every layer.
    """

    def __init__(self):
        import fragma.averaging as averaging
        import fragma.baselines as baselines
        import fragma.cli as cli
        import fragma.glm as glm
        import fragma.io as io
        import fragma.patterns as patterns
        import fragma.sim as sim

        self._glm = glm
        # (function, span name, hook on return value)
        self._spans = [
            (patterns.build_pattern_index, "patterns.index", self._on_index),
            (patterns.restrict_to, "patterns.restrict", None),
            (glm.fit_glm, "glm.fit", self._on_fit_glm),
            (glm.check_full_rank, "glm.rank_check", None),
            (glm.fit_candidate, "glm.candidate", None),
            (glm.fit_all_candidates, "glm.candidates", None),
            (averaging.fit_averaged, "averaging.fit", None),
            (averaging.build_criterion_context, "averaging.ctx", None),
            (averaging.optimize_weights, "averaging.opt", self._on_weights),
            (averaging.predict_for_pattern, "averaging.refit", None),
            (averaging.predict, "averaging.predict", None),
            (averaging.kl_loss, "averaging.kl", None),
            (baselines.fit_cc, "baselines.cc", None),
            (baselines.fit_smoothed_ic, "baselines.ic", None),
            (baselines.fit_imp, "baselines.imp", None),
            (baselines.fit_glasso, "baselines.glasso", None),
            (baselines.fit_group_lasso_at, "baselines.glasso_path", None),
            (sim.run_study, "sim.study", self._on_study),
            (sim.generate_replication, "sim.generate", None),
            (io.read_matrix_csv, "io.read", self._on_read),
            (io.read_fragmentary_csv, "io.read", None),
            (io.read_groups_sidecar, "io.read", None),
            (io.write_csv, "io.write", self._on_write),
            (cli.main, "cli.main", None),
        ]
        self._counted = [
            (averaging.criterion, "criterion_evals"),
            (averaging.criterion_gradient, "gradient_evals"),
        ]
        self._checked = averaging.optimize_weights
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.fit_digests: set = set()
        self.kkt_max = 0.0
        self.weight_fits: list = []

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fragma" or mod_name.startswith("fragma.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"{original.__qualname__} is bound in no fragma module")

    def begin(self, trace: bool) -> None:
        if self._installed:
            raise RuntimeError("probe already installed")
        self.reset()
        if not trace:
            self._replace(self._checked, self._recording(self._checked))
            return
        for fn, name, hook in self._spans:
            self._replace(fn, self._spanning(fn, name, hook))
        for fn, key in self._counted:
            self._replace(fn, self._counting(fn, key))

    def end(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- wrappers -----------------------------------------------------------

    def _recording(self, fn):
        fits = self.weight_fits

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            fits.append(result)
            return result

        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(args, kwargs, result)
                spans.append(("trace.hook", t1, clock(), parent))
            return result

        return wrapper

    # -- hooks: counters from return values ----------------------------------

    def _on_index(self, args, kwargs, index) -> None:
        self.counts["index_calls"] += 1
        self.counts["projection_bytes"] += sum(int(p.nbytes) for p in index.projections)

    def _on_fit_glm(self, args, kwargs, result) -> None:
        X = np.ascontiguousarray(_arg(args, kwargs, 0, "X"), dtype=float)
        y = np.ascontiguousarray(_arg(args, kwargs, 1, "y"), dtype=float)
        opts = _arg(args, kwargs, 3, "opts") or self._glm.FitOptions()
        _, info = result
        self.counts["fits"] += 1
        self.counts["irls_iters"] += info["iterations"]
        self.counts["nonconverged"] += not info["converged"]
        self.counts["iters_at_cap"] += info["iterations"] >= opts.max_iter
        digest = hashlib.blake2b(X, digest_size=16)
        digest.update(y)
        digest.update(repr((X.shape, _arg(args, kwargs, 2, "family").name)).encode())
        self.fit_digests.add(digest.digest())

    def _on_weights(self, args, kwargs, wfit) -> None:
        self.weight_fits.append(wfit)
        self.counts["opt_iters"] += wfit.iterations
        self.counts["opt_nonconverged"] += not wfit.converged
        self.kkt_max = max(self.kkt_max, float(wfit.kkt_residual))

    def _on_study(self, args, kwargs, result) -> None:
        self.counts["regenerated"] += int(result.diagnostics.get("regenerated", 0))

    def _on_read(self, args, kwargs, result) -> None:
        self.counts["rows_read"] += int(result[1].shape[0])

    def _on_write(self, args, kwargs, result) -> None:
        self.counts["bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # -- per-layer numbers ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the operation just traced (``trace.overhead_frac`` excluded)."""
        spans = self.spans
        if any(s is None for s in spans) or self._stack:
            raise RuntimeError("an operation is still inside a span")
        own = self_times(spans)
        total = outermost_totals(spans)
        calls = Counter(s[0] for s in spans)
        self_by_name: Counter = Counter()
        for s, t in zip(spans, own):
            self_by_name[s[0]] += t
        c = self.counts
        ms = 1e3
        m = {
            "patterns.index_ms": total["patterns.index"] * ms,
            "patterns.index_calls": c["index_calls"],
            "patterns.restrict_ms": total["patterns.restrict"] * ms,
            "patterns.projection_bytes": c["projection_bytes"],
            "glm.fit_ms": self_by_name["glm.fit"] * ms,
            "glm.rank_check_ms": total["glm.rank_check"] * ms,
            "glm.fits": c["fits"],
            "glm.irls_iters": c["irls_iters"],
            "glm.nonconverged": c["nonconverged"],
            "glm.iters_at_cap": c["iters_at_cap"],
            "glm.distinct_fit_share": len(self.fit_digests) / c["fits"] if c["fits"] else 0.0,
            "averaging.ctx_ms": total["averaging.ctx"] * ms,
            "averaging.opt_ms": total["averaging.opt"] * ms,
            "averaging.opt_calls": calls["averaging.opt"],
            "averaging.opt_iters": c["opt_iters"],
            "averaging.criterion_evals": c["criterion_evals"],
            "averaging.gradient_evals": c["gradient_evals"],
            "averaging.opt_nonconverged": c["opt_nonconverged"],
            "averaging.kkt_max": self.kkt_max,
            "averaging.refits": calls["averaging.refit"],
            "averaging.refit_ms": total["averaging.refit"] * ms,
            "averaging.predict_row_us": (
                total["averaging.predict"] / calls["averaging.predict"] * 1e6
                if calls["averaging.predict"]
                else 0.0
            ),
            "baselines.cc_ms": total["baselines.cc"] * ms,
            "baselines.ic_ms": total["baselines.ic"] * ms,
            "baselines.imp_ms": total["baselines.imp"] * ms,
            "baselines.glasso_ms": total["baselines.glasso"] * ms,
            "baselines.glasso_path_fits": calls["baselines.glasso_path"],
            "sim.generate_ms": total["sim.generate"] * ms,
            "sim.regenerated": c["regenerated"],
            "io.read_ms": total["io.read"] * ms,
            "io.rows_read": c["rows_read"],
            "io.write_ms": total["io.write"] * ms,
            "io.bytes_written": c["bytes_written"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = ms * sum(
                t for name, t in self_by_name.items() if name.split(".")[0] == layer
            )
        return m


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(t1 - t0) - cov for (_, t0, t1, _), cov in zip(spans, covered)]


def outermost_totals(spans) -> Counter:
    """Wall time per span name, counting a span nested in a same-name span once."""
    totals: Counter = Counter()
    for name, t0, t1, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] += t1 - t0
    return totals

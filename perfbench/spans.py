"""Spans and call counts recorded from outside the program.

`Tracer.installed()` replaces each traced public function with a wrapper in
every `impatience` module namespace that holds it (the defining module, the
package root, and modules that imported the name), and restores the
originals on exit. Nothing under `src/` changes, and a timed untraced pass
runs with no wrapper in place.

A span is (run id, span id, parent span id, name, start, end). Spans stay in
memory until the worker writes them out at the end of its run. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer module, function): one span per call; the span is named "<layer>.<function>".
SPANNED = (
    ("simulator", "simulate_log"),
    ("simulator", "oracle_policy_outcome"),
    ("simulator", "simulate_display_trace"),
    ("domain", "write_log"),
    ("domain", "read_log"),
    ("estimators", "cluster_estimates"),
    ("estimators", "bootstrap_ci"),
    ("optimizer", "solve_reallocation_detailed"),
    ("optimizer", "predict_policy_delta"),
    ("predictor", "events_from_trace"),
    ("predictor", "fit_ctr"),
    ("predictor", "calibration_curve"),
)
# Called too often for a span to be cheap; only their calls are counted, and
# their time stays in the caller's self time.
COUNTED = (
    ("estimators", "marginal_estimate"),
    ("estimators", "ips_estimate"),
    ("predictor", "loglik_gradient"),
    ("predictor", "penalized_loglik"),
)
LAYERS = ("simulator", "domain", "estimators", "optimizer", "predictor", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, name: str, sid: int, parent: int | None, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = (self.run_id, sid, parent, name, start, end)

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, sid, parent, start)

    def _spanned(self, name: str, fn):
        count_resamples = name == "estimators.bootstrap_ci"
        log_path = name in ("domain.write_log", "domain.read_log")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
                counts = self.counts[self.run_id]
                counts[name + ".calls"] += 1
                if count_resamples or log_path:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    given = bound.arguments
                if count_resamples:
                    counts["estimators.resamples"] += given["n_resamples"]
                if log_path:
                    path = given.get("destination", given.get("source"))
                    if isinstance(path, str) and os.path.exists(path):
                        counts[name + ".bytes"] += os.path.getsize(path)

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.run_id][name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        import impatience  # noqa: F401  (loads every layer module)
        from impatience.domain import RandomizedLog

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "impatience" or n.startswith("impatience."))]
        restore = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, fname in table:
                original = getattr(sys.modules[f"impatience.{layer}"], fname)
                wrapper = make(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        restore.append((module, fname, original))
                        setattr(module, fname, wrapper)
        # The columnar view of a log is a cached property, built on first use.
        arrays = RandomizedLog.__dict__["arrays"]
        traced_arrays = functools.cached_property(self._spanned("domain.arrays", arrays.func))
        traced_arrays.__set_name__(RandomizedLog, "arrays")
        restore.append((RandomizedLog, "arrays", arrays))
        setattr(RandomizedLog, "arrays", traced_arrays)
        try:
            yield
        finally:
            for owner, fname, original in reversed(restore):
                setattr(owner, fname, original)

    def summary(self, run_id: str) -> dict[str, float]:
        """Self time per span name, root span durations and call counts of one run."""
        spans = [s for s in self.spans if s is not None and s[0] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, sid, parent, name, start, end in spans:
            self_s = end - start - child_time[sid]
            if parent is None:  # a CLI call, named "cli.<subcommand>"
                out[name + ".s"] += end - start
                out["cli.self_s"] += self_s
                out["cli.wall_s"] += end - start
            else:
                out[name + ".self_s"] += self_s
            out[name.split(".", 1)[0] + ".layer_s"] += self_s
        out.update(self.counts.get(run_id, {}))
        return dict(out)

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans if s is not None]

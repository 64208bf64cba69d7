"""Span tracing of fess's public functions, installed from outside the package.

Each traced function is replaced, in every ``fess`` namespace that binds
it, by a wrapper that records a span (name, start, end, parent) in memory.
Because ``fess.ess`` looks up ``empirical_trace_variogram`` in its own
namespace and ``fess.cli`` looks up ``ess_plugin`` in its own, patching
only the defining module would miss those calls; patching every binding
catches them. Self time of a span is its duration minus the durations of
its direct children.

With ``memory=True`` the tracer also runs ``tracemalloc`` and each span
records its peak traced allocation above the level at its start.
``tracemalloc`` slows every allocation, several-fold on code that makes
many small arrays, so spans timed under it misattribute time; take self
times from a tracer without memory tracking and peaks from one with it.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (layer, module, function) triples. ``subset`` is a method of the
# dataset class and is patched on the class.
TRACED = (
    ("dataset", "fess.dataset", "load_wide_csv"),
    ("dataset", "fess.dataset", "project_sinusoidal"),
    ("dataset", "fess.dataset", "pairwise_distances"),
    ("dataset", "fess.dataset", "SpatialFunctionalDataset.subset"),
    ("variogram", "fess.variogram", "empirical_trace_variogram"),
    ("variogram", "fess.variogram", "fit_model"),
    ("ess", "fess.ess", "ess_functional"),
    ("ess", "fess.ess", "ess_plugin"),
    ("far1", "fess.far1", "gauss_field_simulate"),
    ("fboxplot", "fess.fboxplot", "mbd"),
    ("fboxplot", "fess.fboxplot", "functional_boxplot"),
    ("fboxplot", "fess.fboxplot", "subsample_experiment"),
    ("rng", "fess.rng", "derived_rng"),
    ("cli", "fess.cli", "main"),
)

MB = 1e6


def span_name(layer: str, function: str) -> str:
    return f"{layer}.{function.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        # [name, start, end, parent index or -1, peak bytes above start]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        # running tracemalloc peak of each open span, saved before a child
        # resets the peak counter
        self._peaks: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, current])
        self._stack.append(len(self.spans) - 1)
        self._peaks.append(current)
        return self._stack[-1]

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        peak = self._peaks.pop()
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], peak)
        span = self.spans[idx]
        span[2] = end
        span[4] = peak - span[4]

    def wrap(self, name: str, func, after=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "fess" or k.startswith("fess.")]
        for layer, module, function in TRACED:
            name = span_name(layer, function)
            after = _AFTER.get(name)
            if "." in function:
                cls_name, attr = function.split(".")
                owner = getattr(sys.modules[module], cls_name)
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after))
                continue
            original = getattr(sys.modules[module], function)
            traced = self.wrap(name, original, after)
            for ns in namespaces:
                if getattr(ns, function, None) is original:
                    self._patch(ns, function, traced)
        variogram = sys.modules["fess.variogram"]
        self._patch(variogram, "minimize", _counting_minimize(self.counters, variogram.minimize))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds, largest peak bytes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, peak), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - children
            agg["peak_bytes"] = max(agg["peak_bytes"], peak)
        return out


def _counting_minimize(counters, minimize):
    @functools.wraps(minimize)
    def counted(*args, **kwargs):
        result = minimize(*args, **kwargs)
        counters["variogram.fit_nfev"] += int(result.nfev)
        return result

    return counted


def _after_variogram(counters, args, kwargs, result) -> None:
    dataset = args[0] if args else kwargs["dataset"]
    n = dataset.n_curves
    counters["variogram.pairs_total"] += n * (n - 1) // 2
    counters["variogram.pairs_binned"] += int(result.counts.sum())


def _after_distances(counters, args, kwargs, result) -> None:
    counters["dataset.pairwise_distances.mb"] += result.size * 8 / MB


_AFTER = {
    "variogram.empirical_trace_variogram": _after_variogram,
    "dataset.pairwise_distances": _after_distances,
}

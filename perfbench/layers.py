"""Span recorder for the traced run: wrappers around each layer's entry points.

The benchmark does not change the simulator.  For the traced run it
replaces each layer's public functions with timing wrappers, installed
in every module namespace that holds the function (``engine.py`` imports
``run_cell`` by name, so patching ``repro.engine.cells`` alone would miss
the engine's calls) and on the defining class for methods.  Spans live
in memory -- name, start, end, parent, tag (cell or request id) -- and
are summarised into per-layer metrics and a Chrome trace at the end.

A layer's self time is its span's duration minus the union of its child
spans' intervals (clipped to the parent), so concurrent children (serve
requests, threads) are not double-subtracted.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import sys
import threading
import time
import typing

#: Wrapped entry points: metric name -> targets ("module:attr" for a
#: module-level function, "module:Class.method" for a method).  A name
#: with several targets (a method and its override) records one span;
#: a re-entrant call under a span of the same name records none.
LAYERS: "dict[str, tuple[str, ...]]" = {
    "runner.run_suite": ("repro.experiments.runner:run_suite",),
    "engine.run_cells": ("repro.engine.engine:run_cells",),
    "engine.run_cell": ("repro.engine.cells:run_cell",),
    "cache.key": ("repro.engine.cache:cell_cache_key",),
    "cache.get": ("repro.engine.cache:DiskCache.get",),
    "cache.put": ("repro.engine.cache:DiskCache.put",),
    "cache.plan_get": ("repro.engine.cache:DiskCache.get_plan",),
    "cache.plan_put": ("repro.engine.cache:DiskCache.put_plan",),
    "bench.run": ("repro.bench.common:PimBenchmark.run",),
    "stats.snapshot": (
        "repro.core.stats:StatsTracker.snapshot",
        "repro.perf.vector:VectorStatsTracker.snapshot",
    ),
    "stats.seal": ("repro.perf.vector:VectorStatsTracker.seal",),
    "arch.cost_table": (
        "repro.arch.base:ArchBackend.cost_table",
        "repro.arch.parametric:ParametricBackend.cost_table",
    ),
    "arch.derive": ("repro.arch.parametric:ParametricBackend.__init__",),
    "plans.compile": ("repro.perf.plans:compile_plan",),
    "dse.run_sweep": ("repro.dse.sweep:run_sweep",),
    "dse.price_cells_batched": ("repro.dse.batch:price_cells_batched",),
    "dse.price_group": ("repro.dse.batch:price_group",),
    "dse.pareto": ("repro.dse.pareto:pareto_frontier",),
    "obs.merge_telemetry": ("repro.obs.telemetry:merge_cell_telemetry",),
    "serve.evaluate": ("repro.serve.service:EvaluationService.evaluate",),
}

#: Packages whose modules import wrapped functions by name.
CALL_SITE_PACKAGES = (
    "repro.engine", "repro.experiments", "repro.dse", "repro.serve.service",
)

#: The workload on which each wrapped entry point must record a span
#: (checked by the tests, so a rename cannot silently drop a layer).
#: ``stats.seal`` runs only on the opt-in per-cell vector path, which no
#: default command takes; it is measured but has no designated workload.
DESIGNATED = {
    "runner.run_suite": "suite-cold",
    "engine.run_cells": "suite-cold",
    "engine.run_cell": "suite-cold",
    "cache.key": "dse-sweep",
    "cache.get": "serve-mixed",
    "cache.put": "dse-sweep",
    "cache.plan_get": "dse-sweep",
    "cache.plan_put": "dse-sweep",
    "bench.run": "suite-cold",
    "stats.snapshot": "suite-cold",
    "stats.seal": None,
    "arch.cost_table": "dse-sweep",
    "arch.derive": "dse-sweep",
    "plans.compile": "dse-sweep",
    "dse.run_sweep": "dse-sweep",
    "dse.price_cells_batched": "dse-sweep",
    "dse.price_group": "dse-sweep",
    "dse.pareto": "dse-sweep",
    "obs.merge_telemetry": "figures-parallel",
    "serve.evaluate": "serve-mixed",
}

#: The suite's benchmark keys (``repro.experiments.runner.BENCHMARK_ORDER``
#: at the time the benchmark was defined; a test keeps them in step).
BENCH_KEYS = (
    "vecadd", "axpy", "gemv", "gemm", "radixsort", "aes-enc", "aes-dec",
    "tricount", "filter", "histogram", "brightness", "downsample", "knn",
    "linreg", "kmeans", "vgg-13", "vgg-16", "vgg-19",
)

_current: "contextvars.ContextVar[tuple[int, str] | None]" = (
    contextvars.ContextVar("perfbench_span", default=None)
)


class Span(typing.NamedTuple):
    ident: int
    parent: "int | None"
    name: str
    start: float
    end: float
    tag: "str | None"
    thread: int


def _tag_of(name: str, args: tuple) -> "str | None":
    """The cell a span belongs to, when the call names one."""
    if not args:
        return None
    head = args[0]
    if name == "bench.run":
        return getattr(head, "key", None)
    if name in ("engine.run_cell", "cache.key"):
        key = getattr(head, "benchmark_key", None)
        device = getattr(getattr(head, "device_type", None), "value", None)
        return f"{key}|{device}|{getattr(head, 'num_ranks', '')}"
    return None


class Recorder:
    """In-memory spans plus the counters the wrappers observe."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.counts: "dict[str, float]" = {}
        #: Telemetry records of cells that ran in worker processes.
        self.worker_cells: "list[object]" = []
        #: Telemetry records of every cell a benchmark run executed (not
        #: cache-served, not matrix-priced): the cost-memo counts.
        self.executed_cells: "list[object]" = []
        #: Worker-seconds available to cell execution (jobs x wall of
        #: each executing ``run_cells``; workers x window for serve).
        self.capacity_s = 0.0
        self._patches: "list[tuple[object, str, object]]" = []
        self.window: "tuple[float, float] | None" = None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- span plumbing ---------------------------------------------------

    def _open(self, name: str) -> "tuple[int, int | None, contextvars.Token]":
        parent = _current.get()
        ident = next(self._ids)
        token = _current.set((ident, name))
        return ident, (parent[0] if parent else None), token

    def _close(self, ident, parent, token, name, start, tag) -> None:
        end = time.perf_counter()
        _current.reset(token)
        self.spans.append(
            Span(ident, parent, name, start, end, tag, threading.get_ident())
        )

    def wrap(self, name: str, fn: typing.Callable, observe=None) -> typing.Callable:
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                here = _current.get()
                if here is not None and here[1] == name:
                    return await fn(*args, **kwargs)
                ident, parent, token = recorder._open(name)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    recorder._close(ident, parent, token, name, start,
                                    _tag_of(name, args))
                if observe is not None:
                    observe(recorder, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            here = _current.get()
            if here is not None and here[1] == name:
                return fn(*args, **kwargs)
            ident, parent, token = recorder._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(ident, parent, token, name, start,
                                _tag_of(name, args))
            if observe is not None:
                observe(recorder, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "list[str]":
        """Install every layer wrapper; returns the targets patched.

        The packages holding call sites are imported first: a module
        imported later would bind the wrapper by name and keep it after
        :meth:`uninstall`.
        """
        for package in CALL_SITE_PACKAGES:
            importlib.import_module(package)
        patched = []
        for name, targets in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                owner: object = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original, _OBSERVERS.get(name))
                if owner is module:
                    # Patch every repro namespace holding the same object:
                    # call sites that imported the function by name.
                    for mod in list(sys.modules.values()):
                        if (getattr(mod, "__name__", "").startswith("repro")
                                and mod.__dict__.get(attr) is original):
                            self._patch(mod, attr, wrapped)
                            patched.append(f"{mod.__name__}:{attr}")
                else:
                    self._patch(owner, attr, wrapped)
                    patched.append(target)
        self._install_counters()
        return patched

    def _install_counters(self) -> None:
        import multiprocessing.process

        from repro.engine.warm import WarmSlot

        recorder = self
        start = multiprocessing.process.BaseProcess.start

        @functools.wraps(start)
        def counting_start(proc, *args, **kwargs):
            recorder.count("engine.spawns")
            return start(proc, *args, **kwargs)

        self._patch(multiprocessing.process.BaseProcess, "start", counting_start)

        submit = WarmSlot.submit

        @functools.wraps(submit)
        def observed_submit(slot, *args, **kwargs):
            future = submit(slot, *args, **kwargs)

            def harvest(done) -> None:
                if done.cancelled() or done.exception() is not None:
                    return
                telemetry = getattr(done.result(), "telemetry", None)
                if telemetry is not None:
                    recorder.worker_cells.append(telemetry)
                    recorder.executed_cells.append(telemetry)

            future.add_done_callback(harvest)
            return future

        self._patch(WarmSlot, "submit", observed_submit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def layer_metrics(self) -> "dict[str, float]":
        """``<layer>.calls``, ``.total_s`` and ``.self_s`` for every layer."""
        children: "dict[int, list[Span]]" = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: "dict[str, float]" = {}
        for name in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for span in self.spans:
            duration = span.end - span.start
            covered = union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.ident, ())
            )
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.total_s"] += duration
            out[f"{span.name}.self_s"] += max(0.0, duration - covered)
        return out

    def unattributed_s(self) -> float:
        """Traced-window time covered by no span at all."""
        if self.window is None:
            return 0.0
        lo, hi = self.window
        roots = [
            (max(s.start, lo), min(s.end, hi))
            for s in self.spans if s.parent is None
        ]
        return max(0.0, (hi - lo) - union_length(roots))

    def bench_totals(self) -> "dict[str, float]":
        """Host seconds per benchmark key: in-process ``bench.run`` spans
        plus the worker-side wall time of cells run in worker processes."""
        totals: "dict[str, float]" = {}
        for span in self.spans:
            if span.name == "bench.run" and span.tag:
                totals[span.tag] = totals.get(span.tag, 0.0) + span.end - span.start
        for telemetry in self.worker_cells:
            key = telemetry.benchmark
            totals[key] = totals.get(key, 0.0) + telemetry.wall_s
        return totals

    def chrome_trace(self) -> dict:
        """Trace Event Format payload (one track per root span's thread of
        work: concurrent requests get their own tracks)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start for s in self.spans)
        by_id = {s.ident: s for s in self.spans}

        def root_of(span: Span) -> Span:
            while span.parent is not None and span.parent in by_id:
                span = by_id[span.parent]
            return span

        pid = os.getpid()
        tracks: "dict[tuple[int, int], int]" = {}
        events = [{"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
                   "args": {"name": "perfbench host spans"}}]
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            root = root_of(span)
            track = tracks.setdefault((root.thread, root.ident), len(tracks) + 1)
            parent = by_id.get(span.parent) if span.parent else None
            end = min(span.end, parent.end) if parent else span.end
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": max(0.0, end - span.start) * 1e6,
                "pid": pid,
                "tid": track,
                # ``root``: the outermost span of the call tree (one per
                # serve request), shared by every span it caused.
                "args": {"tag": span.tag, "span": span.ident,
                         "parent": span.parent, "root": root.ident},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: pathlib.Path) -> pathlib.Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")
        return path


def union_length(intervals: "typing.Iterable[tuple[float, float]]") -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- observers: counts read off arguments and results ------------------------

def _observe_run_cells(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("engine.retries", result.retries)
    isolated = result.jobs > 1 or result.policy.needs_isolation
    for outcome in result.outcomes.values():
        telemetry = getattr(outcome, "telemetry", None)
        if outcome.ok and telemetry is not None and not telemetry.from_cache:
            recorder.count("engine.attempts", telemetry.attempt)
            recorder.count("engine.useful", 1)
            recorder.executed_cells.append(telemetry)
            if isolated:
                recorder.worker_cells.append(telemetry)
        elif not outcome.ok and outcome.error is not None:
            recorder.count("engine.attempts", outcome.error.attempts)
    if result.misses:
        wall = [s for s in recorder.spans if s.name == "engine.run_cells"][-1]
        recorder.capacity_s += result.jobs * (wall.end - wall.start)


def _observe_cache_get(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("cache.get.hits", result is not None)


def _observe_plan_get(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("cache.plan_get.hits", result is not None)


def _observe_cache_put(recorder: Recorder, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    try:
        recorder.count("cache.put.bytes", cache.path_for(key).stat().st_size)
    except OSError:
        pass


def _observe_price_group(recorder: Recorder, args, kwargs, result) -> None:
    plan, group = args[0], args[1]
    recorder.count("dse.shapes_priced", plan.num_shapes * len(group))


def _observe_sweep(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("dse.cells", len(result.outcomes) * len(result.spec.benchmarks))
    recorder.count("dse.batched_cells", result.batched_cells)


_OBSERVERS = {
    "engine.run_cells": _observe_run_cells,
    "cache.get": _observe_cache_get,
    "cache.plan_get": _observe_plan_get,
    "cache.put": _observe_cache_put,
    "dse.price_group": _observe_price_group,
    "dse.run_sweep": _observe_sweep,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    recorder: Recorder, registry_values: "dict[str, float]"
) -> "dict[str, float]":
    """Every traced per-layer metric except the workload-level ones.

    ``registry_values`` are the simulator's ``MetricsRegistry`` counters
    (``serve.*``) read at the end of the traced pass.
    """
    out = recorder.layer_metrics()
    bench = recorder.bench_totals()
    for key in BENCH_KEYS:
        out[f"bench.{key}.total_s"] = bench.get(key, 0.0)
    counts = recorder.counts
    executed = recorder.executed_cells
    serve_retries = registry_values.get("serve.retries", 0.0)
    serve_executed = registry_values.get("serve.executed", 0.0)
    attempts = counts.get("engine.attempts", 0.0) + serve_executed + serve_retries
    useful = counts.get("engine.useful", 0.0) + serve_executed
    out["engine.spawns"] = counts.get("engine.spawns", 0.0)
    out["engine.retries"] = counts.get("engine.retries", 0.0) + serve_retries
    out["engine.attempts"] = attempts
    out["engine.useful_ratio"] = _ratio(useful, attempts)
    # Busy: worker-side cell wall time plus in-process run_cell time.
    out["engine.worker_busy_s"] = (
        sum(t.wall_s for t in recorder.worker_cells)
        + out["engine.run_cell.total_s"]
    )
    out["engine.worker_capacity_s"] = recorder.capacity_s
    out["engine.worker_utilisation"] = _ratio(
        out["engine.worker_busy_s"], out["engine.worker_capacity_s"])
    out["cache.put.bytes"] = counts.get("cache.put.bytes", 0.0)
    out["cache.hit_ratio"] = _ratio(
        counts.get("cache.get.hits", 0.0), out["cache.get.calls"])
    memo_hits = sum(t.memo_hits for t in executed)
    memo_lookups = sum(t.memo_hits + t.memo_misses for t in executed)
    out["memo.lookups"] = memo_lookups
    out["memo.hit_ratio"] = _ratio(memo_hits, memo_lookups)
    out["plans.hit_ratio"] = _ratio(
        counts.get("cache.plan_get.hits", 0.0), out["cache.plan_get.calls"])
    out["dse.cells"] = counts.get("dse.cells", 0.0)
    out["dse.batched_share"] = _ratio(
        counts.get("dse.batched_cells", 0.0), out["dse.cells"])
    out["dse.shapes_priced"] = counts.get("dse.shapes_priced", 0.0)
    out["serve.requests"] = registry_values.get("serve.requests", 0.0)
    out["serve.executed"] = serve_executed
    out["serve.shed"] = sum(
        v for k, v in registry_values.items() if k.startswith("serve.shed."))
    out["serve.coalesce_ratio"] = _ratio(
        registry_values.get("serve.coalesced", 0.0), out["serve.requests"])
    out["trace.unattributed_s"] = recorder.unattributed_s()
    out["trace.spans"] = len(recorder.spans)
    return out

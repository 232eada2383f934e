"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions that form each layer's
boundary and records one span per call: name, layer, start, end, the
span that caused it, and a few counts read off the arguments or the
result.  Spans stay in memory.  A forked cell worker inherits the
wrappers; it spools the spans it records to one JSON-lines file per
worker process, which :meth:`Recorder.collect` merges back.

Nothing under ``src/`` is modified: the wrappers replace attributes on
the imported modules and classes for the life of this interpreter.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Every span name, "<layer>.<boundary>"; the per-layer metrics of
#: README.md are built from them.
SPAN_NAMES = (
    "experiments.campaign",
    "harness.cell",
    "harness.cache_get",
    "harness.cache_put",
    "harness.metrics_put",
    "harness.snapshot",
    "core.build",
    "core.warmup",
    "core.detailed",
    "explore.prune",
    "explore.frontier",
    "explore.store",
    "serve.submit",
    "analysis.render",
)


class Recorder:
    """In-memory span store shared by every wrapper in one interpreter."""

    def __init__(self, spool_dir: Path, plant: Optional[Dict[str, float]] = None):
        self.spool_dir = Path(spool_dir)
        #: span name -> seconds slept inside that span (attribution test)
        self.plant = dict(plant or {})
        self.spans: List[Dict[str, Any]] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: List[str] = self._stack()
        self._inherited = 0
        self._spooling = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        # A forked worker keeps the open spans of the thread that forked
        # it as ancestry; it reports only the spans it records itself.
        self.spans = []
        self._spooling = True
        self._inherited = len(self._stack())

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``note(span, args, result)``
        may attach counts after the call returns."""
        delay = self.plant.get(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to what the main
                # thread is doing (run_campaign waits on execute_cells)
                parent = self._root[-1] if self._root else None
            span_id = f"{os.getpid()}:{next(self._ids)}"
            stack.append(span_id)
            start = time.monotonic()
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end}
            if note is not None:
                note(span, args, result)
            self.spans.append(span)
            if self._spooling and len(stack) <= self._inherited:
                self._spool()
            return result

        return wrapper

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Dict[str, Any]]:
        """This process's spans plus every spooled worker span."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


# --------------------------------------------------------------------------
# Installing the wrappers
# --------------------------------------------------------------------------

def _note_get(span, args, result):
    span["hit"] = result is not None


def _note_put(span, args, result):
    cache, key = args[0], args[1]
    try:
        span["bytes"] = cache.path(key).stat().st_size
    except OSError:
        span["bytes"] = 0


def _note_warmup(span, args, result):
    sim, ops_per_thread = args[0], args[1]
    span["ops"] = ops_per_thread * len(sim.threads)


def _note_detailed(span, args, result):
    span["retired"] = args[1].stats.retired


def _note_cell(span, args, result):
    span["attempts"] = result.attempts
    span["cached"] = result.cached


def _note_submit(span, args, result):
    span["cached"] = result.cached
    span["dedup"] = result.dedup


def _replace_function(module_name: str, name: str, wrapper_for: Callable) -> None:
    """Replace a module-level function everywhere ``repro`` bound it
    (``from x import f`` copies the reference into the importer)."""
    original = getattr(sys.modules[module_name], name)
    wrapped = wrapper_for(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapped)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _replace_method(cls, name: str, wrapper_for: Callable) -> None:
    """Wrap ``name`` on ``cls`` and every subclass that redefines it."""
    for klass in _subclasses(cls):
        if name in vars(klass):
            setattr(klass, name, wrapper_for(vars(klass)[name]))


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of the imported program."""
    import repro.core.backend as backend
    import repro.core.pipeline as pipeline
    import repro.experiments.runner  # noqa: F401 - bound below by name
    import repro.explore.engine as engine
    import repro.explore.pareto  # noqa: F401
    import repro.explore.prune as prune
    import repro.explore.store as store
    import repro.harness.cache as cache
    import repro.harness.executor  # noqa: F401
    import repro.obs.export  # noqa: F401
    import repro.serve.client as client

    def span(name, note=None):
        return lambda fn: recorder.wrap(name, fn, note)

    _replace_function("repro.experiments.runner", "run_campaign",
                      span("experiments.campaign"))
    _replace_function("repro.harness.executor", "run_cell",
                      span("harness.cell", _note_cell))
    _replace_function("repro.obs.export", "result_snapshot",
                      span("harness.snapshot"))
    _replace_function("repro.explore.pareto", "build_frontier",
                      span("explore.frontier"))
    _replace_method(cache.ResultCache, "get", span("harness.cache_get", _note_get))
    _replace_method(cache.ResultCache, "put", span("harness.cache_put", _note_put))
    _replace_method(cache.ResultCache, "put_metrics", span("harness.metrics_put"))
    _replace_method(backend.KernelBackend, "build", span("core.build"))
    _replace_method(pipeline.Simulator, "functional_warmup",
                    span("core.warmup", _note_warmup))
    _replace_method(backend.KernelBackend, "run",
                    span("core.detailed", _note_detailed))
    _replace_method(prune.AnalyticalPruner, "filter", span("explore.prune"))
    _replace_method(store.ExplorationStore, "append", span("explore.store"))
    _replace_method(engine.ExplorationResult, "render", span("analysis.render"))
    _replace_method(client.CampaignClient, "submit",
                    span("serve.submit", _note_submit))


# --------------------------------------------------------------------------
# From spans to layer metrics
# --------------------------------------------------------------------------

def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """span id -> duration minus the part its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        clipped = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], ())
            if e > span["start"] and s < span["end"]
        ]
        result[span["id"]] = (span["end"] - span["start"]) - union_length(clipped)
    return result


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """(p, value) for the highest of p99.9/p99/p95/p90/p75/p50 with at
    least ten samples beyond it; (100, max) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, ordered[rank - 1]
    return 100.0, ordered[-1] if ordered else 0.0


def layer_metrics(spans: Sequence[Dict[str, Any]],
                  window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer times and counts of one traced repetition."""
    by_name: Dict[str, List[Dict[str, Any]]] = {name: [] for name in SPAN_NAMES}
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def own_total(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name])

    def count(name: str, field: str) -> int:
        return sum(s.get(field, 0) for s in by_name[name])

    cells = by_name["harness.cell"]
    cell_times = [s["end"] - s["start"] for s in cells]
    gets = by_name["harness.cache_get"]
    campaigns = by_name["experiments.campaign"]
    exploring = bool(by_name["explore.frontier"])
    cells_per_campaign = [
        sum(1 for c in cells if c["parent"] == campaign["id"])
        for campaign in campaigns
    ]
    m: Dict[str, float] = {}
    m["core.build_s"] = total("core.build")
    m["core.warmup_s"] = total("core.warmup")
    m["core.warmup_kops_per_s"] = (
        count("core.warmup", "ops") / m["core.warmup_s"] / 1e3
        if m["core.warmup_s"] else 0.0
    )
    m["core.detailed_s"] = total("core.detailed")
    m["core.detailed_kinst_per_s"] = (
        count("core.detailed", "retired") / m["core.detailed_s"] / 1e3
        if m["core.detailed_s"] else 0.0
    )
    m["core.cells_simulated"] = len(by_name["core.detailed"])
    m["harness.cell_p50_s"] = statistics.median(cell_times) if cell_times else 0.0
    m["harness.cell_tail_s"] = tail_percentile(cell_times)[1]
    m["harness.dispatch_s"] = own_total("harness.cell")
    m["harness.cache_get_s"] = total("harness.cache_get")
    m["harness.cache_hits"] = sum(1 for s in gets if s["hit"])
    m["harness.cache_misses"] = sum(1 for s in gets if not s["hit"])
    m["harness.cache_put_s"] = total("harness.cache_put")
    m["harness.cache_bytes_written"] = count("harness.cache_put", "bytes")
    m["harness.metrics_put_s"] = total("harness.metrics_put") + total("harness.snapshot")
    m["harness.attempts"] = count("harness.cell", "attempts")
    m["experiments.campaign_s"] = total("experiments.campaign")
    m["experiments.self_s"] = own_total("experiments.campaign")
    m["explore.prune_s"] = total("explore.prune")
    m["explore.rung_s"] = m["experiments.campaign_s"] if exploring else 0.0
    m["explore.cells_per_rung"] = (
        statistics.mean(cells_per_campaign) if exploring and campaigns else 0.0
    )
    m["explore.frontier_s"] = total("explore.frontier")
    m["explore.store_s"] = total("explore.store")
    m["analysis.render_s"] = total("analysis.render")
    start, end = window
    covered = union_length([
        (max(s["start"], start), min(s["end"], end))
        for s in spans if s["end"] > start and s["start"] < end
    ])
    m["trace.unaccounted_s"] = (end - start) - covered
    m["trace.unaccounted_share"] = m["trace.unaccounted_s"] / (end - start)
    return m

"""repro.obs — event tracing, metrics, and loop-attribution observability.

The subsystem has four layers, composable a la carte:

* :mod:`repro.obs.events` — the typed event vocabulary.  Probe points in
  the core pipeline, the issue queue, the DRA, and the branch machinery
  emit these records *only* when an :class:`~repro.obs.bus.EventBus` has
  been attached (``Simulator.attach_obs``); with no bus attached every
  probe is a single ``is None`` test, so baseline simulation speed is
  unchanged.
* :mod:`repro.obs.bus` — the event bus: per-event-type subscription and
  dispatch.
* :mod:`repro.obs.metrics` — a metrics registry (counters, histograms,
  ring-buffer time series) plus :class:`~repro.obs.metrics.MetricsCollector`,
  a bus subscriber that derives the standard metric set from the event
  stream and snapshots it into :class:`~repro.core.CoreStats` for
  backward compatibility.
* :mod:`repro.obs.attribution` — the loop-attribution engine: it
  reconstructs occurrences of each micro-architectural loop from the
  event stream and produces the paper's §1-§2 cost breakdown (loop
  delay x occurrence frequency x mis-speculation rate -> cycles and IPC
  lost), with every simulated cycle accounted for.
* :mod:`repro.obs.export` — JSONL and Chrome-trace-event (Perfetto)
  exporters, plus the per-cell metric snapshot the harness persists
  beside its result cache.

Quickstart::

    from repro import CoreConfig, simulate
    from repro.obs import EventBus, LoopAttribution

    bus = EventBus()
    attribution = LoopAttribution(bus, CoreConfig.base())
    result = simulate("swim", CoreConfig.base(), obs=bus)
    print(attribution.report(result.stats).render())

``attribution`` and ``export`` are imported lazily (PEP 562) so that the
core pipeline's ``from repro.obs.events import ...`` never drags the
analysis layers — or their imports of the core — back in.
"""

from repro.obs.bus import EventBus
from repro.obs.events import (
    BranchOutcomeEvent,
    CompleteEvent,
    ConfirmEvent,
    CRCEvent,
    CycleEvent,
    DropEvent,
    Event,
    ExecuteEvent,
    FetchEvent,
    IQInsertEvent,
    IssueEvent,
    LoadResolvedEvent,
    OperandEvent,
    PredictorEvent,
    ReissueEvent,
    RenameEvent,
    RetireEvent,
    SquashEvent,
    WritebackEvent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    TimeSeries,
)

#: Lazily re-exported names -> defining submodule (kept out of the eager
#: import path; see module docstring).
_LAZY = {
    "LoopAttribution": "repro.obs.attribution",
    "AttributionReport": "repro.obs.attribution",
    "AttributionEntry": "repro.obs.attribution",
    "JsonlExporter": "repro.obs.export",
    "ChromeTraceExporter": "repro.obs.export",
    "result_snapshot": "repro.obs.export",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Event",
    "EventBus",
    "FetchEvent",
    "RenameEvent",
    "IQInsertEvent",
    "IssueEvent",
    "ExecuteEvent",
    "ReissueEvent",
    "CompleteEvent",
    "ConfirmEvent",
    "RetireEvent",
    "SquashEvent",
    "DropEvent",
    "WritebackEvent",
    "OperandEvent",
    "LoadResolvedEvent",
    "BranchOutcomeEvent",
    "PredictorEvent",
    "CRCEvent",
    "CycleEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "MetricsCollector",
    "LoopAttribution",
    "AttributionReport",
    "AttributionEntry",
    "JsonlExporter",
    "ChromeTraceExporter",
    "result_snapshot",
]

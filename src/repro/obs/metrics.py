"""Metrics registry: counters, histograms, ring-buffer time series.

:class:`MetricsRegistry` is a flat, name-addressed store of metric
instruments.  It replaces ad-hoc counter plumbing for new
instrumentation: instead of threading another integer through
``CoreStats`` and every constructor between the probe site and the
report, a subscriber derives the number from the event stream and
registers it here.

:class:`MetricsCollector` is the standard such subscriber: it maintains
the canonical metric set (per-stage instruction counts, reissue causes,
operand sources, branch/load loop activity, stall-flag cycle counts, an
instruction-lifetime histogram, an issues-per-instruction histogram, and
a windowed-IPC time series) and can snapshot the registry into
:class:`~repro.core.stats.CoreStats` (``stats.obs_snapshot``) so results
that flow through existing persistence keep the observability data.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import (
    BranchOutcomeEvent,
    CompleteEvent,
    CRCEvent,
    CycleEvent,
    FetchEvent,
    IQInsertEvent,
    IssueEvent,
    LoadResolvedEvent,
    OperandEvent,
    ReissueEvent,
    RenameEvent,
    RetireEvent,
    SquashEvent,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A settable point-in-time metric (queue depth, jobs in flight).

    Unlike :class:`Counter` it may go down; unlike :class:`TimeSeries`
    it keeps no history — a snapshot is just the current value.  The
    campaign service (:mod:`repro.serve`) uses gauges for its live
    occupancy numbers.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the current value by ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Adjust the current value down by ``amount``."""
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A histogram over integer-valued observations.

    Stored as exact value -> count buckets; quantiles interpolate
    nothing (they return the smallest observed value at or above the
    requested rank), matching
    :class:`~repro.analysis.cdf.EmpiricalCDF` semantics.
    """

    __slots__ = ("name", "_buckets", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        """Record one observation."""
        self._buckets[value] = self._buckets.get(value, 0) + 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def max(self) -> int:
        """Largest observation (0 when empty)."""
        if not self._buckets:
            return 0
        return max(self._buckets)

    def quantile(self, q: float) -> int:
        """Smallest observed value v with P(sample <= v) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0
        rank = q * self.count
        seen = 0
        for value in sorted(self._buckets):
            seen += self._buckets[value]
            if seen >= rank:
                return value
        return self.max  # pragma: no cover - defensive (fp rounding)

    def buckets(self) -> Dict[int, int]:
        """value -> count, ascending by value."""
        return dict(sorted(self._buckets.items()))

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": float(self.quantile(0.5)) if self.count else 0.0,
            "p90": float(self.quantile(0.9)) if self.count else 0.0,
            "max": float(self.max),
        }


class TimeSeries:
    """A bounded (ring-buffer) series of (time, value) samples.

    When the buffer is full the oldest sample is dropped, so a long run
    keeps the most recent window at a fixed memory cost.
    """

    __slots__ = ("name", "capacity", "_samples", "dropped")

    def __init__(self, name: str, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("time series capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._samples: Deque[Tuple[int, float]] = deque(maxlen=capacity)
        #: Samples evicted by the ring buffer (coverage indicator).
        self.dropped = 0

    def sample(self, time: int, value: float) -> None:
        """Append one sample, evicting the oldest when full."""
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append((time, value))

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[Tuple[int, float]]:
        """The retained (time, value) pairs, oldest first."""
        return list(self._samples)

    def snapshot(self) -> Dict[str, Any]:
        values = [v for _, v in self._samples]
        return {
            "count": float(len(values) + self.dropped),
            "retained": float(len(values)),
            "last": values[-1] if values else 0.0,
            "mean": (sum(values) / len(values)) if values else 0.0,
        }


class MetricsRegistry:
    """Name-addressed store of counters, histograms and time series."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram)

    def timeseries(self, name: str, capacity: int = 1024) -> TimeSeries:
        """Get or create the time series ``name``."""
        return self._get_or_create(name, TimeSeries, capacity)

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """A flat, JSON-ready rendering of every metric.

        Counters flatten to ``name``; histograms and time series to
        ``name.<field>``.
        """
        flat: Dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            value = metric.snapshot()
            if isinstance(value, dict):
                for key, sub in value.items():
                    flat[f"{name}.{key}"] = sub
            else:
                flat[name] = value
        return flat

    def render(self) -> str:
        """A plain-text metric dump (one ``name value`` line each)."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, float):
                lines.append(f"{name:46s} {value:.4f}")
            else:
                lines.append(f"{name:46s} {value}")
        return "\n".join(lines)


class MetricsCollector:
    """Bus subscriber deriving the standard metric set from events."""

    #: Cycles per windowed-IPC sample.
    IPC_WINDOW = 256

    def __init__(
        self,
        bus: EventBus,
        registry: Optional[MetricsRegistry] = None,
        ipc_series_capacity: int = 1024,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._fetched = reg.counter("obs.fetched")
        self._renamed = reg.counter("obs.renamed")
        self._inserted = reg.counter("obs.iq_inserted")
        self._issues = reg.counter("obs.issues")
        self._first_issues = reg.counter("obs.first_issues")
        self._retired = reg.counter("obs.retired")
        self._squashed = reg.counter("obs.squashed")
        self._cycles = reg.counter("obs.cycles")
        self._branches = reg.counter("obs.branch.outcomes")
        self._branch_misses = reg.counter("obs.branch.mispredicted")
        self._loads = reg.counter("obs.load.resolved")
        self._load_misses = reg.counter("obs.load.misspeculated")
        self._stall_branch = reg.counter("obs.stall.branch_cycles")
        self._stall_iq = reg.counter("obs.stall.iq_full_cycles")
        self._stall_rob = reg.counter("obs.stall.rob_full_cycles")
        self._stall_port = reg.counter("obs.stall.port_cycles")
        self._port_events = reg.counter("obs.stall.port_events")
        self._lifetime = reg.histogram("obs.inst.lifetime_cycles")
        self._issues_per_inst = reg.histogram("obs.inst.issues")
        self._ipc_series = reg.timeseries("obs.ipc", ipc_series_capacity)
        #: uid -> fetch cycle, for the lifetime histogram.
        self._fetch_cycle: Dict[int, int] = {}
        #: uid -> issue count so far, for the issues histogram.
        self._issue_counts: Dict[int, int] = {}
        self._window_retired = 0
        for event_type, handler in (
            (FetchEvent, self._on_fetch),
            (RenameEvent, self._on_rename),
            (IQInsertEvent, self._on_insert),
            (IssueEvent, self._on_issue),
            (ReissueEvent, self._on_reissue),
            (CompleteEvent, self._on_complete),
            (OperandEvent, self._on_operand),
            (LoadResolvedEvent, self._on_load),
            (BranchOutcomeEvent, self._on_branch),
            (CRCEvent, self._on_crc),
            (RetireEvent, self._on_retire),
            (SquashEvent, self._on_squash),
            (CycleEvent, self._on_cycle),
        ):
            bus.subscribe(event_type, handler)

    # --- handlers ---------------------------------------------------------

    def _on_fetch(self, event: FetchEvent) -> None:
        self._fetched.inc()
        self._fetch_cycle[event.uid] = event.cycle

    def _on_rename(self, event: RenameEvent) -> None:
        self._renamed.inc()

    def _on_insert(self, event: IQInsertEvent) -> None:
        self._inserted.inc()

    def _on_issue(self, event: IssueEvent) -> None:
        self._issues.inc()
        if event.epoch == 1:
            self._first_issues.inc()
        self._issue_counts[event.uid] = event.epoch

    def _on_reissue(self, event: ReissueEvent) -> None:
        self.registry.counter(f"obs.reissue.{event.cause}").inc()

    def _on_complete(self, event: CompleteEvent) -> None:
        pass  # reserved for execute-latency metrics

    def _on_operand(self, event: OperandEvent) -> None:
        self.registry.counter(f"obs.operand.{event.source}").inc()

    def _on_load(self, event: LoadResolvedEvent) -> None:
        self._loads.inc()
        if event.speculated and not event.hit:
            self._load_misses.inc()

    def _on_branch(self, event: BranchOutcomeEvent) -> None:
        self._branches.inc()
        if event.mispredicted:
            self._branch_misses.inc()

    def _on_crc(self, event: CRCEvent) -> None:
        self.registry.counter(f"obs.crc.{event.action}").inc()

    def _on_retire(self, event: RetireEvent) -> None:
        self._retired.inc()
        self._window_retired += 1
        fetched = self._fetch_cycle.pop(event.uid, None)
        if fetched is not None:
            self._lifetime.observe(event.cycle - fetched)
        issues = self._issue_counts.pop(event.uid, None)
        if issues is not None:
            self._issues_per_inst.observe(issues)

    def _on_squash(self, event: SquashEvent) -> None:
        self._squashed.inc()
        self._fetch_cycle.pop(event.uid, None)
        self._issue_counts.pop(event.uid, None)

    def _on_cycle(self, event: CycleEvent) -> None:
        self._cycles.inc()
        if event.branch_stall:
            self._stall_branch.inc()
        if event.iq_full:
            self._stall_iq.inc()
        if event.rob_full:
            self._stall_rob.inc()
        if event.port_stalls:
            self._stall_port.inc()
            self._port_events.inc(event.port_stalls)
        if self._cycles.value % self.IPC_WINDOW == 0:
            self._ipc_series.sample(
                event.cycle, self._window_retired / self.IPC_WINDOW
            )
            self._window_retired = 0

    # --- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry's flat snapshot."""
        return self.registry.snapshot()

    def snapshot_into(self, stats) -> Dict[str, Any]:
        """Store the snapshot on ``stats.obs_snapshot`` and return it.

        ``stats`` is a :class:`~repro.core.stats.CoreStats`; the
        attribute keeps observability data attached to results that flow
        through existing persistence (pickled cells, SimResult).
        """
        snapshot = self.snapshot()
        stats.obs_snapshot = snapshot
        return snapshot

    def verify_against(self, stats) -> List[str]:
        """Cross-check event-derived counts against ``CoreStats``.

        Returns a list of human-readable mismatch descriptions (empty
        when the two accounting paths agree).  Only counters whose
        CoreStats twin covers the same window are compared; the
        collector must have observed the whole run.
        """
        problems: List[str] = []

        def check(label: str, observed: int, expected: int) -> None:
            if observed != expected:
                problems.append(
                    f"{label}: events say {observed}, CoreStats says {expected}"
                )

        check("cycles", self._cycles.value, stats.cycles)
        check("retired", self._retired.value, stats.retired)
        check("issues", self._issues.value, stats.issues)
        check("first issues", self._first_issues.value, stats.first_issues)
        check("squashed", self._squashed.value, stats.squashed_instructions)
        check("port stalls", self._port_events.value, stats.port_stalls)
        reissues = sum(
            self.registry.counter(f"obs.reissue.{cause.value}").value
            for cause in type(next(iter(stats.reissues)))
        )
        check("reissues", reissues, stats.total_reissues)
        return problems

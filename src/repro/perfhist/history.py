"""The committed performance history: profiles keyed by commit.

``PERF_HISTORY.jsonl`` is a Perun-style version-controlled performance
ledger living at the repository root: one JSON line per *epoch*, where
an epoch is everything recorded about the repository's performance at
one commit — simulated-IPC profiles (golden-pin cells, exploration
frontier points) and simulator-throughput profiles (the kernel backend
matrix).  The file is append-only and committed, so the trajectory of
every metric across PRs is reviewable evidence, and the degradation
check (:mod:`repro.perfhist.check`) always has the full series to
calibrate its statistical detectors against.

Each profile carries the :mod:`repro.obs` loop-attribution and metrics
snapshot of the run that produced it, so a detected change can be
*attributed* — "load_resolution gained 4 points of cycle share" — not
just reported as a delta.

Schema compatibility: records are schema-versioned; unknown schemas
raise (a check against an unreadable record is not a check), while
unknown *fields* inside a known schema are preserved verbatim — older
readers must survive newer writers appending optional fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "HISTORY_SCHEMA",
    "Profile",
    "Epoch",
    "PerfHistory",
    "commit_of",
]

#: Bump when the epoch layout changes incompatibly.
HISTORY_SCHEMA = 1


@dataclass
class Profile:
    """One metric's measurement inside an epoch."""

    #: Stable identity across epochs, e.g. ``ipc:int_test:dra_rf3``,
    #: ``kernel:optimized:speedup``, ``explore:dra:rf=3,crc=16,...``.
    key: str
    #: "ipc" | "throughput" | "frontier" — what family of metric.
    kind: str
    #: Headline scalar; higher is better for every shipped kind.
    value: float
    #: Unit label for rendering ("ipc", "x", "inst/s").
    unit: str = ""
    #: Detector spec (:func:`repro.perfhist.detectors.get_detector`)
    #: the check layer resolves for this profile.
    detector: str = "band"
    #: Exact integer state behind the value (deterministic cells).
    exact: Optional[List[int]] = None
    #: Declared absolute tolerance (sampled runs).
    tolerance: Optional[float] = None
    #: :class:`~repro.obs.attribution.AttributionReport` rendering —
    #: the loop-bucket cycle accounting a change is attributed with.
    attribution: Optional[Dict[str, Any]] = None
    #: Trimmed :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
    metrics: Optional[Dict[str, float]] = None
    #: Free-form provenance (run geometry, source file, host notes).
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_observation(self):
        """This profile as a detector-layer :class:`Observation`."""
        from repro.perfhist.detectors import Observation

        return Observation(
            value=self.value,
            exact=tuple(self.exact) if self.exact is not None else None,
            tolerance=self.tolerance,
        )

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": self.key,
            "kind": self.kind,
            "value": self.value,
            "unit": self.unit,
            "detector": self.detector,
        }
        for name in ("exact", "tolerance", "attribution", "metrics"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.meta:
            payload["meta"] = self.meta
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Profile":
        try:
            return cls(
                key=payload["key"],
                kind=payload["kind"],
                value=float(payload["value"]),
                unit=payload.get("unit", ""),
                detector=payload.get("detector", "band"),
                exact=payload.get("exact"),
                tolerance=payload.get("tolerance"),
                attribution=payload.get("attribution"),
                metrics=payload.get("metrics"),
                meta=payload.get("meta", {}),
            )
        except KeyError as missing:
            raise ConfigError(
                f"profile record is missing field {missing}"
            ) from None


@dataclass
class Epoch:
    """Everything recorded about the repository at one commit."""

    commit: str
    profiles: List[Profile]
    #: "record" for live measurement, "import:<file>" for migrations.
    source: str = "record"
    #: Line number in the history (stamped by :meth:`PerfHistory.append`).
    index: int = -1
    timestamp: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    def profile(self, key: str) -> Optional[Profile]:
        """This epoch's profile under ``key`` (None when absent)."""
        for profile in self.profiles:
            if profile.key == key:
                return profile
        return None

    def keys(self) -> List[str]:
        return [p.key for p in self.profiles]

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": HISTORY_SCHEMA,
            "index": self.index,
            "commit": self.commit,
            "timestamp": self.timestamp,
            "source": self.source,
            "profiles": [p.to_json() for p in self.profiles],
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Epoch":
        try:
            return cls(
                commit=payload["commit"],
                profiles=[
                    Profile.from_json(p) for p in payload["profiles"]
                ],
                source=payload.get("source", "record"),
                index=payload.get("index", -1),
                timestamp=payload.get("timestamp", ""),
                meta=payload.get("meta", {}),
            )
        except KeyError as missing:
            raise ConfigError(
                f"epoch record is missing field {missing}"
            ) from None


class PerfHistory:
    """Append-only JSONL store of :class:`Epoch` records."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, epoch: Epoch) -> Epoch:
        """Stamp and append one epoch; existing lines are never touched."""
        epoch.index = len(self.epochs())
        if not epoch.timestamp:
            epoch.timestamp = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(epoch.to_json(), sort_keys=True) + "\n")
        return epoch

    def epochs(self) -> List[Epoch]:
        """Every readable epoch, oldest first."""
        if not self.path.exists():
            return []
        epochs: List[Epoch] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ConfigError(
                        f"{self.path}:{line_number + 1}: corrupt history "
                        f"line ({error})"
                    ) from error
                if payload.get("schema") != HISTORY_SCHEMA:
                    raise ConfigError(
                        f"{self.path}:{line_number + 1}: unsupported "
                        f"history schema {payload.get('schema')!r} "
                        f"(expected {HISTORY_SCHEMA})"
                    )
                epochs.append(Epoch.from_json(payload))
        return epochs

    def latest(self) -> Optional[Epoch]:
        """The newest epoch, or None for an empty history."""
        epochs = self.epochs()
        return epochs[-1] if epochs else None

    def epoch(self, index: int) -> Epoch:
        """The epoch at ``index`` (negative indexes from the end)."""
        epochs = self.epochs()
        try:
            return epochs[index]
        except IndexError:
            raise ConfigError(
                f"history has {len(epochs)} epoch(s); no epoch {index}"
            ) from None

    def series(
        self, key: str, before: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """``(epoch index, value)`` for every epoch carrying ``key``.

        ``before`` restricts the series to epochs with a strictly
        smaller index — the history a detector may calibrate against
        when judging that epoch.
        """
        points: List[Tuple[int, float]] = []
        for epoch in self.epochs():
            if before is not None and epoch.index >= before:
                continue
            profile = epoch.profile(key)
            if profile is not None:
                points.append((epoch.index, profile.value))
        return points

    def keys(self) -> List[str]:
        """Every profile key ever recorded, in first-seen order."""
        seen: Dict[str, None] = {}
        for epoch in self.epochs():
            for key in epoch.keys():
                seen.setdefault(key)
        return list(seen)

    def __len__(self) -> int:
        return len(self.epochs())


def commit_of(repo_root: Union[str, Path, None] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a repo."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"

"""Crash-safe job journal: append-only JSONL, replayable on restart.

The server appends one record per job-lifecycle transition::

    {"rec": "accepted", "job": "j-3", "key": "...", "cell": {...spec...},
     "t": 12.5}
    {"rec": "running",  "job": "j-3", "worker": "w0", "t": 12.6}
    {"rec": "done",     "job": "j-3", "ok": true, "cached": false, ...}
    {"rec": "drain",    "t": 99.0}

Writes are flushed per record (and optionally fsynced), so after a
``kill -9`` the journal holds every accepted job; replay re-queues the
accepted-but-not-done set and a resumed server finishes them into the
content-addressed result cache.  A torn final line (the crash landed
mid-write) parses as garbage and is skipped — by construction it can
only be the very last record, and an ``accepted`` record that never
fully hit the disk was never acknowledged to a client either.

Replay is deliberately dumb: it reads only ``accepted`` and ``done``
records, so a ``running`` record (or the ``leased`` record of older
journals) is never taken as progress — the run died with the process.
:func:`compact` rewrites the journal to just the pending ``accepted``
records so a long-lived service's journal stays bounded by its backlog,
not its history.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


class Journal:
    """Append-only JSONL writer with per-record durability."""

    def __init__(self, path: Union[str, Path], fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (stamped with a wall-clock ``t``)."""
        record = dict(record)
        record.setdefault("t", time.time())
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All parseable records in a journal, in order.

    Unparseable lines are skipped (the torn tail of a crashed writer);
    a missing file reads as an empty journal.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "rec" in record:
                records.append(record)
    return records


def pending_jobs(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The ``accepted`` records with no matching ``done``, in order.

    This is the at-least-once replay set: a job that was accepted (and
    acknowledged to a client) but not completed before the crash.  Jobs
    that were running count as pending — their run died with the server
    and the content-addressed cache makes re-execution free if the
    result actually landed before the crash.
    """
    accepted: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for record in read_records(path):
        kind = record.get("rec")
        job = record.get("job")
        if kind == "accepted" and isinstance(job, str):
            if job not in accepted:
                order.append(job)
            accepted[job] = record
        elif kind == "done" and isinstance(job, str):
            accepted.pop(job, None)
    return [accepted[job] for job in order if job in accepted]


def compact(path: Union[str, Path]) -> int:
    """Atomically rewrite the journal to only its pending jobs.

    Returns the number of records kept.  Called by a resuming server
    before it starts appending again, so the journal's size tracks the
    backlog rather than growing without bound.
    """
    path = Path(path)
    pending = pending_jobs(path)
    if not path.exists():
        return 0
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in pending:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(pending)


def last_drain(path: Union[str, Path]) -> Optional[float]:
    """Timestamp of the journal's final ``drain`` record, if it ends
    with one (i.e. the previous shutdown was clean)."""
    records = read_records(path)
    if records and records[-1].get("rec") == "drain":
        return records[-1].get("t")
    return None

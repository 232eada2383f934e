"""Versioned on-disk uop traces: capture and deterministic replay.

Format (``docs/scenarios.md`` carries the normative spec)::

    line 1:       JSON header, newline-terminated (auditable with head -1)
    bytes after:  ``count`` fixed-size little-endian records

Header fields: ``format`` (``"loopsim-uop-trace"``), ``version`` (1),
``name``, ``source`` (the workload the stream was captured from),
``seed`` / ``thread`` / ``page_bytes`` (capture parameters), ``count``,
``record`` (the struct format), and ``opclasses`` — the op-class code
table, so a record's one-byte class index survives enum reordering.

Each record packs one :class:`~repro.isa.MicroOp` into 30 bytes::

    pc:u64  address:u64  target:u64  opclass:u8  flags:u8
    nsrcs:u8  src0:u8  src1:u8  dst:u8

``flags`` bits: 1 = taken, 2 = has address, 4 = has target,
8 = has dst.  Absent fields pack as zero and are ignored on read.
Paths ending in ``.gz`` are transparently gzip-compressed (the traces
are "compact", not merely small: 30 B/op raw, ~20 % of that gzipped).

:class:`TraceReplayEngine` drives the pipeline from a trace through the
same :class:`~repro.scenarios.base.WorkloadEngine` contract the
synthetic generator satisfies.  Replay is in-memory, so ``clone`` +
``fast_forward`` (the oracle's rebuild path) and ``seek`` (rewind) are
O(1) position moves — squash replays and the golden model cost nothing
extra.  With ``loop=True`` (the default) the trace wraps around, making
a finite capture an infinite deterministic stream; ``loop=False``
raises :class:`TraceExhaustedError` at the end instead.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import struct
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional

from repro.errors import WorkloadError
from repro.isa import MicroOp, OpClass

TRACE_FORMAT = "loopsim-uop-trace"
TRACE_VERSION = 1

_RECORD = struct.Struct("<QQQBBBBBB")

_FLAG_TAKEN = 1
_FLAG_ADDRESS = 2
_FLAG_TARGET = 4
_FLAG_DST = 8

#: Sentinel for "no register" in the one-byte src/dst slots.
_NO_REG = 0xFF


class TraceError(WorkloadError):
    """A trace file is missing, malformed, or version-incompatible."""


class TraceExhaustedError(TraceError):
    """A non-looping replay ran past the end of its trace."""


def _open(path: str, mode: str) -> BinaryIO:
    if path.endswith(".gz"):
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)  # noqa: SIM115 - caller closes


def _pack(op: MicroOp, codes: Dict[OpClass, int]) -> bytes:
    flags = 0
    if op.taken:
        flags |= _FLAG_TAKEN
    if op.address is not None:
        flags |= _FLAG_ADDRESS
    if op.target is not None:
        flags |= _FLAG_TARGET
    if op.dst is not None:
        flags |= _FLAG_DST
    srcs = list(op.srcs) + [_NO_REG] * (2 - len(op.srcs))
    return _RECORD.pack(
        op.pc,
        op.address or 0,
        op.target or 0,
        codes[op.opclass],
        flags,
        len(op.srcs),
        srcs[0],
        srcs[1],
        op.dst if op.dst is not None else _NO_REG,
    )


def _unpack(record: bytes, classes: List[OpClass]) -> MicroOp:
    pc, address, target, code, flags, nsrcs, src0, src1, dst = (
        _RECORD.unpack(record)
    )
    srcs = tuple((src0, src1)[:nsrcs])
    return MicroOp(
        pc=pc,
        opclass=classes[code],
        srcs=srcs,
        dst=dst if flags & _FLAG_DST else None,
        address=address if flags & _FLAG_ADDRESS else None,
        taken=bool(flags & _FLAG_TAKEN),
        target=target if flags & _FLAG_TARGET else None,
    )


def write_trace(
    path: str,
    ops: Iterable[MicroOp],
    *,
    name: str = "",
    source: str = "",
    seed: int = 0,
    thread: int = 0,
    page_bytes: int = 8192,
) -> int:
    """Write ``ops`` to ``path`` in trace format; returns the op count."""
    classes = list(OpClass)
    codes = {opclass: index for index, opclass in enumerate(classes)}
    body = io.BytesIO()
    count = 0
    for op in ops:
        body.write(_pack(op, codes))
        count += 1
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "name": name or source or "trace",
        "source": source,
        "seed": seed,
        "thread": thread,
        "page_bytes": page_bytes,
        "count": count,
        "record": _RECORD.format,
        "opclasses": [opclass.value for opclass in classes],
    }
    with _open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        handle.write(body.getvalue())
    return count


def capture_trace(
    workload: str,
    path: str,
    count: int,
    *,
    seed: int = 0,
    thread: int = 0,
    page_bytes: int = 8192,
) -> int:
    """Capture ``count`` ops of ``workload``'s stream (one thread) to
    ``path``.

    Works for any resolvable workload — profile, SMT pair member, even
    another trace — because it builds the same engine the simulator
    would and dumps its stream from position 0.
    """
    from repro.scenarios.base import build_engine_for
    from repro.workloads.suites import workload_profiles

    if count < 1:
        raise TraceError(f"trace capture needs count >= 1 (got {count})")
    entries = workload_profiles(workload)
    if not 0 <= thread < len(entries):
        raise TraceError(
            f"workload {workload!r} has {len(entries)} thread(s); "
            f"cannot capture thread {thread}"
        )
    engine = build_engine_for(
        entries[thread], seed=seed, thread=thread, page_bytes=page_bytes
    )
    ops = (engine.next_op() for _ in range(count))
    return write_trace(
        path,
        ops,
        name=f"trace:{workload}",
        source=workload,
        seed=seed,
        thread=thread,
        page_bytes=page_bytes,
    )


class TraceReplayEngine:
    """Replays a captured uop trace as a deterministic workload engine.

    The whole trace is held in memory (captures are measurement-window
    sized, not program-lifetime sized), so position moves are O(1):

    * ``fast_forward(n)`` / ``seek(n)`` jump to absolute stream
      position ``n`` — with looping, position ``n`` maps to record
      ``n % count``;
    * ``clone()`` shares the immutable op list, so the verification
      oracle's rebuild costs one object, not a re-read.
    """

    def __init__(self, path: str, loop: bool = True):
        self.path = path
        self.loop = loop
        try:
            with _open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise TraceError(f"cannot read trace {path!r}: {error}") from error
        newline = raw.find(b"\n")
        if newline < 0:
            raise TraceError(f"{path!r}: no header line; not a uop trace")
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise TraceError(
                f"{path!r}: unparsable trace header: {error}"
            ) from error
        if header.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"{path!r}: format {header.get('format')!r} is not "
                f"{TRACE_FORMAT!r}"
            )
        if header.get("version") != TRACE_VERSION:
            raise TraceError(
                f"{path!r}: trace version {header.get('version')!r} "
                f"unsupported (expected {TRACE_VERSION})"
            )
        try:
            classes = [OpClass(value) for value in header["opclasses"]]
        except (KeyError, ValueError) as error:
            raise TraceError(
                f"{path!r}: bad op-class table: {error}"
            ) from error
        body = raw[newline + 1:]
        count = int(header.get("count", -1))
        if count < 1 or len(body) < count * _RECORD.size:
            raise TraceError(
                f"{path!r}: header promises {count} records, body holds "
                f"{len(body) // _RECORD.size}"
            )
        self.header = header
        self.name = str(header.get("name") or f"trace:{path}")
        try:
            self._ops: List[MicroOp] = [
                _unpack(
                    body[i * _RECORD.size:(i + 1) * _RECORD.size], classes
                )
                for i in range(count)
            ]
        except (ValueError, IndexError) as error:
            raise TraceError(
                f"{path!r}: corrupt trace record: {error}"
            ) from error
        self._digest = hashlib.sha256(raw).hexdigest()[:16]
        self._pos = 0
        self._emitted = 0

    # ------------------------------------------------------------- engine API

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def emitted(self) -> int:
        """Ops delivered so far (absolute stream position)."""
        return self._emitted

    @property
    def digest(self) -> str:
        """Content digest of the trace file (cache-key material)."""
        return self._digest

    def next_op(self) -> MicroOp:
        if self._pos >= len(self._ops):
            if not self.loop:
                raise TraceExhaustedError(
                    f"{self.name}: trace exhausted after "
                    f"{len(self._ops)} ops"
                )
            self._pos = 0
        op = self._ops[self._pos]
        self._pos += 1
        self._emitted += 1
        return op

    def stream(self) -> Iterator[MicroOp]:
        while True:
            yield self.next_op()

    def __iter__(self) -> Iterator[MicroOp]:
        return self.stream()

    def clone(self) -> "TraceReplayEngine":
        """A same-identity engine at position 0 (shares the op list)."""
        twin = object.__new__(TraceReplayEngine)
        twin.path = self.path
        twin.loop = self.loop
        twin.header = self.header
        twin.name = self.name
        twin._ops = self._ops
        twin._digest = self._digest
        twin._pos = 0
        twin._emitted = 0
        return twin

    def fast_forward(self, count: int) -> None:
        """Advance by ``count`` ops (O(1): pure position arithmetic)."""
        self.seek(self._emitted + count)

    def seek(self, position: int) -> None:
        """Jump to absolute stream position (forward *or* rewind)."""
        if position < 0:
            raise TraceError(f"cannot seek to negative position {position}")
        if not self.loop and position > len(self._ops):
            raise TraceExhaustedError(
                f"{self.name}: seek({position}) past the "
                f"{len(self._ops)}-op trace"
            )
        self._emitted = position
        self._pos = position % len(self._ops) if self.loop else position


class TraceSpec:
    """Engine spec for ``trace:<path>`` workload names."""

    family = "trace"

    def __init__(self, path: str, loop: bool = True):
        self.path = path
        self.loop = loop
        self.name = f"trace:{path}"
        self.description = f"replay of the captured uop trace at {path}"
        self._engine: Optional[TraceReplayEngine] = None

    def _load(self) -> TraceReplayEngine:
        if self._engine is None:
            self._engine = TraceReplayEngine(self.path, loop=self.loop)
        return self._engine

    def build_engine(
        self, seed: int = 0, thread: int = 0, page_bytes: int = 8192
    ) -> TraceReplayEngine:
        """A fresh replay engine.  ``seed``/``thread``/``page_bytes``
        are ignored — a trace is a literal stream; its PCs and
        addresses are whatever the capture recorded."""
        return self._load().clone()

    def signature(self) -> str:
        """Content digest of the trace *file* — two different traces
        sharing a path history can never collide in the cell cache."""
        from repro.scenarios.base import content_digest

        return content_digest("trace", self._load().digest)

    def prior_profile(self):
        """A profile stand-in for analytical pruning: the capture's
        source workload when it still resolves, else the smoke profile
        (pruning is a heuristic accelerator, never correctness)."""
        from repro.workloads.profiles import SMOKE_PROFILES
        from repro.workloads.suites import workload_profiles

        source = str(self._load().header.get("source") or "")
        if source and not source.startswith("trace:"):
            try:
                return workload_profiles(source)[0]
            except WorkloadError:
                pass
        return SMOKE_PROFILES["int_test"]

"""Workload-engine abstraction: any deterministic uop stream.

The core historically consumed one concrete stream source —
:class:`~repro.workloads.SyntheticTraceGenerator`.  This module names
the *contract* that source satisfies so the pipeline, the verification
oracle, and the harness can consume any engine honouring it:

``WorkloadEngine`` (duck-typed; the generator itself qualifies):

* ``name`` — stable identity string;
* ``next_op()`` / ``stream()`` — the deterministic uop supply;
* ``emitted`` — ops produced so far;
* ``clone()`` — a fresh engine with the same identity at stream start;
* ``fast_forward(n)`` — advance by ``n`` ops, discarding them.

The determinism contract: for any engine ``e``, a clone fast-forwarded
by ``e.emitted`` continues ``e``'s stream exactly.  The golden retire
model (:mod:`repro.verify.oracle`) is built on nothing else, which is
what lets it check trace replays with the same code that checks the
synthetic generator.

``EngineSpec`` is the *declarative* half: a named, content-addressable
recipe (``trace:<path>``) that ``workload_profiles`` returns in place
of a plain profile.  Anything with a ``build_engine`` method is treated
as a spec by the simulator; plain
:class:`~repro.workloads.WorkloadProfile` objects keep the historical
fast path and bit-identical streams.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa import MicroOp
    from repro.workloads import WorkloadProfile


@runtime_checkable
class WorkloadEngine(Protocol):
    """Structural interface of a deterministic uop supply."""

    name: str

    def next_op(self) -> "MicroOp": ...

    def stream(self) -> Iterator["MicroOp"]: ...

    @property
    def emitted(self) -> int: ...

    def clone(self) -> "WorkloadEngine": ...

    def fast_forward(self, count: int) -> None: ...


@runtime_checkable
class EngineSpec(Protocol):
    """A named recipe the simulator can instantiate per hardware thread.

    ``workload_profiles`` returns these (alongside plain profiles); the
    simulator calls ``build_engine`` once per thread.  ``signature()``
    is a content hash folded into harness cell keys so two specs
    sharing a display name can never collide in the result cache.
    """

    name: str
    family: str
    description: str

    def build_engine(
        self, seed: int = 0, thread: int = 0, page_bytes: int = 8192
    ) -> WorkloadEngine: ...

    def signature(self) -> str: ...

    def prior_profile(self) -> "WorkloadProfile": ...


def content_digest(*parts: str) -> str:
    """A short stable digest of the joined parts (signature helper)."""
    text = "\x1f".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def profile_signature(profile: "WorkloadProfile") -> str:
    """Content signature of a plain profile.

    ``WorkloadProfile`` and its sub-models are frozen dataclasses (and
    :class:`~repro.workloads.mix.InstructionMix` has a deterministic
    repr), so ``repr`` is a complete rendering of every knob — two
    profiles sharing a name but differing in any parameter digest
    differently.
    """
    return content_digest("profile", repr(profile))


def build_engine_for(
    entry, seed: int = 0, thread: int = 0, page_bytes: int = 8192
) -> WorkloadEngine:
    """Instantiate the uop supply for one hardware thread.

    ``entry`` is whatever ``workload_profiles`` resolved: an
    :class:`EngineSpec` (anything with ``build_engine``) or a plain
    :class:`~repro.workloads.WorkloadProfile`, which takes the
    historical :class:`~repro.workloads.SyntheticTraceGenerator` path —
    bit-identical streams for every pre-existing workload.
    """
    if hasattr(entry, "build_engine"):
        return entry.build_engine(
            seed=seed, thread=thread, page_bytes=page_bytes
        )
    from repro.workloads.generator import SyntheticTraceGenerator

    return SyntheticTraceGenerator(
        entry, seed=seed, thread=thread, page_bytes=page_bytes
    )


def entry_signature(entry) -> str:
    """Content signature of one resolved workload entry (spec or profile)."""
    if hasattr(entry, "signature"):
        return entry.signature()
    return profile_signature(entry)


def entries_signature(entries) -> str:
    """Content signature of a resolved workload: every thread's entry,
    in thread order."""
    return content_digest(*[entry_signature(entry) for entry in entries])

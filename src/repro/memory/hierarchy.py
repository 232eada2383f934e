"""Two-level cache hierarchy with TLB and main memory.

``MemoryHierarchy.load`` / ``store`` return a :class:`MemoryResult` whose
``latency`` is the cycles from access start to data availability — the
quantity the load resolution loop speculates on.  The default geometry is
scaled to the base machine of the paper (next-generation, 8-wide SMT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration for the full memory hierarchy."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=64 * 1024, line_bytes=64, assoc=2,
            hit_latency=3, banks=8,
        )
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1I", size_bytes=64 * 1024, line_bytes=64, assoc=2,
            hit_latency=1, banks=1,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=1024 * 1024, line_bytes=64, assoc=8,
            hit_latency=12, banks=1,
        )
    )
    tlb: TLBConfig = field(default_factory=TLBConfig)
    memory_latency: int = 80
    bank_conflict_penalty: int = 3


class MemoryResult(NamedTuple):
    """Outcome of one data-side access.

    ``latency`` is total cycles until data availability.  ``l1_hit`` is
    False for misses *and* for bank conflicts — in both cases the load's
    latency differs from the predicted L1-hit latency, so the load
    resolution loop mis-speculates (§2.2.2).  A named tuple: one is
    built per simulated memory op, at about half the cost of a frozen
    dataclass.
    """

    latency: int
    l1_hit: bool
    l2_hit: Optional[bool]
    tlb_hit: bool
    bank_conflict: bool

    @property
    def as_predicted(self) -> bool:
        """Whether the access behaved like the predicted L1 hit."""
        return self.l1_hit and self.tlb_hit and not self.bank_conflict


class MemoryHierarchy:
    """L1 data / L1 instruction / unified L2 / main memory, plus a DTLB."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        self.l1d = Cache(self.config.l1d)
        self.l1i = Cache(self.config.l1i)
        self.l2 = Cache(self.config.l2)
        self.dtlb = TLB(self.config.tlb)

    # -- data side ------------------------------------------------------------

    def load(self, addr: int, cycle: Optional[int] = None) -> MemoryResult:
        """Perform a data-side load access."""
        conflict = (
            cycle is not None and self.l1d.had_bank_conflict(addr, cycle)
        )
        tlb_hit = self.dtlb.access(addr)
        l1_hit = self.l1d.access(addr, cycle)
        l2_hit: Optional[bool] = None
        latency = self.l1d.config.hit_latency
        if not l1_hit:
            l2_hit = self.l2.access(addr)
            if l2_hit:
                latency += self.l2.config.hit_latency
            else:
                latency += self.l2.config.hit_latency + self.config.memory_latency
        if conflict:
            latency += self.config.bank_conflict_penalty
        if not tlb_hit:
            latency += self.config.tlb.miss_latency
        return MemoryResult(latency, l1_hit, l2_hit, tlb_hit, conflict)

    def store(self, addr: int, cycle: Optional[int] = None) -> MemoryResult:
        """Perform a data-side store access (write-allocate): the same
        tag and timing walk as a load."""
        return self.load(addr, cycle)

    # -- instruction side ----------------------------------------------------------

    def fetch(self, addr: int) -> int:
        """Instruction fetch; returns added latency (0 on an L1I hit)."""
        if self.l1i.access(addr):
            return 0
        if self.l2.access(addr):
            return self.l2.config.hit_latency
        return self.l2.config.hit_latency + self.config.memory_latency

    def invalidate_all(self) -> None:
        """Empty every structure (cold-start control for experiments)."""
        self.l1d.invalidate_all()
        self.l1i.invalidate_all()
        self.l2.invalidate_all()
        self.dtlb.invalidate_all()

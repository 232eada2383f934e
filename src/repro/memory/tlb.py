"""Data TLB model.

The paper attributes part of ``turb3d``'s pipeline-length sensitivity to
data-TLB misses, whose recovery starts "from the beginning of the
pipeline" (§3.1).  The TLB here is a fully associative, LRU translation
cache; a miss charges a fixed walk latency and the pipeline model
additionally applies its front-end recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TLBConfig:
    """Geometry and timing of the TLB."""

    entries: int = 128
    page_bytes: int = 8192
    miss_latency: int = 30

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page size must be a power of two")


@dataclass
class TLBStats:
    """Access counters for the TLB."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class TLB:
    """Fully associative, LRU translation lookaside buffer."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.stats = TLBStats()
        self._pages: List[int] = []
        self._page_shift = config.page_bytes.bit_length() - 1

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on hit, filling on a miss."""
        self.stats.accesses += 1
        page = addr >> self._page_shift
        pages = self._pages
        # the most recent page keeps its place; test it before the scan,
        # which walks the list from the least recent end
        if pages and pages[-1] == page:
            return True
        if page in pages:
            pages.remove(page)
            pages.append(page)
            return True
        self.stats.misses += 1
        pages.append(page)
        if len(pages) > self.config.entries:
            pages.pop(0)
        return False

    def invalidate_all(self) -> None:
        """Empty the TLB."""
        self._pages = []

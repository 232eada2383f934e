"""Set-associative, banked cache model.

The model is timing-directed: it tracks tags (not data) and reports hits,
misses and bank conflicts.  Banking matters to the paper because a bank
conflict, like a miss, makes the load's latency non-deterministic and
trips the load resolution loop (§2.2.2: "whether the load will hit,
miss, or have a bank conflict in the cache is unknown").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Parameters
    ----------
    name:
        Label used in statistics output.
    size_bytes:
        Total capacity.  Must be ``line_bytes * assoc * num_sets`` with a
        power-of-two number of sets.
    line_bytes:
        Line size in bytes.
    assoc:
        Associativity (ways per set).
    hit_latency:
        Cycles from access to data availability on a hit.
    banks:
        Number of independently addressed banks.  A second access to the
        same bank in the same cycle suffers a conflict.
    """

    name: str
    size_bytes: int
    line_bytes: int = 64
    assoc: int = 2
    hit_latency: int = 3
    banks: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc ({self.line_bytes}*{self.assoc})"
            )
        if not _is_power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if not _is_power_of_two(self.banks):
            raise ValueError(f"{self.name}: bank count must be a power of two")
        if not _is_power_of_two(self.num_sets):
            raise ValueError(f"{self.name}: set count must be a power of two")
        if self.hit_latency < 1:
            raise ValueError(f"{self.name}: hit latency must be >= 1")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bank_conflicts: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A set-associative cache with true-LRU replacement.

    The cache is demand-filled: every miss allocates the line (loads and
    stores both allocate, i.e. write-allocate).  Each set is an ordered
    list of tags, most recently used last.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._bank_mask = config.banks - 1
        # cycle -> {bank index} of banks already used that cycle
        self._bank_use_cycle: int = -1
        self._banks_in_use: Dict[int, int] = {}

    # -- address decomposition ------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """The line-granular address (tag+index bits) of ``addr``."""
        return addr >> self._line_shift

    def set_index(self, addr: int) -> int:
        """The set index of ``addr``."""
        return self.line_addr(addr) & self._set_mask

    # -- operations ----------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Whether ``addr`` currently hits, without updating any state."""
        line = self.line_addr(addr)
        return line in self._sets[self.set_index(addr)]

    def access(self, addr: int, cycle: Optional[int] = None) -> bool:
        """Access ``addr``; returns True on hit.

        Misses allocate the line (evicting LRU).  When ``cycle`` is given,
        bank-conflict tracking is performed: a second same-cycle access to
        the same bank is recorded in ``stats.bank_conflicts`` (the caller
        decides what penalty to charge).
        """
        stats = self.stats
        stats.accesses += 1
        line = addr >> self._line_shift
        if cycle is not None and self._bank_mask:
            self._track_bank(line, cycle)
        ways = self._sets[line & self._set_mask]
        if line in ways:
            if ways[-1] != line:  # the most recent line keeps its place
                ways.remove(line)
                ways.append(line)
            stats.hits += 1
            return True
        stats.misses += 1
        ways.append(line)
        if len(ways) > self.config.assoc:
            ways.pop(0)
            stats.evictions += 1
        return False

    def had_bank_conflict(self, addr: int, cycle: int) -> bool:
        """Whether an access to ``addr`` at ``cycle`` conflicts on its bank.

        Must be called *before* :meth:`access` registers the access; the
        hierarchy wraps this ordering.
        """
        if not self._bank_mask or cycle != self._bank_use_cycle:
            return False
        bank = (addr >> self._line_shift) & self._bank_mask
        return self._banks_in_use.get(bank, 0) > 0

    def _track_bank(self, line: int, cycle: int) -> None:
        """Record a banked access to ``line`` (single-bank caches skip
        this)."""
        if cycle != self._bank_use_cycle:
            self._bank_use_cycle = cycle
            self._banks_in_use = {}
        bank = line & self._bank_mask
        if self._banks_in_use.get(bank, 0) > 0:
            self.stats.bank_conflicts += 1
        self._banks_in_use[bank] = self._banks_in_use.get(bank, 0) + 1

    def invalidate_all(self) -> None:
        """Empty the cache (used by tests and warmup control)."""
        self._sets = [[] for _ in range(self.config.num_sets)]

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(ways) for ways in self._sets)

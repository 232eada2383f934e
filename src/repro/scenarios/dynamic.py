"""Phase-varying workloads: profiles interpolated over time.

A :class:`PhaseSchedule` is a cyclic list of phases, each a concrete
:class:`~repro.workloads.WorkloadProfile` active for a fixed number of
stream ops.  Schedules are built from *intensity patterns* (the
vsf-style table: steady / bursty / diurnal / ramp / mixed): each
pattern is a sequence of ``(phase name, intensity in [0, 1], duration
fraction)`` points, and intensity ``t`` interpolates every numeric
profile knob between the base profile (``t = 0``) and a mechanically
derived *stressed* variant (``t = 1``) — colder memory, flatter branch
biases, shorter loop trips, fewer independent strands.

Workload names select all of this declaratively::

    swim@bursty            default period (8192 ops per pattern cycle)
    int_test@diurnal:2048  explicit period
    go+su2cor@ramp         SMT pair: each thread gets its own schedule

Determinism: each phase owns one persistent
:class:`~repro.workloads.SyntheticTraceGenerator` (seeded by the
phase's interpolated profile name), which *continues* across cycle
repetitions — so the engine's stream is a pure function of
``(schedule, seed, thread, page_bytes)`` and honours the clone +
fast-forward contract of :mod:`repro.scenarios.base`.

Phase boundaries call the engine's ``phase_hook``; the simulator wires
it to emit :class:`~repro.obs.events.PhaseEvent`, which is what lets
loop attribution be sliced per phase.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.isa import MicroOp, OpClass
from repro.workloads.generator import SyntheticTraceGenerator
from repro.workloads.mix import InstructionMix
from repro.workloads.profiles import (
    BranchModel,
    DependencyModel,
    MemoryModel,
    WorkloadProfile,
)

#: Default ops per full pattern cycle.
DEFAULT_PERIOD = 8192

#: ``(phase name, intensity, duration fraction)`` per pattern.  The
#: diurnal curve is a sampled sinusoid; bursty alternates calm/burst;
#: ramp climbs monotonically; mixed concatenates a calm plateau, a
#: burst, and a decaying tail.
PATTERNS: Dict[str, List[Tuple[str, float, float]]] = {
    "steady": [("steady", 0.5, 1.0)],
    "bursty": [
        ("calm", 0.10, 0.30),
        ("burst", 0.95, 0.20),
        ("calm", 0.10, 0.30),
        ("burst", 0.95, 0.20),
    ],
    "diurnal": [
        (f"hour{i}", 0.5 + 0.45 * math.sin(2.0 * math.pi * i / 8.0), 0.125)
        for i in range(8)
    ],
    "ramp": [(f"ramp{i}", i / 5.0, 1.0 / 6.0) for i in range(6)],
    "mixed": [
        ("steady", 0.40, 0.35),
        ("burst", 0.95, 0.15),
        ("cooldown", 0.60, 0.20),
        ("calm", 0.15, 0.30),
    ],
}

PATTERN_DESCRIPTIONS: Dict[str, str] = {
    "steady": "constant mid intensity (control for the dynamic engine)",
    "bursty": "calm/burst alternation, 95% intensity 40% of the time",
    "diurnal": "sampled sinusoid over 8 phases (day/night load curve)",
    "ramp": "monotonic climb from idle to full stress in 6 steps",
    "mixed": "plateau, burst, cooldown, calm — one of each regime",
}

_SCENARIO_NAME = re.compile(
    r"^(?P<base>[A-Za-z0-9_+.\-]+)@(?P<pattern>[a-z]+)"
    r"(?::(?P<period>\d+))?$"
)


def _lerp(lo: float, hi: float, t: float) -> float:
    return lo + (hi - lo) * t


def _lerp_int(lo: int, hi: int, t: float, minimum: int = 1) -> int:
    return max(minimum, round(_lerp(float(lo), float(hi), t)))


def stressed_variant(profile: WorkloadProfile) -> WorkloadProfile:
    """The intensity-1.0 endpoint, mechanically derived from ``profile``.

    Stress means every loose loop gets hungrier: branch biases flatten
    toward coin flips and loop bodies shorten (branch resolution loop),
    locality shifts from hot to cold with faster page hopping (load
    resolution loop), and dependence strands collapse while chains
    tighten (less latency-hiding ILP).  All derived values stay inside
    the sub-models' validation envelopes by construction.
    """
    br = profile.branches
    mem = profile.memory
    deps = profile.deps
    stressed_branches = replace(
        br,
        loop_trip=max(2, br.loop_trip // 4),
        loop_site_frac=max(0.0, br.loop_site_frac - 0.25),
        random_bias_lo=0.5 + (br.random_bias_lo - 0.5) * 0.4,
        random_bias_hi=max(
            0.5 + (br.random_bias_lo - 0.5) * 0.4,
            0.5 + (br.random_bias_hi - 0.5) * 0.4,
        ),
        indirect_frac=min(0.5, br.indirect_frac * 1.5 + 0.02),
    )
    hot = mem.hot_frac * 0.55
    warm = min(mem.warm_frac * 1.2, max(0.0, 0.95 - hot))
    cold = min(
        max(0.0, 0.98 - hot - warm), mem.cold_frac * 3.0 + 0.05
    )
    stressed_memory = replace(
        mem,
        hot_frac=hot,
        warm_frac=warm,
        cold_frac=cold,
        stream_frac=1.0 - hot - warm - cold,
        cold_pages=max(mem.cold_pages, 2048),
        page_dwell=max(1, mem.page_dwell // 8),
    )
    stressed_deps = replace(
        deps,
        strands=max(1, deps.strands // 3),
        chain_frac=min(0.95, deps.chain_frac * 1.4 + 0.05),
        far_frac=min(0.5, deps.far_frac * 1.5 + 0.02),
    )
    return replace(
        profile,
        branches=stressed_branches,
        memory=stressed_memory,
        deps=stressed_deps,
    )


def interpolate_profiles(
    lo: WorkloadProfile, hi: WorkloadProfile, t: float, name: str
) -> WorkloadProfile:
    """Interpolate every numeric knob between two profiles.

    Floats lerp; integers lerp and round (respecting each model's
    minima); memory fractions re-close to exactly 1.0 by assigning the
    stream region the remainder, so the result always passes
    ``MemoryModel`` validation.  Mix fractions lerp over the union of
    op classes **in sorted op-class order** — like the fuzz
    reproducers, sampling depends on entry order, so ordering must be
    derived from content, not dict insertion history.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation position must be in [0, 1]: {t}")
    lo_mix = {op.value: frac for op, frac in lo.mix.items()}
    hi_mix = {op.value: frac for op, frac in hi.mix.items()}
    mix = InstructionMix(
        {
            OpClass(key): _lerp(lo_mix.get(key, 0.0), hi_mix.get(key, 0.0), t)
            for key in sorted(set(lo_mix) | set(hi_mix))
            if _lerp(lo_mix.get(key, 0.0), hi_mix.get(key, 0.0), t) > 0.0
        }
    )
    lb, hb = lo.branches, hi.branches
    bias_lo = _lerp(lb.random_bias_lo, hb.random_bias_lo, t)
    branches = BranchModel(
        num_sites=_lerp_int(lb.num_sites, hb.num_sites, t),
        loop_site_frac=_lerp(lb.loop_site_frac, hb.loop_site_frac, t),
        loop_trip=_lerp_int(lb.loop_trip, hb.loop_trip, t),
        random_bias_lo=bias_lo,
        random_bias_hi=max(
            bias_lo, _lerp(lb.random_bias_hi, hb.random_bias_hi, t)
        ),
        indirect_frac=_lerp(lb.indirect_frac, hb.indirect_frac, t),
        code_bytes=_lerp_int(lb.code_bytes, hb.code_bytes, t, minimum=1024),
    )
    lm, hm = lo.memory, hi.memory
    hot = _lerp(lm.hot_frac, hm.hot_frac, t)
    warm = _lerp(lm.warm_frac, hm.warm_frac, t)
    cold = _lerp(lm.cold_frac, hm.cold_frac, t)
    memory = MemoryModel(
        hot_frac=hot,
        warm_frac=warm,
        cold_frac=cold,
        stream_frac=1.0 - hot - warm - cold,
        hot_bytes=_lerp_int(lm.hot_bytes, hm.hot_bytes, t),
        warm_bytes=_lerp_int(lm.warm_bytes, hm.warm_bytes, t),
        cold_pages=_lerp_int(lm.cold_pages, hm.cold_pages, t),
        page_dwell=_lerp_int(lm.page_dwell, hm.page_dwell, t),
        stream_stride=_lerp_int(lm.stream_stride, hm.stream_stride, t),
        alias_site_frac=_lerp(lm.alias_site_frac, hm.alias_site_frac, t),
    )
    ld, hd = lo.deps, hi.deps
    far_lo = _lerp_int(ld.far_lo, hd.far_lo, t)
    deps = DependencyModel(
        strands=_lerp_int(ld.strands, hd.strands, t),
        chain_frac=_lerp(ld.chain_frac, hd.chain_frac, t),
        near_mean=max(1.0, _lerp(ld.near_mean, hd.near_mean, t)),
        far_frac=_lerp(ld.far_frac, hd.far_frac, t),
        far_lo=far_lo,
        far_hi=max(far_lo, _lerp_int(ld.far_hi, hd.far_hi, t)),
        two_src_frac=_lerp(ld.two_src_frac, hd.two_src_frac, t),
        global_frac=_lerp(ld.global_frac, hd.global_frac, t),
        num_globals=_lerp_int(ld.num_globals, hd.num_globals, t),
        fanout_burst_frac=_lerp(
            ld.fanout_burst_frac, hd.fanout_burst_frac, t
        ),
        fanout_burst_len=_lerp_int(
            ld.fanout_burst_len, hd.fanout_burst_len, t
        ),
    )
    return WorkloadProfile(
        name=name,
        mix=mix,
        branches=branches,
        memory=memory,
        deps=deps,
        description=f"interpolated at intensity {t:.2f}",
    )


@dataclass(frozen=True)
class Phase:
    """One schedule entry: a concrete profile active for ``duration`` ops."""

    name: str
    intensity: float
    profile: WorkloadProfile
    duration: int


class PhaseSchedule:
    """A cyclic sequence of phases addressed by absolute stream position.

    ``segment_at(position)`` is a pure function, so any two walks over
    the same schedule agree on every boundary — the property the
    hypothesis determinism test pins down.
    """

    def __init__(
        self, name: str, phases: List[Phase],
        base_profile: Optional[WorkloadProfile] = None,
        pattern: str = "",
    ):
        if not phases:
            raise WorkloadError(f"schedule {name!r} has no phases")
        if any(phase.duration < 1 for phase in phases):
            raise WorkloadError(
                f"schedule {name!r} has a phase shorter than one op"
            )
        self.name = name
        self.phases = list(phases)
        self.base_profile = base_profile
        self.pattern = pattern
        self._starts: List[int] = []
        acc = 0
        for phase in self.phases:
            self._starts.append(acc)
            acc += phase.duration
        self.total_ops = acc

    @classmethod
    def from_pattern(
        cls,
        base: WorkloadProfile,
        pattern: str,
        period: int = DEFAULT_PERIOD,
    ) -> "PhaseSchedule":
        """Build a schedule by running ``pattern`` over ``base``.

        Phase profiles interpolate between ``base`` (intensity 0) and
        :func:`stressed_variant` of it (intensity 1); durations are the
        pattern's fractions of ``period`` (at least one op each).
        """
        if pattern not in PATTERNS:
            raise WorkloadError(
                f"unknown intensity pattern {pattern!r}; known: "
                f"{', '.join(sorted(PATTERNS))}"
            )
        if period < len(PATTERNS[pattern]):
            raise WorkloadError(
                f"period {period} is shorter than the {pattern!r} "
                f"pattern's {len(PATTERNS[pattern])} phases"
            )
        hi = stressed_variant(base)
        name = f"{base.name}@{pattern}"
        if period != DEFAULT_PERIOD:
            name += f":{period}"
        phases = [
            Phase(
                name=phase_name,
                intensity=intensity,
                profile=interpolate_profiles(
                    base, hi, intensity,
                    name=f"{name}#{index}-{phase_name}",
                ),
                duration=max(1, round(fraction * period)),
            )
            for index, (phase_name, intensity, fraction) in enumerate(
                PATTERNS[pattern]
            )
        ]
        return cls(name, phases, base_profile=base, pattern=pattern)

    def segment_at(self, position: int) -> Tuple[int, int]:
        """``(phase index, global segment ordinal)`` for stream position.

        The ordinal counts every boundary crossing since position 0 —
        cycle repetitions included — so obs phase events stay strictly
        increasing over a run.
        """
        if position < 0:
            raise ValueError(f"stream position cannot be negative: {position}")
        lap, offset = divmod(position, self.total_ops)
        index = 0
        for i, start in enumerate(self._starts):
            if offset >= start:
                index = i
            else:
                break
        return index, lap * len(self.phases) + index

    def signature(self) -> str:
        """Content digest over every phase's full parameterisation."""
        from repro.scenarios.base import content_digest

        return content_digest(
            "schedule",
            self.name,
            *(
                f"{phase.name}/{phase.duration}/{repr(phase.profile)}"
                for phase in self.phases
            ),
        )


class DynamicWorkloadEngine:
    """Workload engine whose profile follows a :class:`PhaseSchedule`.

    Each phase owns one persistent generator that continues across
    cycle repetitions, so the stream is fully determined by the
    constructor arguments (clone + fast-forward reproduces it).
    ``phase_hook(ordinal, phase_index, phase_name)`` fires on every
    boundary crossing; it is ``None`` until observability wires it.
    """

    def __init__(
        self,
        schedule: PhaseSchedule,
        seed: int = 0,
        thread: int = 0,
        page_bytes: int = 8192,
    ):
        self.schedule = schedule
        self.seed = seed
        self.thread = thread
        self.page_bytes = page_bytes
        self.name = schedule.name
        self._generators = [
            SyntheticTraceGenerator(
                phase.profile, seed=seed, thread=thread,
                page_bytes=page_bytes,
            )
            for phase in schedule.phases
        ]
        self._emitted = 0
        self._ordinal = -1
        self.phase_hook: Optional[Callable[[int, int, str], None]] = None

    @property
    def emitted(self) -> int:
        return self._emitted

    def current_phase(self) -> Tuple[int, int, str]:
        """``(ordinal, phase index, phase name)`` of the *next* op."""
        index, ordinal = self.schedule.segment_at(self._emitted)
        return ordinal, index, self.schedule.phases[index].name

    def announce(self) -> None:
        """Fire ``phase_hook`` with the current phase (attach anchor)."""
        if self.phase_hook is not None:
            ordinal, index, name = self.current_phase()
            self._ordinal = ordinal
            self.phase_hook(ordinal, index, name)

    def next_op(self) -> MicroOp:
        index, ordinal = self.schedule.segment_at(self._emitted)
        if ordinal != self._ordinal:
            self._ordinal = ordinal
            if self.phase_hook is not None:
                self.phase_hook(
                    ordinal, index, self.schedule.phases[index].name
                )
        self._emitted += 1
        return self._generators[index].next_op()

    def stream(self) -> Iterator[MicroOp]:
        while True:
            yield self.next_op()

    def __iter__(self) -> Iterator[MicroOp]:
        return self.stream()

    def clone(self) -> "DynamicWorkloadEngine":
        return DynamicWorkloadEngine(
            self.schedule,
            seed=self.seed,
            thread=self.thread,
            page_bytes=self.page_bytes,
        )

    def fast_forward(self, count: int) -> None:
        for _ in range(count):
            self.next_op()


class DynamicSpec:
    """Engine spec for ``base@pattern[:period]`` workload names."""

    family = "dynamic"

    def __init__(self, schedule: PhaseSchedule):
        self.schedule = schedule
        self.name = schedule.name
        base = schedule.base_profile
        self.description = (
            f"{base.name if base is not None else 'schedule'} under the "
            f"{schedule.pattern or 'custom'} intensity pattern "
            f"({len(schedule.phases)} phases / {schedule.total_ops} ops)"
        )

    def build_engine(
        self, seed: int = 0, thread: int = 0, page_bytes: int = 8192
    ) -> DynamicWorkloadEngine:
        return DynamicWorkloadEngine(
            self.schedule, seed=seed, thread=thread, page_bytes=page_bytes
        )

    def signature(self) -> str:
        return self.schedule.signature()

    def prior_profile(self) -> WorkloadProfile:
        """The base profile (analytical pruning sees the time average
        as roughly the base; exact pruning of dynamic mixes is not a
        correctness concern — pruning is a pre-filter)."""
        if self.schedule.base_profile is not None:
            return self.schedule.base_profile
        return self.schedule.phases[0].profile


def resolve_dynamic(name: str) -> List[DynamicSpec]:
    """Resolve ``base@pattern[:period]`` to one spec per thread.

    ``base`` is any statically resolvable workload (single profile,
    scenario family, or SMT pair — each pair member gets its own
    schedule).  Raises :class:`~repro.errors.WorkloadError` for
    malformed names, unknown bases, and unknown patterns.
    """
    from repro.workloads.suites import workload_profiles

    match = _SCENARIO_NAME.match(name)
    if match is None:
        raise WorkloadError(
            f"malformed dynamic workload {name!r}; expected "
            f"base@pattern or base@pattern:period"
        )
    base_name = match.group("base")
    pattern = match.group("pattern")
    period = int(match.group("period") or DEFAULT_PERIOD)
    entries = workload_profiles(base_name)
    for entry in entries:
        if not isinstance(entry, WorkloadProfile):
            raise WorkloadError(
                f"dynamic workload base {base_name!r} must resolve to "
                f"plain profiles (got {type(entry).__name__})"
            )
    return [
        DynamicSpec(PhaseSchedule.from_pattern(entry, pattern, period))
        for entry in entries
    ]

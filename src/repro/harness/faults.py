"""Fault injection for exercising the harness's own recovery paths.

A :class:`FaultSpec` targets cells by workload, config and seed and
injects one of five failure modes into matching cells.  The config is
matched by its pipeline label (``Base:5_5``) or, since several configs
can share that label, by a ``#``-prefixed prefix of the cell key (the
``#6f325c69`` that ends a cell's label in failure reports).  The modes:

* ``hang`` — the worker sleeps forever; the watchdog must kill it
  (requires process isolation; the inline executor degrades it to a
  transient error so a test run can never actually wedge).
* ``crash`` — the worker process dies with ``os._exit`` (process mode)
  or raises :class:`~repro.errors.CellCrashError` (inline mode).
* ``transient`` — raises :class:`~repro.errors.TransientCellError`.
* ``slow`` — sleeps ``delay_s`` seconds (bounded by
  :data:`SLOW_DELAY_CAP`) before the cell runs, then lets it proceed.
  Drives latency/timeout chaos: under a ``--cell-timeout`` shorter than
  the delay the watchdog fires, otherwise the cell just finishes late.
* ``disconnect`` — a *service-level* fault: :mod:`repro.serve` drops the
  client connection instead of delivering a matching cell's result.
  Worker-side it is a no-op (the simulation itself is untouched).

``attempts`` bounds how many attempts the fault fires on: ``attempts=1``
models a transient glitch (first try fails, the retry succeeds);
a large value models a persistent failure the harness must give up on.

Specs come from the ``REPRO_FAULTS`` environment variable (which also
reaches worker subprocesses for free) or programmatically via
``HarnessSettings.faults``.  The string format is ``;``-separated specs
of ``kind|workload|config_label|seed|attempts|delay_s`` where trailing
fields may be omitted and ``*`` matches anything (``delay_s`` only
means something for ``slow``), e.g.::

    REPRO_FAULTS="hang|swim|Base:5_5|0|1;crash|compress;slow|*|*|*|2|0.5"
    REPRO_FAULTS="crash|swim|#6f325c69"     # one cell, by key prefix
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import CellCrashError, ConfigError, TransientCellError

#: Environment variable holding fault specs.
FAULTS_ENV = "REPRO_FAULTS"

#: The injected-crash exit code (distinctive, for failure reports).
CRASH_EXIT_CODE = 86

KINDS = ("hang", "crash", "transient", "slow", "disconnect")

#: Kinds the cell executor fires inside (or around) a worker.
WORKER_KINDS = ("hang", "crash", "transient", "slow")

#: Kinds interpreted by the service layer (:mod:`repro.serve`), not the
#: worker: the simulation runs normally, the *delivery* is sabotaged.
SERVICE_KINDS = ("disconnect",)

#: Hard ceiling on an injected ``slow`` delay, so a typo'd spec cannot
#: wedge a campaign for hours (the point of ``slow`` is to race a
#: watchdog measured in seconds).
SLOW_DELAY_CAP = 30.0


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, targeted at matching cells."""

    kind: str
    workload: str = "*"
    #: A ``CoreConfig.label``, or ``#`` and a prefix of the cell key.
    config_label: str = "*"
    seed: str = "*"
    #: Fire on attempt numbers <= this (1-based).
    attempts: int = 1
    #: Sleep before the cell runs (``slow`` only; capped at
    #: :data:`SLOW_DELAY_CAP` when triggered).
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.attempts < 1:
            raise ConfigError("fault attempts must be >= 1")
        if self.delay_s < 0:
            raise ConfigError("fault delay_s cannot be negative")
        prefix = self._key_prefix
        if prefix is not None and not (
            prefix and set(prefix) <= set("0123456789abcdef")
        ):
            raise ConfigError(
                f"malformed fault key prefix {self.config_label!r}; "
                "expected '#' and lower-case hex digits"
            )

    @property
    def _key_prefix(self) -> Optional[str]:
        """The cell-key prefix this spec targets, or None when it
        targets a config label."""
        if self.config_label.startswith("#"):
            return self.config_label[1:]
        return None

    def matches(self, workload: str, config_label: str, seed: int,
                attempt: int, key: str = "") -> bool:
        """Whether this fault fires for a cell on a given attempt;
        ``key`` is the cell's key (:attr:`~repro.harness.Cell.key`)."""
        prefix = self._key_prefix
        return (
            attempt <= self.attempts
            and self.workload in ("*", workload)
            and (self.config_label in ("*", config_label) if prefix is None
                 else key.startswith(prefix))
            and self.seed in ("*", str(seed))
        )

    def encode(self) -> str:
        """The spec in ``REPRO_FAULTS`` string form."""
        fields = [self.kind, self.workload, self.config_label, self.seed,
                  str(self.attempts)]
        if self.kind == "slow" or self.delay_s:
            fields.append(repr(self.delay_s))
        return "|".join(fields)


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS``-style spec string."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split("|")
        if len(fields) > 6:
            raise ConfigError(f"malformed fault spec {chunk!r}")
        kind, rest = fields[0], fields[1:]
        kwargs = dict(zip(("workload", "config_label", "seed"), rest[:3]))
        if len(rest) > 3:
            try:
                kwargs["attempts"] = int(rest[3])
            except ValueError:
                raise ConfigError(f"malformed fault attempts in {chunk!r}")
        if len(rest) > 4:
            try:
                kwargs["delay_s"] = float(rest[4])
            except ValueError:
                raise ConfigError(f"malformed fault delay in {chunk!r}")
        specs.append(FaultSpec(kind=kind, **kwargs))
    return tuple(specs)


def env_faults() -> Tuple[FaultSpec, ...]:
    """Fault specs from the environment (empty when unset)."""
    text = os.environ.get(FAULTS_ENV, "")
    return parse_faults(text) if text else ()


def active_fault(
    faults: Sequence[FaultSpec],
    workload: str,
    config_label: str,
    seed: int,
    attempt: int,
    kinds: Optional[Sequence[str]] = None,
    key: str = "",
) -> Optional[FaultSpec]:
    """The first configured fault matching a cell attempt, if any.

    ``kinds`` restricts the search: the cell executor asks for
    :data:`WORKER_KINDS` and the service layer for :data:`SERVICE_KINDS`,
    so one ``REPRO_FAULTS`` string can arm both layers at once.  ``key``
    is the cell key that ``#``-prefixed specs match.
    """
    for spec in faults:
        if kinds is not None and spec.kind not in kinds:
            continue
        if spec.matches(workload, config_label, seed, attempt, key):
            return spec
    return None


def trigger(spec: FaultSpec, isolated: bool) -> None:
    """Fire an injected fault.

    ``isolated`` says whether we are inside a killable worker process;
    only then may a hang actually hang or a crash actually kill the
    interpreter.  ``slow`` sleeps and returns (the cell then runs);
    ``disconnect`` is a worker-side no-op — it only means something to
    the service layer, which checks for it at result-delivery time.
    """
    detail = f"injected {spec.kind} fault ({spec.encode()})"
    if spec.kind == "disconnect":
        return
    if spec.kind == "slow":
        time.sleep(min(spec.delay_s, SLOW_DELAY_CAP))
        return
    if spec.kind == "transient":
        raise TransientCellError(detail)
    if spec.kind == "crash":
        if isolated:
            os._exit(CRASH_EXIT_CODE)
        raise CellCrashError(detail, exitcode=CRASH_EXIT_CODE)
    # hang
    if isolated:
        while True:  # the watchdog will kill this process
            time.sleep(3600)
    raise TransientCellError(detail + " (degraded to transient: no isolation)")

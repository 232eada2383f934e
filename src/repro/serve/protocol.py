"""Wire protocol of the campaign service: JSON lines over TCP.

Every message is one JSON object on one ``\\n``-terminated line.  The
vocabulary is small and explicit:

Client -> server
    ``submit``      run (or coalesce onto) one simulation cell
    ``status``      queued count and job states
    ``stats``       the server's :mod:`repro.obs` metrics snapshot
    ``health``      liveness/readiness probe
    ``drain``       ask the server to drain gracefully

Jobs run first-in first-out; a ``submit`` may still carry the
``priority`` key older clients sent, and the server ignores it.

Server -> client
    ``accepted``    the submit was queued (or deduplicated / cache-hit)
    ``result``      terminal outcome of a submitted cell
    ``rejected``    load shed once the job queue is full (429-style,
                    with ``retry_after``) or drain refusal (503-style)
    ``error``       malformed request / invalid cell spec
    ``status`` / ``stats`` / ``health`` / ``draining``  replies in kind

A *cell spec* is the JSON description of one simulation cell::

    {"workload": "swim", "seed": 0,
     "config": {"dra": true, "rf": 5, "recovery": "reissue",
                "overrides": {...}, "dra_overrides": {...}},
     "instructions": 10000, "warmup": 100000, "detailed_warmup": 1500}

The server rebuilds the :class:`~repro.harness.Cell` from the spec, so
the cell's content address (:func:`~repro.harness.cache.cell_key`) is
computed exactly once, server-side, from the same frozen dataclasses a
direct :func:`~repro.core.simulator.simulate` call would use — which is
what makes a replayed execution idempotent and deduplication exact.

Results travel as a JSON summary (ipc + the ``CoreStats`` summary dict)
plus, when the client asks for ``pickle``, a base64-pickled
:class:`~repro.core.SimResult` so local tooling gets the full object
back, bit-identical to a direct run.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.experiments.runner import ExperimentSettings
from repro.harness import Cell

#: Protocol version, echoed in health replies; bump on breaking change.
PROTOCOL_VERSION = 1

#: Upper bound on one wire line (a pickled SimResult is ~tens of kB;
#: this also caps hostile input).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Config overrides a submit may set (scalar CoreConfig fields only —
#: nested sub-configs stay server-default so cell keys remain portable).
ALLOWED_CONFIG_OVERRIDES = frozenset((
    "fetch_width", "rename_width", "issue_width", "retire_width",
    "fetch_depth", "dec_iq", "iq_ex", "rename_offset",
    "iq_entries", "rob_entries", "num_clusters", "num_pregs",
    "fb_depth", "rf_read_ports", "iq_feedback_delay", "iq_clear_cycles",
    "branch_feedback_delay", "load_fill_wake_lead", "slotting",
    "fetch_policy",
))

#: DRAConfig overrides a submit may set.
ALLOWED_DRA_OVERRIDES = frozenset((
    "crc_entries", "counter_bits", "payload_transit", "frontend_stall",
    "oracle_crc", "centralized", "insertion_policy",
    "shadow_fb_decrement",
))


def encode(message: Dict[str, Any]) -> bytes:
    """One wire line for ``message``."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """The message on one wire line; raises :class:`ConfigError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ConfigError(f"wire line over {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigError(f"malformed wire line: {error}")
    if not isinstance(message, dict) or "type" not in message:
        raise ConfigError("wire message must be an object with a 'type'")
    return message


# --------------------------------------------------------------------------
# Cell specs
# --------------------------------------------------------------------------

def make_cell_spec(
    workload: str,
    seed: int = 0,
    dra: bool = False,
    rf: int = 3,
    recovery: str = "",
    overrides: Optional[Dict[str, Any]] = None,
    dra_overrides: Optional[Dict[str, Any]] = None,
    instructions: int = ExperimentSettings.instructions,
    warmup: int = ExperimentSettings.warmup,
    detailed_warmup: int = ExperimentSettings.detailed_warmup,
    backend: str = ExperimentSettings.backend,
) -> Dict[str, Any]:
    """A client-side cell spec (see module docstring for the shape)."""
    config: Dict[str, Any] = {"dra": bool(dra), "rf": int(rf)}
    if recovery:
        config["recovery"] = recovery
    if overrides:
        config["overrides"] = dict(overrides)
    if dra_overrides:
        config["dra_overrides"] = dict(dra_overrides)
    return {
        "workload": workload,
        "seed": int(seed),
        "config": config,
        "instructions": int(instructions),
        "warmup": int(warmup),
        "detailed_warmup": int(detailed_warmup),
        "backend": str(backend),
    }


def build_cell(spec: Dict[str, Any]) -> Cell:
    """Rebuild the harness :class:`Cell` a spec describes.

    Raises :class:`ConfigError` (or lets ``CoreConfig``'s own
    ``ValueError``-compatible validation surface) on anything the
    simulator would reject — the server turns that into an ``error``
    reply instead of accepting a poison job.
    """
    try:
        return _build_cell(spec)
    except TypeError as error:
        # a field of the wrong JSON type: int() or dict() of a list, an
        # object or null
        raise ConfigError(f"malformed cell spec: {error}") from error


def _build_cell(spec: Dict[str, Any]) -> Cell:
    from repro.core import CoreConfig, LoadRecovery

    if not isinstance(spec, dict):
        raise ConfigError("cell spec must be an object")
    workload = spec.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ConfigError("cell spec needs a workload name")
    conf = spec.get("config") or {}
    if not isinstance(conf, dict):
        raise ConfigError("cell config must be an object")
    overrides = dict(conf.get("overrides") or {})
    unknown = set(overrides) - ALLOWED_CONFIG_OVERRIDES
    if unknown:
        raise ConfigError(f"unknown config override(s): {sorted(unknown)}")
    rf = int(conf.get("rf", 3))
    if conf.get("dra"):
        dra_overrides = dict(conf.get("dra_overrides") or {})
        unknown = set(dra_overrides) - ALLOWED_DRA_OVERRIDES
        if unknown:
            raise ConfigError(f"unknown DRA override(s): {sorted(unknown)}")
        from repro.core.config import DRAConfig

        config = CoreConfig.with_dra(rf, dra=DRAConfig(**dra_overrides),
                                     **overrides)
    elif conf.get("dra_overrides"):
        raise ConfigError("dra_overrides given for a non-DRA config")
    else:
        config = CoreConfig.base(rf, **overrides)
    if conf.get("recovery"):
        config = config.replace(load_recovery=LoadRecovery(conf["recovery"]))
    seed = int(spec.get("seed", 0))
    backend = str(spec.get("backend", ExperimentSettings.backend))
    # reject bad backend specs here so the server replies with an error
    # instead of accepting a poison job
    from repro.core.backend import parse_backend

    parse_backend(backend)
    settings = ExperimentSettings(
        instructions=int(spec.get("instructions",
                                  ExperimentSettings.instructions)),
        warmup=int(spec.get("warmup", ExperimentSettings.warmup)),
        detailed_warmup=int(spec.get("detailed_warmup",
                                     ExperimentSettings.detailed_warmup)),
        seeds=(seed,),
        backend=backend,
    )
    return Cell(workload=workload, config=config, settings=settings,
                seed=seed)


# --------------------------------------------------------------------------
# Result rendering
# --------------------------------------------------------------------------

def result_to_wire(result: Any, want_pickle: bool) -> Dict[str, Any]:
    """The JSON-safe rendering of a :class:`~repro.core.SimResult`."""
    wire: Dict[str, Any] = {
        "ipc": result.ipc,
        "workload": result.workload,
        "config": result.config.label,
        "seed": result.seed,
        "backend": getattr(result, "backend", "reference"),
        "summary": {k: float(v) for k, v in result.stats.summary().items()},
    }
    if want_pickle:
        wire["payload"] = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    return wire


def result_from_wire(wire: Dict[str, Any]) -> Optional[Any]:
    """The full ``SimResult`` when the wire carried a pickle payload."""
    payload = wire.get("payload")
    if not payload:
        return None
    return pickle.loads(base64.b64decode(payload))

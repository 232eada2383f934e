"""repro.serve — the fault-tolerant async campaign service.

Simulation-as-a-service on top of :mod:`repro.harness`: an asyncio
TCP/JSON-lines server (``loopsim serve``) with request deduplication
against the content-addressed result cache, bounded priority lanes with
explicit load shedding, one run per job through the harness's watchdog
and retries, a crash-safe journal with ``--resume`` replay, graceful
drain on SIGTERM, and health/stats endpoints wired to :mod:`repro.obs`
metrics — plus the thin synchronous client behind ``loopsim submit``.

The robustness story is chaos-tested end to end by extending the
``REPRO_FAULTS`` machinery (:mod:`repro.harness.faults`) with
service-level fault kinds (``slow``, ``disconnect``) on top of the
worker-level ones (``hang``, ``crash``, ``transient``); see
``docs/service.md``.
"""

from repro.serve.client import (
    CampaignClient,
    Reply,
    ServiceError,
    ServiceUnavailableError,
)
from repro.serve.journal import Journal, compact, pending_jobs, read_records
from repro.serve.protocol import (
    LANES,
    PROTOCOL_VERSION,
    build_cell,
    make_cell_spec,
)
from repro.serve.queue import Job, JobQueue, QueueFullError
from repro.serve.server import CampaignServer, ServeSettings, run_server

__all__ = [
    "CampaignClient",
    "Reply",
    "ServiceError",
    "ServiceUnavailableError",
    "Journal",
    "read_records",
    "pending_jobs",
    "compact",
    "Job",
    "JobQueue",
    "QueueFullError",
    "CampaignServer",
    "ServeSettings",
    "run_server",
    "build_cell",
    "make_cell_spec",
    "LANES",
    "PROTOCOL_VERSION",
]

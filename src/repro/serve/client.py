"""Thin synchronous client for the campaign service.

One JSON-lines TCP connection per client; :meth:`CampaignClient.submit`
sends a cell spec and blocks for the result.  The client is where the
service's failure modes become invisible to callers:

* ``rejected`` (429, job queue full) — honour ``retry_after`` and
  resubmit, up to ``retries`` times.
* dropped connection mid-wait (server restart, injected ``disconnect``
  fault) — reconnect and resubmit; the cell key makes the retry free
  (cache hit or dedup onto the still-running job).
* ``rejected`` (503, draining) — surface immediately; a draining server
  will not come back on this address.

Everything the server answers is returned as a :class:`Reply`.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    encode,
    make_cell_spec,
    result_from_wire,
)


class ServiceError(ReproError):
    """The service refused or failed a request terminally."""


class ServiceUnavailableError(ServiceError):
    """Could not reach (or stay connected to) the server."""


@dataclass
class Reply:
    """Terminal answer to one submit."""

    ok: bool
    job: Optional[str] = None
    key: Optional[str] = None
    dedup: bool = False
    cached: bool = False
    attempts: int = 0
    ipc: Optional[float] = None
    summary: Dict[str, float] = field(default_factory=dict)
    #: The full ``SimResult`` when the submit asked for a pickle.
    result: Optional[Any] = None
    error_kind: Optional[str] = None
    error_message: Optional[str] = None
    #: submits shed then retried successfully.
    sheds: int = 0
    reconnects: int = 0


class _Connection:
    """One line-oriented TCP connection."""

    def __init__(self, host: str, port: int, timeout: Optional[float]):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall(encode(message))

    def recv(self) -> Dict[str, Any]:
        line = self.reader.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class CampaignClient:
    """Synchronous campaign-service client."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 300.0,
        retries: int = 5,
        retry_delay: float = 0.2,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_delay = retry_delay
        self._conn: Optional[_Connection] = None
        self._rid = 0

    # -- plumbing ----------------------------------------------------------

    def _connection(self, fresh: bool = False) -> _Connection:
        if fresh and self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._conn is None:
            try:
                self._conn = _Connection(self.host, self.port, self.timeout)
            except OSError as error:
                raise ServiceUnavailableError(
                    f"cannot connect to {self.host}:{self.port}: {error}"
                )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CampaignClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply round trip (no retry semantics)."""
        conn = self._connection()
        try:
            conn.send(message)
            return conn.recv()
        except (OSError, ConnectionResetError, json.JSONDecodeError) as error:
            self.close()
            raise ServiceUnavailableError(f"request failed: {error}")

    # -- control endpoints -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request({"type": "health"})

    def status(self) -> Dict[str, Any]:
        return self._request({"type": "status"})

    def stats(self) -> Dict[str, Any]:
        return self._request({"type": "stats"})

    def drain(self) -> Dict[str, Any]:
        """Ask the server to drain; the connection dies with it."""
        try:
            return self._request({"type": "drain"})
        finally:
            self.close()

    # -- submits -----------------------------------------------------------

    def submit(
        self,
        workload: str,
        seed: int = 0,
        priority: str = "batch",
        wait: bool = True,
        want_result: bool = True,
        **spec_kwargs: Any,
    ) -> Reply:
        """Submit one cell and (by default) block for its result.

        ``spec_kwargs`` are forwarded to
        :func:`~repro.serve.protocol.make_cell_spec` (``dra``, ``rf``,
        ``instructions``, ``warmup``, ``detailed_warmup``, ``recovery``,
        ``overrides``, ``dra_overrides``).  ``priority`` is accepted and
        ignored: the server runs jobs first-in first-out.
        """
        spec = make_cell_spec(workload, seed=seed, **spec_kwargs)
        return self.submit_spec(spec, priority=priority, wait=wait,
                                want_result=want_result)

    def submit_spec(self, spec: Dict[str, Any], priority: str = "batch",
                    wait: bool = True, want_result: bool = True) -> Reply:
        """Submit one cell spec; ``priority`` is ignored, as in
        :meth:`submit`."""
        sheds = 0
        reconnects = 0
        last_error: Optional[BaseException] = None
        for attempt in range(1 + self.retries):
            self._rid += 1
            message = {
                "type": "submit", "id": self._rid, "cell": spec,
                "wait": wait, "pickle": bool(want_result),
            }
            try:
                conn = self._connection()
                conn.send(message)
                accepted = conn.recv()
                if accepted.get("type") == "rejected":
                    if accepted.get("code") == 503:
                        raise ServiceError("server is draining")
                    sheds += 1
                    delay = accepted.get("retry_after") or self.retry_delay
                    time.sleep(min(float(delay), 10.0))
                    continue
                if accepted.get("type") == "error":
                    raise ServiceError(accepted.get("message", "rejected"))
                if accepted.get("type") != "accepted":
                    raise ServiceError(
                        f"unexpected reply {accepted.get('type')!r}")
                if not wait:
                    return Reply(
                        ok=True, job=accepted.get("job"),
                        key=accepted.get("key"),
                        dedup=bool(accepted.get("dedup")),
                        cached=bool(accepted.get("cached")),
                        sheds=sheds, reconnects=reconnects,
                    )
                reply = conn.recv()
                if reply.get("type") != "result":
                    raise ServiceError(
                        f"unexpected reply {reply.get('type')!r}")
                return self._parse_result(reply, accepted, sheds, reconnects)
            except (OSError, ConnectionResetError,
                    json.JSONDecodeError) as error:
                # Dropped mid-flight (server bounce or injected
                # disconnect): reconnect and resubmit — idempotent by
                # content address.
                last_error = error
                reconnects += 1
                self.close()
                time.sleep(self.retry_delay)
                continue
        raise ServiceUnavailableError(
            f"submit failed after {1 + self.retries} attempt(s): "
            f"{last_error or 'shed every time'}"
        )

    @staticmethod
    def _parse_result(reply: Dict[str, Any], accepted: Dict[str, Any],
                      sheds: int, reconnects: int) -> Reply:
        base = dict(
            job=accepted.get("job"),
            key=accepted.get("key"),
            dedup=bool(accepted.get("dedup")),
            cached=bool(reply.get("cached") or accepted.get("cached")),
            attempts=int(reply.get("attempts") or 0),
            sheds=sheds,
            reconnects=reconnects,
        )
        if reply.get("ok"):
            wire = reply.get("result") or {}
            return Reply(
                ok=True,
                ipc=wire.get("ipc"),
                summary=dict(wire.get("summary") or {}),
                result=result_from_wire(wire),
                **base,
            )
        error = reply.get("error") or {}
        return Reply(
            ok=False,
            error_kind=error.get("kind"),
            error_message=error.get("message"),
            **base,
        )

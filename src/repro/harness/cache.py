"""Persistent, content-addressed result cache.

Every simulation cell — one (workload, :class:`~repro.core.CoreConfig`,
:class:`~repro.experiments.runner.ExperimentSettings`, seed) tuple — is
addressed by a stable SHA-256 digest of its full parameterisation, so a
campaign's results survive process death and a re-run with the same
``--cache-dir`` only executes the cells that are missing.

Layout on disk::

    <cache_dir>/
        ab/
            ab3f9c... .pkl     one pickled payload per cell
        warm/
            4e/
                4e01d7... .pkl one functional-warmup snapshot per warm key

Payloads are pickled dicts carrying a format version plus enough
metadata (workload, config label, seed) to audit the cache with a shell
one-liner.  A corrupt entry is treated as a miss and quietly removed,
and an entry of another version is a miss that the recomputed entry
replaces; the cache is an accelerator, never a correctness dependency.

Warm entries hold :func:`~repro.core.simulator.warm_snapshot` bytes
under their warm key (:meth:`~repro.core.pipeline.Simulator.warm_key`),
so later batches restore a warmup instead of running it again.  They
are checked against :data:`CACHE_VERSION` like cells but do not count
in the hit/miss stats, which stay about cells.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Bump when the payload layout (or anything feeding cell keys) changes
#: incompatibly; old entries then read as misses.
#: v2: CoreStats grew ``obs_snapshot`` — v1 pickles lack the attribute.
#: v3: cell keys fold in the workload's *content* signature, so a
#: retuned profile or a recaptured trace file can never alias an entry
#: computed from different content.
#: v4: ``ExperimentSettings`` grew a ``backend`` field (kernel backend
#: selection) and ``SimResult`` grew backend/sampling attributes — the
#: settings repr feeding keys changed shape, and v3 payloads lack the
#: new result fields.
#: v5: ``CoreConfig`` grew ``ports`` / ``ssr_threshold`` (mechanism
#: design space) and ``CoreStats`` grew ``port_stalls`` — the config
#: repr feeding keys changed shape, and v4 payloads lack the new field.
#: The warm key does not cover the pickled layout of the warmed
#: structures (``WARMED_STRUCTURES`` in ``repro.core.pipeline``), so a
#: change to that layout needs a bump too.
CACHE_VERSION = 5

#: The exception set a corrupt or cross-version cache entry can raise
#: while being read: I/O failures, truncated pickles (EOFError /
#: UnpicklingError / ValueError / IndexError from the pickle VM), and
#: payloads whose classes moved or vanished between versions
#: (AttributeError / ImportError during unpickling).  Anything outside
#: this set is a real bug and must propagate.
_CORRUPT_ENTRY_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    IndexError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
)

#: Environment variable consulted for a default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache directory used when none is configured explicitly."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "loopsim"


def cell_key(workload: str, config: Any, settings: Any, seed: int,
             signature: Optional[str] = None) -> str:
    """Stable content hash of one simulation cell.

    ``CoreConfig`` and ``ExperimentSettings`` are frozen dataclasses, so
    their ``repr`` is a complete, deterministic rendering of every field
    (including nested sub-configs and enums) — exactly the property a
    content address needs.  ``settings.seeds`` is deliberately excluded
    via the explicit ``seed`` so a cell's identity does not depend on
    which campaign requested it.

    The workload contributes both its *name* (human-auditable) and its
    resolved *content signature*
    (:func:`repro.scenarios.workload_signature`): profile knobs and
    trace-file bytes feed the digest, so same-named workloads with
    different content occupy different cells.  A caller keying many
    cells of one workload may pass that ``signature`` in.
    """
    if signature is None:
        from repro.scenarios import workload_signature

        signature = workload_signature(workload)
    settings_repr = repr(settings).replace(repr(getattr(settings, "seeds", ())), "()")
    text = "|".join(
        (
            str(CACHE_VERSION),
            workload,
            signature,
            repr(config),
            settings_repr,
            str(seed),
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-backed cell cache rooted at one directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: corrupt entries swallowed as misses (cache.corrupt_swallowed)
        self.corrupt_swallowed = 0

    def path(self, key: str) -> Path:
        """On-disk location of a cell's payload."""
        return self.root / key[:2] / f"{key}.pkl"

    def metrics_path(self, key: str) -> Path:
        """On-disk location of a cell's JSON metric snapshot."""
        return self.root / key[:2] / f"{key}.metrics.json"

    def warm_path(self, warm_key: str) -> Path:
        """On-disk location of a warm snapshot."""
        return self.root / "warm" / warm_key[:2] / f"{warm_key}.pkl"

    def put_metrics(self, key: str, snapshot: Dict[str, Any]) -> None:
        """Persist a JSON metric snapshot beside the cell's payload.

        The snapshot is auditable with shell tools (``jq``) without
        unpickling anything; failures to write are the caller's to
        swallow — the cache is an accelerator, never a dependency.
        """
        import json

        path = self.metrics_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, key: str) -> Optional[Any]:
        """The cached result for ``key``, or None on any kind of miss.

        Only a readable, unpicklable entry of the current
        ``CACHE_VERSION`` is a hit; every call counts in the hit/miss
        stats.
        """
        payload = self._read(self.path(key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload.get("result")

    def get_warm(self, warm_key: str) -> Optional[bytes]:
        """The warm snapshot stored under ``warm_key``, or None; not
        counted in the hit/miss stats."""
        payload = self._read(self.warm_path(warm_key))
        if payload is None or payload.get("key") != warm_key:
            return None
        return payload.get("snapshot")

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        """The payload at ``path`` if it is a readable entry of the
        current ``CACHE_VERSION``, else None."""
        stat: Optional[os.stat_result] = None
        try:
            with path.open("rb") as handle:
                stat = os.fstat(handle.fileno())
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except _CORRUPT_ENTRY_ERRORS:
            # Corrupt entry (truncated write, unpicklable across
            # versions, unreadable permissions, ...): treat as a miss;
            # drop it if we can prove it is still the file we read.
            # The set is deliberately narrow — a KeyboardInterrupt or a
            # genuine bug in a payload's __setstate__ must propagate,
            # not be eaten as a cache miss.
            self.corrupt_swallowed += 1
            self._remove_corrupt(path, stat)
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            # A stale-version entry is a miss but not garbage: leave it
            # for put() to overwrite atomically after recomputation.
            return None
        return payload

    @staticmethod
    def _remove_corrupt(path: Path, stat: Optional[os.stat_result]) -> None:
        """Best-effort removal of a corrupt entry, tolerant of racing
        writers.

        A concurrent ``put`` may ``os.replace`` a fresh payload in at
        any moment, so the unlink only fires when the path still refers
        to the inode we actually read the garbage from; a rewrite (new
        inode) or a racing reader's earlier unlink is left alone.  When
        the entry could not even be opened (``stat`` is None, e.g. an
        unreadable-permissions file) nothing is removed — ``put``'s
        atomic replace supersedes it after recomputation.  Never raises.
        """
        if stat is None:
            return
        try:
            current = os.stat(path)
            if (current.st_dev, current.st_ino) != (stat.st_dev, stat.st_ino):
                return  # a writer already replaced the entry; keep it
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, result: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically persist ``result`` under ``key``."""
        payload = {"version": CACHE_VERSION, "key": key, "result": result}
        if meta:
            payload.update(meta)
        self._write(self.path(key), payload)

    def put_warm(self, warm_key: str, snapshot: bytes) -> None:
        """Atomically persist a warm snapshot under ``warm_key``."""
        self._write(
            self.warm_path(warm_key),
            {"version": CACHE_VERSION, "key": warm_key, "snapshot": snapshot},
        )

    @staticmethod
    def _write(path: Path, payload: Dict[str, Any]) -> None:
        """Atomically pickle ``payload`` to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

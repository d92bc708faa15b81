"""Multi-tenant model registry: versioned artifacts → live serving services.

One server process, many models.  A :class:`ModelRegistry` manages a
directory of versioned :class:`~repro.core.model.XInsightModel` artifacts
and turns each one, on demand, into a running
:class:`~repro.serve.service.ExplanationService` with its own queue,
batching knobs, stats, and session caches.  Both wire front-ends — the
JSON-lines TCP server and the HTTP gateway — route through the same
registry, so routing, loading, hot-reload and eviction live in exactly one
place.

Registry directory layout::

    registry/
      churn/                    # one directory per model id
        data.csv                # ... or data.store/ (a column store)
        1.json                  # versioned artifacts written by `repro fit`
        2.json                  # highest version is served
      revenue/
        data.store/
        2026-08-01.json

* **Versioning** — every ``*.json`` in a model directory is one artifact
  version, named by its stem.  Numeric stems order numerically and win
  over lexical ones; among lexical stems the greatest string wins.  Drop a
  higher version in and the next request serves it.
* **Hot reload** — each lookup stat()s the resolved artifact; a new latest
  version (or a changed mtime whose content hash differs — see
  :meth:`XInsightModel.fingerprint`) builds a *new* service, routes new
  requests to it, and drains the old one in the background: everything
  already admitted on the old service completes there.  A touched file
  with an unchanged fingerprint keeps the warm service and its caches.
* **Quarantine** — a version that fails to load (parse error, unreadable
  or corrupt file) is negative-cached instead of re-read per request: the
  last healthy version keeps serving when one is live, otherwise lookups
  refuse with a typed :class:`ArtifactQuarantinedError` (HTTP 503) until
  the backoff expires or the artifact changes on disk.
* **LRU bound** — at most ``max_models`` services are live; loading one
  more evicts (gracefully drains) the least-recently-used entry.  Each
  model has its own ``asyncio.Lock`` for load/reload, so traffic to
  distinct models never serializes on a registry-wide lock.
* **Data** — each model directory carries its own serving data:
  ``data.store`` (preferred: the zero-copy column store) or ``data.csv``.
  The table is loaded once per model id and reused across version reloads.

:meth:`ModelRegistry.for_service` wraps one pre-built service as a
single-entry in-memory registry — how the single-model ``repro serve``
path and the existing tests run through the same routing code.
"""

from __future__ import annotations

import asyncio
import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.model import XInsightModel
from repro.data.table import Table
from repro.errors import ArtifactQuarantinedError, ModelError, RegistryError
from repro.serve import faults
from repro.serve.service import ExplanationService

LOG = logging.getLogger("repro.serve")

#: Default LRU bound on concurrently loaded models.
DEFAULT_MAX_MODELS = 8

#: First quarantine backoff; doubles per consecutive failure, capped below.
QUARANTINE_BASE_S = 1.0
QUARANTINE_MAX_S = 60.0

#: Model ids must be path-safe: no separators, no leading dot, nothing a
#: URL or a registry scan could confuse with a traversal.
MODEL_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Recognized per-model data sources, in preference order.
DATA_STORE_NAME = "data.store"
DATA_CSV_NAME = "data.csv"


def _version_key(stem: str) -> tuple:
    """Sort key for version stems: numeric versions beat lexical ones,
    numerics order as integers, lexicals as strings."""
    if stem.isdigit():
        return (1, int(stem), "")
    return (0, 0, stem)


@dataclass
class _Quarantine:
    """Negative cache for one model's failing artifact.

    A version that failed to load (parse error, unreadable file, corrupt
    fault) is not re-read per request: lookups within the backoff window
    are answered from the last healthy entry when one exists, or refused
    with a typed :class:`ArtifactQuarantinedError` otherwise.  The backoff
    doubles per consecutive failure (capped at ``QUARANTINE_MAX_S``) and
    the quarantine clears the moment the artifact changes on disk or a
    re-attempt succeeds.
    """

    source: Path
    version: str
    mtime_ns: int
    reason: str
    failures: int
    until: float  # monotonic instant past which a re-read is allowed

    def retry_in_s(self, now: float) -> float:
        return max(0.0, self.until - now)


@dataclass
class _Entry:
    """One loaded model: the live service plus its provenance."""

    model_id: str
    service: ExplanationService
    version: str
    fingerprint: str
    source: Path | None  # artifact file backing it (None when pinned)
    mtime_ns: int
    table: Table
    pinned: bool = False  # pre-built via for_service: never evicted/reloaded
    loaded_at: float = field(default_factory=time.monotonic)
    last_used: float = field(default_factory=time.monotonic)

    def touch(self) -> None:
        self.last_used = time.monotonic()


class ModelRegistry:
    """Versioned model artifacts on disk, served as an LRU-bounded set of
    per-model :class:`ExplanationService` instances.

    Parameters
    ----------
    root:
        Registry directory (layout above).  ``None`` builds an empty
        in-memory registry — add entries with :meth:`for_service`.
    max_models:
        LRU bound on concurrently loaded models (≥ 1).
    default_model:
        Model id requests without a ``model`` field route to.  Defaults to
        the only model when exactly one exists; otherwise requests must
        name one.
    service_kwargs:
        Knobs applied to every per-model service (``max_batch``,
        ``queue_limit``, ``workers``, ...); an unknown name is refused
        with :class:`~repro.errors.ServeError` at construction.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        max_models: int = DEFAULT_MAX_MODELS,
        default_model: str | None = None,
        service_kwargs: Mapping[str, Any] | None = None,
    ) -> None:
        if max_models < 1:
            raise RegistryError(f"max_models must be ≥ 1, got {max_models}")
        if root is not None:
            root = Path(root)
            if not root.is_dir():
                raise RegistryError(f"registry directory {root} does not exist")
        self.root = root
        self.max_models = max_models
        self.default_model = default_model
        self.service_kwargs = dict(service_kwargs or {})
        ExplanationService.check_knobs(**self.service_kwargs)
        #: Wire front-ends now serving this registry (see
        #: :class:`repro.serve.ops.Listener`); ``stats`` and ``/metrics``
        #: report their request and connection counters.
        self.listeners: list = []
        self.started_at = time.monotonic()
        self._entries: dict[str, _Entry] = {}
        self._quarantines: dict[str, _Quarantine] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._drain_tasks: set[asyncio.Task] = set()
        self._closed = False

    @classmethod
    def for_service(
        cls, service: ExplanationService, model_id: str = "default"
    ) -> "ModelRegistry":
        """A single-entry in-memory registry around a pre-built service —
        the single-model serving path, with no disk scanning, no reloads,
        and no eviction."""
        registry = cls(None, default_model=model_id)
        registry._entries[model_id] = _Entry(
            model_id=model_id,
            service=service,
            version="-",
            fingerprint=service.model.fingerprint(),
            source=None,
            mtime_ns=0,
            table=service.table,
            pinned=True,
        )
        return registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ModelRegistry":
        """Start any pre-built (pinned) services; disk entries load lazily.
        Idempotent."""
        self.started_at = time.monotonic()
        for entry in self._entries.values():
            await entry.service.start()
        return self

    async def stop(self) -> None:
        """Graceful drain of every live service (and any background drains
        still in flight from reloads/evictions).  Idempotent."""
        self._closed = True
        # Entries stay inspectable after stop (the CLI's exit banner sums
        # their counters); only the services are drained.
        for entry in list(self._entries.values()):
            await entry.service.stop()
        while self._drain_tasks:
            await asyncio.gather(*tuple(self._drain_tasks), return_exceptions=True)

    async def __aenter__(self) -> "ModelRegistry":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Lookup / routing
    # ------------------------------------------------------------------

    def available_ids(self) -> list[str]:
        """Model ids servable right now: loaded entries plus every disk
        directory holding at least one artifact."""
        ids = set(self._entries)
        if self.root is not None:
            for child in self.root.iterdir():
                if (
                    child.is_dir()
                    and MODEL_ID_RE.match(child.name)
                    and any(child.glob("*.json"))
                ):
                    ids.add(child.name)
        return sorted(ids)

    def loaded_entries(self) -> list[_Entry]:
        """The live (loaded) entries — the metrics exporter's iteration."""
        return list(self._entries.values())

    def _resolve_id(self, model_id: str | None) -> str:
        if model_id is None:
            if self.default_model is not None:
                return self.default_model
            ids = self.available_ids()
            if len(ids) == 1:
                return ids[0]
            raise RegistryError(
                "no model id given and the registry serves "
                f"{len(ids)} models; name one of {ids!r} in the request"
            )
        if not isinstance(model_id, str) or not MODEL_ID_RE.match(model_id):
            raise RegistryError(f"invalid model id {model_id!r}")
        return model_id

    async def entry_for(self, model_id: str | None = None) -> _Entry:
        """The live entry for ``model_id`` (default model when ``None``),
        loading or hot-reloading it first when needed."""
        if self._closed:
            raise RegistryError("registry is stopped")
        model_id = self._resolve_id(model_id)
        entry = self._entries.get(model_id)
        if entry is not None and (entry.pinned or not self._stale(entry)):
            entry.touch()
            return entry
        # Per-model lock: a reload/first-load of one model never blocks
        # traffic to any other model (registry-wide state is only touched
        # synchronously between awaits).
        lock = self._locks.setdefault(model_id, asyncio.Lock())
        async with lock:
            entry = self._entries.get(model_id)
            if entry is None or self._stale(entry):
                entry = await self._load(model_id, prior=entry)
            entry.touch()
            return entry

    async def service_for(self, model_id: str | None = None) -> ExplanationService:
        return (await self.entry_for(model_id)).service

    # ------------------------------------------------------------------
    # Loading, hot reload, eviction
    # ------------------------------------------------------------------

    def _model_dir(self, model_id: str) -> Path:
        if self.root is None:
            raise RegistryError(f"unknown model {model_id!r}")
        directory = self.root / model_id
        if not directory.is_dir():
            raise RegistryError(
                f"unknown model {model_id!r} "
                f"(choose from {self.available_ids()!r})"
            )
        return directory

    def _latest_artifact(self, model_id: str) -> tuple[Path, str]:
        """The artifact file to serve: the highest version in the model
        directory (numeric stems beat lexical, see :func:`_version_key`)."""
        candidates = sorted(self._model_dir(model_id).glob("*.json"))
        if not candidates:
            raise RegistryError(
                f"model {model_id!r} has no artifact versions "
                f"(expected <version>.json files)"
            )
        latest = max(candidates, key=lambda p: _version_key(p.stem))
        return latest, latest.stem

    def versions(self, model_id: str) -> list[str]:
        """All artifact versions of ``model_id``, latest last."""
        stems = [p.stem for p in self._model_dir(model_id).glob("*.json")]
        return sorted(stems, key=_version_key)

    def _stale(self, entry: _Entry) -> bool:
        """Cheap per-request reload check: did the resolved artifact move
        (new latest version) or change on disk (mtime bump)?"""
        if entry.pinned or entry.source is None:
            return False
        try:
            source, _version = self._latest_artifact(entry.model_id)
            if source != entry.source:
                return True
            return source.stat().st_mtime_ns != entry.mtime_ns
        except (RegistryError, OSError):
            # Artifact vanished mid-serve: keep answering with the loaded
            # model; the next successful write will swap it.
            return False

    def _load_table(self, model_dir: Path) -> Table:
        store = model_dir / DATA_STORE_NAME
        if store.is_dir():
            return Table.from_store(store)
        csv = model_dir / DATA_CSV_NAME
        if csv.is_file():
            from repro.data.io import read_csv

            return read_csv(csv)
        raise RegistryError(
            f"model directory {model_dir} has no serving data "
            f"(expected {DATA_STORE_NAME}/ or {DATA_CSV_NAME})"
        )

    @staticmethod
    def _read_artifact(source: Path) -> XInsightModel:
        """Parse one artifact file (worker thread; fault-injectable)."""
        fault_state = faults.active()
        if fault_state is not None and fault_state.should_corrupt_artifact():
            raise ModelError(f"artifact {source} is corrupt (fault injection)")
        return XInsightModel.load(source)

    def _note_failure(
        self, model_id: str, source: Path, version: str, mtime_ns: int,
        exc: BaseException,
    ) -> _Quarantine:
        """Record one artifact-load failure: start or extend the model's
        quarantine (exponential backoff, capped)."""
        prior_q = self._quarantines.get(model_id)
        failures = (
            prior_q.failures + 1
            if prior_q is not None and prior_q.source == source
            else 1
        )
        backoff = min(QUARANTINE_BASE_S * 2 ** (failures - 1), QUARANTINE_MAX_S)
        quarantine = _Quarantine(
            source=source,
            version=version,
            mtime_ns=mtime_ns,
            reason=f"{type(exc).__name__}: {exc}",
            failures=failures,
            until=time.monotonic() + backoff,
        )
        self._quarantines[model_id] = quarantine
        LOG.warning(
            "artifact quarantined: %s version %s (%s); retry in %.1fs",
            model_id, version, quarantine.reason, backoff,
            extra={
                "event": "artifact_quarantined",
                "model": model_id,
                "version": version,
                "failures": failures,
                "backoff_s": backoff,
            },
        )
        return quarantine

    def _quarantine_error(
        self, model_id: str, quarantine: _Quarantine
    ) -> ArtifactQuarantinedError:
        return ArtifactQuarantinedError(
            f"model {model_id!r} version {quarantine.version!r} is "
            f"quarantined ({quarantine.reason}); retry in "
            f"{quarantine.retry_in_s(time.monotonic()):.1f}s or replace "
            "the artifact"
        )

    async def _load(self, model_id: str, prior: _Entry | None) -> _Entry:
        """Load (or hot-reload) one model behind its per-model lock."""
        source, version = self._latest_artifact(model_id)
        mtime_ns = source.stat().st_mtime_ns
        quarantine = self._quarantines.get(model_id)
        if quarantine is not None:
            if quarantine.source != source or quarantine.mtime_ns != mtime_ns:
                # The artifact moved or changed on disk: fresh chance.
                del self._quarantines[model_id]
            elif time.monotonic() < quarantine.until:
                # Negative cache hit: answer without re-reading the file.
                if prior is not None:
                    return prior  # keep serving the last healthy version
                raise self._quarantine_error(model_id, quarantine)
            # else: backoff expired — re-attempt the read below.
        loop = asyncio.get_running_loop()
        try:
            model = await loop.run_in_executor(
                None, self._read_artifact, source
            )
        except Exception as exc:
            # Any parse/read failure quarantines the version; a healthy
            # prior entry keeps serving so a bad rollout never takes the
            # model offline.
            quarantine = self._note_failure(
                model_id, source, version, mtime_ns, exc
            )
            if prior is not None:
                return prior
            raise self._quarantine_error(model_id, quarantine) from exc
        self._quarantines.pop(model_id, None)
        fingerprint = model.fingerprint()
        if prior is not None and fingerprint == prior.fingerprint:
            # Touched but content-identical (e.g. re-saved artifact): keep
            # the warm service and its caches, just update the provenance.
            prior.source, prior.version, prior.mtime_ns = source, version, mtime_ns
            return prior
        if prior is not None:
            table = prior.table
        else:
            table = await loop.run_in_executor(
                None, self._load_table, self._model_dir(model_id)
            )
        service = ExplanationService(model, table, **self.service_kwargs)
        await service.start()
        entry = _Entry(
            model_id=model_id,
            service=service,
            version=version,
            fingerprint=fingerprint,
            source=source,
            mtime_ns=mtime_ns,
            table=table,
        )
        self._entries[model_id] = entry
        if prior is not None:
            # In-flight requests hold the old service object and drain
            # there; new requests already route here.  Nothing admitted is
            # ever dropped (ExplanationService.stop serves its backlog).
            self._schedule_drain(prior.service)
        self._evict_over_bound(keep=model_id)
        return entry

    def _schedule_drain(self, service: ExplanationService) -> None:
        task = asyncio.get_running_loop().create_task(service.stop())
        self._drain_tasks.add(task)
        task.add_done_callback(self._drain_tasks.discard)

    def _evict_over_bound(self, keep: str) -> None:
        """Drain least-recently-used entries until the LRU bound holds."""
        while len(self._entries) > self.max_models:
            victims = [
                e
                for e in self._entries.values()
                if e.model_id != keep and not e.pinned
            ]
            if not victims:
                return
            victim = min(victims, key=lambda e: e.last_used)
            del self._entries[victim.model_id]
            self._schedule_drain(victim.service)

    # ------------------------------------------------------------------
    # Introspection (the models payload, metrics and the exit banner)
    # ------------------------------------------------------------------

    def models_payload(self) -> list[dict[str, Any]]:
        """One JSON-safe row per available model: versions on disk, and —
        when loaded — the live version/fingerprint/age/idle/served."""
        now = time.monotonic()
        rows = []
        for model_id in self.available_ids():
            entry = self._entries.get(model_id)
            try:
                versions = self.versions(model_id)
            except RegistryError:
                versions = [entry.version] if entry is not None else []
            row: dict[str, Any] = {
                "id": model_id,
                "versions": versions,
                "loaded": entry is not None,
            }
            if entry is not None:
                row.update(
                    version=entry.version,
                    fingerprint=entry.fingerprint,
                    loaded_age_seconds=round(now - entry.loaded_at, 3),
                    idle_seconds=round(now - entry.last_used, 3),
                    completed=entry.service.stats.completed,
                    queue_depth=entry.service.queue_depth,
                )
            quarantine = self._quarantines.get(model_id)
            if quarantine is not None:
                row["quarantined"] = {
                    "version": quarantine.version,
                    "reason": quarantine.reason,
                    "failures": quarantine.failures,
                    "retry_in_seconds": round(quarantine.retry_in_s(now), 3),
                }
            rows.append(row)
        return rows

    def quarantined_models(self) -> list[str]:
        """Ids whose latest artifact is currently negative-cached (the
        ``quarantined_models`` metrics gauge iterates this)."""
        return sorted(self._quarantines)

    def aggregate_counters(self) -> dict[str, int]:
        """Summed core counters across the loaded set (the CLI's exit
        banner; per-model numbers live in the stats/metrics surfaces)."""
        totals = {key: 0 for key in (
            "submitted", "completed", "failed", "rejected", "deduped", "batches",
        )}
        for entry in self._entries.values():
            for key in totals:
                totals[key] += getattr(entry.service.stats, key)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        where = str(self.root) if self.root is not None else "<in-memory>"
        return (
            f"ModelRegistry({where}, loaded={sorted(self._entries)}, "
            f"max_models={self.max_models})"
        )

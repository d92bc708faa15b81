"""The asyncio explanation service: admission → micro-batch → fan-out.

This is the online phase's front door.  One :class:`ExplanationService`
loads one immutable :class:`~repro.core.model.XInsightModel` and serves
concurrent ``explain`` requests through a micro-batching scheduler:

1. **Admission** — requests enter a bounded queue; when it is full they
   are rejected immediately with a typed
   :class:`~repro.errors.ServiceOverloadedError` (shed load at the door,
   don't time out at the back).  An admitted request with a deadline arms
   one loop timer that resolves it with
   :class:`~repro.errors.DeadlineExceededError` when its budget runs out,
   whether it is still queued or riding a flush.
2. **Coalescing** — a single flusher task takes whatever is queued, up
   to ``max_batch`` requests, and flushes it at once.  Requests that
   arrive while a flush runs form the next batch, so batches grow with
   load without a timer holding any request back.
3. **Dedup** — duplicate queries inside one flush (the dominant shape of
   a hot serving stream) are answered by a *single* explain whose report
   fans out to every waiting requester.  Explanations are pure per query,
   so this is invisible in the results — it only shows up in latency and
   in ``ServerStats.deduped``.
4. **Fan-out** — each flush runs as one
   :meth:`~repro.core.session.ExplainSession.explain_batch` call through
   the service-owned :mod:`repro.parallel` executor, so multi-worker
   deployments shard each batch across per-worker sessions (session
   affinity; see the session's concurrency-model docs).
5. **Drain** — :meth:`stop` closes admission, serves everything already
   admitted, then releases the executor.  Nothing admitted is ever
   dropped.

Threading model: the event loop never runs an explanation.  Flushes are
handed to a dedicated single flush thread, so exactly one batch is in
flight at a time and the session lock is uncontended; parallelism happens
*inside* the flush via the executor fan-out.
"""

from __future__ import annotations

import asyncio
import logging
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.model import XInsightModel
from repro.core.session import ExplainSession, XInsightReport
from repro.core.xplainer import XPlainerConfig
from repro.data.query import WhyQuery
from repro.data.table import Table
from repro.errors import (
    DeadlineExceededError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.parallel import default_workers, make_executor
from repro.serve import faults

LOG = logging.getLogger("repro.serve")

DEFAULT_MAX_BATCH = 64
DEFAULT_QUEUE_LIMIT = 1024
#: How many recent request traces each service keeps for the ``traces``
#: surfaces (TCP op + ``GET /v1/models/{id}/traces``).
DEFAULT_TRACE_RING = 64

#: How many recent request latencies the percentile window keeps.
LATENCY_WINDOW = 4096

_STOP = object()  # queue sentinel: admission is closed, drain and exit


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 < q ≤ 1):
    the smallest value with at least ``q`` of the sample at or below it."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class ServerStats:
    """Serving observability in one object (see :meth:`snapshot`).

    Single-threaded by contract: every mutation *and* :meth:`snapshot`
    happen on the event loop (or after it has exited), so the counters
    never tear and the histogram/latency structures are never iterated
    while being mutated.  Work that must leave the loop — the session's
    lock-taking ``cache_info`` — is offloaded separately (see
    :meth:`ExplanationService.stats_snapshot` and the server's ``stats``
    op).
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    deduped: int = 0
    batches: int = 0
    batch_sizes: Counter = field(default_factory=Counter)
    latencies: deque = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    #: Cumulative latency total/count (monotone, unlike the sliding
    #: percentile window) — what the Prometheus summary _sum/_count export.
    latency_sum_s: float = 0.0
    latency_observations: int = 0
    #: Content hash of the model this service answers with (see
    #: :meth:`XInsightModel.fingerprint`); lets a stats/metrics consumer
    #: verify which artifact is live behind the counters.
    fingerprint: str | None = None
    #: Requests whose latency crossed the slow-query threshold.
    slow_queries: int = 0
    #: Whole-view summaries served (``explain_view``).  Each one fans out
    #: into per-pair requests that count under submitted/completed as
    #: usual; this tracks the views themselves.
    views: int = 0
    #: Requests resolved with :class:`DeadlineExceededError` (shed in
    #: queue + expired mid-flush).  Disjoint from completed/failed.
    timeouts: int = 0
    #: The subset of ``timeouts`` shed before their flush ever ran —
    #: expired while queued, so no explain work was spent on them.
    shed_expired: int = 0
    # One monotonic clock for *every* duration in the service: request
    # latency (``enqueued_at``), flush timing, and uptime all read
    # ``time.perf_counter`` so they are mutually comparable.
    started_at: float = field(default_factory=time.perf_counter)

    def observe_batch(self, size: int, unique: int) -> None:
        self.batches += 1
        self.batch_sizes[size] += 1
        self.deduped += size - unique

    def observe_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.latency_sum_s += seconds
        self.latency_observations += 1

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self.started_at

    def latency_ms(self) -> dict[str, float]:
        window = sorted(self.latencies)
        return {
            "count": len(window),
            "p50": round(_percentile(window, 0.50) * 1e3, 3),
            "p99": round(_percentile(window, 0.99) * 1e3, 3),
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe stats dict (the ``stats`` op's payload core)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "deduped": self.deduped,
            "batches": self.batches,
            "batch_size_hist": {
                str(size): count for size, count in sorted(self.batch_sizes.items())
            },
            "latency_ms": self.latency_ms(),
            "slow_queries": self.slow_queries,
            "views": self.views,
            "timeouts": self.timeouts,
            "shed_expired": self.shed_expired,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "fingerprint": self.fingerprint,
        }


@dataclass
class _Pending:
    """One admitted request waiting for its flush."""

    query: WhyQuery
    method: str
    future: asyncio.Future
    enqueued_at: float
    #: The policy-resolved budget (None = no deadline) and the loop timer
    #: that enforces it, armed once the request is admitted.
    timeout_ms: float | None = None
    timer: asyncio.TimerHandle | None = None
    #: Set when a flush picks the request up: a timer firing before then
    #: sheds it (no explain work was spent on it).
    picked: bool = False
    #: Set once the request is resolved (see ``_resolve``): its stats and
    #: trace are final, and any later outcome is dropped.
    done: bool = False
    #: Request-scoped trace the front-end opened (None for untraced
    #: embedders).  ``queue_span`` covers admission→flush-pickup;
    #: ``flush_span`` covers the flush the request rode in.
    trace: obs.Trace | None = None
    queue_span: obs.Span | None = None
    flush_span: obs.Span | None = None


class ExplanationService:
    """Micro-batching serving loop over one model + one session pool.

    Parameters
    ----------
    model, table:
        The offline artifact and the data to serve against (exactly the
        :class:`~repro.core.session.ExplainSession` constructor pair).
    config:
        Default :class:`XPlainerConfig` for every request.
    max_batch:
        The most requests one flush takes from the queue.
    queue_limit:
        Admission bound; requests beyond it are rejected with
        :class:`ServiceOverloadedError`.
    workers:
        The :mod:`repro.parallel` fan-out each flush uses: 1 means
        in-process serial, more means that many process workers.  Defaults
        to the ``REPRO_WORKERS`` env.
        The per-worker sessions are private (session affinity), so only
        the primary session's ``cache_info`` appears in the stats.
    default_timeout_ms, max_timeout_ms:
        Deadline policy.  ``default_timeout_ms`` applies to requests that
        name no ``timeout_ms`` of their own; ``max_timeout_ms`` caps what
        a request may ask for (both ``None`` = unlimited).  A request
        whose deadline passes resolves with a typed
        :class:`DeadlineExceededError` at that moment — shed when it was
        still queued (no explain work spent), or mid-flush when the batch
        outran its budget (the explain still runs for its other waiters).
        Counted in ``ServerStats.timeouts`` / ``shed_expired``.
    slow_query_ms:
        When set, any request whose queue→answer latency crosses the
        threshold bumps ``ServerStats.slow_queries`` and emits one
        structured ``slow_query`` warning on the ``repro.serve`` logger
        with the trace's full stage breakdown.
    trace_ring:
        Capacity of the per-service ring buffer of recent trace
        snapshots (0 disables retention; traced requests still run).
    trace_dir:
        When set, every traced request writes a Chrome trace-event JSON
        file ``<trace_id>.trace.json`` there (Perfetto-viewable).
    """

    def __init__(
        self,
        model: XInsightModel,
        table: Table,
        *,
        config: XPlainerConfig | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        workers: int | None = None,
        default_timeout_ms: float | None = None,
        max_timeout_ms: float | None = None,
        slow_query_ms: float | None = None,
        trace_ring: int = DEFAULT_TRACE_RING,
        trace_dir: str | Path | None = None,
    ) -> None:
        self.check_knobs(
            max_batch=max_batch,
            queue_limit=queue_limit,
            workers=workers,
            default_timeout_ms=default_timeout_ms,
            max_timeout_ms=max_timeout_ms,
            slow_query_ms=slow_query_ms,
            trace_ring=trace_ring,
        )
        self.session = ExplainSession(model, table, config=config)
        self.model = model
        self.table = table
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.workers = default_workers() if workers is None else workers
        self.executor = make_executor(self.workers)
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.stats = ServerStats(fingerprint=model.fingerprint())
        #: Queries re-attempted by the in-process batch fallback after an
        #: infrastructure-level explain failure (part of ``retries``).
        self._fallback_retries = 0
        self.slow_query_ms = slow_query_ms
        self.traces = obs.TraceRing(trace_ring)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._queue: asyncio.Queue | None = None
        self._flusher: asyncio.Task | None = None
        self._flush_pool = None  # single dedicated flush thread, lazily built
        self._closed = False

    @staticmethod
    def check_knobs(
        *,
        config: XPlainerConfig | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        workers: int | None = None,
        default_timeout_ms: float | None = None,
        max_timeout_ms: float | None = None,
        slow_query_ms: float | None = None,
        trace_ring: int = DEFAULT_TRACE_RING,
        trace_dir: str | Path | None = None,
        **unknown: Any,
    ) -> None:
        """Raise :class:`ServeError` on an out-of-range or unknown
        constructor knob.

        The constructor runs this; :class:`~repro.serve.registry.
        ModelRegistry`, which builds its services lazily, runs it on its
        ``service_kwargs`` up front so a bad knob fails at boot, not on
        the first request.  ``config`` and ``trace_dir`` are accepted as
        given; any other name the constructor does not take is refused.
        NaN fails every comparison, so each check is written to reject it.
        """
        if unknown:
            raise ServeError(
                f"unknown service knob(s): {', '.join(sorted(unknown))}"
            )
        if max_batch < 1:
            raise ServeError(f"max_batch must be ≥ 1, got {max_batch}")
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be ≥ 1, got {queue_limit}")
        if workers is not None and workers < 1:
            raise ServeError(f"workers must be ≥ 1, got {workers}")
        for name, value in (
            ("default_timeout_ms", default_timeout_ms),
            ("max_timeout_ms", max_timeout_ms),
        ):
            if value is not None and not 0 < value < math.inf:
                raise ServeError(f"{name} must be finite and > 0, got {value}")
        if slow_query_ms is not None and not slow_query_ms >= 0:
            raise ServeError(f"slow_query_ms must be ≥ 0, got {slow_query_ms}")
        if trace_ring < 0:
            raise ServeError(f"trace_ring must be ≥ 0, got {trace_ring}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._flusher is not None

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    async def start(self) -> "ExplanationService":
        """Bind to the running loop and start the flusher (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service already stopped")
        if self._flusher is None:
            from concurrent.futures import ThreadPoolExecutor

            if self.trace_dir is not None:
                self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._queue = asyncio.Queue(maxsize=self.queue_limit)
            self._flush_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-flush"
            )
            self._flusher = asyncio.get_running_loop().create_task(
                self._flush_loop(), name="repro-serve-flusher"
            )
        return self

    async def stop(self) -> None:
        """Graceful drain: close admission, serve the backlog, release.

        Everything admitted before the call completes normally; new
        submissions are rejected with :class:`ServiceClosedError`.
        Idempotent.
        """
        already_closed, self._closed = self._closed, True
        if self._flusher is not None and not already_closed:
            await self._queue.put(_STOP)
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        loop = asyncio.get_running_loop()
        if self._flush_pool is not None:
            pool, self._flush_pool = self._flush_pool, None
            await loop.run_in_executor(None, partial(pool.shutdown, wait=True))
        await loop.run_in_executor(None, self.executor.close)

    async def __aenter__(self) -> "ExplanationService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------

    def _resolve_timeout_ms(self, timeout_ms: float | None) -> float | None:
        """Apply the deadline policy: default when unspecified, capped by
        ``max_timeout_ms``.  A non-positive or non-finite request value is
        a caller bug and raises typed (``min(nan, cap)`` is NaN: a NaN
        deadline would never expire)."""
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        elif not 0 < timeout_ms < math.inf:
            raise ServeError(
                f"timeout_ms must be finite and > 0, got {timeout_ms}"
            )
        if timeout_ms is not None and self.max_timeout_ms is not None:
            timeout_ms = min(timeout_ms, self.max_timeout_ms)
        return timeout_ms

    def submit(
        self,
        query: WhyQuery,
        method: str = "auto",
        trace: obs.Trace | None = None,
        timeout_ms: float | None = None,
    ) -> asyncio.Future:
        """Admit one request; returns the future its report resolves on.

        ``trace`` is the request-scoped trace the front-end opened (or
        ``None`` for untraced embedders — tracing is strictly opt-in, the
        no-op path costs nothing).  ``timeout_ms`` sets the request's
        deadline (service default / cap applied; see the constructor): once
        admitted, the request arms a loop timer that resolves the future
        with :class:`DeadlineExceededError` when the budget runs out,
        queued or mid-flush.  Raises the typed admission errors
        synchronously, without arming a timer:
        :class:`ServiceClosedError` when draining/stopped,
        :class:`ServiceOverloadedError` when the queue is full.
        """
        if self._flusher is None or self._queue is None:
            raise ServiceClosedError("service is not started")
        if self._closed:
            raise ServiceClosedError("service is draining; not accepting requests")
        timeout_ms = self._resolve_timeout_ms(timeout_ms)
        loop = asyncio.get_running_loop()
        pending = _Pending(
            query=query,
            method=method,
            future=loop.create_future(),
            enqueued_at=time.perf_counter(),
            timeout_ms=timeout_ms,
            trace=trace,
        )
        if trace is not None:
            pending.queue_span = trace.start_span("queue")
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise ServiceOverloadedError(
                f"admission queue full ({self.queue_limit} pending); retry later"
            ) from None
        if timeout_ms is not None:
            pending.timer = loop.call_later(timeout_ms / 1e3, self._expire, pending)
        self.stats.submitted += 1
        return pending.future

    async def explain(
        self,
        query: WhyQuery,
        method: str = "auto",
        trace: obs.Trace | None = None,
        timeout_ms: float | None = None,
    ) -> XInsightReport:
        """Submit and await one request (the coroutine most callers want)."""
        return await self.submit(query, method, trace=trace, timeout_ms=timeout_ms)

    async def explain_view(
        self,
        view,
        orientation: str = "both",
        method: str = "auto",
        trace: obs.Trace | None = None,
        timeout_ms: float | None = None,
    ):
        """Summarize a whole aggregate view through the micro-batcher.

        ``view`` is a ``{"by": ..., "measure": ..., "agg": ...}`` spec (or
        a pre-computed :class:`~repro.data.groupby.GroupByResult`).  Every
        sibling pair of the view is submitted as its own request, so the
        fan-out rides the existing flush/dedup machinery: the pairs land
        in one flush up to ``max_batch``, and the vs-rest repeats of
        pairwise queries dedup onto a single explain.  A failing pair
        resolves as one errored row of the summary, never the whole view.

        ``trace`` is the view-scoped trace; each pair gets a derived child
        trace ``<trace_id>.<pair>`` recorded in the ring like any other
        request.  ``timeout_ms`` applies per pair (service default / cap
        as usual).
        """
        from repro.core.view import summarize_view, view_queries

        view, specs = view_queries(view, self.table, orientation)
        # A bad budget is the caller's bug: it fails the view, not each pair.
        timeout_ms = self._resolve_timeout_ms(timeout_ms)
        children: list[obs.Trace | None] = []
        for index, spec in enumerate(specs):
            child = (
                obs.Trace(name="request", trace_id=f"{trace.trace_id}.{index}")
                if trace is not None
                else None
            )
            if child is not None:
                child.root.tag(
                    op="explain_view_pair",
                    kind=spec.kind,
                    pair=index,
                    view_trace=trace.trace_id,
                )
            children.append(child)
        results = await asyncio.gather(
            *(
                self.explain(spec.query, method, trace=child, timeout_ms=timeout_ms)
                for spec, child in zip(specs, children)
            ),
            return_exceptions=True,
        )
        # Poison-pair isolation extends to admission: a rejected pair
        # degrades one row, and only an entirely rejected view surfaces
        # the typed admission error itself.
        if all(
            isinstance(result, (ServiceOverloadedError, ServiceClosedError))
            for result in results
        ):
            raise results[0]
        self.stats.views += 1
        return summarize_view(view, specs, results)

    @property
    def worker_restarts(self) -> int:
        """Process-pool rebuilds forced by worker deaths (0 for the
        serial executor) — the self-healing counter."""
        return getattr(self.executor, "worker_restarts", 0)

    @property
    def retries(self) -> int:
        """Work re-attempted after infrastructure failures: shards re-run
        by the self-healing executor plus queries re-tried by the
        in-process batch fallback.  Never includes application errors —
        those fail exactly once."""
        return getattr(self.executor, "shard_retries", 0) + self._fallback_retries

    def traces_snapshot(self) -> list[dict[str, Any]]:
        """Most-recent-first snapshots of recently served traced requests
        (the payload of the TCP ``traces`` op and the HTTP traces route).
        Thread-safe — the ring takes its own lock."""
        return self.traces.snapshot()

    def stats_snapshot(self, cache_info: dict | None = None) -> dict[str, Any]:
        """The full ``ServerStats`` surface: counters, histogram, p50/p99
        latency, live queue depth, session cache hit rates, and knobs.

        Call on the event loop (or after it exits) — the counter
        structures are loop-confined.  ``cache_info`` lets a caller pass
        in a pre-fetched ``session.cache_info()`` so the session lock is
        never taken on the loop thread (the server's ``stats`` op fetches
        it in a worker thread first); omitted, it is read inline.
        """
        snap = self.stats.snapshot()
        snap["queue_depth"] = self.queue_depth
        snap["worker_restarts"] = self.worker_restarts
        snap["retries"] = self.retries
        snap["cache"] = (
            self.session.cache_info() if cache_info is None else cache_info
        )
        snap["config"] = {
            "max_batch": self.max_batch,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "executor": self.executor.kind,
            "default_timeout_ms": self.default_timeout_ms,
            "max_timeout_ms": self.max_timeout_ms,
            "slow_query_ms": self.slow_query_ms,
            "trace_ring": self.traces.capacity,
        }
        return snap

    # ------------------------------------------------------------------
    # The micro-batching scheduler
    # ------------------------------------------------------------------

    async def _flush_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            if batch[-1] is _STOP:
                # stop() closes admission before it enqueues _STOP, so the
                # sentinel is the last item: nothing admitted is left behind.
                if len(batch) > 1:
                    await self._flush(batch[:-1])
                return
            await self._flush(batch)

    def _expire(self, pending: _Pending) -> None:
        """Deadline timer callback: resolve the request with
        :class:`DeadlineExceededError`, as shed when no flush has picked it
        up yet (no explain work was spent on it)."""
        shed = not pending.picked
        if pending.trace is not None:
            pending.trace.root.tag(deadline_exceeded=True, shed=shed)
        latency_ms = round((time.perf_counter() - pending.enqueued_at) * 1e3, 3)
        self._resolve(
            pending,
            DeadlineExceededError(
                f"deadline exceeded after {latency_ms} ms "
                f"(timeout_ms={float(pending.timeout_ms)}"
                + ("; expired while queued)" if shed else ")")
            ),
            primary=None,
        )

    def _resolve(
        self,
        pending: _Pending,
        outcome: XInsightReport | BaseException,
        primary: _Pending | None,
    ) -> None:
        """Finalize one request exactly once: cancel its timer, observe its
        latency, close its trace and set its future.  A report, an error
        and a fired deadline all end here; a later outcome is dropped."""
        if pending.done:
            return
        pending.done = True
        if pending.timer is not None:
            pending.timer.cancel()
        failed = isinstance(outcome, BaseException)
        if isinstance(outcome, DeadlineExceededError):
            self.stats.timeouts += 1
            if not pending.picked:
                self.stats.shed_expired += 1
        elif failed:
            self.stats.failed += 1
        else:
            self.stats.completed += 1
        latency_s = time.perf_counter() - pending.enqueued_at
        self.stats.observe_latency(latency_s)
        self._finish_trace(pending, primary, failed, latency_s)
        if not pending.future.done():  # the waiter may have gone away
            if failed:
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)

    async def _flush(self, batch: list[_Pending]) -> None:
        """Serve one coalesced batch: dedup, one explain_batch, fan out."""
        loop = asyncio.get_running_loop()
        fault_state = faults.active()
        if fault_state is not None:
            delay_s = fault_state.flush_delay_s()
            if delay_s:
                await asyncio.sleep(delay_s)
        # Requests whose timers fired while queued were shed there.
        batch = [pending for pending in batch if not pending.done]
        if not batch:
            return
        # Requests are deduplicated per (query, method); explanations are
        # pure per query, so every duplicate receives the identical report
        # the direct explain_batch call would have produced.
        groups: dict[tuple[WhyQuery, str], list[_Pending]] = {}
        for pending in batch:
            pending.picked = True
            groups.setdefault((pending.query, pending.method), []).append(pending)
        self.stats.observe_batch(len(batch), len(groups))
        for pending in batch:
            trace = pending.trace
            if trace is not None:
                if pending.queue_span is not None:
                    pending.queue_span.finish()
                pending.flush_span = trace.start_span(
                    "flush", batch_size=len(batch), unique=len(groups)
                )

        # One request per dedup group — the first traced waiter — carries
        # the explain's phase spans; its ride-alongs are tagged with the
        # primary's trace id so the full breakdown stays one hop away.
        primaries: dict[tuple[WhyQuery, str], _Pending | None] = {
            key: next((p for p in waiters if p.trace is not None), None)
            for key, waiters in groups.items()
        }

        by_method: dict[str, list[WhyQuery]] = {}
        for query, method in groups:
            by_method.setdefault(method, []).append(query)
        for method, queries in by_method.items():
            traces: list[obs.Trace | None] = []
            for query in queries:
                primary = primaries[(query, method)]
                if primary is not None and primary.trace is not None:
                    # Hang the explain's spans under this request's flush
                    # span; reset after the flush so later grafts (and the
                    # ring snapshot) see a finished, rooted tree.
                    if primary.flush_span is not None:
                        primary.trace.attach_at = primary.flush_span
                    traces.append(primary.trace)
                else:
                    traces.append(None)
            # Deadlines are not watched here: a waiter whose timer fires
            # mid-explain is resolved already, and _resolve skips it.  When
            # all of them expire the flush still waits; the single flush
            # thread could not start the next explain any sooner.
            reports = await self._explain_unique(loop, queries, method, traces)
            for query, outcome in zip(queries, reports):
                primary = primaries[(query, method)]
                if primary is not None and primary.trace is not None:
                    primary.trace.attach_at = primary.trace.root
                for pending in groups[(query, method)]:
                    self._resolve(pending, outcome, primary)

    def _finish_trace(
        self,
        pending: _Pending,
        primary: _Pending | None,
        failed: bool,
        latency_s: float,
    ) -> None:
        """Close a request's trace: ring snapshot, slow log, Chrome file."""
        trace = pending.trace
        if trace is None:
            return
        if pending.queue_span is not None:  # still open if shed in the queue
            pending.queue_span.finish()
        if pending.flush_span is not None:
            if pending is not primary and primary is not None:
                pending.flush_span.tag(
                    deduped=True, primary_trace=primary.trace.trace_id
                )
            pending.flush_span.finish()
        trace.finish()
        latency_ms = round(latency_s * 1e3, 3)
        slow = (
            self.slow_query_ms is not None and latency_ms >= self.slow_query_ms
        )
        entry = trace.to_dict()
        entry.update(
            ok=not failed,
            latency_ms=latency_ms,
            slow=slow,
            query=str(pending.query),
        )
        self.traces.append(entry)
        if slow:
            self.stats.slow_queries += 1
            LOG.warning(
                "slow query: %.3f ms (threshold %.3f ms)",
                latency_ms,
                self.slow_query_ms,
                extra={
                    "event": "slow_query",
                    "trace_id": trace.trace_id,
                    "latency_ms": latency_ms,
                    "threshold_ms": self.slow_query_ms,
                    "ok": not failed,
                    "query": str(pending.query),
                    "stages_ms": trace.stage_breakdown(),
                },
            )
        if self.trace_dir is not None:
            try:
                trace.write_chrome_trace(
                    self.trace_dir / f"{trace.trace_id}.trace.json"
                )
            except OSError as exc:  # never fail a request on a profile write
                LOG.warning(
                    "could not write chrome trace: %s",
                    exc,
                    extra={"event": "trace_write_failed", "trace_id": trace.trace_id},
                )
        LOG.debug(
            "request served",
            extra={
                "event": "request_served",
                "trace_id": trace.trace_id,
                "latency_ms": latency_ms,
                "ok": not failed,
            },
        )

    async def _explain_unique(
        self,
        loop: asyncio.AbstractEventLoop,
        queries: list[WhyQuery],
        method: str,
        traces: list[obs.Trace | None],
    ) -> list[XInsightReport | BaseException]:
        """One ``explain_batch`` over the deduped queries of one method,
        one report or error per query, in order.

        ``on_error="return"`` gives per-query failure isolation inside the
        single batch call: a poison query fails only its own requesters,
        every query is attempted exactly once, and ``SessionStats`` counts
        each attempt once (no batch-then-retry double counting).  The
        outer fallback only fires on infrastructure-level failures (a dead
        executor, an unpicklable payload) — it retries query-at-a-time on
        the in-process session (``workers=1``: never a fresh pool, whatever
        ``REPRO_WORKERS`` says) so the batch's requesters still get
        individual answers.
        """
        run = partial(
            self.session.explain_batch, queries, method=method,
            executor=self.executor, traces=traces, on_error="return",
        )
        try:
            return await loop.run_in_executor(self._flush_pool, run)
        except Exception:
            LOG.exception(
                "batch explain failed; retrying query-at-a-time",
                extra={"event": "batch_fallback", "queries": len(queries)},
            )
            self._fallback_retries += len(queries)
            return await loop.run_in_executor(
                self._flush_pool,
                partial(
                    self.session.explain_batch, queries, method=method,
                    workers=1, traces=traces, on_error="return",
                ),
            )

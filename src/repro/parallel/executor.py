"""Executors: serial and process-pool shard mapping.

The parallel subsystem runs *shard tasks* — small picklable objects obeying
the :class:`ShardTask` protocol — over the shard payloads produced by
:mod:`repro.parallel.plan`:

* ``build_state()`` constructs the expensive per-worker state (a serving
  session over a loaded model) **once per worker**;
* ``run(state, payload)`` evaluates one shard against that state.

Only the task (once, at pool start) and the compact shard payloads /
verdicts ever cross a process boundary; the heavyweight state never does.
``Executor.map`` returns shard results in shard order, so merged output is
independent of worker scheduling — the invariant every parity guarantee in
this repo is built on.

Executor choice in one line: the worker count picks it — one worker is
:class:`SerialExecutor` (the reference), more is :class:`ProcessExecutor`.
There is no thread pool: the CI and XPlainer kernels hold the GIL for most
of their run, and on a 2-vCPU host threads lost to serial on skeleton
learning and view serving and won a 200k-row fit by 9%.  The offline fit
takes no executor at all: on the same host two process workers lost to a
serial 200k-row fit in 9 of 10 runs.
``REPRO_WORKERS`` sets the fleet-wide default worker count for every
serving entry point that takes ``workers=None``.
"""

from __future__ import annotations

import logging
import os
import signal
import stat
import threading
import time
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.errors import ReproError

LOG = logging.getLogger("repro.parallel")

REPRO_WORKERS_ENV = "REPRO_WORKERS"

#: How many pool rebuilds one ``ProcessExecutor.map`` call may spend on
#: worker deaths before it degrades to in-process serial execution.
DEFAULT_MAX_RESTARTS = 3

#: How often a pool worker checks that the process that forked it lives.
_PARENT_POLL_S = 0.5


class ShardTask:
    """Protocol of the work unit an :class:`Executor` maps over shards.

    Subclasses must be picklable (for :class:`ProcessExecutor`) and
    stateless across ``run`` calls except through the ``state`` object
    returned by :meth:`build_state` — with per-worker state, no locking is
    ever needed.
    """

    def build_state(self) -> Any:
        """Heavy once-per-worker setup; the default task needs none."""
        return None

    def run(self, state: Any, payload: Any) -> Any:
        """Evaluate one shard payload against the worker state."""
        raise NotImplementedError


class Executor(ABC):
    """Maps a :class:`ShardTask` over shard payloads, preserving order."""

    kind: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ReproError(f"workers must be ≥ 1, got {workers}")
        self.workers = workers

    @abstractmethod
    def map(self, task: ShardTask, payloads: Sequence[Any]) -> list[Any]:
        """Run ``task`` on every payload; results come back in input order."""

    def close(self) -> None:
        """Release pooled workers (idempotent; a no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process reference executor — the ``workers=1`` path."""

    kind = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def map(self, task: ShardTask, payloads: Sequence[Any]) -> list[Any]:
        state = task.build_state()
        return [task.run(state, payload) for payload in payloads]


# Per-worker-process globals, installed by the pool initializer.  Each
# ProcessPoolExecutor owns its worker processes, so two live executors can
# never collide on these.
_WORKER_TASK: ShardTask | None = None
_WORKER_STATE: Any = None


def _drop_inherited_sockets() -> None:
    """Release every socket a forked worker inherited from its parent.

    A worker holding a copy of a server's listener or client sockets keeps
    each connection open after the server closes it, so the peer never
    reads EOF.  The pool's own channels are pipes and stay.  Each socket
    fd is pointed at ``/dev/null`` rather than closed: the parent's socket
    objects, copied into the worker, still name those fds and must never
    close a file that reuses the number.  Without ``/proc`` this is a
    no-op.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the fd listdir itself used, closed since
    finally:
        os.close(devnull)


def _exit_with_parent(parent: int) -> None:
    """Watchdog of a pool worker: exit once its parent is gone.

    A parent killed by SIGKILL never shuts its pool down, so a worker
    waiting for its next shard would wait on as an orphan.  An orphan is
    re-parented, which changes ``os.getppid()``.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _process_init(task: ShardTask) -> None:
    global _WORKER_TASK, _WORKER_STATE
    # A forked worker inherits the parent's signal set-up, including a
    # serving event loop's signal wakeup fd.  The SIGTERM a broken pool
    # sends its surviving workers would then reach the parent's loop and
    # drain the whole server.  A worker dies on SIGTERM and tells no one.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _drop_inherited_sockets()
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True,
        name="repro-parent-watch",
    ).start()
    _WORKER_TASK = task
    _WORKER_STATE = task.build_state()


def _process_run(payload: Any) -> Any:
    assert _WORKER_TASK is not None, "worker used before initialization"
    # Fault-injection hook (chaos harness).  Gated on the raw env var so
    # the unarmed path costs one dict lookup and imports nothing; the name
    # must match ``repro.serve.faults.FAULTS_ENV`` (pinned by a test).
    if os.environ.get("REPRO_FAULTS"):
        from repro.serve import faults

        state = faults.active()
        if state is not None:
            state.maybe_kill_worker()
    return _WORKER_TASK.run(_WORKER_STATE, payload)


#: map()-internal marker for a shard whose result has not landed yet.
_MISSING = object()


class ProcessExecutor(Executor):
    """Process-pool executor: the task ships to each worker exactly once.

    The pool initializer pickles the task a single time per worker and
    calls ``build_state`` there, so per-shard traffic is only the compact
    payload out and the verdicts back.  The pool (and its built state) is
    reused across ``map`` calls with the same task — e.g. every flush of one
    serving session — and transparently rebuilt when the task changes.

    **Self-healing.**  A worker death (OOM kill, segfault, fault-injected
    ``os._exit``) breaks the whole :class:`ProcessPoolExecutor`; results
    already returned are kept, the pool is rebuilt, and only the lost
    shards re-run.  ``map`` spends at most ``max_restarts`` rebuilds per
    call; past that it degrades to in-process serial execution of the
    remaining shards with a structured WARNING — a batch is never failed
    because of worker churn.  Restart/re-run totals are on
    :attr:`worker_restarts` / :attr:`shard_retries` (serving surfaces them
    as ``worker_restarts_total`` / ``retries_total``).

    Shard re-runs are safe by the :class:`ShardTask` contract: tasks are
    pure functions of (state, payload), so a re-run returns the identical
    result the lost run would have.  Application exceptions raised by the
    task itself still propagate immediately — healing only covers
    infrastructure death, never a deterministic failure.
    """

    kind = "process"

    def __init__(
        self, workers: int, max_restarts: int = DEFAULT_MAX_RESTARTS
    ) -> None:
        super().__init__(workers)
        if max_restarts < 0:
            raise ReproError(f"max_restarts must be ≥ 0, got {max_restarts}")
        self.max_restarts = max_restarts
        #: Pool rebuilds forced by worker deaths (monotone, process-lifetime).
        self.worker_restarts = 0
        #: Shards re-run (pool rebuild or serial degrade) after a death.
        self.shard_retries = 0
        #: ``map`` calls that fell back to in-process serial execution.
        self.serial_degrades = 0
        self._pool: ProcessPoolExecutor | None = None
        self._task: ShardTask | None = None

    def _pool_for(self, task: ShardTask) -> ProcessPoolExecutor:
        if self._pool is not None and self._task is not task:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_init,
                initargs=(task,),
            )
            self._task = task
        return self._pool

    def map(self, task: ShardTask, payloads: Sequence[Any]) -> list[Any]:
        if not payloads:
            return []
        results: list[Any] = [_MISSING] * len(payloads)
        pending = list(range(len(payloads)))
        restarts_spent = 0
        while pending:
            pool = self._pool_for(task)
            futures = [(i, pool.submit(_process_run, payloads[i])) for i in pending]
            broken = False
            for i, future in futures:
                try:
                    results[i] = future.result()
                except BrokenExecutor:
                    # This shard's result is lost; every later future on
                    # the broken pool fails the same way — keep collecting
                    # so `pending` shrinks to exactly the lost shards.
                    broken = True
            if not broken:
                return results
            pending = [i for i in pending if results[i] is _MISSING]
            self._discard_pool()
            if restarts_spent >= self.max_restarts:
                break
            restarts_spent += 1
            self.worker_restarts += 1
            self.shard_retries += len(pending)
            LOG.warning(
                "process pool broken; rebuilding (restart %d/%d) and "
                "re-running %d lost shard(s)",
                restarts_spent,
                self.max_restarts,
                len(pending),
                extra={
                    "event": "worker_pool_restart",
                    "restart": restarts_spent,
                    "max_restarts": self.max_restarts,
                    "lost_shards": len(pending),
                },
            )
        if pending:
            # Repeated pool deaths: stop burning restarts and finish the
            # batch in-process.  Slower, but the caller gets its results.
            self.serial_degrades += 1
            self.shard_retries += len(pending)
            LOG.warning(
                "process pool died %d time(s) in one map; degrading %d "
                "remaining shard(s) to in-process serial execution",
                restarts_spent + 1,
                len(pending),
                extra={
                    "event": "executor_serial_degrade",
                    "restarts": restarts_spent + 1,
                    "remaining_shards": len(pending),
                },
            )
            state = task.build_state()
            for i in pending:
                results[i] = task.run(state, payloads[i])
        return results

    def _discard_pool(self) -> None:
        """Drop the pool without surfacing shutdown errors — a broken
        pool's cleanup must never mask the recovery path."""
        pool, self._pool, self._task = self._pool, None, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - platform-specific cleanup
                LOG.debug("broken pool shutdown raised", exc_info=True)

    def close(self) -> None:
        """Idempotent release; safe on a broken pool (never raises)."""
        pool, self._pool, self._task = self._pool, None, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:  # pragma: no cover - platform-specific cleanup
                LOG.debug("pool shutdown raised; already broken", exc_info=True)


# Bad REPRO_WORKERS values already warned about (one warning per value per
# process — a fleet box with a typo'd env should say so once, not per call).
_WARNED_WORKERS: set[str] = set()


def default_workers() -> int:
    """The fleet-wide worker default: ``REPRO_WORKERS`` env, else 1 (serial).

    Malformed or non-positive values fall back to 1 rather than erroring —
    a bad env var on a worker box should degrade to serial, not crash — but
    they *warn* (once per value) naming the bad value, so a misconfigured
    fleet silently running serial is visible in the logs."""
    raw = os.environ.get(REPRO_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        if raw not in _WARNED_WORKERS:
            _WARNED_WORKERS.add(raw)
            warnings.warn(
                f"ignoring invalid {REPRO_WORKERS_ENV}={raw!r} (expected a "
                "positive integer); falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
        return 1
    return workers


def make_executor(workers: int) -> Executor:
    """Build an executor: serial for one worker, process workers for more.

    Fewer than one worker raises :class:`ReproError` (from the executor
    constructor) rather than running serial: the count arrives from the
    CLI and the service knobs, where a typo must not go unnoticed.
    """
    return SerialExecutor() if workers == 1 else ProcessExecutor(workers)


@contextmanager
def executor_scope(
    workers: int | None = None,
    executor: Executor | None = None,
) -> Iterator[Executor]:
    """Resolve the ``workers=`` / ``executor=`` kwargs of an entry point.

    An explicitly passed executor is used as-is and stays open (the caller
    owns its lifecycle); otherwise one is built from ``workers`` (defaulting
    to :func:`default_workers`, i.e. the ``REPRO_WORKERS`` env) and closed
    when the scope exits.
    """
    if executor is not None:
        yield executor
        return
    own = make_executor(default_workers() if workers is None else workers)
    try:
        yield own
    finally:
        own.close()

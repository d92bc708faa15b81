"""Request-scoped tracing: trace ids, hierarchical spans, Chrome export.

A :class:`Trace` is created once per request at a front-end (HTTP gateway,
TCP server, CLI) and carries a 16-hex-char trace id plus a tree of
:class:`Span` records.  The offline fit always runs traced:
:func:`repro.core.model.fit_model` opens a ``fit`` span under the caller's
trace, or under a private one when none is active, and reads the model's
persisted phase profile off that span's subtree.  Instrumented code never
touches the trace object directly — it calls the module-level
:func:`span` context manager, which looks up the active trace in a
:class:`~contextvars.ContextVar`:

* no trace active → :data:`NULL_SPAN` is yielded.  It is falsy, its
  ``tag`` is a no-op, and the whole code path costs one contextvar read
  plus one falsy check.  This is the zero-overhead-when-off guarantee the
  ``benchmarks/test_obs_overhead.py`` assertion pins.
* a trace is active (installed with :func:`activate`) → a real span is
  opened under the current parent, timed with ``time.perf_counter`` and
  closed on exit.

Span timestamps are absolute ``perf_counter`` readings while in memory and
are converted to milliseconds-since-trace-start on serialization, so span
trees survive the pickle boundary to process workers: a worker builds its
own :class:`Trace` (same trace id, its own clock anchor), returns
``trace.shard_payload()`` — relative span times plus a wall-clock anchor —
and the parent grafts the subtree back with :meth:`Trace.graft_shard`,
shifting by the wall-clock delta between the two anchors.

:meth:`Trace.to_chrome_trace` renders the tree as Chrome trace-event JSON
(``"X"`` complete events, microsecond timestamps) loadable in Perfetto or
``chrome://tracing``.  :class:`TraceRing` is the bounded, thread-safe
buffer of recent trace snapshots each :class:`ExplanationService` keeps
for the ``/v1/models/{id}/traces`` and TCP ``traces`` surfaces.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Mapping

__all__ = [
    "NULL_SPAN",
    "Span",
    "Trace",
    "TraceRing",
    "activate",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "span",
    "valid_trace_id",
]

#: Accepted wire format for trace ids: 1-64 chars of [A-Za-z0-9._-].
#: Generous enough for externally-generated ids (uuid, ULID, dotted
#: batch-item suffixes) while staying safe inside filenames and logs.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_trace_id() -> str:
    """Return a fresh 16-hex-char trace id."""

    return uuid.uuid4().hex[:16]


def valid_trace_id(value: Any) -> bool:
    """True when *value* is usable as a trace id on the wire."""

    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


class Span:
    """One timed, named node in a trace tree.

    ``start``/``end`` are raw ``time.perf_counter`` readings in the
    process that opened the span; the owning :class:`Trace` converts them
    to trace-relative milliseconds on export.
    """

    __slots__ = ("name", "start", "end", "tags", "children")

    def __init__(
        self,
        name: str,
        start: float | None = None,
        tags: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: float | None = None
        self.tags: dict[str, Any] = tags or {}
        self.children: list[Span] = []

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def finish(self, end: float | None = None) -> None:
        if self.end is None:
            self.end = time.perf_counter() if end is None else end

    @property
    def duration_s(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self, anchor: float) -> dict[str, Any]:
        """Serialize with times relative to *anchor* (ms, 3 decimals)."""

        end = self.end if self.end is not None else self.start
        payload: dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self.start - anchor) * 1e3, 3),
            "duration_ms": round((end - self.start) * 1e3, 3),
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.children:
            payload["children"] = [
                child.to_dict(anchor) for child in self.children
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], base: float) -> "Span":
        """Rebuild a span (tree) whose times are re-anchored at *base*."""

        start = base + float(payload.get("start_ms", 0.0)) / 1e3
        span = cls(
            payload.get("name", "span"),
            start=start,
            tags=dict(payload.get("tags", {})),
        )
        span.end = start + float(payload.get("duration_ms", 0.0)) / 1e3
        span.children = [
            cls.from_dict(child, base) for child in payload.get("children", [])
        ]
        return span

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms)"


class _NullSpan:
    """Falsy do-nothing span yielded when no trace is active."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def finish(self, end: float | None = None) -> None:
        return None


NULL_SPAN = _NullSpan()


class Trace:
    """A request-scoped tree of spans with a stable trace id.

    ``began_at`` (wall clock) and the private ``perf_counter`` anchor are
    captured together at construction; the wall clock correlates traces
    across processes and log lines, the monotonic anchor times spans.
    ``attach_at`` is where :func:`activate` and :meth:`graft_shard` hang
    new subtrees — the service points it at the per-request flush span
    while an explain runs, then resets it to the root.
    """

    __slots__ = ("trace_id", "name", "began_at", "_anchor", "root", "attach_at")

    def __init__(self, name: str = "request", trace_id: str | None = None) -> None:
        if trace_id is not None and not valid_trace_id(trace_id):
            raise ValueError(f"invalid trace id: {trace_id!r}")
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.began_at = time.time()
        self._anchor = time.perf_counter()
        self.root = Span(name, start=self._anchor)
        self.attach_at: Span = self.root

    def start_span(self, name: str, parent: Span | None = None, **tags: Any) -> Span:
        span = Span(name, tags=tags or None)
        (parent if parent is not None else self.attach_at).children.append(span)
        return span

    def finish(self) -> "Trace":
        self.root.finish()
        return self

    @property
    def duration_ms(self) -> float:
        return self.root.duration_s * 1e3

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "began_at": round(self.began_at, 6),
            "duration_ms": round(self.duration_ms, 3),
            "root": self.root.to_dict(self._anchor),
        }

    def span_names(self) -> set[str]:
        return {span.name for span in self.root.walk()}

    def stage_breakdown(self) -> dict[str, float]:
        """Total milliseconds per span name across the whole tree."""

        stages: dict[str, float] = {}
        for span in self.root.walk():
            if span is self.root:
                continue
            stages[span.name] = round(
                stages.get(span.name, 0.0) + span.duration_s * 1e3, 3
            )
        return stages

    # -- cross-process span reassembly ---------------------------------

    def shard_payload(self) -> dict[str, Any]:
        """JSON/pickle-safe span tree a worker ships back to the parent."""

        return {
            "trace_id": self.trace_id,
            "began_at": self.began_at,
            "root": self.finish().root.to_dict(self._anchor),
        }

    def graft_shard(self, payload: Mapping[str, Any]) -> None:
        """Re-attach a worker's span tree under ``attach_at``.

        The worker's clock anchor is unrelated to ours, so its relative
        span times are shifted by the wall-clock delta between the two
        trace starts — accurate to NTP skew, which is plenty for a
        profile view.
        """

        base = self._anchor + (float(payload["began_at"]) - self.began_at)
        root = Span.from_dict(payload["root"], base)
        pid = root.tags.get("pid")
        for child in root.children:
            if pid is not None:
                child.tags.setdefault("pid", pid)
            self.attach_at.children.append(child)

    # -- Chrome trace-event export --------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``"X"`` events, µs) for Perfetto."""

        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": f"repro trace {self.trace_id}"},
            }
        ]
        for span in self.root.walk():
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round((span.start - self._anchor) * 1e6, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": dict(span.tags),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id, "name": self.name},
        }

    def write_chrome_trace(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# -- ambient trace propagation ------------------------------------------

_CURRENT: ContextVar[tuple[Trace, Span] | None] = ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> Trace | None:
    active = _CURRENT.get()
    return active[0] if active is not None else None


def current_trace_id() -> str | None:
    active = _CURRENT.get()
    return active[0].trace_id if active is not None else None


@contextmanager
def activate(trace: Trace | None) -> Iterator[Trace | None]:
    """Install *trace* as the ambient trace for the duration of the block.

    Passing ``None`` is a no-op, so call sites can thread an optional
    trace without branching.  Activation is per-:mod:`contextvars`
    context: ``loop.run_in_executor`` threads do NOT inherit it — the
    flush worker re-activates explicitly per query.
    """

    if trace is None:
        yield None
        return
    token = _CURRENT.set((trace, trace.attach_at))
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


class _NullSpanContext:
    """Singleton context manager for the tracing-off fast path.

    A plain object with empty ``__enter__``/``__exit__`` — unlike a
    ``@contextmanager`` generator there is nothing to instantiate, so the
    whole inactive :func:`span` call is one contextvar read, one ``is
    None`` check and two trivial method calls.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager opening one child span under the active trace."""

    __slots__ = ("_trace", "_parent", "_name", "_tags", "_child", "_token")

    def __init__(
        self, trace: Trace, parent: Span, name: str, tags: dict | None
    ) -> None:
        self._trace = trace
        self._parent = parent
        self._name = name
        self._tags = tags

    def __enter__(self) -> Span:
        child = Span(self._name, tags=self._tags or None)
        self._parent.children.append(child)
        self._child = child
        self._token = _CURRENT.set((self._trace, child))
        return child

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._child.finish()
        _CURRENT.reset(self._token)
        return None


def span(name: str, **tags: Any) -> _SpanContext | _NullSpanContext:
    """Open a child span under the active trace, or a falsy no-op.

    Guard tag computations that are not free with ``if sp:`` — the null
    span accepts ``tag()`` but the point of the no-op path is to skip the
    work of *computing* tag values.
    """

    active = _CURRENT.get()
    if active is None:
        return _NULL_SPAN_CONTEXT
    return _SpanContext(active[0], active[1], name, tags)


class TraceRing:
    """Thread-safe bounded buffer of recent trace snapshot dicts."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("trace ring capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity or 1)

    def append(self, entry: dict[str, Any]) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries.append(entry)

    def snapshot(self) -> list[dict[str, Any]]:
        """Most-recent-first list of stored trace dicts."""

        with self._lock:
            return list(reversed(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

"""The one place a serving request is understood: decode, validate, answer.

Both wire front-ends hand every request to :func:`answer` and only frame
what it returns: the JSON-lines TCP server (:mod:`repro.serve.server`)
writes the envelope as one line, the HTTP gateway (:mod:`repro.serve.http`)
maps its route to an op and writes the envelope with the status
:func:`status_for` chose.  The ops, their fields, payload keys and error
statuses are tabulated in the README's "Serving" op table; this module is
that table's implementation:

* :func:`decode_object` — the strict JSON-object decode (UTF-8, and no
  ``NaN`` / ``Infinity`` literals, which are not JSON);
* one validator per shared field — :func:`model_of`, :func:`method_of`,
  :func:`timeout_ms_of`, :func:`orientation_of`, :func:`trace_id_of`;
* one handler per op; each opens its request trace and builds its success
  envelope (:func:`ok_response`; failures are :func:`error_response`);
* :func:`status_for` — the exception → status map;
* :class:`Listener` — the start / stop / drain both front-ends share.

Every envelope carries the request's ``trace_id`` (the caller's, or a
fresh one); envelopes of model-scoped ops also name the ``model``, its
artifact ``version`` and content ``fingerprint``.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Mapping

from repro import obs
from repro.core.reporting import report_to_dict
from repro.core.view import ORIENTATIONS
from repro.core.xplainer import SEARCH_METHODS
from repro.data.query import query_from_spec
from repro.errors import (
    ArtifactQuarantinedError,
    DeadlineExceededError,
    ModelError,
    ProtocolError,
    QueryError,
    RegistryError,
    ReproError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    StoreError,
)
from repro.serve.metrics import render_metrics
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.registry import ModelRegistry

#: Header carrying the request-scoped trace id over HTTP, in and out.
TRACE_HEADER = "X-Repro-Trace-Id"

#: A decoded request, and the envelope answering it.
Payload = dict[str, Any]


# ----------------------------------------------------------------------
# Decoding and field validation
# ----------------------------------------------------------------------


def _reject_constant(name: str) -> None:
    raise ProtocolError(f"request is not valid JSON: {name} is not a number")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_object(raw: bytes | str) -> dict[str, Any]:
    """Parse one request body into a dict, or raise :class:`ProtocolError`."""
    if isinstance(raw, bytes):
        if len(raw) > MAX_LINE_BYTES:
            raise ProtocolError(f"request exceeds {MAX_LINE_BYTES} bytes")
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        payload = _DECODER.decode(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_request(line: bytes | str) -> dict[str, Any]:
    """:func:`decode_object` plus the check that ``op`` names an op."""
    request = decode_object(line)
    if request.get("op") not in OPS:
        raise ProtocolError(
            f"unknown op {request.get('op')!r}; expected one of {list(OPS)}"
        )
    return request


def _string_field(request: Mapping[str, Any], name: str, default: str) -> str:
    value = request.get(name, default)
    if not isinstance(value, str):
        raise ProtocolError(f"{name!r} must be a string, got {value!r}")
    return value


def model_of(request: Mapping[str, Any]) -> str | None:
    """The ``model`` to route to (``None``: the registry's default)."""
    model = request.get("model")
    if model is not None and not isinstance(model, str):
        raise ProtocolError(f"'model' must be a string, got {model!r}")
    return model


def method_of(request: Mapping[str, Any]) -> str:
    """The XPlainer search ``method`` (default ``auto``)."""
    method = _string_field(request, "method", "auto")
    if method not in SEARCH_METHODS:
        raise ProtocolError(
            f"'method' must be one of {list(SEARCH_METHODS)}, got {method!r}"
        )
    return method


def timeout_ms_of(request: Mapping[str, Any]) -> float | None:
    """The request's deadline budget in ms: a finite number > 0, or None."""
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is None:
        return None
    if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
        raise ProtocolError(f"'timeout_ms' must be a number, got {timeout_ms!r}")
    try:
        timeout_ms = float(timeout_ms)
    except OverflowError:  # an integer beyond float range
        timeout_ms = math.inf
    if not 0 < timeout_ms < math.inf:
        raise ProtocolError(
            f"'timeout_ms' must be finite and > 0, got {timeout_ms!r}"
        )
    return timeout_ms


def orientation_of(request: Mapping[str, Any]) -> str:
    """The view ``orientation`` (default ``both``)."""
    orientation = _string_field(request, "orientation", "both")
    if orientation not in ORIENTATIONS:
        raise QueryError(
            f"orientation must be one of {list(ORIENTATIONS)}, "
            f"got {orientation!r}"
        )
    return orientation


def trace_id_of(request: Mapping[str, Any], header: str | None = None) -> str:
    """The request's trace id: the HTTP header when sent, else the
    ``trace_id`` field, else a fresh one.  Both are validated when sent."""
    field = request.get("trace_id")
    for source, candidate in ((TRACE_HEADER, header), ("trace_id", field)):
        if candidate is not None and not obs.valid_trace_id(candidate):
            raise ProtocolError(
                f"invalid {source} {candidate!r}: expected 1-64 chars of "
                "[A-Za-z0-9._-]"
            )
    return header or field or obs.new_trace_id()


# ----------------------------------------------------------------------
# Envelopes and statuses
# ----------------------------------------------------------------------


def ok_response(request_id: Any = None, **fields: Any) -> dict[str, Any]:
    """A success envelope: the echoed ``id``, ``ok``, then ``fields``."""
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: Any, exc: BaseException, trace_id: str | None = None
) -> dict[str, Any]:
    """A typed error envelope for ``exc``.

    Library errors surface their own class name; anything else is
    reported as ``InternalError`` with the message intact.
    """
    name = type(exc).__name__ if isinstance(exc, ReproError) else "InternalError"
    response: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"type": name, "message": str(exc)},
    }
    if trace_id is not None:
        response["trace_id"] = trace_id
    return response


def status_for(exc: BaseException) -> int:
    """The HTTP status of a failed request, by exception type."""
    if isinstance(exc, ArtifactQuarantinedError):
        return 503  # transient: clears on backoff expiry / artifact change
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, RegistryError):
        return 404
    if isinstance(exc, ServiceOverloadedError):
        return 429
    if isinstance(exc, ServiceClosedError):
        return 503
    if isinstance(exc, (ModelError, StoreError)):
        return 500  # a loadable-looking artifact failed server-side
    if isinstance(exc, ReproError):
        return 400
    return 500


def _model_response(
    request: Payload, entry, trace_id: str, **payload: Any
) -> Payload:
    return ok_response(
        request.get("id"),
        model=entry.model_id,
        version=entry.version,
        fingerprint=entry.fingerprint,
        trace_id=trace_id,
        **payload,
    )


def _open_trace(
    trace_id: str, op: str, listener: Listener, entry, **tags: Any
) -> obs.Trace:
    trace = obs.Trace(name="request", trace_id=trace_id)
    trace.root.tag(op=op, proto=listener.proto, model=entry.model_id, **tags)
    return trace


# ----------------------------------------------------------------------
# Handlers: (listener, request, trace_id) -> success envelope
# ----------------------------------------------------------------------


async def _explain(listener: Listener, request: Payload, trace_id: str) -> Payload:
    method, timeout_ms = method_of(request), timeout_ms_of(request)
    if "queries" in request:
        return await _explain_batch(listener, request, trace_id, method, timeout_ms)
    if "query" not in request:
        raise ProtocolError("explain request missing 'query' (or 'queries')")
    entry = await listener.registry.entry_for(model_of(request))
    query = query_from_spec(request["query"], entry.service.table)
    report = await entry.service.explain(
        query,
        method=method,
        trace=_open_trace(trace_id, "explain", listener, entry),
        timeout_ms=timeout_ms,
    )
    return _model_response(request, entry, trace_id, report=report_to_dict(report))


async def _explain_batch(
    listener: Listener,
    request: Payload,
    trace_id: str,
    method: str,
    timeout_ms: float | None,
) -> Payload:
    specs = request["queries"]
    if not isinstance(specs, list) or not specs:
        raise ProtocolError("'queries' must be a non-empty JSON list")
    entry = await listener.registry.entry_for(model_of(request))
    # Validate every spec before admitting any: a malformed entry fails
    # the whole request cheaply instead of half-serving it.
    queries = [query_from_spec(spec, entry.service.table) for spec in specs]
    # Each item gets its own trace under the request's id (dot-suffixed),
    # so the ring and the per-item envelopes stay correlatable with the
    # one id the client sent.
    traces = [
        _open_trace(f"{trace_id}.{index}", "explain", listener, entry, item=index)
        for index in range(len(queries))
    ]
    outcomes = await asyncio.gather(
        *(
            entry.service.explain(q, method=method, trace=t, timeout_ms=timeout_ms)
            for q, t in zip(queries, traces)
        ),
        return_exceptions=True,
    )
    results = []
    for spec, trace, outcome in zip(specs, traces, outcomes):
        item_id = spec.get("id") if isinstance(spec, Mapping) else None
        if isinstance(outcome, BaseException):
            envelope = error_response(item_id, outcome, trace.trace_id)
        else:
            envelope = ok_response(
                item_id, trace_id=trace.trace_id, report=report_to_dict(outcome)
            )
        if item_id is None:
            del envelope["id"]
        results.append(envelope)
    return _model_response(request, entry, trace_id, results=results)


async def _explain_view(
    listener: Listener, request: Payload, trace_id: str
) -> Payload:
    method, timeout_ms = method_of(request), timeout_ms_of(request)
    orientation = orientation_of(request)
    if "view" not in request:
        raise ProtocolError("explain_view request missing 'view'")
    entry = await listener.registry.entry_for(model_of(request))
    summary = await entry.service.explain_view(
        request["view"],
        orientation=orientation,
        method=method,
        trace=_open_trace(trace_id, "explain_view", listener, entry),
        timeout_ms=timeout_ms,
    )
    return _model_response(request, entry, trace_id, summary=summary.to_dict())


async def _cache_info(entry) -> dict:
    # cache_info takes the session lock, which the flush thread may hold
    # mid-explain: fetch it in a worker thread so the loop never waits.
    return await asyncio.get_running_loop().run_in_executor(
        None, entry.service.session.cache_info
    )


async def _stats(listener: Listener, request: Payload, trace_id: str) -> Payload:
    entry = await listener.registry.entry_for(model_of(request))
    stats = entry.service.stats_snapshot(cache_info=await _cache_info(entry))
    fronts = listener.registry.listeners
    stats.update(
        model=entry.model_id,
        version=entry.version,
        requests_total=sum(front.requests_total for front in fronts),
        connections_total=sum(front.connections_total for front in fronts),
    )
    return _model_response(request, entry, trace_id, stats=stats)


async def _traces(listener: Listener, request: Payload, trace_id: str) -> Payload:
    entry = await listener.registry.entry_for(model_of(request))
    return _model_response(
        request, entry, trace_id, traces=entry.service.traces_snapshot()
    )


async def _models(listener: Listener, request: Payload, trace_id: str) -> Payload:
    return ok_response(
        request.get("id"),
        trace_id=trace_id,
        models=listener.registry.models_payload(),
    )


async def _health(listener: Listener, request: Payload, trace_id: str) -> Payload:
    return ok_response(
        request.get("id"),
        trace_id=trace_id,
        models_loaded=len(listener.registry.loaded_entries()),
        models_available=len(listener.registry.available_ids()),
    )


async def _ping(listener: Listener, request: Payload, trace_id: str) -> Payload:
    return ok_response(request.get("id"), trace_id=trace_id, pong=True)


async def _shutdown(listener: Listener, request: Payload, trace_id: str) -> Payload:
    if not listener.allow_shutdown:
        raise ProtocolError(
            "shutdown over the wire is disabled "
            "(start the server with --allow-shutdown)"
        )
    listener.request_shutdown()
    return ok_response(request.get("id"), trace_id=trace_id, draining=True)


_HANDLERS = {
    "explain": _explain,
    "explain_view": _explain_view,
    "stats": _stats,
    "traces": _traces,
    "models": _models,
    "health": _health,
    "ping": _ping,
    "shutdown": _shutdown,
}

#: Every op a request may name.
OPS = tuple(_HANDLERS)


async def answer(
    listener: "Listener",
    raw: bytes | None = None,
    *,
    route: Mapping[str, Any] | None = None,
    trace_header: str | None = None,
) -> tuple[int, dict[str, Any]]:
    """Answer one request: ``(status, envelope)``; never raises.

    TCP passes the request line as ``raw``.  HTTP passes the body (or
    ``None`` for a bodyless route), the ``op`` / ``model`` its route
    names as ``route`` — they override the body's — and the trace
    header's value.
    """
    request_id: Any = None
    trace_id: str | None = None
    try:
        if trace_header is not None:  # echoed even when the body is bad
            trace_id = trace_id_of({}, trace_header)
        if route is None:
            request = decode_request(raw)
        else:
            request = decode_object(raw) if raw is not None else {}
            request.update(route)
        request_id = request.get("id")
        trace_id = trace_id_of(request, trace_header)
        return 200, await _HANDLERS[request["op"]](listener, request, trace_id)
    except Exception as exc:  # every failure answers; none tears down
        return status_for(exc), error_response(
            request_id, exc, trace_id or obs.new_trace_id()
        )


async def metrics_text(registry: ModelRegistry) -> str:
    """The Prometheus ``/metrics`` payload: one ``frontend`` series per
    running listener beside the per-model series."""
    cache_infos = {
        entry.model_id: await _cache_info(entry)
        for entry in registry.loaded_entries()
    }
    frontends: dict[str, dict[str, int]] = {}
    for listener in registry.listeners:
        counters = frontends.setdefault(
            listener.proto, {"requests": 0, "connections": 0}
        )
        counters["requests"] += listener.requests_total
        counters["connections"] += listener.connections_total
    return render_metrics(registry, cache_infos=cache_infos, frontends=frontends)


# ----------------------------------------------------------------------
# Listener lifecycle
# ----------------------------------------------------------------------


async def _wait_closed(writer: asyncio.StreamWriter) -> None:
    # drain() only waits to the high-water mark; wait_closed flushes what
    # is still transport-buffered, so a slow reader's large response is
    # never truncated.  The timeout keeps a peer that stopped reading from
    # pinning the caller forever.
    try:
        await asyncio.wait_for(writer.wait_closed(), timeout=10)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass


class Listener:
    """One listening socket over a registry — the start / stop / drain both
    wire front-ends share.  Subclasses frame requests in
    :meth:`_serve_connection` and run each through :meth:`_spawn`.

    ``port=0`` binds an ephemeral port; the bound address is on
    :attr:`host` / :attr:`port` after :meth:`start`.  The registry's
    lifecycle belongs to the caller (:func:`~repro.serve.server.run_stack`
    drains it once, after every front-end has stopped).
    """

    #: Front-end name: the ``proto`` trace tag and ``frontend`` metrics label.
    proto = ""
    #: Whether the ``shutdown`` op is honoured.
    allow_shutdown = False

    def __init__(self, registry: ModelRegistry, host: str, port: int) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.connections_total = 0
        self.requests_total = 0
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._request_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    async def start(self) -> "Listener":
        await self.registry.start()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
            )
        except OSError as exc:
            raise ServeError(
                f"cannot bind {self.proto} {self.host}:{self.port}: {exc}"
            ) from exc
        for sock in self._server.sockets or ():
            self.host, self.port = sock.getsockname()[:2]
            break
        self.registry.listeners.append(self)
        return self

    async def stop(self) -> None:
        """Graceful drain: stop accepting, answer every request already
        read, then close the connections.

        The draining flag stops connection loops from spawning new request
        tasks; the gather loop then converges on the tasks already spawned
        (re-snapshotting to catch any raced in around the flag), and only
        after every outstanding response has been written do the writers
        close — so every request that got a task gets its answer.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._request_tasks:
            await asyncio.gather(*tuple(self._request_tasks), return_exceptions=True)
        for writer in tuple(self._writers):
            writer.close()
        for writer in tuple(self._writers):
            await _wait_closed(writer)
        self._writers.clear()
        if self in self.registry.listeners:
            self.registry.listeners.remove(self)

    async def __aenter__(self) -> "Listener":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._writers.discard(writer)
            writer.close()
            await _wait_closed(writer)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    def _spawn(self, coro) -> asyncio.Task:
        """Run one request as its own task, tracked so :meth:`stop`
        converges on every request already read off the wire."""
        self.requests_total += 1
        task = asyncio.get_running_loop().create_task(coro)
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)
        return task

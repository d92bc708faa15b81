"""HTTP/1.1 JSON gateway over the model registry (stdlib asyncio only).

The TCP JSON-lines protocol is great for benchmarks and ``nc``; it is
invisible to load balancers, dashboards, `curl`, and every HTTP client in
existence.  :class:`HttpGateway` puts a deliberately small HTTP/1.1
front-end on the same :class:`~repro.serve.registry.ModelRegistry` the TCP
server routes through — same admission control, same micro-batching, same
per-model stats — with no new dependencies (``asyncio.start_server`` plus
hand-rolled request parsing).

This module only parses HTTP and maps each (method, path) to an op of
:mod:`repro.serve.ops`, which validates and answers it exactly as it does
a TCP line.  The routes, their bodies, payload keys and the error →
status mapping are the README's "Serving" op table; ``GET /metrics`` adds
the Prometheus text exposition (see :mod:`repro.serve.metrics`).  An
unknown path is a 404, a wrong method a 405 with an ``Allow`` header.

Every response echoes the request's trace id in the ``X-Repro-Trace-Id``
header — the inbound header when it is valid, else the id the op layer
resolved or minted — on every route and status.  429/503 responses carry
a ``Retry-After`` header.  Connections are keep-alive by default;
requests on one connection are served sequentially (plain HTTP/1.1
semantics), concurrency comes from many connections, and batching from
the per-model service underneath.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.errors import ProtocolError, RegistryError, ReproError
from repro.serve.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.serve.ops import (
    TRACE_HEADER,
    Listener,
    answer,
    error_response,
    metrics_text,
)
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.registry import ModelRegistry

DEFAULT_HTTP_PORT = 8080

#: Bounds mirroring the TCP protocol's line bound.
MAX_BODY_BYTES = MAX_LINE_BYTES
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Clients may retry after this many seconds on 429/503 (the statuses
#: whose cause — a full queue, an active quarantine — is transient).
RETRY_AFTER_S = 1

#: Path → (HTTP method, op) of the routes that name no model.
_ROUTES = {
    "/healthz": ("GET", "health"),
    "/metrics": ("GET", "metrics"),
    "/v1/models": ("GET", "models"),
}
#: Op → HTTP method of the ``/v1/models/{id}/<op>`` routes.
_MODEL_ROUTES = {
    "explain": "POST",
    "explain_view": "POST",
    "stats": "GET",
    "traces": "GET",
}
_MODEL_PATH = re.compile(r"^/v1/models/([^/]+)/([^/]+)$")


def _route(path: str) -> tuple[str, str, str | None] | None:
    """``(HTTP method, op, model id)`` of a path, or None: no such route."""
    if path in _ROUTES:
        method, op = _ROUTES[path]
        return method, op, None
    match = _MODEL_PATH.match(path)
    if match is None or match.group(2) not in _MODEL_ROUTES:
        return None
    return _MODEL_ROUTES[match.group(2)], match.group(2), match.group(1)


def _echoed_trace_id(header: str | None) -> str:
    """The trace id of an answer the op layer did not give (a framing
    error, ``/metrics``): the inbound header when valid, else a fresh one."""
    return header if obs.valid_trace_id(header) else obs.new_trace_id()


@dataclass
class _Request:
    """One parsed HTTP request (or the error to answer it with)."""

    method: str = ""
    path: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True
    #: Set when parsing failed: (status, message); the response closes the
    #: connection because the stream position is no longer trustworthy.
    bad: tuple[int, str] | None = None


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str,
    keep_alive: bool,
    extra_headers: Mapping[str, str],
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class HttpGateway(Listener):
    """One HTTP endpoint over one registry (see :class:`~repro.serve.ops.
    Listener` for the lifecycle)."""

    proto = "http"

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = DEFAULT_HTTP_PORT,
    ) -> None:
        super().__init__(registry, host, port)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._draining:
            request = await self._read_request(reader)
            if request is None:  # EOF / peer reset
                break
            # Sequential per connection: HTTP/1.1 without pipelining.
            if not await self._spawn(self._respond(request, writer)):
                break

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return _Request(bad=(431, "request line too long"))
        if not line:
            return None
        try:
            method, path, version = line.decode("latin-1").split()
        except (UnicodeDecodeError, ValueError):
            return _Request(bad=(400, "malformed request line"))
        if not version.startswith("HTTP/1."):
            return _Request(bad=(400, f"unsupported protocol {version!r}"))
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, ConnectionError):
                return _Request(bad=(431, "header line too long"))
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                return _Request(bad=(431, "too many headers"))
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                return _Request(bad=(400, f"malformed header {raw!r}"))
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        if "transfer-encoding" in headers:
            return _Request(bad=(501, "chunked bodies are not supported"))
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                return _Request(bad=(400, "malformed content-length"))
            if length < 0:
                return _Request(bad=(400, "malformed content-length"))
            if length > MAX_BODY_BYTES:
                return _Request(
                    bad=(413, f"body exceeds {MAX_BODY_BYTES} bytes")
                )
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
        return _Request(
            method=method.upper(), path=path, headers=headers,
            body=body, keep_alive=keep_alive,
        )

    async def _respond(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; return whether the connection stays open."""
        header = request.headers.get(TRACE_HEADER.lower())
        route = _route(request.path.split("?", 1)[0])
        extra_headers: dict[str, str] = {}
        exc: ReproError | None = None
        if request.bad is not None:
            status, exc = request.bad[0], ProtocolError(request.bad[1])
        elif route is None:
            status = 404
            exc = RegistryError(f"no route {request.method} {request.path}")
        elif route[0] != request.method:
            status = 405
            exc = ProtocolError(f"method not allowed; use {route[0]}")
            extra_headers["Allow"] = route[0]
        if exc is not None:
            payload = error_response(None, exc, _echoed_trace_id(header))
        elif route[1] == "metrics":
            status, payload = 200, None
        else:
            method, op, model_id = route
            status, payload = await answer(
                self,
                request.body if method == "POST" else None,
                route={"op": op, "model": model_id},
                trace_header=header,
            )
        if payload is None:
            body = (await metrics_text(self.registry)).encode("utf-8")
            content_type = METRICS_CONTENT_TYPE
            extra_headers[TRACE_HEADER] = _echoed_trace_id(header)
        else:
            del payload["id"]  # ids match pipelined TCP lines; HTTP has none
            body = json.dumps(
                payload, separators=(",", ":"), ensure_ascii=False
            ).encode("utf-8")
            content_type = "application/json"
            extra_headers[TRACE_HEADER] = payload["trace_id"]
        if status in (429, 503):
            # Both causes are transient (shed load, active quarantine):
            # tell well-behaved clients when a retry is worth it.
            extra_headers["Retry-After"] = str(RETRY_AFTER_S)
        keep_alive = request.keep_alive and request.bad is None
        try:
            writer.write(
                _response_bytes(
                    status, body, content_type, keep_alive, extra_headers
                )
            )
            await writer.drain()
        except (ConnectionError, RuntimeError):
            return False
        return keep_alive

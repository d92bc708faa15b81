"""JSON-lines TCP front-end over the model registry.

Stdlib only: ``asyncio.start_server`` + the :mod:`repro.serve.protocol`
framing; :func:`repro.serve.ops.answer` answers every line (the ops and
their fields are the README's "Serving" op table).  Each connection may
pipeline requests — every request line is handled by its own task, so one
connection's stream of explains still coalesces in the service's
micro-batcher; responses carry the request's echoed ``id`` for matching
(they may complete out of order).

Shutdown is a graceful drain (:meth:`~repro.serve.ops.Listener.stop`).
``repro serve`` (the CLI) wires signals via :func:`run_stack`; the
``shutdown`` op does the same when the server was started with
``allow_shutdown=True`` (the CI smoke path).
"""

from __future__ import annotations

import asyncio

from repro.serve import faults
from repro.serve.http import HttpGateway
from repro.serve.ops import Listener, answer
from repro.serve.protocol import encode_line
from repro.serve.registry import ModelRegistry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


class ExplanationServer(Listener):
    """One JSON-lines TCP endpoint over one registry of models.

    ``allow_shutdown`` honours the ``shutdown`` op; ``shutdown_event`` is
    the event it sets (shared across a serving stack; one is made at
    :meth:`start` otherwise).
    """

    proto = "tcp"

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        allow_shutdown: bool = False,
        *,
        shutdown_event: "asyncio.Event | None" = None,
    ) -> None:
        super().__init__(registry, host, port)
        self.allow_shutdown = allow_shutdown
        self._stop_requested = shutdown_event

    async def start(self) -> "ExplanationServer":
        if self._stop_requested is None:
            self._stop_requested = asyncio.Event()
        return await super().start()

    def request_shutdown(self) -> None:
        """Flip the shutdown flag (signal handlers, the ``shutdown`` op)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain and stop."""
        assert self._stop_requested is not None, "server not started"
        await self._stop_requested.wait()
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        connection_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Over-long line or reset peer: nothing sane to answer.
                    break
                if not line or self._draining:
                    # A line that arrives mid-drain was never admitted;
                    # the closing connection is its answer.
                    break
                if not line.strip():
                    continue
                fault_state = faults.active()
                if fault_state is not None and fault_state.should_drop_connection():
                    # Chaos: sever *before* dispatch — the request was
                    # never admitted, so a client retry is provably safe.
                    break
                task = self._spawn(self._answer_line(line, writer, write_lock))
                connection_tasks.add(task)
                task.add_done_callback(connection_tasks.discard)
        finally:
            # EOF on the read side (e.g. a piped `nc` half-close) must not
            # drop answers still in flight: finish them before closing.
            while connection_tasks:
                await asyncio.gather(
                    *tuple(connection_tasks), return_exceptions=True
                )

    async def _answer_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        _status, response = await answer(self, line)
        try:
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # peer went away before its answer did


def _install_signal_handlers(handler) -> None:
    loop = asyncio.get_running_loop()
    try:
        import signal

        loop.add_signal_handler(signal.SIGINT, handler)
        loop.add_signal_handler(signal.SIGTERM, handler)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - win/embedded
        pass


async def run_stack(
    registry: ModelRegistry,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    http_port: int | None = None,
    allow_shutdown: bool = False,
    ready: "asyncio.Event | None" = None,
    announce=None,
) -> ExplanationServer:
    """Serve one registry over TCP (always) and HTTP (when ``http_port``
    is given) until shutdown, then drain everything exactly once.

    One shared shutdown event covers the whole stack: signals and the TCP
    ``shutdown`` op stop both front-ends, after which the registry — whose
    lifecycle this function owns, also when a listener fails to bind —
    drains every model's backlog.  ``announce`` receives "serving on h:p"
    for the TCP socket first (the line the smoke harness and the CLI
    banner key on), then "http on h:p".
    """
    shutdown_event = asyncio.Event()
    server = ExplanationServer(
        registry, host, port, allow_shutdown, shutdown_event=shutdown_event
    )
    listeners: list[Listener] = [server]
    if http_port is not None:
        listeners.append(HttpGateway(registry, host=host, port=http_port))
    try:
        for listener in listeners:
            await listener.start()
        if announce is not None:
            announce(f"serving on {server.host}:{server.port}")
            for gateway in listeners[1:]:
                announce(f"http on {gateway.host}:{gateway.port}")
        if ready is not None:
            ready.set()
        _install_signal_handlers(shutdown_event.set)
        await shutdown_event.wait()
    finally:
        for listener in reversed(listeners):
            await listener.stop()
        await registry.stop()
    return server

"""The server under test and the closed-loop HTTP/1.1 load generator.

The server is the real ``repro serve --registry DIR --http-port 0 --port
0`` command line.  The generator is one thread on one keep-alive
connection: it sends its next request only after the previous response has
fully arrived (closed loop).  Responses are read by ``Content-Length`` and
kept as bytes; decoding and checking happen after the timed window.

One connection, not two: with two, a request's latency depended on what
the other connection had queued beside it -- a 78-pair chart on view
(``p50_ms`` moved by up to 30% from seed to seed), any stall of the shared
vCPU on hot (sample 90th percentile: quartile spread 0.39 over ten runs).
"""

from __future__ import annotations

import itertools
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from common import proc_cpu_s

MODEL_ID = "flight"
EXPLAIN_PATH = f"/v1/models/{MODEL_ID}/explain"
VIEW_PATH = f"/v1/models/{MODEL_ID}/explain_view"
STATS_PATH = f"/v1/models/{MODEL_ID}/stats"
TRACES_PATH = f"/v1/models/{MODEL_ID}/traces"

BOOT_TIMEOUT_S = 120
RESPONSE_TIMEOUT_S = 60


def post_bytes(path: str, body: bytes) -> bytes:
    """One complete keep-alive POST request."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _parse_response(buf: bytearray):
    """``(status, body)`` once a whole response is buffered."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4 : total])


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=RESPONSE_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_response(sock: socket.socket) -> tuple[int, bytes]:
    """Read one whole response; returns ``(status, body)``."""
    buf = bytearray()
    while True:
        parsed = _parse_response(buf)
        if parsed is not None:
            return parsed
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("connection closed before a whole response")
        buf += chunk


def http_call(host: str, port: int, method: str, path: str,
              body: bytes = b"") -> tuple[int, bytes]:
    """One request on a fresh connection (outside any timed window)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    with _connect(host, port) as sock:
        sock.sendall(head.encode("latin-1") + body)
        return _read_response(sock)


class Server:
    """One ``repro serve`` subprocess over a registry directory."""

    def __init__(self, registry: Path, log: Path, env: dict,
                 trace_ring: int | None = None) -> None:
        self.registry, self.log, self.env = registry, log, env
        self.argv = [
            sys.executable, "-m", "repro", "serve", "--registry", str(registry),
            "--http-port", "0", "--port", "0",
        ]
        if trace_ring is not None:
            self.argv += ["--trace-ring", str(trace_ring)]
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def spawn(self) -> float:
        """Start the process; returns the ``perf_counter`` at spawn."""
        self._log_handle = open(self.log, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log_handle,
        )
        return started

    def wait_listening(self) -> float:
        """Poll the log for the ``http on host:port`` banner; returns the
        ``perf_counter`` at which it was seen."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("http on "):
                    seen = time.perf_counter()
                    host, _, port = line[len("http on "):].rpartition(":")
                    self.host, self.port = host, int(port)
                    return seen
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening; log: {self.log}"
                )
            time.sleep(0.001)
        raise TimeoutError(f"server did not listen within {BOOT_TIMEOUT_S} s")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log_handle.close()
        self.proc = None

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)


@dataclass
class Boot:
    """One timed boot: ``perf_counter`` at spawn, at the listening banner
    and at the first 200 answer to the probe."""

    server: Server
    spawned: float
    listening: float
    answered: float
    status: int
    body: bytes

    @property
    def setup_s(self) -> float:
        return self.answered - self.spawned

    @property
    def listen_s(self) -> float:
        return self.listening - self.spawned

    @property
    def first_answer_s(self) -> float:
        return self.answered - self.listening


def boot(registry: Path, log: Path, env: dict, probe: tuple[str, bytes],
         trace_ring: int | None = None) -> Boot:
    """Spawn a server and time it to its first answer to ``probe``."""
    server = Server(registry, log, env, trace_ring)
    spawned = server.spawn()
    try:
        listening = server.wait_listening()
        status, body = http_call(server.host, server.port, "POST", *probe)
        answered = time.perf_counter()
    except BaseException:
        server.stop()
        raise
    return Boot(server, spawned, listening, answered, status, body)


@dataclass
class Sample:
    item: int  # index into the workload's distinct requests
    slice: int  # slice of the window the request was sent in
    sent: float
    done: float
    status: int  # 0 = transport error
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclass
class Window:
    samples: list[Sample] = field(default_factory=list)
    #: (perf_counter, server CPU s, client CPU s) at the start of each
    #: slice, then once more when the last response has arrived.
    marks: list[tuple[float, float, float]] = field(default_factory=list)
    #: The server stopped accepting connections; the window ended early.
    lost: bool = False

    @property
    def elapsed_s(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]


def with_trace_id(request: bytes, trace_id: str) -> bytes:
    """``request`` with an ``X-Repro-Trace-Id`` header after its request
    line."""
    line_end = request.index(b"\r\n") + 2
    header = f"X-Repro-Trace-Id: {trace_id}\r\n".encode("latin-1")
    return request[:line_end] + header + request[line_end:]


def closed_loop(server: Server, requests: list[bytes], order: Iterator[int], *,
                per_slice: int, seconds: float | None = None,
                slices: int | None = None,
                trace_prefix: str | None = None) -> Window:
    """Send ``requests`` in the endless ``order`` (request indices) over one
    keep-alive connection, each after the previous response has fully
    arrived (closed loop).

    The window is cut into slices of ``per_slice`` requests, and runs for
    ``slices`` slices, or for the whole number of slices that lasts
    closest to ``seconds``.  With ``trace_prefix`` request ``n`` carries
    ``X-Repro-Trace-Id: <prefix>-<n>``.  A transport error is recorded as
    a sample with status 0 and the connection is dialled again; when that
    fails too, the server is gone and the window ends (``window.lost``).
    """
    if (seconds is None) == (slices is None):
        raise ValueError("give exactly one of seconds / slices")
    window = Window()
    sock = None

    def mark() -> None:
        window.marks.append((time.perf_counter(), server.cpu_s(), time.process_time()))

    try:
        for issued in itertools.count():
            current, offset = divmod(issued, per_slice)
            if offset == 0:
                mark()
                if slices is not None:
                    if current >= slices:
                        break
                elif current:
                    # Stop at the slice boundary nearest to ``seconds``.
                    elapsed = window.marks[-1][0] - window.marks[0][0]
                    if elapsed * (1 + 0.5 / current) >= seconds:
                        break
            item = next(order)
            payload = requests[item]
            if trace_prefix is not None:
                payload = with_trace_id(payload, f"{trace_prefix}-{issued}")
            if sock is None:
                try:
                    sock = _connect(server.host, server.port)
                except OSError:
                    window.lost = True
                    mark()
                    break
            sent = time.perf_counter()
            try:
                sock.sendall(payload)
                status, body = _read_response(sock)
            except OSError:
                status, body = 0, b""
                sock.close()
                sock = None
            window.samples.append(
                Sample(item, current, sent, time.perf_counter(), status, body)
            )
    finally:
        if sock is not None:
            sock.close()
    return window

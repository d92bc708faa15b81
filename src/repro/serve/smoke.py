"""End-to-end server smoke probe: boot ``repro serve``, query it, drain it.

The tier-1 CI job runs all three modes after the test suite::

    PYTHONPATH=src python -m repro.serve.smoke          # TCP, single model
    PYTHONPATH=src python -m repro.serve.smoke --http   # registry + HTTP
    PYTHONPATH=src python -m repro.serve.smoke --chaos  # fault injection

Each mode exercises the full deployment surface through real subprocesses —
CLI ``fit`` writes the artifact, CLI ``serve`` boots the server, real
clients drive the wire, the ``shutdown`` op triggers the drain — and fails
loudly unless the server exits cleanly (code 0, "drained" banner).

* Default mode: single-model TCP — :class:`~repro.serve.client.ServeClient`
  sends ping / explain / pipelined burst / stats, plus a traced explain
  whose caller-chosen trace id must be echoed and must surface in the
  ``traces`` op with the four online-phase child spans.
* ``--http`` mode: a registry directory (``demo/1.json`` + ``data.csv``)
  served with ``--registry ... --http-port 0 --trace-dir ...`` —
  ``http.client`` probes ``/healthz``, ``POST /v1/models/demo/explain``
  (single and batch; the single request carries an ``X-Repro-Trace-Id``
  that must come back in the response header, body and
  ``GET /v1/models/demo/traces``), ``GET /v1/models``, per-model stats,
  and ``/metrics`` (which must parse as Prometheus text exposition and
  count the explains just served).  The per-request Chrome trace files
  land in ``$REPRO_SMOKE_TRACE_DIR`` (default: the temp dir) and are
  shape-checked, so CI can upload them as a workflow artifact.
* ``--chaos`` mode: the fault-injection drill.  A *clean* 2-process-worker
  server first produces golden reports for a set of distinct queries;
  then the same server boots with a :class:`~repro.serve.faults.FaultPlan`
  armed (worker kills every 3rd shard run, 40 ms flush delays, every 7th
  TCP request line dropped pre-dispatch) and the same bursts are replayed
  through a reconnect-on-sever client.  The run fails unless every query
  is answered **byte-identically** to the clean run (zero wrong answers
  under recovery), every dropped connection reaches the client as EOF
  (never only as its read timeout), a 1 ms-deadline request resolves as a
  typed ``DeadlineExceededError``, the stats report ``worker_restarts`` /
  ``retries`` / ``timeouts`` actually happened, and the drain still exits
  cleanly.  A JSON-lines chaos log lands in ``$REPRO_SMOKE_CHAOS_LOG``
  (default: the temp dir) for CI to upload as an artifact.

Also reusable from the test suite (`tests/test_serve.py` calls
:func:`main` in-process).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

QUERY_SPEC = {
    "s1": {"Location": "A"},
    "s2": {"Location": "B"},
    "measure": "LungCancer",
    "agg": "AVG",
}

#: The whole-view twin of QUERY_SPEC (the chart the query came from).
VIEW_SPEC = {"by": "Location", "measure": "LungCancer", "agg": "AVG"}

BANNER = re.compile(r"serving on ([\w.\-]+):(\d+)")
HTTP_BANNER = re.compile(r"http on ([\w.\-]+):(\d+)")

#: The online-phase spans every traced explain must expose (ISSUE 8).
EXPLAIN_SPANS = {"translation", "homogeneity", "workspace", "search"}


def _span_names(span: dict) -> set:
    """Every span name in a serialized span tree."""
    names = {span["name"]}
    for child in span.get("children", []):
        names |= _span_names(child)
    return names


def _check_trace(entries: list, trace_id: str) -> None:
    """Assert the ring holds ``trace_id`` with the four explain spans."""
    match = [e for e in entries if e["trace_id"] == trace_id]
    assert match, f"trace {trace_id!r} not in ring: {entries!r}"
    (entry,) = match
    assert entry["ok"] and entry["root"]["name"] == "request", entry
    names = _span_names(entry["root"])
    missing = EXPLAIN_SPANS - names
    assert not missing, f"trace lacks spans {missing!r} (has {sorted(names)})"


def _check_chrome_traces(trace_dir: Path) -> int:
    """Validate every exported Chrome trace file; returns how many."""
    files = sorted(trace_dir.glob("*.trace.json"))
    assert files, f"no Chrome traces under {trace_dir}"
    for path in files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert events, f"{path} has no events"
        for event in events:
            assert {"ph", "name", "pid"} <= set(event), (path, event)
        assert any(e["ph"] == "X" and "dur" in e for e in events), path
    return len(files)


def _run_cli(*args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        check=True,
        env=os.environ,
        timeout=300,
    )


def _await_banners(
    server: subprocess.Popen, patterns: "list[re.Pattern]"
) -> list[tuple[str, int]]:
    """Read stderr lines until every pattern matched once; (host, port) each."""
    found: dict[int, tuple[str, int]] = {}
    seen: list[str] = []
    deadline = time.monotonic() + 120
    assert server.stderr is not None
    while time.monotonic() < deadline and len(found) < len(patterns):
        line = server.stderr.readline()
        if not line:
            break
        seen.append(line)
        for i, pattern in enumerate(patterns):
            if i in found:
                continue
            match = pattern.search(line)
            if match:
                found[i] = (match.group(1), int(match.group(2)))
    if len(found) < len(patterns):
        raise RuntimeError(f"server never announced its address(es): {seen!r}")
    return [found[i] for i in range(len(patterns))]


def _finish(server: subprocess.Popen) -> None:
    """Wait for a clean exit with a drain banner on stderr."""
    code = server.wait(timeout=120)
    assert server.stderr is not None
    tail = server.stderr.read() or ""
    if code != 0:
        raise RuntimeError(f"server exited {code}: {tail!r}")
    if "drained" not in tail:
        raise RuntimeError(f"no drain banner in shutdown output: {tail!r}")


def _smoke_tcp(tmp: str) -> None:
    from repro.data.io import write_csv
    from repro.datasets import generate_lungcancer
    from repro.serve.client import ServeClient

    csv_path = str(Path(tmp) / "data.csv")
    model_path = str(Path(tmp) / "model.json")
    write_csv(generate_lungcancer(n_rows=800, seed=0), csv_path)

    _run_cli("fit", csv_path, "--out", model_path, "--bins", "3")

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", csv_path,
            "--model", model_path, "--port", "0", "--allow-shutdown",
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=os.environ,
    )
    try:
        ((host, port),) = _await_banners(server, [BANNER])
        with ServeClient(host, port, timeout=60) as client:
            assert client.ping(), "ping failed"
            trace_id = "smoke-tcp-trace"
            response = client.request(
                {"op": "explain", "query": QUERY_SPEC, "trace_id": trace_id}
            )
            assert response["ok"], response
            assert response["trace_id"] == trace_id, response
            report = response["report"]
            assert "explanations" in report, f"bad report: {report!r}"
            burst = client.explain_many([QUERY_SPEC] * 8)
            assert burst == [report] * 8, "pipelined burst diverged"
            summary = client.explain_view(VIEW_SPEC)
            assert summary["view"]["dimensions"] == ["Location"], summary
            assert summary["pairs"], "view enumerated no sibling pairs"
            assert all(p["error"] is None for p in summary["pairs"]), summary
            _check_trace(client.traces(), trace_id)
            stats = client.stats()
            assert stats["completed"] >= 9, stats
            assert stats["deduped"] >= 1, "burst never coalesced"
            assert stats["views"] >= 1, "view summary not counted"
            assert client.shutdown(), "shutdown not acknowledged"
        _finish(server)
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()


#: Jitter source for the HTTP retry backoff (seeded: smoke runs replay).
_RETRY_RNG = random.Random(0)


def _retry_delay_s(attempt: int) -> float:
    """Jittered exponential backoff: 50 ms doubling, capped at 1 s."""
    return min(0.05 * 2 ** attempt, 1.0) * (1.0 + 0.5 * _RETRY_RNG.random())


def _http_request(
    host, port, method, path, payload=None, headers=None, retries=4
):
    """One HTTP request against the gateway; (status, body, response headers).

    Retries with jittered exponential backoff on connect failures /
    severed connections and on 429/503 rejections (honouring a
    ``Retry-After`` header when one is sent).  Safe here because every
    probed route is pure/idempotent — explains are pure per query.
    """
    import http.client

    for attempt in range(retries):
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            request_headers = dict(headers or {})
            if body is not None:
                request_headers.setdefault("Content-Type", "application/json")
            conn.request(method, path, body=body, headers=request_headers)
            response = conn.getresponse()
            raw = response.read()
            response_headers = dict(response.getheaders())
        except OSError:
            if attempt + 1 == retries:
                raise
            time.sleep(_retry_delay_s(attempt))
            continue
        finally:
            conn.close()
        if response.status in (429, 503) and attempt + 1 < retries:
            try:
                delay = float(response_headers.get("Retry-After", ""))
            except ValueError:
                delay = _retry_delay_s(attempt)
            time.sleep(min(delay, 2.0))
            continue
        if response_headers.get("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(raw), response_headers
        return response.status, raw.decode("utf-8"), response_headers
    raise RuntimeError(f"{method} {path} still rejected after {retries} tries")


def _http_json(host: str, port: int, method: str, path: str, payload=None):
    """One HTTP request against the gateway; (status, parsed-or-raw body)."""
    status, body, _headers = _http_request(host, port, method, path, payload)
    return status, body


def _smoke_http(tmp: str) -> None:
    from repro.data.io import write_csv
    from repro.datasets import generate_lungcancer
    from repro.serve.client import ServeClient
    from repro.serve.metrics import metric_value, parse_prometheus_text

    registry = Path(tmp) / "registry"
    model_dir = registry / "demo"
    model_dir.mkdir(parents=True)
    csv_path = str(model_dir / "data.csv")
    write_csv(generate_lungcancer(n_rows=800, seed=0), csv_path)

    _run_cli("fit", csv_path, "--out", str(model_dir / "1.json"), "--bins", "3")

    trace_dir = Path(
        os.environ.get("REPRO_SMOKE_TRACE_DIR") or (Path(tmp) / "traces")
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--registry", str(registry), "--port", "0", "--http-port", "0",
            "--allow-shutdown", "--trace-dir", str(trace_dir),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=os.environ,
    )
    try:
        (tcp_addr, (host, port)) = _await_banners(server, [BANNER, HTTP_BANNER])

        status, health = _http_json(host, port, "GET", "/healthz")
        assert status == 200 and health["ok"], (status, health)

        trace_id = "smoke-http-trace"
        status, answer, answer_headers = _http_request(
            host, port, "POST", "/v1/models/demo/explain",
            {"query": QUERY_SPEC},
            headers={"X-Repro-Trace-Id": trace_id},
        )
        assert status == 200 and answer["ok"], (status, answer)
        assert answer["trace_id"] == trace_id, answer
        assert answer_headers.get("X-Repro-Trace-Id") == trace_id, answer_headers
        assert answer["model"] == "demo" and answer["version"] == "1", answer
        assert "explanations" in answer["report"], answer

        status, batch = _http_json(
            host, port, "POST", "/v1/models/demo/explain",
            {"queries": [QUERY_SPEC] * 4},
        )
        assert status == 200 and len(batch["results"]) == 4, (status, batch)
        assert all(r["report"] == answer["report"] for r in batch["results"]), (
            "batch diverged from the single explain"
        )

        status, view_answer = _http_json(
            host, port, "POST", "/v1/models/demo/explain_view",
            {"view": VIEW_SPEC},
        )
        assert status == 200 and view_answer["ok"], (status, view_answer)
        view_pairs = view_answer["summary"]["pairs"]
        assert view_pairs, "view enumerated no sibling pairs"
        assert all(p["error"] is None for p in view_pairs), view_answer

        status, models = _http_json(host, port, "GET", "/v1/models")
        assert status == 200, (status, models)
        rows = {row["id"]: row for row in models["models"]}
        assert rows["demo"]["loaded"] and rows["demo"]["versions"] == ["1"], rows

        status, stats = _http_json(host, port, "GET", "/v1/models/demo/stats")
        assert status == 200 and stats["stats"]["completed"] >= 5, (status, stats)

        status, traced = _http_json(host, port, "GET", "/v1/models/demo/traces")
        assert status == 200 and traced["ok"], (status, traced)
        _check_trace(traced["traces"], trace_id)

        status, missing = _http_json(host, port, "GET", "/v1/models/ghost/stats")
        assert status == 404, (status, missing)
        assert missing["error"]["type"] == "RegistryError", missing

        status, text = _http_json(host, port, "GET", "/metrics")
        assert status == 200, (status, text)
        samples = parse_prometheus_text(text)  # raises on malformed output
        completed = metric_value(
            samples, "repro_serve_completed_total", model="demo"
        )
        assert completed >= 5, f"metrics lost the served explains: {completed}"
        views = metric_value(samples, "repro_serve_views_total", model="demo")
        assert views >= 1, f"metrics lost the view summary: {views}"

        # The TCP front-end shares the registry: route by model field, then
        # drain the whole stack over the wire.
        with ServeClient(tcp_addr[0], tcp_addr[1], timeout=60) as client:
            report = client.explain(QUERY_SPEC, model="demo")
            assert report == answer["report"], "TCP and HTTP reports diverged"
            assert client.shutdown(), "shutdown not acknowledged"
        _finish(server)
        exported = _check_chrome_traces(trace_dir)
        print(f"validated {exported} exported Chrome trace file(s)")
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()


#: Distinct sibling-subspace queries for the chaos bursts — distinct so a
#: burst fans out as real shards across the process workers (identical
#: queries would dedup into a single explain and never exercise the pool).
CHAOS_SPECS = [
    {"s1": {"Location": "A"}, "s2": {"Location": "B"},
     "measure": "LungCancer", "agg": "AVG"},
    {"s1": {"Stress": "High"}, "s2": {"Stress": "Low"},
     "measure": "LungCancer", "agg": "AVG"},
    {"s1": {"Smoking": "Yes"}, "s2": {"Smoking": "No"},
     "measure": "LungCancer", "agg": "AVG"},
    {"s1": {"Surgery": "Yes"}, "s2": {"Surgery": "No"},
     "measure": "LungCancer", "agg": "AVG"},
    {"s1": {"Survival": "Yes"}, "s2": {"Survival": "No"},
     "measure": "LungCancer", "agg": "AVG"},
    {"s1": {"Stress": "Mid"}, "s2": {"Stress": "Low"},
     "measure": "LungCancer", "agg": "AVG"},
]

#: Pipelined chaos bursts per run.
CHAOS_BURSTS = 10


class _ChaosLog:
    """JSON-lines event log of one chaos run (CI uploads it)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8")

    def event(self, kind: str, **fields) -> None:
        record = {"t": round(time.monotonic(), 3), "event": kind, **fields}
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def _resilient_pipeline(client, payloads, log, label, attempts=16):
    """Pipeline a burst, reconnecting and resending when chaos severs the
    connection.  Safe: the drop fault fires *before* dispatch (the request
    never executed) and explains are pure/idempotent either way.

    A sever the client found only by its read timeout fails the run: the
    server closed that connection, but something (a forked pool worker
    holding the socket) kept the close from reaching the client as EOF.
    """
    from repro.errors import ServeError

    for attempt in range(attempts):
        try:
            return client.pipeline(payloads)
        except ServeError as exc:
            timed_out = isinstance(exc.__cause__, TimeoutError)
            log.event(
                "connection_severed", label=label, attempt=attempt,
                error=str(exc), timed_out=timed_out,
            )
            if timed_out:
                raise RuntimeError(
                    f"{label}: a severed connection surfaced only as a "
                    f"client timeout, not as EOF: {exc}"
                ) from exc
            time.sleep(_retry_delay_s(attempt))
            client.reconnect()
    raise RuntimeError(
        f"{label}: server never recovered within {attempts} attempts"
    )


def _serve_command(csv_path: str, model_path: str) -> list:
    """The chaos-mode server: 2 process workers so worker kills are real."""
    return [
        sys.executable, "-m", "repro", "serve", csv_path,
        "--model", model_path, "--port", "0",
        "--workers", "2", "--allow-shutdown",
    ]


def _collect_reports(client, log, label) -> dict:
    """One pipelined burst of every chaos spec; {spec index: report}."""
    payloads = [
        {"op": "explain", "query": spec, "id": f"{label}-{i}"}
        for i, spec in enumerate(CHAOS_SPECS)
    ]
    responses = _resilient_pipeline(client, payloads, log, label)
    reports = {}
    for i, response in enumerate(responses):
        assert response.get("ok"), (label, i, response)
        reports[i] = response["report"]
    return reports


def _smoke_chaos(tmp: str) -> None:
    from repro.data.io import write_csv
    from repro.datasets import generate_lungcancer
    from repro.serve.client import ServeClient
    from repro.serve.faults import FAULTS_ENV, FaultPlan

    log = _ChaosLog(
        Path(os.environ.get("REPRO_SMOKE_CHAOS_LOG")
             or (Path(tmp) / "chaos-log.jsonl"))
    )
    csv_path = str(Path(tmp) / "data.csv")
    model_path = str(Path(tmp) / "model.json")
    write_csv(generate_lungcancer(n_rows=800, seed=0), csv_path)
    _run_cli("fit", csv_path, "--out", model_path, "--bins", "3")

    clean_env = {k: v for k, v in os.environ.items() if k != FAULTS_ENV}

    # ---- Golden run: the same server shape, zero faults. ----------------
    log.event("clean_run_start")
    server = subprocess.Popen(
        _serve_command(csv_path, model_path),
        stderr=subprocess.PIPE, text=True, env=clean_env,
    )
    try:
        ((host, port),) = _await_banners(server, [BANNER])
        with ServeClient(host, port, timeout=60) as client:
            golden = _collect_reports(client, log, "golden")
            assert client.shutdown(), "clean shutdown not acknowledged"
        _finish(server)
    finally:
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()
    log.event("clean_run_done", queries=len(golden))

    # ---- Chaos run: kills + delays + drops armed via the env. -----------
    plan = FaultPlan(
        seed=7,
        kill_worker_every=3,
        flush_delay_ms=40.0,
        drop_connection_every=7,
    )
    log.event("chaos_run_start", plan=json.loads(plan.to_env()))
    server = subprocess.Popen(
        _serve_command(csv_path, model_path),
        stderr=subprocess.PIPE, text=True,
        env={**clean_env, FAULTS_ENV: plan.to_env()},
    )
    try:
        ((host, port),) = _await_banners(server, [BANNER])
        client = ServeClient(host, port, timeout=60)
        try:
            wrong = 0
            for burst in range(CHAOS_BURSTS):
                reports = _collect_reports(client, log, f"burst{burst}")
                mismatched = [
                    i for i, report in reports.items()
                    if json.dumps(report, sort_keys=True)
                    != json.dumps(golden[i], sort_keys=True)
                ]
                wrong += len(mismatched)
                log.event(
                    "burst_done", burst=burst, answered=len(reports),
                    mismatched=mismatched,
                )
            assert wrong == 0, f"{wrong} answer(s) diverged from the clean run"

            # Deadline drill: a 1 ms budget can never survive the armed
            # 40 ms flush delay — the typed 504-equivalent must come back.
            def _deadline_probe():
                responses = _resilient_pipeline(
                    client,
                    [{"op": "explain", "query": CHAOS_SPECS[0],
                      "timeout_ms": 1, "id": "deadline-probe"}],
                    log, "deadline",
                )
                return responses[0]
            expired = _deadline_probe()
            assert not expired.get("ok"), expired
            assert expired["error"]["type"] == "DeadlineExceededError", expired
            log.event("deadline_probe_ok")

            stats = None
            for attempt in range(16):
                try:
                    stats = client.stats()
                    break
                except Exception as exc:
                    log.event("stats_retry", attempt=attempt, error=str(exc))
                    time.sleep(_retry_delay_s(attempt))
                    client.reconnect()
            assert stats is not None, "stats never answered under chaos"
            log.event(
                "chaos_stats",
                worker_restarts=stats["worker_restarts"],
                retries=stats["retries"],
                timeouts=stats["timeouts"],
                shed_expired=stats["shed_expired"],
                completed=stats["completed"],
            )
            assert stats["worker_restarts"] >= 1, (
                f"no pool self-healing observed: {stats}"
            )
            assert stats["retries"] >= 1, f"no shard re-runs observed: {stats}"
            assert stats["timeouts"] >= 1, f"deadline never enforced: {stats}"
            assert stats["completed"] >= CHAOS_BURSTS * len(CHAOS_SPECS), stats

            for attempt in range(16):
                try:
                    assert client.shutdown(), "shutdown not acknowledged"
                    break
                except Exception as exc:
                    log.event("shutdown_retry", attempt=attempt, error=str(exc))
                    time.sleep(_retry_delay_s(attempt))
                    client.reconnect()
        finally:
            client.close()
        _finish(server)
        log.event("chaos_run_done")
    finally:
        log.close()
        if server.poll() is None:  # pragma: no cover - failure path
            server.kill()
            server.wait()


def main(http: bool = False, chaos: bool = False) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        if chaos:
            _smoke_chaos(tmp)
            print(
                "serve smoke ok (chaos): worker kills healed, deadlines "
                "enforced, dropped connections survived, zero wrong answers, "
                "clean drain"
            )
        elif http:
            _smoke_http(tmp)
            print(
                "serve smoke ok (http): boot, healthz, traced explain, batch, "
                "view summary, models, stats, traces, metrics, chrome export, "
                "tcp routing, clean drain"
            )
        else:
            _smoke_tcp(tmp)
            print(
                "serve smoke ok: boot, ping, traced explain, burst, view "
                "summary, traces, stats, clean drain"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(
        main(http="--http" in sys.argv[1:], chaos="--chaos" in sys.argv[1:])
    )

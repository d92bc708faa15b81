"""Tracing through the serving stack: service, TCP server, HTTP gateway.

Pins the end-to-end observability contract of ISSUE 8:

* a traced request's ring entry holds the queue/flush spans plus the four
  online-phase spans (translation, homogeneity, workspace, search);
* dedup ride-alongs are tagged with the primary's trace id instead of
  duplicating the explain spans;
* slow requests bump ``slow_queries`` and emit one structured warning
  with the stage breakdown; ``--trace-dir`` exports Chrome trace files;
* both front-ends echo the trace id on every response — success, typed
  error, per-item batch envelope, and admission rejection alike;
* a poison query through the service counts each query exactly once in
  ``SessionStats`` (no batch-then-retry double counting).
"""

import asyncio
import json
import logging
import threading

import pytest

from repro import obs
from repro.core import ExplainSession, fit_model
from repro.core.reporting import report_to_dict
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_lungcancer
from repro.errors import ReproError
from repro.serve import (
    ExplanationServer,
    ExplanationService,
    HttpGateway,
    ModelRegistry,
    ServeClient,
)

SPEC = {
    "s1": {"Location": "A"},
    "s2": {"Location": "B"},
    "measure": "LungCancer",
    "agg": "AVG",
}

EXPLAIN_SPANS = {"translation", "homogeneity", "workspace", "search"}


@pytest.fixture(scope="module")
def table():
    return generate_lungcancer(n_rows=800, seed=0)


@pytest.fixture(scope="module")
def model(table):
    return fit_model(table, measure_bins=3)


@pytest.fixture(scope="module")
def query():
    return WhyQuery.create(
        Subspace.of(Location="A"),
        Subspace.of(Location="B"),
        "LungCancer",
        Aggregate.AVG,
    )


def run(coro):
    return asyncio.run(coro)


def _span_names(span: dict) -> set:
    names = {span["name"]}
    for child in span.get("children", []):
        names |= _span_names(child)
    return names


class TestServiceTracing:
    def test_traced_request_lands_in_ring_with_phase_spans(
        self, model, table, query
    ):
        async def scenario():
            async with ExplanationService(model, table) as service:
                trace = obs.Trace(name="request", trace_id="svc-1")
                report = await service.explain(query, trace=trace)
                return service, report

        service, report = run(scenario())
        (entry,) = service.traces_snapshot()
        assert entry["trace_id"] == "svc-1"
        assert entry["ok"] is True and entry["slow"] is False
        assert entry["latency_ms"] >= 0
        assert entry["query"]
        names = _span_names(entry["root"])
        assert {"queue", "flush", "explain"} <= names
        assert EXPLAIN_SPANS <= names
        assert report.explanations is not None

    def test_untraced_requests_record_nothing(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table) as service:
                await service.explain(query)
                return service

        service = run(scenario())
        assert service.traces_snapshot() == []

    def test_tracing_is_invisible_in_results(self, model, table, query):
        direct = ExplainSession(model, table).explain(query)

        async def scenario():
            async with ExplanationService(model, table) as service:
                return await service.explain(
                    query, trace=obs.Trace(name="request")
                )

        assert report_to_dict(run(scenario())) == report_to_dict(direct)

    def test_dedup_riders_point_at_the_primary(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table, max_batch=8) as service:
                traces = [
                    obs.Trace(name="request", trace_id=f"dup-{i}")
                    for i in range(3)
                ]
                await asyncio.gather(
                    *(service.explain(query, trace=t) for t in traces)
                )
                return service

        service = run(scenario())
        entries = {e["trace_id"]: e for e in service.traces_snapshot()}
        assert len(entries) == 3
        carried = [
            tid for tid, e in entries.items()
            if EXPLAIN_SPANS <= _span_names(e["root"])
        ]
        assert len(carried) == 1  # exactly one explain ran
        (primary_id,) = carried
        for tid, entry in entries.items():
            if tid == primary_id:
                continue
            flush_spans = [
                s for s in entry["root"]["children"] if s["name"] == "flush"
            ]
            assert flush_spans, entry
            tags = flush_spans[0].get("tags", {})
            assert tags.get("deduped") is True
            assert tags.get("primary_trace") == primary_id

    def test_ring_capacity_is_honored(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table, trace_ring=2) as service:
                for i in range(4):
                    await service.explain(
                        query, trace=obs.Trace(trace_id=f"ring-{i}")
                    )
                return service

        service = run(scenario())
        assert [e["trace_id"] for e in service.traces_snapshot()] == [
            "ring-3", "ring-2"
        ]

    def test_slow_query_counter_and_structured_log(self, model, table, query):
        # Capture with a handler on the logger itself — caplog relies on
        # propagation, which configure_logging (run by in-process CLI
        # tests elsewhere in the suite) turns off for the "repro" root.
        captured: list[logging.LogRecord] = []

        class _Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        logger = logging.getLogger("repro.serve")
        handler = _Capture(level=logging.WARNING)
        logger.addHandler(handler)
        old_level = logger.level
        logger.setLevel(logging.WARNING)

        async def scenario():
            async with ExplanationService(
                model, table, slow_query_ms=0.0
            ) as service:
                await service.explain(query, trace=obs.Trace(trace_id="slow-1"))
                return service

        try:
            service = run(scenario())
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        assert service.stats.slow_queries == 1
        assert service.stats.snapshot()["slow_queries"] == 1
        (entry,) = service.traces_snapshot()
        assert entry["slow"] is True
        records = [
            r for r in captured
            if getattr(r, "event", None) == "slow_query"
        ]
        assert records, captured
        record = records[0]
        assert record.trace_id == "slow-1"
        assert record.latency_ms >= 0
        assert "explain" in record.stages_ms

    def test_untraced_requests_never_count_slow(self, model, table, query):
        async def scenario():
            async with ExplanationService(
                model, table, slow_query_ms=0.0
            ) as service:
                await service.explain(query)
                return service

        assert run(scenario()).stats.slow_queries == 0

    def test_trace_dir_exports_chrome_files(self, model, table, query, tmp_path):
        out = tmp_path / "traces"

        async def scenario():
            async with ExplanationService(
                model, table, trace_dir=out
            ) as service:
                await service.explain(query, trace=obs.Trace(trace_id="file-1"))

        run(scenario())
        payload = json.loads((out / "file-1.trace.json").read_text())
        assert payload["otherData"]["trace_id"] == "file-1"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_invalid_trace_knobs_are_typed(
        self, model, table, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.data import write_csv
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            ExplanationService(model, table, slow_query_ms=-1)
        with pytest.raises(ServeError, match="trace_ring"):
            ExplanationService(model, table, trace_ring=-1)
        with pytest.raises(ServeError, match="trace_ring"):
            ModelRegistry(tmp_path, service_kwargs={"trace_ring": -1})

        def boot(*args, **kwargs):
            raise AssertionError("serve booted with a negative trace ring")

        monkeypatch.setattr("repro.cli.run_stack", boot)
        write_csv(table, tmp_path / "data.csv")
        model.save(tmp_path / "model.json")
        for shape in (
            [str(tmp_path / "data.csv"), "--model", str(tmp_path / "model.json")],
            ["--registry", str(tmp_path)],
        ):
            assert main(["serve", *shape, "--trace-ring", "-1", "--port", "0"]) == 2
            errors = capsys.readouterr().err.splitlines()
            assert errors == ["error: trace_ring must be ≥ 0, got -1"]

    def test_poison_query_counts_each_query_once(self, model, table, query):
        # Satellite 3: the service's on_error="return" batch attempts each
        # query exactly once — a poison batch-mate must not re-run the good
        # query (which would double-count SessionStats.queries).
        bad = WhyQuery(query.s1, query.s2, "NoSuchMeasure", Aggregate.AVG)

        async def scenario():
            async with ExplanationService(model, table, max_batch=8) as service:
                results = await asyncio.gather(
                    service.explain(query),
                    service.explain(bad),
                    return_exceptions=True,
                )
                return service, results

        service, (good, err) = run(scenario())
        assert not isinstance(good, BaseException)
        assert isinstance(err, ReproError)
        assert service.stats.completed == 1
        assert service.stats.failed == 1
        assert service.session.cache_info()["queries"] == 2


@pytest.fixture()
def running_server(model, table):
    """A live TCP server + a helper running client work in a thread."""

    async def scenario(client_work, **service_kwargs):
        service = ExplanationService(
            model, table, max_batch=16, **service_kwargs
        )
        async with ModelRegistry.for_service(service) as registry:
            server = ExplanationServer(registry, port=0, allow_shutdown=True)
            await server.start()
            result: dict = {}

            def work():
                try:
                    result["value"] = client_work(server.host, server.port)
                except BaseException as exc:
                    result["error"] = exc

            thread = threading.Thread(target=work)
            thread.start()
            await server.serve_until_shutdown()
            thread.join(timeout=30)
        if "error" in result:
            raise result["error"]
        return result.get("value"), service

    return scenario


class TestTcpTracing:
    def test_trace_id_echoed_and_generated(self, running_server):
        def client_work(host, port):
            with ServeClient(host, port) as client:
                chosen = client.request(
                    {"op": "explain", "query": SPEC, "trace_id": "tcp-1"}
                )
                minted = client.request({"op": "explain", "query": SPEC})
                pong = client.request({"op": "ping"})
                traces = client.traces()
                client.shutdown()
                return chosen, minted, pong, traces

        (chosen, minted, pong, traces), _ = run(running_server(client_work))
        assert chosen["ok"] and chosen["trace_id"] == "tcp-1"
        assert minted["ok"] and obs.valid_trace_id(minted["trace_id"])
        assert obs.valid_trace_id(pong["trace_id"])  # every op echoes one
        by_id = {e["trace_id"]: e for e in traces}
        assert "tcp-1" in by_id and minted["trace_id"] in by_id
        entry = by_id["tcp-1"]
        assert EXPLAIN_SPANS <= _span_names(entry["root"])
        tags = entry["root"]["tags"]
        assert tags["op"] == "explain" and tags["proto"] == "tcp"

    def test_error_envelopes_carry_trace_id(self, running_server):
        def client_work(host, port):
            with ServeClient(host, port) as client:
                bad_query = client.request(
                    {"op": "explain", "trace_id": "tcp-err"}
                )
                bad_trace = client.request(
                    {"op": "explain", "query": SPEC, "trace_id": "not ok!"}
                )
                unknown_op = client.request({"op": "frobnicate"})
                client.shutdown()
                return bad_query, bad_trace, unknown_op

        (bad_query, bad_trace, unknown_op), _ = run(running_server(client_work))
        assert not bad_query["ok"] and bad_query["trace_id"] == "tcp-err"
        assert not bad_trace["ok"]
        assert bad_trace["error"]["type"] == "ProtocolError"
        assert "trace_id" in bad_trace["error"]["message"]
        assert obs.valid_trace_id(bad_trace["trace_id"])  # a fresh one
        assert obs.valid_trace_id(unknown_op["trace_id"])

    def test_stats_surface_carries_trace_knobs(self, running_server):
        def client_work(host, port):
            with ServeClient(host, port) as client:
                stats = client.stats()
                client.shutdown()
                return stats

        (stats,), = [run(running_server(client_work, slow_query_ms=250.0))[:1]]
        assert stats["slow_queries"] == 0
        assert stats["config"]["slow_query_ms"] == 250.0
        assert stats["config"]["trace_ring"] == 64


def _http_request(host, port, method, path, payload=None, headers=None):
    """Blocking HTTP round trip; returns (status, headers, parsed body)."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        request_headers = dict(headers or {})
        if body is not None:
            request_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=request_headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = (
            json.loads(raw)
            if response.getheader("Content-Type", "").startswith(
                "application/json"
            )
            else raw.decode("utf-8")
        )
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture()
def http_stack(model, table):
    """Run client_work(host, port) in a thread against a live gateway
    over a pinned single-model ('demo') registry."""

    def runner(client_work):
        async def scenario():
            service = ExplanationService(model, table)
            registry = ModelRegistry.for_service(service, model_id="demo")
            async with registry:
                async with HttpGateway(registry, port=0) as gateway:
                    result: dict = {}

                    def work():
                        try:
                            result["value"] = client_work(
                                gateway.host, gateway.port
                            )
                        except BaseException as exc:
                            result["error"] = exc

                    thread = threading.Thread(target=work)
                    thread.start()
                    while thread.is_alive():
                        await asyncio.sleep(0.02)
                    thread.join(timeout=30)
                    if "error" in result:
                        raise result["error"]
                    return result.get("value")

        return run(scenario())

    return runner


class TestHttpTracing:
    def test_header_echoed_on_every_route_and_in_traces(self, http_stack):
        def client_work(host, port):
            status, headers, answer = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC},
                headers={"X-Repro-Trace-Id": "http-1"},
            )
            assert status == 200, answer
            _, health_headers, _ = _http_request(
                host, port, "GET", "/healthz",
                headers={"X-Repro-Trace-Id": "http-2"},
            )
            status, _, traced = _http_request(
                host, port, "GET", "/v1/models/demo/traces"
            )
            assert status == 200, traced
            return headers, answer, health_headers, traced

        headers, answer, health_headers, traced = http_stack(client_work)
        assert headers["X-Repro-Trace-Id"] == "http-1"
        assert answer["trace_id"] == "http-1"
        assert health_headers["X-Repro-Trace-Id"] == "http-2"
        (entry,) = [
            e for e in traced["traces"] if e["trace_id"] == "http-1"
        ]
        assert EXPLAIN_SPANS <= _span_names(entry["root"])
        tags = entry["root"]["tags"]
        assert tags["proto"] == "http" and tags["model"] == "demo"

    def test_body_trace_id_used_header_wins(self, http_stack):
        def client_work(host, port):
            _, h1, body1 = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC, "trace_id": "from-body"},
            )
            _, h2, body2 = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC, "trace_id": "from-body-2"},
                headers={"X-Repro-Trace-Id": "from-header"},
            )
            _, h3, body3 = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC},
            )
            return (h1, body1), (h2, body2), (h3, body3)

        (h1, b1), (h2, b2), (h3, b3) = http_stack(client_work)
        assert b1["trace_id"] == "from-body"
        assert h1["X-Repro-Trace-Id"] == "from-body"
        assert b2["trace_id"] == "from-header"
        assert h2["X-Repro-Trace-Id"] == "from-header"
        assert obs.valid_trace_id(b3["trace_id"])  # minted server-side
        assert h3["X-Repro-Trace-Id"] == b3["trace_id"]

    def test_batch_items_carry_id_and_derived_trace_id(
        self, http_stack, monkeypatch
    ):
        # Satellite 2: per-item envelopes echo the request 'id' AND a
        # per-item trace id derived from the request's — for successes
        # and failures alike.  Malformed specs are rejected whole-request
        # at parse time, so the failing item must die at explain time:
        # poison one (valid) query inside the session.
        from repro.core.session import ExplainSession
        from repro.errors import QueryError

        bad_spec = {
            "s1": {"Location": "B"}, "s2": {"Location": "A"},
            "measure": "LungCancer", "agg": "AVG",
        }
        marker = Subspace.of(Location="B")
        original = ExplainSession._explain_locked

        def poisoned(self, query, *args, **kwargs):
            if query.s1 == marker:
                raise QueryError("injected poison")
            return original(self, query, *args, **kwargs)

        monkeypatch.setattr(ExplainSession, "_explain_locked", poisoned)

        def client_work(host, port):
            status, headers, body = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {
                    "queries": [
                        dict(SPEC, id="first"),
                        dict(bad_spec, id="second"),
                        SPEC,
                    ],
                    "trace_id": "batch-1",
                },
            )
            return status, headers, body

        status, headers, body = http_stack(client_work)
        assert status == 200 and body["ok"], body
        assert body["trace_id"] == "batch-1"
        assert headers["X-Repro-Trace-Id"] == "batch-1"
        first, second, third = body["results"]
        assert first["ok"] and first["id"] == "first"
        assert first["trace_id"] == "batch-1.0"
        assert not second["ok"] and second["id"] == "second"
        assert second["trace_id"] == "batch-1.1"
        assert second["error"]["type"] == "QueryError"
        assert third["ok"] and "id" not in third
        assert third["trace_id"] == "batch-1.2"

    def test_errors_echo_trace_id(self, http_stack):
        def client_work(host, port):
            status404, h404, b404 = _http_request(
                host, port, "GET", "/v1/models/ghost/stats",
                headers={"X-Repro-Trace-Id": "err-404"},
            )
            status400, h400, b400 = _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC},
                headers={"X-Repro-Trace-Id": "bad id!"},
            )
            return (status404, h404, b404), (status400, h400, b400)

        (s404, h404, b404), (s400, h400, b400) = http_stack(client_work)
        assert s404 == 404 and b404["trace_id"] == "err-404"
        assert h404["X-Repro-Trace-Id"] == "err-404"
        assert s400 == 400 and b400["error"]["type"] == "ProtocolError"
        # The bad header is rejected, so a fresh id is minted and echoed.
        assert obs.valid_trace_id(b400["trace_id"])
        assert h400["X-Repro-Trace-Id"] == b400["trace_id"]

    def test_invalid_body_trace_id_rejected(self, http_stack):
        def client_work(host, port):
            return _http_request(
                host, port, "POST", "/v1/models/demo/explain",
                {"query": SPEC, "trace_id": "bad body id!"},
            )

        status, headers, body = http_stack(client_work)
        assert status == 400 and body["error"]["type"] == "ProtocolError"
        assert obs.valid_trace_id(body["trace_id"])
        assert headers["X-Repro-Trace-Id"] == body["trace_id"]

"""The explanation service layer: micro-batching, wire protocol, drain.

Pins the serving contract of :mod:`repro.serve`:

* results through the service/server are byte-identical to a direct
  ``explain_batch`` on a session (dedup and coalescing are invisible);
* admission control rejects with typed errors, never drops silently;
* graceful drain serves everything admitted before shutdown;
* every wire-level malformation gets a typed error response on the same
  connection.
"""

import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import ExplainSession, fit_model
from repro.core.reporting import report_to_dict
from repro.data import Aggregate, Subspace, WhyQuery, write_csv
from repro.datasets import generate_lungcancer
from repro.errors import (
    ProtocolError,
    ReproError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve import (
    ExplanationServer,
    ExplanationService,
    ModelRegistry,
    ServeClient,
    ServeResponseError,
    decode_request,
    encode_line,
    run_stack,
)
from repro.serve.smoke import BANNER

SPEC = {
    "s1": {"Location": "A"},
    "s2": {"Location": "B"},
    "measure": "LungCancer",
    "agg": "AVG",
}


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


@pytest.fixture(scope="module")
def query_variants(query):
    return [
        query,
        WhyQuery.create(query.s1, query.s2, query.measure, Aggregate.SUM),
        WhyQuery.create(query.s1, query.s2, query.measure, Aggregate.COUNT),
    ]


def run(coro):
    return asyncio.run(coro)


class TestServerStats:
    def test_nearest_rank_percentiles(self):
        from repro.serve.service import ServerStats

        stats = ServerStats()
        for ms in (1.0, 2.0):
            stats.observe_latency(ms / 1e3)
        # Nearest rank: p50 of [1, 2] is the 1st value, not the 2nd.
        assert stats.latency_ms()["p50"] == 1.0
        for ms in (3.0, 4.0):
            stats.observe_latency(ms / 1e3)
        latency = stats.latency_ms()
        assert latency["p50"] == 2.0  # ceil(0.5 * 4) = rank 2
        assert latency["p99"] == 4.0  # ceil(0.99 * 4) = rank 4
        assert latency["count"] == 4


class TestProtocol:
    def test_roundtrip(self):
        payload = {"op": "ping", "id": 3}
        assert decode_request(encode_line(payload).rstrip(b"\n")) == payload

    def test_rejects_non_json(self):
        # Not JSON at all, a non-finite literal (not JSON either), and
        # nesting past the decoder's recursion limit.
        for line in (b"{nope", b'{"op": "ping", "x": NaN}', b"[" * 100_000):
            with pytest.raises(ProtocolError, match="JSON"):
                decode_request(line)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_request(b"[1, 2]")

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(b'{"op": "frobnicate"}')

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request(b'{"id": 1}')


class TestServiceBatching:
    def test_explain_matches_direct_session(self, model, table, query):
        direct = ExplainSession(model, table).explain(query)

        async def scenario():
            async with ExplanationService(model, table) as service:
                return await service.explain(query)

        assert report_to_dict(run(scenario())) == report_to_dict(direct)

    def test_concurrent_burst_byte_identical_and_ordered(
        self, model, table, query_variants
    ):
        queries = [query_variants[i % len(query_variants)] for i in range(24)]
        direct = ExplainSession(model, table).explain_batch(queries)

        async def scenario():
            async with ExplanationService(model, table, max_batch=8) as service:
                return await asyncio.gather(
                    *[service.explain(q) for q in queries]
                )

        reports = run(scenario())
        assert [report_to_dict(r) for r in reports] == [
            report_to_dict(r) for r in direct
        ]

    def test_duplicates_coalesce_into_one_explain(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table, max_batch=64) as service:
                await asyncio.gather(*[service.explain(query) for _ in range(16)])
                return service

        service = run(scenario())
        assert service.stats.completed == 16
        assert service.stats.deduped >= 8  # most of the burst rode one explain
        # Dedup means the underlying session saw far fewer queries than the
        # service answered.
        assert service.session.stats.queries < 16

    def test_requests_queued_during_a_flush_form_the_next_batch(
        self, model, table, query_variants
    ):
        entered, release = threading.Event(), threading.Event()
        seen: list[int] = []

        async def scenario():
            service = ExplanationService(model, table)
            real_batch = service.session.explain_batch

            def gated_batch(queries, **kwargs):
                seen.append(len(queries))
                entered.set()
                release.wait(timeout=30)
                return real_batch(queries, **kwargs)

            service.session.explain_batch = gated_batch
            async with service:
                first = service.submit(query_variants[0])
                # Hold the flusher inside its first flush, then queue more.
                assert await asyncio.to_thread(entered.wait, 30)
                backlog = [
                    service.submit(query_variants[i % 3]) for i in range(17)
                ]
                release.set()
                await asyncio.gather(first, *backlog)
            return service

        service = run(scenario())
        assert dict(service.stats.batch_sizes) == {1: 1, 17: 1}
        assert service.stats.deduped == 14  # 17 requests over 3 queries
        assert seen == [1, 3]

    def test_fallback_answers_in_process_without_a_new_pool(
        self, model, table, query_variants, monkeypatch
    ):
        # After the service's executor fails, the retry runs on the
        # in-process session: it must not fork a pool of REPRO_WORKERS.
        from repro.parallel import executor as executor_mod

        direct = ExplainSession(model, table).explain_batch(query_variants)
        built: list[int] = []

        def recording_make_executor(workers):
            built.append(workers)
            return executor_mod.SerialExecutor()

        async def scenario():
            service = ExplanationService(model, table, workers=1)
            real_batch = service.session.explain_batch

            def executor_fails(queries, *, executor=None, **kwargs):
                if executor is not None:
                    raise RuntimeError("executor lost")
                return real_batch(queries, **kwargs)

            service.session.explain_batch = executor_fails
            monkeypatch.setenv("REPRO_WORKERS", "2")
            monkeypatch.setattr(
                executor_mod, "make_executor", recording_make_executor
            )
            async with service:
                reports = await asyncio.gather(
                    *[service.explain(q) for q in query_variants]
                )
            return service, reports

        service, reports = run(scenario())
        assert [report_to_dict(r) for r in reports] == [
            report_to_dict(r) for r in direct
        ]
        assert service.retries == len(query_variants)
        assert set(built) == {1}

    def test_max_batch_caps_flush_size(self, model, table, query_variants):
        queries = [query_variants[i % len(query_variants)] for i in range(20)]

        async def scenario():
            async with ExplanationService(model, table, max_batch=4) as service:
                await asyncio.gather(*[service.explain(q) for q in queries])
                return service

        service = run(scenario())
        assert service.stats.batches >= 5
        assert max(service.stats.batch_sizes) <= 4

    def test_admission_control_rejects_when_full(self, model, table, query):
        release = threading.Event()
        real_batch = None

        async def scenario():
            nonlocal real_batch
            service = ExplanationService(
                model, table, max_batch=1, queue_limit=2
            )
            real_batch = service.session.explain_batch

            def blocking_batch(queries, **kwargs):
                release.wait(timeout=30)
                return real_batch(queries, **kwargs)

            service.session.explain_batch = blocking_batch
            async with service:
                first = service.submit(query)  # flusher grabs it, then blocks
                await asyncio.sleep(0.1)
                backlog = [service.submit(query), service.submit(query)]
                with pytest.raises(ServiceOverloadedError, match="queue full"):
                    service.submit(query)
                assert service.stats.rejected == 1
                release.set()
                reports = await asyncio.gather(first, *backlog)
            return service, reports

        service, reports = run(scenario())
        assert len(reports) == 3
        assert service.stats.completed == 3

    def test_unstarted_and_stopped_reject_typed(self, model, table, query):
        service = ExplanationService(model, table)
        with pytest.raises(ServiceClosedError, match="not started"):
            service.submit(query)

        async def scenario():
            svc = ExplanationService(model, table)
            await svc.start()
            await svc.stop()
            with pytest.raises(ServiceClosedError):
                svc.submit(query)

        run(scenario())

    def test_stop_drains_admitted_backlog(self, model, table, query_variants):
        async def scenario(backlog):
            service = ExplanationService(model, table, max_batch=4)
            await service.start()
            futures = [
                service.submit(query_variants[i % len(query_variants)])
                for i in range(backlog)
            ]
            await service.stop()  # drain, not drop: every future resolves
            assert all(f.done() for f in futures)
            return service, [f.result() for f in futures]

        # 13 requests put the stop sentinel partway through the last batch.
        for backlog in (12, 13):
            service, reports = run(scenario(backlog))
            assert len(reports) == backlog
            assert service.stats.completed == backlog

    def test_stop_is_idempotent(self, model, table):
        async def scenario():
            service = ExplanationService(model, table)
            await service.start()
            await service.stop()
            await service.stop()

        run(scenario())

    def test_poison_query_fails_alone(self, model, table, query):
        bad = WhyQuery(query.s1, query.s2, "NoSuchMeasure", Aggregate.AVG)

        async def scenario():
            async with ExplanationService(model, table, max_batch=8) as service:
                results = await asyncio.gather(
                    service.explain(query),
                    service.explain(bad),
                    service.explain(query),
                    return_exceptions=True,
                )
            return service, results

        service, (good1, err, good2) = run(scenario())
        assert isinstance(err, ReproError)
        assert report_to_dict(good1) == report_to_dict(good2)
        assert service.stats.failed == 1
        assert service.stats.completed == 2

    def test_worker_fanout_is_unobservable(self, model, table, query_variants):
        # Session affinity: with workers=2 each flush shards across
        # per-worker sessions, but results stay byte-identical to serial.
        queries = [query_variants[i % len(query_variants)] for i in range(12)]
        direct = ExplainSession(model, table).explain_batch(queries)

        async def scenario():
            async with ExplanationService(
                model, table, max_batch=16, workers=2,
            ) as service:
                return await asyncio.gather(
                    *[service.explain(q) for q in queries]
                )

        reports = run(scenario())
        assert [report_to_dict(r) for r in reports] == [
            report_to_dict(r) for r in direct
        ]

    def test_stats_snapshot_surface(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table) as service:
                await service.explain(query)
                return service.stats_snapshot()

        snap = run(scenario())
        assert {
            "submitted", "completed", "failed", "rejected", "deduped",
            "batches", "batch_size_hist", "latency_ms", "queue_depth",
            "cache", "config",
        } <= set(snap)
        assert snap["latency_ms"]["count"] == 1
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"] > 0
        assert "workspace_hits" in snap["cache"]
        assert snap["config"]["max_batch"] >= 1

    def test_invalid_knobs_are_typed_errors(self, model, table):
        out_of_range = (
            {"max_batch": 0}, {"queue_limit": 0},
            {"workers": 0}, {"workers": -4},
        )
        for kwargs in out_of_range:
            with pytest.raises(ServeError):
                ExplanationService(model, table, **kwargs)
        # The registry builds its services lazily, so it also refuses a
        # knob the constructor does not take (here a deleted one) at boot.
        for kwargs in (*out_of_range, {"max_wait_ms": -1}):
            with pytest.raises(ServeError):
                ModelRegistry(service_kwargs=kwargs)

    def test_snapshot_carries_uptime_and_fingerprint(self, model, table, query):
        async def scenario():
            async with ExplanationService(model, table) as service:
                await service.explain(query)
                return service.stats_snapshot()

        snap = run(scenario())
        assert snap["uptime_seconds"] > 0
        assert snap["fingerprint"] == model.fingerprint()


class TestClientConnectErrors:
    def test_connect_refused_is_typed_and_names_the_address(self):
        import socket

        # Grab an ephemeral port, then close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeError, match=f"127.0.0.1:{port}"):
            ServeClient("127.0.0.1", port, timeout=5)


@pytest.fixture()
def running_server(model, table):
    """A live TCP server + a helper that runs client work in a thread."""

    async def scenario(client_work):
        service = ExplanationService(model, table, max_batch=16)
        async with ModelRegistry.for_service(service) as registry:
            server = ExplanationServer(registry, port=0, allow_shutdown=True)
            await server.start()
            result: dict = {}

            def work():
                try:
                    result["value"] = client_work(server.host, server.port)
                except BaseException as exc:  # surfaced after join
                    result["error"] = exc

            thread = threading.Thread(target=work)
            thread.start()
            await server.serve_until_shutdown()
            thread.join(timeout=30)
        if "error" in result:
            raise result["error"]
        return result.get("value"), server, service

    return scenario


class TestServerWire:
    def test_ping_explain_stats_shutdown(self, running_server, model, table, query):
        direct = ExplainSession(model, table).explain(query)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                assert client.ping()
                report = client.explain(SPEC)
                stats = client.stats()
                assert client.shutdown()
                return report, stats

        (report, stats), server, service = run(running_server(client_work))
        assert report == report_to_dict(direct)
        assert stats["completed"] >= 1
        assert stats["requests_total"] >= 3
        assert stats["connections_total"] == 1
        assert service.stats.completed >= 1

    def test_pipelined_burst_matches_direct_batch(
        self, running_server, model, table, query_variants
    ):
        specs = [
            dict(SPEC, agg=agg) for agg in ("AVG", "SUM", "COUNT")
        ] * 6
        queries = [
            WhyQuery.create(
                Subspace.of(Location="A"), Subspace.of(Location="B"),
                "LungCancer", spec["agg"],
            )
            for spec in specs
        ]
        direct = ExplainSession(model, table).explain_batch(queries)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                reports = client.explain_many(specs)
                client.shutdown()
                return reports

        reports, _, _ = run(running_server(client_work))
        assert reports == [report_to_dict(r) for r in direct]

    def test_wire_errors_are_typed_and_connection_survives(
        self, running_server
    ):
        def client_work(host, port):
            outcomes = []
            with ServeClient(host, port) as client:
                client._sock.sendall(b"{not json\n")
                outcomes.append(client.recv()["error"]["type"])
                outcomes.append(client.request({"op": "frobnicate"})["error"]["type"])
                outcomes.append(client.request({"op": "explain"})["error"]["type"])
                bad_value = dict(SPEC, s1={"Location": "Mars"})
                outcomes.append(client.request(
                    {"op": "explain", "query": bad_value})["error"]["type"])
                bad_measure = dict(SPEC, measure="Nope")
                outcomes.append(client.request(
                    {"op": "explain", "query": bad_measure})["error"]["type"])
                bad_agg = dict(SPEC, agg="MEDIAN")
                outcomes.append(client.request(
                    {"op": "explain", "query": bad_agg})["error"]["type"])
                outcomes.append(client.request(
                    {"op": "explain", "query": SPEC, "method": 7})["error"]["type"])
                # After all that abuse the connection still serves.
                assert client.ping()
                client.shutdown()
            return outcomes

        outcomes, _, _ = run(running_server(client_work))
        assert outcomes == [
            "ProtocolError", "ProtocolError", "ProtocolError",
            "QueryError", "QueryError", "QueryError", "ProtocolError",
        ]

    def test_client_helper_raises_typed(self, running_server):
        def client_work(host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeResponseError, match="QueryError"):
                    client.explain(dict(SPEC, measure="Nope"))
                client.shutdown()

        run(running_server(client_work))

    def test_half_closed_client_still_gets_its_answer(self, model, table, query):
        # The README's `printf ... | nc` workflow: the client sends its
        # request and immediately half-closes the write side.  EOF on the
        # read loop must not drop the in-flight response.
        import socket

        direct = ExplainSession(model, table).explain(query)

        async def scenario():
            service = ExplanationService(model, table, max_batch=4)
            registry = ModelRegistry.for_service(service)
            server = ExplanationServer(registry, port=0)
            await server.start()
            result: dict = {}

            def work():
                sock = socket.create_connection(
                    (server.host, server.port), timeout=30
                )
                try:
                    sock.sendall(encode_line({"op": "explain", "id": 1,
                                              "query": SPEC}))
                    sock.shutdown(socket.SHUT_WR)
                    chunks = []
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        chunks.append(chunk)
                    result["raw"] = b"".join(chunks)
                finally:
                    sock.close()

            thread = threading.Thread(target=work)
            thread.start()
            while "raw" not in result and thread.is_alive():
                await asyncio.sleep(0.02)
            thread.join(timeout=30)
            await server.stop()
            await registry.stop()
            return result

        result = run(scenario())
        response = json.loads(result["raw"].decode("utf-8"))
        assert response["ok"] is True
        assert response["report"] == report_to_dict(direct)

    def test_busy_port_is_typed_error_and_leaks_nothing(self, model, table):
        async def scenario():
            first_registry = ModelRegistry.for_service(
                ExplanationService(model, table)
            )
            async with first_registry:
                first = ExplanationServer(first_registry, port=0)
                await first.start()
                second_service = ExplanationService(model, table)
                with pytest.raises(ServeError, match="cannot bind"):
                    await run_stack(
                        ModelRegistry.for_service(second_service),
                        port=first.port,
                    )
                # The failed stack's service was stopped, not leaked.
                assert second_service._closed
                await first.stop()

        run(scenario())

    def test_shutdown_op_requires_opt_in(self, model, table):
        async def scenario():
            service = ExplanationService(model, table)
            registry = ModelRegistry.for_service(service)
            server = ExplanationServer(registry, port=0, allow_shutdown=False)
            await server.start()
            outcome: dict = {}

            def work():
                with ServeClient(server.host, server.port) as client:
                    response = client.request({"op": "shutdown"})
                    outcome["type"] = response["error"]["type"]
                    outcome["pong"] = client.ping()

            thread = threading.Thread(target=work)
            thread.start()
            while not outcome.get("pong"):
                await asyncio.sleep(0.02)
            thread.join(timeout=10)
            await server.stop()
            await registry.stop()
            return outcome

        outcome = run(scenario())
        assert outcome["type"] == "ProtocolError"
        assert outcome["pong"] is True


class TestServeCLI:
    def test_cli_server_boots_serves_and_drains(self, table, tmp_path):
        csv_path = tmp_path / "data.csv"
        model_path = tmp_path / "model.json"
        write_csv(table, csv_path)
        fit_model(table, measure_bins=3).save(model_path)

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(csv_path),
                "--model", str(model_path), "--port", "0", "--allow-shutdown",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        try:
            host = port = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stderr.readline()
                if not line:
                    break
                match = BANNER.search(line)
                if match:
                    host, port = match.group(1), int(match.group(2))
                    break
            assert port is not None, "server never announced its address"
            with ServeClient(host, port, timeout=30) as client:
                assert client.ping()
                report = client.explain(SPEC)
                assert report["explanations"]
                assert client.shutdown()
            code = proc.wait(timeout=60)
            tail = proc.stderr.read()
            assert code == 0, tail
            assert "drained cleanly" in tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


VIEW_SPEC = {"by": "Location", "measure": "LungCancer", "agg": "AVG"}


class TestExplainViewServing:
    def test_service_view_matches_session_and_counts(self, model, table):
        direct = ExplainSession(model, table).explain_view(VIEW_SPEC)

        async def scenario():
            async with ExplanationService(model, table) as service:
                summary = await service.explain_view(VIEW_SPEC)
                return summary, service.stats.views, service.stats.completed

        summary, views, completed = run(scenario())
        assert summary.to_dict() == direct.to_dict()
        assert views == 1
        assert completed >= 1  # dedup may fold repeated pair queries

    def test_service_view_degrades_rejected_pairs(self, model, table):
        """A pair refused at admission is one errored row; a view whose
        every pair is refused raises the typed admission error itself."""

        async def scenario():
            async with ExplanationService(model, table, queue_limit=1) as service:
                summary = await service.explain_view(VIEW_SPEC)
            with pytest.raises(ServiceClosedError):
                await service.explain_view(VIEW_SPEC)
            return summary, service.stats.views

        summary, views = run(scenario())
        errors = [pair.error for pair in summary.pairs]
        assert errors[0] is None and len(errors) > 1
        assert all(e.startswith("ServiceOverloadedError") for e in errors[1:])
        assert views == 1

    def test_service_view_rejects_malformed_spec(self, model, table):
        from repro.errors import QueryError

        async def scenario(view, **kwargs):
            async with ExplanationService(model, table) as service:
                await service.explain_view(view, **kwargs)

        with pytest.raises(QueryError, match="view spec"):
            run(scenario({"measure": "LungCancer"}))
        with pytest.raises(QueryError, match="orientation"):
            run(scenario(VIEW_SPEC, orientation="sideways"))

    def test_wire_explain_view_round_trip(
        self, running_server, model, table
    ):
        direct = ExplainSession(model, table).explain_view(VIEW_SPEC)

        def client_work(host, port):
            with ServeClient(host, port) as client:
                summary = client.explain_view(VIEW_SPEC, trace_id="view-1")
                traces = client.traces()
                stats = client.stats()
                missing = client.request({"op": "explain_view"})
                bad_orientation = client.request(
                    {
                        "op": "explain_view",
                        "view": VIEW_SPEC,
                        "orientation": "sideways",
                    }
                )
                client.shutdown()
                return summary, traces, stats, missing, bad_orientation

        (summary, traces, stats, missing, bad_orientation), _, service = run(
            running_server(client_work)
        )
        assert summary == direct.to_dict()
        assert all(pair["error"] is None for pair in summary["pairs"])
        assert stats["views"] == 1
        assert service.stats.views == 1
        # Each pair ran as its own traced request under the view's trace id.
        child_ids = {e["trace_id"] for e in traces}
        expected = {f"view-1.{i}" for i in range(len(summary["pairs"]))}
        assert expected <= child_ids
        assert missing["error"]["type"] == "ProtocolError"
        assert "missing 'view'" in missing["error"]["message"]
        assert bad_orientation["error"]["type"] == "QueryError"

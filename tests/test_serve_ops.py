"""The op layer both wire front-ends share (:mod:`repro.serve.ops`).

Pins that an answer does not depend on the transport:

* against one ``run_stack``, TCP and HTTP give equal envelopes (except
  the TCP ``id``) for explain and explain_view, the same stats / traces
  key sets, and equal typed error envelopes for a fixed list of bad
  inputs, with the mapped HTTP status;
* non-finite deadlines and unknown search methods are refused before
  admission on both transports, in the service, the session and the CLI;
* ``/metrics`` carries one front-end series per running listener;
* any JSON value in any request field answers with a success or a typed
  library error, never ``InternalError`` (hypothesis).
"""

import asyncio
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExplainSession, fit_model
from repro.core.xplainer import SEARCH_METHODS
from repro.data import Aggregate, Subspace, WhyQuery, write_csv
from repro.datasets import generate_lungcancer
from repro.errors import ExplanationError, ServeError
from repro.serve import (
    OPS,
    ExplanationServer,
    ExplanationService,
    ModelRegistry,
    ServeClient,
    metric_value,
    parse_prometheus_text,
    run_stack,
)
from repro.serve.ops import answer

SPEC = {
    "s1": {"Location": "A"},
    "s2": {"Location": "B"},
    "measure": "LungCancer",
    "agg": "AVG",
}
VIEW_SPEC = {"by": "Location", "measure": "LungCancer", "agg": "AVG"}
SRC = str(Path(__file__).parent.parent / "src")


@pytest.fixture(scope="module")
def table():
    return generate_lungcancer(n_rows=800, seed=0)


@pytest.fixture(scope="module")
def model(table):
    return fit_model(table, measure_bins=3)


def _http(address, method, path, body=None):
    """One HTTP round trip; ``body`` is sent as raw bytes."""
    import http.client

    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
        if headers["Content-Type"].startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        conn.close()


def _serve(model, table, client_work):
    """Run ``client_work(tcp, http, service)`` in a thread against one
    ``run_stack`` (TCP + HTTP over a pinned 'demo' model); shut the stack
    down over TCP afterwards and return what the work returned."""

    async def scenario():
        service = ExplanationService(model, table)
        registry = ModelRegistry.for_service(service, model_id="demo")
        addresses: list = []
        ready = asyncio.Event()

        def announce(line):
            host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
            addresses.append((host, int(port)))

        stack = asyncio.get_running_loop().create_task(
            run_stack(
                registry, port=0, http_port=0, allow_shutdown=True,
                ready=ready, announce=announce,
            )
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        result: dict = {}

        def work():
            try:
                result["value"] = client_work(*addresses, service)
            except BaseException as exc:  # surfaced after join
                result["error"] = exc
            finally:
                with ServeClient(*addresses[0]) as client:
                    client.shutdown()

        thread = threading.Thread(target=work)
        thread.start()
        await asyncio.wait_for(stack, timeout=60)
        thread.join(timeout=30)
        assert not thread.is_alive()
        if "error" in result:
            raise result["error"]
        return result["value"]

    return asyncio.run(scenario())


def _without(envelope, *keys):
    return {k: v for k, v in envelope.items() if k not in keys}


class TestTransportParity:
    def test_answers_match_across_transports(self, model, table):
        def client_work(tcp, http, service):
            out = {}
            with ServeClient(*tcp) as client:
                for label, op, payload in (
                    ("explain", "explain", {"query": SPEC}),
                    ("batch", "explain", {"queries": [SPEC, dict(SPEC, id=2)]}),
                    ("explain_view", "explain_view", {"view": VIEW_SPEC}),
                ):
                    payload = dict(payload, trace_id=f"parity-{label}")
                    out[label] = (
                        client.request(dict(payload, op=op)),
                        _http(
                            http, "POST", f"/v1/models/demo/{op}",
                            json.dumps(payload).encode(),
                        ),
                    )
                for op in ("stats", "traces"):
                    out[op] = (
                        client.request({"op": op}),
                        _http(http, "GET", f"/v1/models/demo/{op}"),
                    )
            return out

        out = _serve(model, table, client_work)
        for label in ("explain", "batch", "explain_view"):
            tcp, (status, http) = out[label]
            assert status == 200 and tcp["ok"], (tcp, http)
            assert "id" not in http
            assert _without(tcp, "id") == http
            assert http["model"] == "demo" and len(http["fingerprint"]) == 64
        direct = ExplainSession(model, table).explain_view(VIEW_SPEC)
        assert out["explain_view"][1][1]["summary"] == direct.to_dict()
        for op in ("stats", "traces"):
            tcp, (status, http) = out[op]
            assert status == 200
            assert set(_without(tcp, "id")) == set(http)
        tcp_stats, (_, http_stats) = out["stats"]
        assert set(tcp_stats["stats"]) == set(http_stats["stats"])
        assert {"requests_total", "connections_total"} <= set(tcp_stats["stats"])

    def test_bad_inputs_give_equal_typed_errors(self, model, table):
        # (TCP request, HTTP route model, expected error type).  NaN and
        # Infinity are the literals json.dumps emits for non-finite floats.
        cases = [
            ({}, "demo", "ProtocolError"),  # missing query
            ({"query": SPEC, "method": 7}, "demo", "ProtocolError"),
            ({"query": SPEC, "method": "bogus"}, "demo", "ProtocolError"),
            ({"query": SPEC, "trace_id": "bad id!"}, "demo", "ProtocolError"),
            ({"query": SPEC, "timeout_ms": math.nan}, "demo", "ProtocolError"),
            ({"query": SPEC, "timeout_ms": math.inf}, "demo", "ProtocolError"),
            ({"query": SPEC, "timeout_ms": -math.inf}, "demo", "ProtocolError"),
            ({"query": SPEC, "timeout_ms": 10**400}, "demo", "ProtocolError"),
            ({"query": SPEC, "model": "ghost"}, "ghost", "RegistryError"),
        ]

        def client_work(tcp, http, service):
            outcomes = []
            with ServeClient(*tcp) as client:
                for body, model_id, _ in cases:
                    before = service.stats.submitted
                    tcp_answer = client.request(dict(body, op="explain"))
                    body = {k: v for k, v in body.items() if k != "model"}
                    http_answer = _http(
                        http, "POST", f"/v1/models/{model_id}/explain",
                        json.dumps(body).encode(),
                    )
                    outcomes.append(
                        (tcp_answer, http_answer, service.stats.submitted - before)
                    )
            return outcomes

        outcomes = _serve(model, table, client_work)
        for (body, _, expected), (tcp, (status, http), admitted) in zip(
            cases, outcomes
        ):
            assert not tcp["ok"] and tcp["error"]["type"] == expected, body
            assert _without(tcp, "id", "trace_id") == _without(http, "trace_id")
            assert status == {"ProtocolError": 400, "RegistryError": 404}[expected]
            assert admitted == 0, body


class TestNonFiniteDeadlines:
    def test_service_refuses_non_finite_knobs_and_requests(self, model, table):
        for bad in (math.nan, math.inf):
            for knob in ("default_timeout_ms", "max_timeout_ms"):
                with pytest.raises(ServeError, match="finite"):
                    ExplanationService(model, table, **{knob: bad})
            with pytest.raises(ServeError, match="finite"):
                ModelRegistry(service_kwargs={"default_timeout_ms": bad})
        service = ExplanationService(model, table, max_timeout_ms=50.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ServeError, match="finite"):
                service._resolve_timeout_ms(bad)

    @pytest.mark.parametrize("shape", ["model", "registry"])
    def test_cli_refuses_nan_default_timeout(self, model, table, tmp_path, shape):
        model_dir = tmp_path / "registry" / "demo"
        model_dir.mkdir(parents=True)
        write_csv(table, model_dir / "data.csv")
        model.save(model_dir / "1.json")
        if shape == "model":
            source = [
                str(model_dir / "data.csv"), "--model", str(model_dir / "1.json")
            ]
        else:
            source = ["--registry", str(tmp_path / "registry")]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", *source,
                "--port", "0", "--default-timeout-ms", "nan",
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2, proc.stderr
        assert "default_timeout_ms must be finite" in proc.stderr
        assert "serving on" not in proc.stderr


class TestUnknownMethod:
    def test_session_refuses_before_any_work(self, model, table):
        session = ExplainSession(model, table)
        query = WhyQuery.create(
            Subspace.of(Location="A"), Subspace.of(Location="B"),
            "LungCancer", Aggregate.AVG,
        )
        with pytest.raises(ExplanationError, match="unknown search method"):
            session.explain(query, method="bogus")
        assert session.cache_info()["queries"] == 0
        assert set(SEARCH_METHODS) == {"auto", "brute", "sum", "avg"}


class TestFrontendCounters:
    def test_metrics_carry_one_series_per_listener(self, model, table):
        def client_work(tcp, http, service):
            with ServeClient(*tcp) as client:
                assert client.ping()
            status, _ = _http(http, "GET", "/healthz")
            assert status == 200
            status, text = _http(http, "GET", "/metrics")
            assert status == 200
            return text

        samples = parse_prometheus_text(_serve(model, table, client_work))
        for frontend, requests in (("tcp", 1), ("http", 2)):
            assert metric_value(
                samples, "repro_serve_frontend_requests_total",
                frontend=frontend,
            ) == requests
            assert metric_value(
                samples, "repro_serve_frontend_connections_total",
                frontend=frontend,
            ) >= 1


# ----------------------------------------------------------------------
# Boundary property over the op layer
# ----------------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

#: Per field: values that pass validation (so the draw reaches the next
#: check) beside arbitrary JSON.
_PLAUSIBLE = {
    "query": [SPEC, dict(SPEC, agg="SUM"), dict(SPEC, measure="Nope")],
    "queries": [[SPEC], [SPEC, dict(SPEC, agg="COUNT")], []],
    "view": [VIEW_SPEC, {"by": ["Location", "Smoking"], "measure": "LungCancer"}],
    "method": list(SEARCH_METHODS) + ["bogus"],
    "timeout_ms": [1e4, 1e-9, 0, math.nan, math.inf, 10**400],
    "orientation": ["pairwise", "vs_rest", "both", "sideways"],
    "trace_id": ["prop-1", "bad id!"],
    "model": ["default", "ghost", "../etc"],
    "id": [1, "x"],
}


def _field(name):
    return st.one_of(st.sampled_from(_PLAUSIBLE[name]), _JSON)


_REQUESTS = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(OPS), _JSON)},
    optional={name: _field(name) for name in _PLAUSIBLE},
)


def _refused(request):
    """True when the request names a non-finite deadline or an unknown
    search method, which must never be admitted."""
    timeout_ms = request.get("timeout_ms")
    if isinstance(timeout_ms, float) and not math.isfinite(timeout_ms):
        return True
    return "method" in request and request["method"] not in SEARCH_METHODS


class TestOpLayerProperty:
    @pytest.fixture(scope="class")
    def op_loop(self, model, table):
        loop = asyncio.new_event_loop()
        service = ExplanationService(model, table)
        registry = ModelRegistry.for_service(service)
        loop.run_until_complete(registry.start())
        yield loop, ExplanationServer(registry, port=0), service
        loop.run_until_complete(registry.stop())
        loop.close()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(request=_REQUESTS, over_http=st.booleans())
    def test_any_field_value_answers_typed(self, op_loop, request, over_http):
        loop, listener, service = op_loop
        raw = json.dumps(request).encode("utf-8")
        before = service.stats.submitted
        if over_http and request["op"] in OPS:
            body = {k: v for k, v in request.items() if k not in ("op", "model")}
            model = request.get("model")
            route = {
                "op": request["op"],
                "model": model if isinstance(model, str) else None,
            }
            coro = answer(
                listener, json.dumps(body).encode("utf-8"), route=route
            )
        else:
            coro = answer(listener, raw)
        status, envelope = loop.run_until_complete(coro)
        if envelope["ok"]:
            assert status == 200
        else:
            assert envelope["error"]["type"] != "InternalError", envelope
            assert status in (400, 404, 429, 503, 504), envelope
        assert isinstance(envelope["trace_id"], str)
        if _refused(request) and request["op"] in ("explain", "explain_view"):
            assert not envelope["ok"]
            assert service.stats.submitted == before

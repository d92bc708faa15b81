"""Request-scoped tracing and structured logging (:mod:`repro.obs`).

Pins the observability contract:

* no trace active → :func:`repro.obs.span` yields the falsy no-op span
  and records nothing (the zero-overhead-when-off guarantee);
* an activated trace collects the session's four online-phase spans
  (translation, homogeneity, workspace, search) with cache annotations;
* span trees survive the pickle boundary: a worker's shard payload grafts
  back into the parent trace with its ``pid`` tag propagated;
* tracing never changes results — traced and untraced reports are
  byte-identical, serial and sharded alike;
* ``explain_batch(on_error="return")`` attempts every query exactly once
  (no SessionStats double counting on poison queries);
* structured logs carry the ambient trace id in both text and JSON modes.
"""

import json
import logging

import pytest

from repro import obs
from repro.core import ExplainSession, fit_model
from repro.core.reporting import report_to_dict
from repro.data import Aggregate, Subspace, WhyQuery
from repro.datasets import generate_lungcancer
from repro.errors import ReproError


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


#: The four online-phase spans every traced explain exposes (ISSUE 8).
EXPLAIN_SPANS = {"translation", "homogeneity", "workspace", "search"}


class TestTraceIds:
    def test_generated_ids_are_valid_and_distinct(self):
        ids = {obs.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(obs.valid_trace_id(i) for i in ids)
        assert all(len(i) == 16 for i in ids)

    @pytest.mark.parametrize(
        "value", ["abc", "A-b_c.9", "x" * 64, "req.0", "0123456789abcdef"]
    )
    def test_valid_wire_ids(self, value):
        assert obs.valid_trace_id(value)

    @pytest.mark.parametrize(
        "value", ["", "x" * 65, "has space", "slash/y", "null\x00", 7, None]
    )
    def test_invalid_wire_ids(self, value):
        assert not obs.valid_trace_id(value)

    def test_trace_rejects_invalid_id(self):
        with pytest.raises(ValueError):
            obs.Trace(trace_id="not ok")


class TestSpans:
    def test_no_active_trace_yields_falsy_null_span(self):
        assert obs.current_trace() is None
        assert obs.current_trace_id() is None
        with obs.span("anything", cost=1) as sp:
            assert not sp
            sp.tag(more=2)  # no-op, no error
        assert obs.current_trace() is None

    def test_activation_nests_spans_and_restores_context(self):
        trace = obs.Trace(name="request", trace_id="t-1")
        with obs.activate(trace):
            assert obs.current_trace_id() == "t-1"
            with obs.span("outer") as outer:
                with obs.span("inner", depth=1) as inner:
                    assert inner.tags == {"depth": 1}
            with obs.span("sibling"):
                pass
        assert obs.current_trace() is None
        trace.finish()
        assert [c.name for c in trace.root.children] == ["outer", "sibling"]
        assert [c.name for c in trace.root.children[0].children] == ["inner"]
        assert trace.span_names() == {"request", "outer", "inner", "sibling"}

    def test_activate_none_is_a_noop(self):
        with obs.activate(None) as got:
            assert got is None
            with obs.span("x") as sp:
                assert not sp

    def test_stage_breakdown_sums_by_name_excluding_root(self):
        trace = obs.Trace()
        with obs.activate(trace):
            with obs.span("a"):
                pass
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        stages = trace.finish().stage_breakdown()
        assert set(stages) == {"a", "b"}
        assert all(ms >= 0 for ms in stages.values())

    def test_to_dict_is_json_safe_and_relative(self):
        trace = obs.Trace(name="request", trace_id="t-2")
        with obs.activate(trace):
            with obs.span("phase", k="v"):
                pass
        payload = trace.finish().to_dict()
        json.dumps(payload)  # JSON-safe throughout
        assert payload["trace_id"] == "t-2"
        assert payload["root"]["name"] == "request"
        (child,) = payload["root"]["children"]
        assert child["name"] == "phase" and child["tags"] == {"k": "v"}
        assert child["start_ms"] >= 0 and child["duration_ms"] >= 0


class TestShardGraft:
    def test_round_trip_grafts_children_with_pid(self):
        worker = obs.Trace(name="shard", trace_id="t-3")
        worker.root.tag(pid=4242)
        with obs.activate(worker):
            with obs.span("translation"):
                pass
            with obs.span("search"):
                pass
        payload = worker.shard_payload()
        # Simulate the pickle boundary: the payload must be plain JSON.
        payload = json.loads(json.dumps(payload))

        parent = obs.Trace(name="request", trace_id="t-3")
        parent.graft_shard(payload)
        parent.finish()
        names = [c.name for c in parent.root.children]
        assert names == ["translation", "search"]
        assert all(c.tags["pid"] == 4242 for c in parent.root.children)

    def test_graft_lands_under_attach_at(self):
        parent = obs.Trace(name="request")
        flush = parent.start_span("flush")
        parent.attach_at = flush
        worker = obs.Trace(name="shard", trace_id=parent.trace_id)
        with obs.activate(worker):
            with obs.span("explain"):
                pass
        parent.graft_shard(worker.shard_payload())
        assert [c.name for c in flush.children] == ["explain"]
        assert parent.root.children == [flush]


class TestTraceRing:
    def test_bounded_most_recent_first(self):
        ring = obs.TraceRing(capacity=3)
        for i in range(5):
            ring.append({"trace_id": f"t{i}"})
        assert len(ring) == 3
        assert [e["trace_id"] for e in ring.snapshot()] == ["t4", "t3", "t2"]

    def test_zero_capacity_retains_nothing(self):
        ring = obs.TraceRing(capacity=0)
        ring.append({"trace_id": "t"})
        assert len(ring) == 0 and ring.snapshot() == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            obs.TraceRing(capacity=-1)


class TestChromeExport:
    def test_event_shape_and_file_export(self, tmp_path):
        trace = obs.Trace(name="request", trace_id="t-4")
        with obs.activate(trace):
            with obs.span("phase", rows=10):
                pass
        payload = trace.finish().to_chrome_trace()
        events = payload["traceEvents"]
        assert payload["otherData"]["trace_id"] == "t-4"
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"request", "phase"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0  # microseconds
        (phase,) = [e for e in complete if e["name"] == "phase"]
        assert phase["args"] == {"rows": 10}

        out = tmp_path / "trace.json"
        trace.write_chrome_trace(out)
        assert json.loads(out.read_text())["traceEvents"]


class TestSessionTracing:
    def test_explain_span_tree_with_cache_annotations(self, model, table, query):
        session = ExplainSession(model, table)
        trace = obs.Trace(name="request")
        with obs.activate(trace):
            session.explain(query)
        trace.finish()
        (explain,) = trace.root.children
        assert explain.name == "explain"
        names = [c.name for c in explain.children]
        assert set(names) >= EXPLAIN_SPANS
        by_name = {c.name: c for c in explain.children}
        assert by_name["workspace"].tags["cache"] == "miss"
        assert by_name["translation"].tags["cache"] == "miss"
        assert by_name["translation"].tags["candidates"] >= 1
        assert by_name["search"].tags["attributes"] >= 1
        assert "explanations" in explain.tags

        # A repeat of the same query hits both caches.
        repeat = obs.Trace(name="request")
        with obs.activate(repeat):
            session.explain(query)
        (explain2,) = repeat.finish().root.children
        by_name = {c.name: c for c in explain2.children}
        assert by_name["workspace"].tags["cache"] == "hit"
        assert by_name["translation"].tags["cache"] == "hit"
        assert by_name["homogeneity"].tags["cache_misses"] == 0

    def test_tracing_does_not_change_results(self, model, table, query):
        baseline = ExplainSession(model, table).explain(query)
        session = ExplainSession(model, table)
        trace = obs.Trace()
        with obs.activate(trace):
            traced = session.explain(query)
        assert report_to_dict(traced) == report_to_dict(baseline)

    def test_explain_batch_serial_traces(self, model, table, query):
        session = ExplainSession(model, table)
        traces = [obs.Trace(trace_id=f"q-{i}") for i in range(2)]
        reports = session.explain_batch([query, query], traces=traces)
        assert len(reports) == 2
        for trace in traces:
            assert trace.span_names() >= EXPLAIN_SPANS

    def test_explain_batch_sharded_grafts_worker_spans(
        self, model, table, query, process_pair
    ):
        direct = ExplainSession(model, table).explain_batch([query] * 4)
        session = ExplainSession(model, table)
        traces = [obs.Trace(trace_id=f"s-{i}") for i in range(4)]
        reports = session.explain_batch(
            [query] * 4, executor=process_pair, traces=traces
        )
        assert [report_to_dict(r) for r in reports] == [
            report_to_dict(r) for r in direct
        ]
        for trace in traces:
            assert trace.span_names() >= EXPLAIN_SPANS
            # The worker stamped its pid on every grafted top-level span.
            assert all(
                "pid" in child.tags for child in trace.root.children
            ), trace.root.children

    def test_traces_must_match_queries(self, model, table, query):
        session = ExplainSession(model, table)
        with pytest.raises(ValueError):
            session.explain_batch([query], traces=[None, None])

    def test_on_error_validates(self, model, table, query):
        session = ExplainSession(model, table)
        with pytest.raises(ValueError):
            session.explain_batch([query], on_error="ignore")

    def test_on_error_return_counts_each_attempt_once(self, model, table, query):
        bad = WhyQuery(query.s1, query.s2, "NoSuchMeasure", Aggregate.AVG)
        session = ExplainSession(model, table)
        results = session.explain_batch([query, bad], on_error="return")
        assert len(results) == 2
        assert not isinstance(results[0], BaseException)
        assert isinstance(results[1], ReproError)
        # Each query attempted exactly once — no batch-then-retry inflation.
        assert session.cache_info()["queries"] == 2

    def test_on_error_raise_propagates(self, model, table, query):
        bad = WhyQuery(query.s1, query.s2, "NoSuchMeasure", Aggregate.AVG)
        session = ExplainSession(model, table)
        with pytest.raises(ReproError):
            session.explain_batch([query, bad])


class TestStructuredLogging:
    def _capture(self, json_logs):
        import io

        stream = io.StringIO()
        obs.configure_logging(
            level="debug", json_logs=json_logs, stream=stream
        )
        return stream

    def teardown_method(self):
        # Detach the test handler so other tests' caplog keeps working.
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs", False):
                logger.removeHandler(handler)
        logger.propagate = True
        logger.setLevel(logging.NOTSET)

    def test_json_logs_carry_trace_id_and_extras(self, query):
        stream = self._capture(json_logs=True)
        log = logging.getLogger("repro.serve")
        trace = obs.Trace(trace_id="log-trace")
        with obs.activate(trace):
            log.warning("slow", extra={"event": "slow_query", "latency_ms": 12.5})
        record = json.loads(stream.getvalue().strip())
        assert record["trace_id"] == "log-trace"
        assert record["event"] == "slow_query"
        assert record["latency_ms"] == 12.5
        assert record["level"] == "warning"
        assert record["logger"] == "repro.serve"

    def test_text_logs_carry_trace_id_and_extras(self):
        stream = self._capture(json_logs=False)
        log = logging.getLogger("repro.discovery")
        trace = obs.Trace(trace_id="text-trace")
        with obs.activate(trace):
            log.info("probing", extra={"depth": 2})
        line = stream.getvalue().strip()
        assert "[text-trace]" in line
        assert "depth=2" in line
        assert "probing" in line

    def test_untraced_records_log_without_id(self):
        stream = self._capture(json_logs=True)
        logging.getLogger("repro.cli").info("hello")
        assert json.loads(stream.getvalue().strip())["trace_id"] is None

    def test_reconfigure_swaps_handler_not_stacks(self):
        self._capture(json_logs=False)
        self._capture(json_logs=True)
        logger = logging.getLogger("repro")
        ours = [
            h for h in logger.handlers if getattr(h, "_repro_obs", False)
        ]
        assert len(ours) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging(level="loud")


class TestOfflineProfile:
    def test_fit_profile_persists_and_stays_out_of_fingerprint(
        self, model, table, tmp_path
    ):
        profile = model.fit_profile
        assert profile is not None
        names = [p["name"] for p in profile["phases"]]
        assert names[0] == "discretize"
        assert {"fd_peel", "fci", "fd_orient"} <= set(names)
        (fci,) = [p for p in profile["phases"] if p["name"] == "fci"]
        assert [p["name"] for p in fci["phases"]] == [
            "skeleton", "possible_d_sep", "orientation"
        ]
        depths = profile["skeleton_depths"]
        assert depths and depths[0]["depth"] == 0
        assert all(
            {"pairs", "probes", "edges_removed", "tests", "seconds"}
            <= set(entry)
            for entry in depths
        )
        assert profile["rows"] == table.n_rows

        path = tmp_path / "model.json"
        model.save(path)
        loaded = type(model).load(path)
        assert loaded.fit_profile == json.loads(json.dumps(profile))
        # Save-time metadata only: the canonical payload and the content
        # hash are identical with and without a profile.
        assert "profile" not in model.to_dict()
        assert loaded.fingerprint() == model.fingerprint()

    def test_unprofiled_artifacts_stay_loadable(self, model, tmp_path):
        path = tmp_path / "bare.json"
        model.save(path)
        payload = json.loads(path.read_text())
        del payload["profile"]
        path.write_text(json.dumps(payload))
        loaded = type(model).load(path)
        assert loaded.fit_profile is None
        assert loaded.fingerprint() == model.fingerprint()


class TestFitProfileFromSpans:
    def test_traced_fit_profile_is_its_span_tree(self, table):
        trace = obs.Trace(name="fit")
        with obs.activate(trace):
            model = fit_model(table, measure_bins=3)
        (fit,) = trace.root.children
        profile = model.fit_profile

        def seconds(span):
            return round(span.duration_s, 6)

        def counts(phase):
            return {
                key: value for key, value in phase.items()
                if key not in ("name", "seconds", "phases")
            }

        assert fit.name == "fit"
        assert profile["total_seconds"] == seconds(fit)
        assert (profile["rows"], profile["columns"]) == (
            fit.tags["rows"], fit.tags["columns"]
        )
        assert [span.name for span in fit.children] == [
            "discretize", "fd_detect", "fd_peel", "fci", "fd_orient"
        ]
        pairs = list(zip(profile["phases"], fit.children, strict=True))
        (fci,) = [span for span in fit.children if span.name == "fci"]
        pairs += zip(profile["phases"][3]["phases"], fci.children, strict=True)
        for phase, span in pairs:
            assert phase["name"] == span.name
            assert phase["seconds"] == seconds(span)
            assert counts(phase) == span.tags
        depths = [span for span in fit.walk() if span.name == "skeleton.depth"]
        assert profile["skeleton_depths"] == [
            {**span.tags, "seconds": seconds(span)} for span in depths
        ]
        assert obs.current_trace() is None

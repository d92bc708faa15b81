"""Failure injection and degenerate-input robustness.

Real data and real CI tests misbehave; the library must degrade gracefully
rather than crash or return malformed structures.

The second half of this module pins the serving stack's fault tolerance:
process-pool self-healing, request deadlines, artifact quarantine, the
client's provably-safe retries, and the deterministic fault-injection
switchboard (:mod:`repro.serve.faults`) that drives the chaos smoke.
"""

import asyncio
import inspect
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import explain_attribute, fit_model, xlearner
from repro.data import (
    Aggregate,
    AttributeProfile,
    Subspace,
    Table,
    WhyQuery,
    write_csv,
)
from repro.datasets import generate_lungcancer
from repro.discovery import fci, learn_skeleton, pc
from repro.errors import (
    ArtifactQuarantinedError,
    DeadlineExceededError,
    ModelError,
    ProtocolError,
    ReproError,
    ServeError,
    ServiceOverloadedError,
)
from repro.graph import dag_from_parents, is_valid_pag_edge
from repro.independence import CITest, CITestResult, OracleCITest
from repro.parallel import ProcessExecutor, ShardTask
from repro.serve import (
    ExplanationService,
    FaultPlan,
    ModelRegistry,
    RetryPolicy,
    ServeClient,
    ServeResponseError,
    metric_value,
    parse_prometheus_text,
    render_metrics,
)
from repro.serve import faults


class UnreliableCITest(CITest):
    """Wraps an oracle, flipping each fresh decision with probability p."""

    def __init__(self, inner: CITest, flip_prob: float, seed: int = 0) -> None:
        super().__init__(inner.alpha)
        self.inner = inner
        self.flip_prob = flip_prob
        self._rng = np.random.default_rng(seed)
        self._memo: dict[tuple, CITestResult] = {}

    def test(self, x, y, z=()):
        self.calls += 1
        key = self.canonical_key(x, y, z)
        if key not in self._memo:
            result = self.inner.test(x, y, z)
            if self._rng.random() < self.flip_prob:
                result = CITestResult(
                    x, y, tuple(z), 0.0, 1.0 - result.p_value, 0
                )
            self._memo[key] = result
        return self._memo[key]


def random_dag(seed: int, n: int = 6):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    return dag_from_parents(
        {
            names[j]: [names[i] for i in range(j) if rng.random() < 0.4]
            for j in range(n)
        }
    )


class TestNoisyCITests:
    @pytest.mark.parametrize("flip_prob", [0.05, 0.15, 0.3])
    def test_fci_never_crashes_under_noise(self, flip_prob):
        dag = random_dag(1)
        noisy = UnreliableCITest(OracleCITest(dag), flip_prob, seed=2)
        result = fci(tuple(dag.nodes), noisy)
        # Output is a structurally valid mixed graph with PAG marks.
        for u, v, mark_u, mark_v in result.pag.edges():
            assert is_valid_pag_edge(mark_u, mark_v)

    @pytest.mark.parametrize("flip_prob", [0.1, 0.3])
    def test_pc_never_crashes_under_noise(self, flip_prob):
        dag = random_dag(3)
        noisy = UnreliableCITest(OracleCITest(dag), flip_prob, seed=4)
        result = pc(tuple(dag.nodes), noisy)
        assert result.cpdag.n_nodes == dag.n_nodes

    def test_accuracy_degrades_monotonically_on_average(self):
        """More noise, worse skeletons (averaged over seeds)."""
        from repro.graph import adjacency_scores

        def mean_f1(flip_prob: float) -> float:
            scores = []
            for seed in range(8):
                dag = random_dag(seed)
                noisy = UnreliableCITest(OracleCITest(dag), flip_prob, seed=seed + 100)
                skel = learn_skeleton(tuple(dag.nodes), noisy)
                scores.append(adjacency_scores(skel.graph, dag).f1)
            return float(np.mean(scores))

        assert mean_f1(0.0) >= mean_f1(0.25) - 0.02
        assert mean_f1(0.0) == 1.0


class TestDegenerateData:
    def test_constant_dimension_is_harmless(self):
        t = Table.from_columns(
            {
                "const": ["k"] * 40,
                "x": [str(i % 2) for i in range(40)],
                "m": [float(i % 3) for i in range(40)],
            }
        )
        result = xlearner(t)
        assert result.pag.n_nodes >= 2

    def test_two_row_table(self):
        t = Table.from_columns({"a": ["x", "y"], "b": ["p", "q"]})
        result = xlearner(t)
        assert result.pag.n_nodes >= 1

    def test_profile_with_extreme_values(self):
        t = Table.from_columns(
            {
                "f": ["a", "a", "b", "b"],
                "y": ["u", "v", "u", "v"],
                "m": [1e12, -1e12, 1e-12, 0.0],
            }
        )
        q = WhyQuery.create(Subspace.of(f="a"), Subspace.of(f="b"), "m").oriented(t)
        profile = AttributeProfile.build(t, q, "y")
        assert np.isfinite(profile.per_filter_delta()).all()

    def test_explain_attribute_single_filter(self):
        # One filter: the only candidate predicate is the whole attribute.
        rng = np.random.default_rng(0)
        n = 400
        f = rng.integers(0, 2, n)
        z = rng.normal(0, 1, n) + 2.0 * f
        t = Table.from_columns(
            {"f": [f"f{v}" for v in f], "y": ["only"] * n, "m": z}
        )
        q = WhyQuery.create(Subspace.of(f="f1"), Subspace.of(f="f0"), "m")
        found = explain_attribute(t, q, "y")
        # Removing the single filter removes all rows: Δ becomes 0 ≤ ε, so
        # it is a (trivial) counterfactual cause.
        assert found is not None
        assert found.responsibility == 1.0

    def test_pipeline_on_tiny_sample(self):
        t = Table.from_columns(
            {
                "loc": ["A", "B"] * 10,
                "x": ["u", "v"] * 10,
                "m": [float(i % 4) for i in range(20)],
            }
        )
        engine = fit_model(t, measure_bins=2).session(t)
        q = WhyQuery.create(Subspace.of(loc="A"), Subspace.of(loc="B"), "m")
        report = engine.explain(q.oriented(engine.graph_table))
        assert isinstance(report.explanations, list)


class TestErrorHierarchy:
    def test_all_library_errors_share_a_base(self):
        from repro import errors

        for name in (
            "SchemaError",
            "QueryError",
            "GraphError",
            "DiscoveryError",
            "ExplanationError",
            "FDError",
            "DeadlineExceededError",
            "ArtifactQuarantinedError",
        ):
            assert issubclass(getattr(errors, name), ReproError)


# ======================================================================
# Serving fault tolerance
# ======================================================================


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serve_table():
    return generate_lungcancer(n_rows=600, seed=0)


@pytest.fixture(scope="module")
def serve_model(serve_table):
    return fit_model(serve_table, measure_bins=3)


@pytest.fixture(scope="module")
def serve_queries():
    s1, s2 = Subspace.of(Location="A"), Subspace.of(Location="B")
    return [
        WhyQuery.create(s1, s2, "LungCancer", agg)
        for agg in (Aggregate.AVG, Aggregate.SUM, Aggregate.COUNT)
    ]


@pytest.fixture()
def clean_faults():
    """Guarantee no fault plan stays armed past a test."""
    faults.disarm()
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# Fault-injection switchboard
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ServeError, match="kill_worker_every"):
            FaultPlan(kill_worker_every=-1)
        with pytest.raises(ServeError, match="kill_worker_prob"):
            FaultPlan(kill_worker_prob=1.5)
        with pytest.raises(ServeError, match="flush_delay_ms"):
            FaultPlan(flush_delay_ms=-0.1)

    def test_from_spec_rejects_unknown_fields(self):
        with pytest.raises(ServeError, match="unknown fault field"):
            FaultPlan.from_spec({"kill_wroker_every": 3})

    def test_armed(self):
        assert not FaultPlan().armed
        assert FaultPlan(flush_delay_ms=1.0).armed
        assert FaultPlan(kill_worker_every=2).armed

    def test_env_round_trip(self, clean_faults):
        plan = FaultPlan(seed=7, kill_worker_every=3, flush_delay_ms=40.0)
        faults.arm(plan)
        assert os.environ[faults.FAULTS_ENV] == plan.to_env()
        assert FaultPlan.from_env() == plan
        assert faults.active() is not None
        faults.disarm()
        assert faults.FAULTS_ENV not in os.environ
        assert FaultPlan.from_env() is None
        assert faults.active() is None

    def test_malformed_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "{nope")
        with pytest.raises(ServeError, match="not valid JSON"):
            FaultPlan.from_env()
        monkeypatch.setenv(faults.FAULTS_ENV, "[1]")
        with pytest.raises(ServeError, match="JSON object"):
            FaultPlan.from_env()

    def test_env_var_name_matches_executor_hook(self):
        """The executor's hot-path gate hard-codes the env var name (to
        avoid importing repro.serve into discovery workers); pin the two
        spellings together so neither can drift alone."""
        from repro.parallel import executor as executor_mod

        assert faults.FAULTS_ENV == "REPRO_FAULTS"
        source = inspect.getsource(executor_mod._process_run)
        assert 'os.environ.get("REPRO_FAULTS")' in source

    def test_counter_faults_are_deterministic(self):
        state = faults.FaultState(
            FaultPlan(corrupt_artifact_every=2, drop_connection_every=3)
        )
        assert [state.should_corrupt_artifact() for _ in range(4)] == [
            False, True, False, True,
        ]
        assert [state.should_drop_connection() for _ in range(6)] == [
            False, False, True, False, False, True,
        ]


# ----------------------------------------------------------------------
# ProcessExecutor self-healing
# ----------------------------------------------------------------------


class _KillOnceTask(ShardTask):
    """Dies (as a segfaulting worker would) the first time it sees the
    poison payload; a flag file makes the re-run survive."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def run(self, state, payload):
        if payload == "die" and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w"):
                pass
            os._exit(faults.KILLED_WORKER_EXIT)
        return ("ok", payload)


class _KillInWorkerTask(ShardTask):
    """Always dies on the poison payload — but only inside a pool worker,
    so the in-process serial degrade path completes."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def run(self, state, payload):
        if payload == "die" and os.getpid() != self.parent_pid:
            os._exit(faults.KILLED_WORKER_EXIT)
        return ("ok", payload)


class _PidTask(ShardTask):
    def run(self, state, payload):
        return os.getpid()


class TestProcessExecutorSelfHealing:
    def test_worker_sigterm_never_reaches_the_parent_loop(self):
        # A broken pool SIGTERMs its surviving workers.  A forked worker
        # must not forward that through the parent's signal wakeup fd,
        # where a serving loop takes it for its own SIGTERM and drains.
        async def scenario():
            loop = asyncio.get_running_loop()
            received = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, received.set)
            try:
                with ProcessExecutor(1) as ex:
                    (pid,) = ex.map(_PidTask(), [None])
                    os.kill(pid, signal.SIGTERM)
                    await asyncio.sleep(0.5)
                return received.is_set()
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        assert asyncio.run(scenario()) is False

    def test_worker_drops_inherited_sockets(self):
        # A socket the parent closes must reach EOF at its peer even when a
        # worker was forked while the socket was open.
        ours, peer = socket.socketpair()
        try:
            with ProcessExecutor(1) as ex:
                ex.map(_PidTask(), [None])
                ours.close()
                peer.settimeout(2.0)
                assert peer.recv(1) == b""
        finally:
            ours.close()
            peer.close()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # A parent that dies by SIGKILL runs no cleanup; its pool workers
        # must notice on their own instead of living on as orphans.
        script = tmp_path / "orphan.py"
        script.write_text(textwrap.dedent("""
            import os, signal
            from repro.parallel import ProcessExecutor, ShardTask

            class PidTask(ShardTask):
                def run(self, state, payload):
                    return os.getpid()

            if __name__ == "__main__":
                ex = ProcessExecutor(2)
                ex.map(PidTask(), list(range(8)))
                print(*ex._pool._processes, flush=True)
                os.kill(os.getpid(), signal.SIGKILL)
        """))

        def running(pid):
            # A zombie has exited; only its reaper has not collected it.
            try:
                stat_line = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return stat_line.rsplit(")", 1)[1].split()[0] != "Z"

        # Output goes to files, not pipes: a surviving worker would hold a
        # pipe open and keep the read waiting.
        out, err = tmp_path / "pids.txt", tmp_path / "stderr.txt"
        src = str(Path(__file__).parent.parent / "src")
        with out.open("w") as stdout, err.open("w") as stderr:
            proc = subprocess.run(
                [sys.executable, str(script)], stdout=stdout, stderr=stderr,
                timeout=60, env={**os.environ, "PYTHONPATH": src},
            )
        pids = [int(pid) for pid in out.read_text().split()]
        try:
            assert proc.returncode == -signal.SIGKILL, err.read_text()
            assert len(pids) == 2
            deadline = time.monotonic() + 5
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(running, pids))
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_max_restarts_validated(self):
        with pytest.raises(ReproError, match="max_restarts"):
            ProcessExecutor(2, max_restarts=-1)

    def test_worker_death_heals_and_reruns_only_lost_shards(self, tmp_path):
        task = _KillOnceTask(tmp_path / "died-once")
        payloads = ["a", "die", "b", "c"]
        with ProcessExecutor(2) as ex:
            assert ex.map(task, payloads) == [("ok", p) for p in payloads]
            assert ex.worker_restarts == 1
            assert 1 <= ex.shard_retries <= len(payloads)
            assert ex.serial_degrades == 0
            # The healed pool keeps serving.
            assert ex.map(task, ["d"]) == [("ok", "d")]

    def test_degrades_to_serial_after_max_restarts(self):
        task = _KillInWorkerTask()
        with ProcessExecutor(2, max_restarts=1) as ex:
            out = ex.map(task, ["a", "die", "b"])
            assert out == [("ok", "a"), ("ok", "die"), ("ok", "b")]
            assert ex.worker_restarts == 1
            assert ex.serial_degrades == 1

    def test_zero_restarts_means_immediate_degrade(self):
        task = _KillInWorkerTask()
        ex = ProcessExecutor(2, max_restarts=0)
        try:
            assert ex.map(task, ["die"]) == [("ok", "die")]
            assert ex.worker_restarts == 0
            assert ex.serial_degrades == 1
        finally:
            ex.close()

    def test_close_never_raises_on_broken_pool(self):
        task = _KillInWorkerTask()
        ex = ProcessExecutor(2)
        assert ex.map(task, ["a"]) == [("ok", "a")]
        # Break the pool behind the executor's back, then close it.
        future = ex._pool.submit(os._exit, 1)
        with pytest.raises(Exception):
            future.result()
        ex.close()
        ex.close()  # idempotent


# ----------------------------------------------------------------------
# Request deadlines
# ----------------------------------------------------------------------


def _slow_flushes(service, seconds):
    """Make every flush of ``service`` take at least ``seconds``."""
    explain_batch = service.session.explain_batch

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return explain_batch(*args, **kwargs)

    service.session.explain_batch = slow


class TestDeadlines:
    def test_constructor_validation(self, serve_model, serve_table):
        for kwargs in (
            {"default_timeout_ms": 0},
            {"max_timeout_ms": -5},
        ):
            with pytest.raises(ServeError, match="timeout_ms"):
                ExplanationService(serve_model, serve_table, **kwargs)

    def test_resolve_timeout_policy(self, serve_model, serve_table):
        service = ExplanationService(
            serve_model, serve_table,
            default_timeout_ms=100.0, max_timeout_ms=250.0,
        )
        assert service._resolve_timeout_ms(None) == 100.0
        assert service._resolve_timeout_ms(50.0) == 50.0
        assert service._resolve_timeout_ms(10_000.0) == 250.0  # capped
        with pytest.raises(ServeError, match="timeout_ms"):
            service._resolve_timeout_ms(0)

    def test_no_policy_means_no_deadline(self, serve_model, serve_table):
        service = ExplanationService(serve_model, serve_table)
        assert service._resolve_timeout_ms(None) is None

    def test_queue_expired_request_is_shed(
        self, serve_model, serve_table, serve_queries
    ):
        async def scenario():
            async with ExplanationService(serve_model, serve_table) as service:
                with pytest.raises(
                    DeadlineExceededError, match="expired while queued"
                ):
                    await service.explain(serve_queries[0], timeout_ms=1)
                return service.stats

        # The flush sleeps before its shed check, which holds the request
        # in the queue past its 1 ms deadline.
        try:
            faults.arm(FaultPlan(flush_delay_ms=60))
            stats = run(scenario())
        finally:
            faults.disarm()
        assert stats.timeouts == 1
        assert stats.shed_expired == 1
        assert stats.completed == 0
        # Shed requests still appear in the latency accounting.
        assert stats.latency_observations == 1

    def test_mid_flush_deadline_spares_other_waiters(
        self, serve_model, serve_table, serve_queries
    ):
        """One waiter's deadline firing must not cancel the shared explain
        the other waiter needs."""

        async def scenario():
            async with ExplanationService(serve_model, serve_table) as service:
                _slow_flushes(service, 0.5)
                started = time.perf_counter()
                expiring = service.submit(serve_queries[0], timeout_ms=20)
                patient = service.submit(serve_queries[0])
                with pytest.raises(DeadlineExceededError) as expired:
                    await expiring
                waited = time.perf_counter() - started
                return service.stats, expired.value, waited, await patient

        stats, error, waited, report = run(scenario())
        assert str(error).endswith("(timeout_ms=20.0)")  # not shed
        assert waited < 0.25  # at its deadline, not when the flush ends
        assert report.query.agg is serve_queries[0].agg
        assert stats.timeouts == 1
        assert stats.shed_expired == 0
        assert stats.completed == 1

    def test_service_answers_after_a_flush_whose_waiters_all_expired(
        self, serve_model, serve_table, serve_queries
    ):
        async def scenario():
            async with ExplanationService(serve_model, serve_table) as service:
                _slow_flushes(service, 0.2)
                expired = await asyncio.gather(
                    service.explain(serve_queries[0], timeout_ms=20),
                    service.explain(serve_queries[1], timeout_ms=20),
                    return_exceptions=True,
                )
                return service.stats, expired, await service.explain(
                    serve_queries[2]
                )

        stats, expired, report = run(scenario())
        assert all(isinstance(e, DeadlineExceededError) for e in expired)
        assert report.query.agg is serve_queries[2].agg
        assert stats.timeouts == 2
        assert stats.shed_expired == 0
        assert stats.completed == 1

    def test_queued_request_expires_on_time_behind_a_slow_flush(
        self, serve_model, serve_table, serve_queries
    ):
        """A queued request's deadline fires while an earlier flush with no
        deadline of its own still runs, not when that flush ends."""

        async def scenario():
            async with ExplanationService(serve_model, serve_table) as service:
                _slow_flushes(service, 0.5)
                blocker = service.submit(serve_queries[0])
                await asyncio.sleep(0.05)  # the blocker's flush is running
                started = time.perf_counter()
                with pytest.raises(
                    DeadlineExceededError, match="expired while queued"
                ):
                    await service.explain(serve_queries[1], timeout_ms=20)
                waited = time.perf_counter() - started
                await blocker
                return service.stats, waited

        stats, waited = run(scenario())
        assert waited < 0.25  # the flush ahead of it runs ~0.45 s more
        assert stats.timeouts == 1
        assert stats.shed_expired == 1
        assert stats.completed == 1


class TestDeadlineWireMapping:
    def test_timeout_field_validation(self):
        from repro.serve.ops import timeout_ms_of as validate

        assert validate({"op": "explain"}) is None
        assert validate({"timeout_ms": 250}) == 250.0
        for bad in (
            True, "soon", 0, -3, [5],
            math.nan, math.inf, -math.inf, 10**400,
        ):
            with pytest.raises(ProtocolError, match="timeout_ms"):
                validate({"timeout_ms": bad})

    def test_http_status_mapping(self):
        from repro.serve import http as serve_http
        from repro.serve.ops import status_for

        assert status_for(DeadlineExceededError("late")) == 504
        assert status_for(ArtifactQuarantinedError("bad")) == 503
        assert serve_http._REASONS[504] == "Gateway Timeout"
        assert serve_http.RETRY_AFTER_S >= 1


# ----------------------------------------------------------------------
# Artifact quarantine
# ----------------------------------------------------------------------


class TestArtifactQuarantine:
    def test_corrupt_rollout_keeps_prior_serving_then_clears(
        self, tmp_path, serve_table, serve_model, serve_queries
    ):
        root = tmp_path / "registry"
        model_dir = root / "demo"
        model_dir.mkdir(parents=True)
        write_csv(serve_table, model_dir / "data.csv")
        serve_model.save(model_dir / "1.json")

        async def scenario():
            async with ModelRegistry(root) as registry:
                entry = await registry.entry_for("demo")
                assert entry.version == "1"
                # A corrupt higher version lands: the rollout must not
                # take the model offline.
                bad = model_dir / "2.json"
                bad.write_text("{this is not an artifact")
                survivor = await registry.entry_for("demo")
                assert survivor is entry  # prior keeps serving
                assert registry.quarantined_models() == ["demo"]
                (row,) = [
                    r for r in registry.models_payload() if r["id"] == "demo"
                ]
                assert row["quarantined"]["version"] == "2"
                assert row["quarantined"]["failures"] == 1
                assert row["quarantined"]["retry_in_seconds"] > 0
                report = await survivor.service.explain(serve_queries[0])
                assert report.query is not None
                # Replacing the artifact clears the quarantine immediately.
                serve_model.save(bad)
                healed = await registry.entry_for("demo")
                assert healed.version == "2"
                assert registry.quarantined_models() == []

        run(scenario())

    def test_no_healthy_prior_refuses_typed_without_rereading(
        self, tmp_path, serve_table, monkeypatch
    ):
        root = tmp_path / "registry"
        model_dir = root / "solo"
        model_dir.mkdir(parents=True)
        write_csv(serve_table, model_dir / "data.csv")
        (model_dir / "1.json").write_text("{corrupt")

        reads = []
        original = ModelRegistry._read_artifact

        def counting_read(source):
            reads.append(source)
            return original(source)

        monkeypatch.setattr(
            ModelRegistry, "_read_artifact", staticmethod(counting_read)
        )

        async def scenario():
            async with ModelRegistry(root) as registry:
                with pytest.raises(ArtifactQuarantinedError, match="quarantined"):
                    await registry.entry_for("solo")
                # Negative cache: the second lookup refuses from memory.
                with pytest.raises(ArtifactQuarantinedError):
                    await registry.entry_for("solo")
                assert registry.quarantined_models() == ["solo"]

        run(scenario())
        assert len(reads) == 1

    def test_backoff_doubles_and_caps(self):
        from repro.serve.registry import QUARANTINE_MAX_S

        registry = ModelRegistry(None)
        source = Path("/artifacts/2.json")
        first = registry._note_failure("m", source, "2", 1, ValueError("bad"))
        second = registry._note_failure("m", source, "2", 1, ValueError("bad"))
        assert (first.failures, second.failures) == (1, 2)
        assert second.until > first.until
        for _ in range(10):
            last = registry._note_failure("m", source, "2", 1, ValueError("bad"))
        assert last.failures == 12
        assert last.retry_in_s(time.monotonic()) <= QUARANTINE_MAX_S + 1e-3
        # A different artifact is a fresh chance, not failure #13.
        fresh = registry._note_failure(
            "m", Path("/artifacts/3.json"), "3", 1, ValueError("bad")
        )
        assert fresh.failures == 1

    def test_fault_injected_corrupt_read(
        self, clean_faults, tmp_path, serve_model
    ):
        artifact = tmp_path / "1.json"
        serve_model.save(artifact)
        faults.arm(FaultPlan(corrupt_artifact_every=1))
        with pytest.raises(ModelError, match="corrupt"):
            ModelRegistry._read_artifact(artifact)
        faults.disarm()
        loaded = ModelRegistry._read_artifact(artifact)
        assert loaded.fingerprint() == serve_model.fingerprint()


# ----------------------------------------------------------------------
# Client resilience
# ----------------------------------------------------------------------


class _ScriptedServer:
    """Line server whose per-request behaviour follows a script:
    ``ok`` answers, ``overload`` sends a typed overload envelope,
    ``silent`` never answers (the client must time out)."""

    def __init__(self, script):
        self.script = list(script)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                reader = conn.makefile("rb")
                for line in reader:
                    request = json.loads(line)
                    action = self.script.pop(0) if self.script else "ok"
                    if action == "silent":
                        continue
                    if action == "overload":
                        payload = {
                            "id": request.get("id"),
                            "ok": False,
                            "error": {
                                "type": "ServiceOverloadedError",
                                "message": "queue full",
                            },
                        }
                    else:
                        payload = {
                            "id": request.get("id"), "ok": True, "pong": True,
                        }
                    try:
                        conn.sendall((json.dumps(payload) + "\n").encode())
                    except OSError:
                        break

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture()
def scripted_server():
    servers = []

    def start(script):
        server = _ScriptedServer(script)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


class TestServeClientResilience:
    def test_retry_policy_validation(self):
        with pytest.raises(ServeError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ServeError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ServeError, match="delays"):
            RetryPolicy(base_delay_s=-0.1)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, max_delay_s=0.4, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_s(n, rng) for n in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=0)
        rng = random.Random(policy.seed)
        for n in range(20):
            delay = policy.delay_s(0, rng)
            assert 0.05 <= delay <= 0.15

    def test_connect_failure_is_retried_then_typed(self):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeError, match="after 3 attempt"):
            ServeClient(
                "127.0.0.1", port,
                retry=RetryPolicy(attempts=3, base_delay_s=0.001, jitter=0.0),
            )

    def test_overload_envelope_is_retried(self, scripted_server):
        server = scripted_server(["overload", "ok"])
        client = ServeClient(
            "127.0.0.1", server.port,
            retry=RetryPolicy(attempts=3, base_delay_s=0.001, jitter=0.0),
        )
        try:
            assert client.ping() is True
            assert client.retries == 1
        finally:
            client.close()

    def test_overload_surfaces_without_policy(self, scripted_server):
        server = scripted_server(["overload"])
        client = ServeClient("127.0.0.1", server.port)
        try:
            with pytest.raises(ServeResponseError) as excinfo:
                client.ping()
            assert excinfo.value.type == "ServiceOverloadedError"
            assert client.retries == 0
        finally:
            client.close()

    def test_recv_timeout_marks_connection_unusable(self, scripted_server):
        server = scripted_server(["silent", "ok"])
        client = ServeClient("127.0.0.1", server.port, timeout=0.2)
        try:
            with pytest.raises(ServeError, match="stream position is unknown"):
                client.request({"op": "ping"})
            # Every later call fails fast instead of desyncing silently.
            with pytest.raises(ServeError, match="unusable"):
                client.request({"op": "ping"})
            client.reconnect()
            assert client.ping() is True
        finally:
            client.close()


# ----------------------------------------------------------------------
# Fault-tolerance metrics
# ----------------------------------------------------------------------


class TestFaultMetrics:
    def test_fault_counters_exported(
        self, serve_model, serve_table, serve_queries
    ):
        async def scenario():
            async with ExplanationService(serve_model, serve_table) as service:
                with pytest.raises(DeadlineExceededError):
                    await service.explain(serve_queries[0], timeout_ms=1)
                await service.explain(serve_queries[0])
                registry = ModelRegistry.for_service(service, model_id="demo")
                return render_metrics(registry)

        # The flush delay holds the 1 ms request in the queue until it
        # expires (see test_queue_expired_request_is_shed).
        try:
            faults.arm(FaultPlan(flush_delay_ms=40))
            samples = parse_prometheus_text(run(scenario()))
        finally:
            faults.disarm()
        assert metric_value(samples, "repro_serve_timeouts_total", model="demo") == 1
        assert (
            metric_value(samples, "repro_serve_shed_expired_total", model="demo")
            == 1
        )
        assert (
            metric_value(
                samples, "repro_serve_worker_restarts_total", model="demo"
            )
            == 0
        )
        assert metric_value(samples, "repro_serve_retries_total", model="demo") == 0
        assert metric_value(samples, "repro_serve_quarantined_models") == 0
        assert metric_value(samples, "repro_serve_completed_total", model="demo") == 1


# ----------------------------------------------------------------------
# The terminal-outcome property
# ----------------------------------------------------------------------


class TestFaultToleranceProperty:
    """Under any armed :class:`FaultPlan` (flush delays) and any mix of
    per-request deadlines and queue pressure, every admitted request gets
    exactly one terminal outcome — a report or a typed
    :class:`DeadlineExceededError` — and the stats counters balance."""

    @settings(max_examples=10, deadline=None)
    @given(
        flush_delay_ms=st.sampled_from([0.0, 5.0, 25.0]),
        timeouts=st.lists(
            st.sampled_from([None, 1, 40, 5000]), min_size=1, max_size=6
        ),
        queue_limit=st.sampled_from([1, 2, 64]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_exactly_one_terminal_outcome_per_admitted_request(
        self,
        serve_model,
        serve_table,
        serve_queries,
        flush_delay_ms,
        timeouts,
        queue_limit,
        seed,
    ):
        plan = FaultPlan(seed=seed, flush_delay_ms=flush_delay_ms)

        async def scenario():
            async with ExplanationService(
                serve_model, serve_table, queue_limit=queue_limit
            ) as service:
                futures, rejected = [], 0
                for i, timeout_ms in enumerate(timeouts):
                    query = serve_queries[i % len(serve_queries)]
                    try:
                        futures.append(
                            service.submit(query, timeout_ms=timeout_ms)
                        )
                    except ServiceOverloadedError:
                        rejected += 1
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                return service.stats, outcomes, rejected

        try:
            faults.arm(plan)
            stats, outcomes, rejected = run(scenario())
        finally:
            faults.disarm()

        # Exactly one terminal outcome per admitted request.
        assert len(outcomes) == stats.submitted
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        assert all(isinstance(o, DeadlineExceededError) for o in failures)
        # Counters balance: admitted = completed + failed + timed out,
        # rejections tracked separately, sheds are a subset of timeouts.
        assert stats.submitted == stats.completed + stats.failed + stats.timeouts
        assert stats.rejected == rejected
        assert stats.shed_expired <= stats.timeouts
        assert stats.failed == 0
        assert len(failures) == stats.timeouts

"""Parallel execution subsystem: executors, shard planning, and parity.

Three layers of guarantees:

* **Infrastructure** — the shard planner is balanced and deterministic,
  executors preserve shard order, build per-worker state exactly once per
  worker, and honor the ownership rules of ``executor_scope``.
* **Parity** — sharded skeleton learning and sharded ``explain_batch``
  over process workers, fanned out from the main thread or from a worker
  thread (the service's flush-thread shape), are byte-identical to the
  serial path on a
  seeded ``random_graphs`` sweep: same graphs (``MixedGraph.__eq__``),
  same sepsets (``SepsetMap.__eq__``), same explanation rankings.
* **Cache seeding** — the regression for ISSUE 3's satellite: merged shard
  verdicts populate the shared :class:`CachedCITest` cache with correct
  hit/miss accounting, so post-parallel replay and Possible-D-SEP probing
  never re-test a triple.
"""

import json
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import GLOBAL_SEED
from oracles import contingency as reference

from repro.cli import main
from repro.core import ExplainSession, fit_model
from repro.data import Aggregate, WhyQuery, write_csv
from repro.datasets import generate_lungcancer, generate_syn_b, serving_queries
from repro.datasets.random_graphs import BayesNet, random_dag
from repro.discovery import SepsetMap, fci_from_table, learn_skeleton
from repro.errors import ReproError
from repro.independence import CachedCITest, ChiSquaredTest
from repro.independence.engine import CIProbeShardTask, EncodedDataset
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    Shard,
    ShardTask,
    default_workers,
    executor_scope,
    make_executor,
    plan_shards,
)

# ----------------------------------------------------------------------
# Shared workloads
# ----------------------------------------------------------------------


def discovery_table(seed: int, n_nodes: int = 6, n_rows: int = 600):
    rng = np.random.default_rng(seed)
    dag = random_dag(n_nodes, 0.35, rng)
    net = BayesNet.random(dag, rng, cardinality=3, dirichlet_alpha=0.5)
    return net.sample(n_rows, rng)


@pytest.fixture(scope="module")
def syn_b_case():
    return generate_syn_b(n_rows=800, seed=GLOBAL_SEED)


# ----------------------------------------------------------------------
# Shard planner
# ----------------------------------------------------------------------


class TestPlanShards:
    def test_balanced_contiguous_cover(self):
        for n_items in (1, 2, 7, 24, 100):
            for max_shards in (1, 2, 3, 8):
                shards = plan_shards(n_items, max_shards)
                assert shards[0].start == 0 and shards[-1].stop == n_items
                for prev, cur in zip(shards, shards[1:]):
                    assert prev.stop == cur.start
                sizes = [len(s) for s in shards]
                assert min(sizes) >= 1
                assert max(sizes) - min(sizes) <= 1
                assert len(shards) <= max_shards

    def test_deterministic(self):
        assert plan_shards(17, 4) == plan_shards(17, 4)
        assert plan_shards(10, 3) == (
            Shard(0, 0, 4), Shard(1, 4, 7), Shard(2, 7, 10)
        )

    def test_empty_and_small(self):
        assert plan_shards(0, 4) == ()
        assert [len(s) for s in plan_shards(2, 8)] == [1, 1]

    def test_min_shard_size_merges(self):
        assert len(plan_shards(10, 8, min_shard_size=5)) == 2
        assert len(plan_shards(3, 8, min_shard_size=5)) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ReproError):
            plan_shards(4, 0)
        with pytest.raises(ReproError):
            plan_shards(4, 2, min_shard_size=0)

    def test_take_slices_items(self):
        items = list(range(10))
        shards = plan_shards(len(items), 3)
        assert [x for s in shards for x in s.take(items)] == items


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class SquareTask(ShardTask):
    """Toy task recording how often per-worker state is built."""

    def __init__(self):
        self.builds = 0

    def build_state(self):
        self.builds += 1  # meaningful in-process only (serial)
        return "state"

    def run(self, state, payload):
        assert state == "state"
        return [x * x for x in payload]


class TestExecutors:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_map_preserves_order(self, kind):
        payloads = [[1, 2], [3], [4, 5, 6], []]
        with make_executor(1 if kind == "serial" else 2) as ex:
            out = ex.map(SquareTask(), payloads)
        assert out == [[1, 4], [9], [16, 25, 36], []]

    def test_process_map_preserves_order(self, process_pair):
        payloads = [[i, i + 1] for i in range(6)]
        out = process_pair.map(SquareTask(), payloads)
        assert out == [[i * i, (i + 1) * (i + 1)] for i in range(6)]

    def test_serial_builds_state_once(self):
        task = SquareTask()
        SerialExecutor().map(task, [[1]] * 5)
        assert task.builds == 1

    def test_workers_validated(self):
        with pytest.raises(ReproError):
            ProcessExecutor(0)
        for bad in (0, -7):
            with pytest.raises(ReproError, match="workers must be"):
                make_executor(bad)
            with pytest.raises(ReproError, match="workers must be"):
                with executor_scope(workers=bad):
                    pass

    def test_make_executor_kinds(self):
        assert make_executor(1).kind == "serial"
        assert make_executor(4).kind == "process"

    def test_scope_owns_built_executor(self):
        with executor_scope(workers=2) as ex:
            assert ex.kind == "process" and ex.workers == 2
            ex.map(SquareTask(), [[1]])
            assert ex._pool is not None
        assert ex._pool is None  # closed on exit

    def test_scope_leaves_caller_executor_open(self, process_pair):
        process_pair.map(SquareTask(), [[1]])
        with executor_scope(executor=process_pair) as ex:
            assert ex is process_pair
        assert process_pair._pool is not None  # caller owns the lifecycle

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        with executor_scope() as ex:
            assert ex.workers == 3

    def test_malformed_workers_env_warns_once_with_value(self, monkeypatch):
        from repro.parallel import executor as executor_module

        monkeypatch.setattr(executor_module, "_WARNED_WORKERS", set())
        for bad in ("four", "-2", "0"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.warns(RuntimeWarning, match=f"REPRO_WORKERS={bad!r}"):
                assert default_workers() == 1
            # Second call with the same bad value stays silent (warn once).
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert default_workers() == 1

    def test_empty_workers_env_is_silently_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_workers() == 1


class TestShardTaskPickling:
    def test_encoded_dataset_pickles_without_strata_cache(self):
        data = EncodedDataset.from_arrays(
            {"a": [0, 1, 0, 1], "b": [1, 1, 0, 0], "c": [0, 0, 1, 1]}
        )
        data.strata(("a", "b"))
        assert data._strata_cache
        clone = pickle.loads(pickle.dumps(data))
        assert clone._strata_cache == {}
        assert clone.columns == data.columns
        for name in data.columns:
            np.testing.assert_array_equal(clone.codes(name), data.codes(name))
            assert clone.categories(name) == data.categories(name)

    def test_ci_probe_task_round_trips(self, small_chain_table):
        tester = ChiSquaredTest(small_chain_table)
        task = pickle.loads(pickle.dumps(tester.shard_task()))
        state = task.build_state()
        probes = [("X", "Y", ()), ("X", "Y", ("M",))]
        restored = task.run(state, probes)
        direct = tester.test_batch(probes)
        assert [(r.statistic, r.p_value, r.dof) for r in restored] == [
            (r.statistic, r.p_value, r.dof) for r in direct
        ]
        assert isinstance(task, CIProbeShardTask)


# ----------------------------------------------------------------------
# SepsetMap equality (satellite: whole-skeleton comparisons)
# ----------------------------------------------------------------------


class TestSepsetMapEquality:
    def test_equal_regardless_of_insertion_order(self):
        a, b = SepsetMap(), SepsetMap()
        a.record("x", "y", ["u", "v"])
        a.record("p", "q", [])
        b.record("p", "q", [])
        b.record("y", "x", ["v", "u"])  # unordered pair, any z order
        assert a == b

    def test_unequal_on_different_sets(self):
        a, b = SepsetMap(), SepsetMap()
        a.record("x", "y", ["u"])
        b.record("x", "y", ["v"])
        assert a != b
        b2 = SepsetMap()
        assert a != b2

    def test_non_sepset_compares_unequal(self):
        assert SepsetMap() != {"not": "a sepset map"}
        assert SepsetMap().__eq__(object()) is NotImplemented


# ----------------------------------------------------------------------
# Parallel / serial parity
# ----------------------------------------------------------------------


class TestSkeletonParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_thread_sharded_skeleton_identical(self, seed, process_pair):
        # A fit handed off to a worker thread fans out from that thread:
        # the pool, rebuilt for the new task, starts its workers there and
        # the verdicts come back to it rather than to the main thread.
        table = discovery_table(seed)
        serial = learn_skeleton(
            table.dimensions, CachedCITest(ChiSquaredTest(table))
        )
        with ThreadPoolExecutor(max_workers=1) as thread:
            sharded = thread.submit(
                learn_skeleton,
                table.dimensions,
                CachedCITest(ChiSquaredTest(table)),
                executor=process_pair,
            ).result(timeout=120)
        assert sharded.graph == serial.graph
        assert sharded.sepsets == serial.sepsets

    @pytest.mark.parametrize("seed", [0, 1])
    def test_process_sharded_skeleton_identical(self, seed, process_pair):
        table = discovery_table(seed)
        serial = learn_skeleton(
            table.dimensions, CachedCITest(ChiSquaredTest(table))
        )
        sharded = learn_skeleton(
            table.dimensions,
            CachedCITest(ChiSquaredTest(table)),
            executor=process_pair,
        )
        assert sharded.graph == serial.graph
        assert sharded.sepsets == serial.sepsets

    def test_fci_workers_identical(self):
        table = discovery_table(5, n_nodes=7)
        serial = fci_from_table(table, max_depth=3)
        sharded = fci_from_table(table, max_depth=3, workers=2, executor=None)
        assert sharded.pag == serial.pag
        assert sharded.sepsets == serial.sepsets

    def test_unbatchable_test_warns_and_runs_serial(self):
        # The per-stratum reference test has no batch support.
        table = discovery_table(9)

        def unbatched(t):
            return CachedCITest(reference.ChiSquaredTest(t))

        serial = fci_from_table(table, unbatched, max_depth=2)
        with pytest.warns(UserWarning, match="no native batch support"):
            unsharded = fci_from_table(
                table, unbatched, max_depth=2, workers=2, executor=None,
            )
        assert unsharded.pag == serial.pag

    def test_serial_executor_is_default_path(self):
        table = discovery_table(6)
        plain = learn_skeleton(
            table.dimensions, CachedCITest(ChiSquaredTest(table))
        )
        via_scope = fci_from_table(table, max_depth=None, use_possible_d_sep=False)
        assert plain.graph.same_adjacencies(via_scope.pag)


def report_signature(report):
    return (
        report.delta,
        [
            (e.type, e.attribute, str(e.predicate), e.score, e.responsibility)
            for e in report.explanations
        ],
        sorted(report.translations),
    )


class TestExplainBatchParity:
    @pytest.fixture(scope="class")
    def fitted(self, syn_b_case):
        model = fit_model(syn_b_case.table, measure_bins=4)
        queries = serving_queries(syn_b_case, 6)
        serial = ExplainSession(model, syn_b_case.table).explain_batch(queries)
        return model, queries, serial

    def test_thread_sharded_batch_identical(self, syn_b_case, fitted, process_pair):
        # The serving shape: the service hands every flush to one dedicated
        # thread, which fans the batch out to process workers and asks for
        # per-query outcomes instead of a raise.
        model, queries, serial = fitted
        session = ExplainSession(model, syn_b_case.table)
        with ThreadPoolExecutor(max_workers=1) as flush_thread:
            reports = flush_thread.submit(
                session.explain_batch,
                queries,
                executor=process_pair,
                on_error="return",
            ).result(timeout=120)
        assert [report_signature(r) for r in reports] == [
            report_signature(r) for r in serial
        ]
        assert session.stats.queries == len(queries)

    def test_process_sharded_batch_identical(self, syn_b_case, fitted, process_pair):
        model, queries, serial = fitted
        session = ExplainSession(model, syn_b_case.table)
        reports = session.explain_batch(queries, executor=process_pair)
        assert [report_signature(r) for r in reports] == [
            report_signature(r) for r in serial
        ]
        assert session.stats.queries == len(queries)
        # A poison query fails its shard under "raise" and comes back as an
        # exception in its own slot under "return".
        poison = WhyQuery(queries[0].s1, queries[0].s2, "NoSuchMeasure", Aggregate.AVG)
        batch = [*queries[:2], poison, *queries[2:]]
        with pytest.raises(ReproError):
            session.explain_batch(batch, executor=process_pair)
        returned = session.explain_batch(batch, executor=process_pair, on_error="return")
        assert isinstance(returned.pop(2), ReproError)
        assert [report_signature(r) for r in returned] == [
            report_signature(r) for r in serial
        ]

    def test_workers_kwarg_resolves(self, syn_b_case, fitted):
        model, queries, serial = fitted
        session = ExplainSession(model, syn_b_case.table)
        reports = session.explain_batch(queries[:3], workers=2)
        assert [report_signature(r) for r in reports] == [
            report_signature(r) for r in serial[:3]
        ]

    def test_shard_task_reused_across_calls(self, syn_b_case, fitted, process_pair):
        # Process pools key on task identity: a serving loop over one
        # executor must get the same task back or the pool respawns per call.
        model, queries, _serial = fitted
        session = ExplainSession(model, syn_b_case.table)
        session.explain_batch(queries, executor=process_pair)
        task_first = session._shard_task
        session.explain_batch(queries, executor=process_pair)
        assert session._shard_task is task_first
        from repro.core import XPlainerConfig

        session.explain_batch(
            queries,
            config=XPlainerConfig(epsilon_fraction=0.1),
            executor=process_pair,
        )
        assert session._shard_task is not task_first

    def test_single_query_stays_serial(self, syn_b_case, fitted, process_pair):
        model, queries, serial = fitted
        session = ExplainSession(model, syn_b_case.table)
        reports = session.explain_batch(queries[:1], executor=process_pair)
        assert report_signature(reports[0]) == report_signature(serial[0])
        # the serial fast path runs in-session and warms its caches
        assert session.cache_info()["translation_misses"] == 1


# ----------------------------------------------------------------------
# CachedCITest seeding from merged shard verdicts (regression)
# ----------------------------------------------------------------------


class TestCacheSeedingFromShards:
    def test_parallel_replay_is_pure_hits(self, process_pair):
        table = discovery_table(7)
        ci_test = CachedCITest(ChiSquaredTest(table))
        result = learn_skeleton(table.dimensions, ci_test, executor=process_pair)
        misses_after_learning = ci_test.misses
        # Re-probe every recorded separation (what Possible-D-SEP and the
        # replay do): all hits, no new inner tests.
        for pair, z in result.sepsets.items():
            x, y = tuple(pair)
            ci_test.test(x, y, z)
            ci_test.test_batch([(y, x, tuple(z))])
        assert ci_test.misses == misses_after_learning
        assert ci_test.hits > 0

    def test_miss_count_matches_serial(self, process_pair):
        table = discovery_table(8)
        serial_test = CachedCITest(ChiSquaredTest(table))
        learn_skeleton(table.dimensions, serial_test)
        sharded_test = CachedCITest(ChiSquaredTest(table))
        learn_skeleton(table.dimensions, sharded_test, executor=process_pair)
        # Same depth batches, same dedup: sharding changes who computes a
        # verdict, never how many unique triples are computed.
        assert sharded_test.misses == serial_test.misses
        assert sharded_test.calls == serial_test.calls

    def test_batch_hit_miss_accounting_with_executor(
        self, small_chain_table, process_pair
    ):
        ci_test = CachedCITest(ChiSquaredTest(small_chain_table))
        probes = [
            ("X", "Y", ()),
            ("Y", "X", ()),  # canonical duplicate: one inner test
            ("X", "M", ("Y",)),
            ("X", "Y", ()),
        ]
        ci_test.test_batch(probes, executor=process_pair)
        assert ci_test.calls == 4
        assert ci_test.misses == 2
        assert ci_test.hits == 2
        ci_test.test_batch(probes, executor=process_pair)
        assert ci_test.misses == 2  # fully seeded: second pass is pure hits
        assert ci_test.hits == 6


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def lung_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel-cli") / "lung.csv"
    write_csv(generate_lungcancer(n_rows=1500, seed=0), path)
    return str(path)


class TestCLIParallel:
    def test_fit_workers_model_identical(self, lung_csv, tmp_path):
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        assert main(["fit", lung_csv, "--out", str(serial_out)]) == 0
        assert main(
            ["fit", lung_csv, "--out", str(sharded_out), "--workers", "2"]
        ) == 0
        serial = json.loads(serial_out.read_text())
        sharded = json.loads(sharded_out.read_text())
        # The fit profile records wall-clock per phase, so it legitimately
        # differs between runs; the learned content must not.
        serial_profile = serial.pop("profile")
        sharded_profile = sharded.pop("profile")
        assert serial == sharded
        assert serial["fingerprint"] == sharded["fingerprint"]
        assert [p["name"] for p in serial_profile["phases"]] == [
            p["name"] for p in sharded_profile["phases"]
        ]

    def test_batch_explain_workers_same_output(self, lung_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        queries_path = tmp_path / "queries.json"
        queries = [
            {"s1": {"Location": "A"}, "s2": {"Location": "B"},
             "measure": "LungCancer", "agg": "AVG"},
            {"s1": {"Location": "B"}, "s2": {"Location": "A"},
             "measure": "LungCancer", "agg": "AVG"},
        ]
        queries_path.write_text(json.dumps(queries))
        assert main(["fit", lung_csv, "--out", str(model_path)]) == 0
        capsys.readouterr()  # flush the fit banner
        base_args = [
            "batch-explain", lung_csv, "--model", str(model_path),
            "--queries", str(queries_path),
        ]
        code = main(base_args)
        serial_out = capsys.readouterr().out
        assert code == 0
        code = main(base_args + ["--workers", "2"])
        parallel_out = capsys.readouterr().out
        assert code == 0
        assert parallel_out == serial_out

    def test_rejects_unknown_executor(self, lung_csv, tmp_path):
        # There is no --executor flag: the worker count picks the executor.
        for kind in ("gpu", "thread"):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    ["fit", lung_csv, "--out", str(tmp_path / "m.json"),
                     "--executor", kind]
                )
            assert exit_info.value.code == 2

    def test_fit_refuses_workers_below_one(self, lung_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        for bad in ("0", "-7"):
            assert main(["fit", lung_csv, "--out", str(out), "--workers", bad]) == 2
            assert "workers must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", ["model", "registry"])
    def test_serve_refuses_workers_below_one(self, tmp_path, shape):
        model_dir = tmp_path / "registry" / "demo"
        model_dir.mkdir(parents=True)
        write_csv(generate_lungcancer(n_rows=300, seed=0), model_dir / "data.csv")
        assert main(
            ["fit", str(model_dir / "data.csv"), "--out", str(model_dir / "1.json")]
        ) == 0
        if shape == "model":
            source = [
                str(model_dir / "data.csv"), "--model", str(model_dir / "1.json")
            ]
        else:
            source = ["--registry", str(tmp_path / "registry")]
        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", *source,
                "--port", "0", "--workers", "0",
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2, proc.stderr
        assert "workers must be" in proc.stderr
        assert "serving on" not in proc.stderr

"""Discovery-parity suite: vectorized CI engine vs the per-stratum baseline.

The vectorized engine (repro.independence.engine) must be a *refactoring*
of the per-stratum reference tests (tests/oracles/contingency.py), not a
new test: identical statistics/p-values (1e-9) per probe, and identical
skeletons, sepsets, PAGs and XLearner output on the synthetic benchmarks
and the m-separation oracle datasets.
"""

from itertools import combinations

import numpy as np
import pytest
from conftest import random_parent_map
from oracles import contingency as reference

from repro.core.xlearner import xlearner
from repro.data.discretize import discretize
from repro.datasets import generate_syn_a, generate_syn_b
from repro.discovery import fci, fci_from_table, learn_skeleton, pc
from repro.graph import dag_from_parents, latent_projection
from repro.independence import CachedCITest, ChiSquaredTest, GTest, OracleCITest

ATOL = 1e-9


@pytest.fixture(scope="module")
def syn_a_table():
    return generate_syn_a(n_nodes=8, seed=0, n_rows=800).table


@pytest.fixture(scope="module")
def syn_b_table():
    case = generate_syn_b(n_rows=1500, seed=1)
    binned, _ = discretize(case.table, "Z", n_bins=5)
    return binned


def probe_plan(columns, max_z=2, per_size=4):
    """A bounded, deterministic sample of (x, y | Z) probes."""
    rng = np.random.default_rng(0)
    probes = []
    for x, y in combinations(columns, 2):
        rest = [c for c in columns if c not in (x, y)]
        for size in range(0, max_z + 1):
            subsets = list(combinations(rest, size))
            if len(subsets) > per_size:
                picks = rng.choice(len(subsets), size=per_size, replace=False)
                subsets = [subsets[i] for i in sorted(picks)]
            probes.extend((x, y, z) for z in subsets)
    return probes


def assert_result_parity(old, new):
    assert old.dof == new.dof, (old, new)
    assert abs(old.statistic - new.statistic) <= ATOL, (old, new)
    assert abs(old.p_value - new.p_value) <= ATOL, (old, new)


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through instance attributes,
    slots and container items."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not isinstance(obj, (str, bytes, int, float, type)):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return arrays


def edge_set(graph):
    return {frozenset((u, v)) for u, v, _, _ in graph.edges()}


def mark_signature(graph):
    sig = {}
    for u, v, mark_u, mark_v in graph.edges():
        sig[(u, v)] = mark_u
        sig[(v, u)] = mark_v
    return sig


class TestProbeParity:
    @pytest.mark.parametrize(
        "old_cls,new_cls",
        [(reference.ChiSquaredTest, ChiSquaredTest), (reference.GTest, GTest)],
        ids=["chi2", "g"],
    )
    def test_syn_a_probes(self, syn_a_table, old_cls, new_cls):
        columns = syn_a_table.dimensions[:8]
        old, new = old_cls(syn_a_table), new_cls(syn_a_table)
        for x, y, z in probe_plan(columns):
            assert_result_parity(old.test(x, y, z), new.test(x, y, z))

    @pytest.mark.parametrize(
        "old_cls,new_cls",
        [(reference.ChiSquaredTest, ChiSquaredTest), (reference.GTest, GTest)],
        ids=["chi2", "g"],
    )
    def test_syn_b_probes(self, syn_b_table, old_cls, new_cls):
        columns = syn_b_table.dimensions
        old, new = old_cls(syn_b_table), new_cls(syn_b_table)
        for x, y, z in probe_plan(columns, max_z=1):
            assert_result_parity(old.test(x, y, z), new.test(x, y, z))

    def test_batch_matches_singles(self, syn_a_table):
        columns = syn_a_table.dimensions[:6]
        probes = probe_plan(columns, max_z=2)
        test = ChiSquaredTest(syn_a_table)
        for probe, batched in zip(probes, test.test_batch(probes)):
            single = test.test(*probe)
            assert batched.statistic == single.statistic
            assert batched.p_value == single.p_value
            assert batched.dof == single.dof

    def test_sparse_path_matches_dense(self, syn_a_table):
        columns = syn_a_table.dimensions[:6]
        dense = ChiSquaredTest(syn_a_table)
        sparse = ChiSquaredTest(syn_a_table, dense_limit=1)
        for x, y, z in probe_plan(columns, max_z=2):
            assert_result_parity(dense.test(x, y, z), sparse.test(x, y, z))

    def test_strata_cache_is_bounded(self):
        from repro.independence.engine import _STRATA_CACHE_SIZE, EncodedDataset

        data = EncodedDataset.from_arrays(
            {f"c{i}": [0, 1, i % 2] for i in range(12)}
        )
        conditioning_sets = [
            z for size in range(1, 5) for z in combinations(data.columns, size)
        ]
        assert len(conditioning_sets) > 2 * _STRATA_CACHE_SIZE
        for z in conditioning_sets:
            data.strata(z)
        assert len(data._strata_cache) <= _STRATA_CACHE_SIZE
        # No second store may keep strata alive beside the LRU: count every
        # array reachable from the dataset that is not a code column.
        codes = {id(data.codes(name)) for name in data.columns}
        stratum_arrays = {
            id(a) for a in reachable_arrays(data) if id(a) not in codes
        }
        assert len(stratum_arrays) <= _STRATA_CACHE_SIZE

    def test_min_stratum_rows_respected(self, syn_a_table):
        columns = syn_a_table.dimensions[:5]
        old = reference.ChiSquaredTest(syn_a_table, min_stratum_rows=30)
        new = ChiSquaredTest(syn_a_table, min_stratum_rows=30)
        for x, y, z in probe_plan(columns, max_z=2):
            assert_result_parity(old.test(x, y, z), new.test(x, y, z))


class TestSkeletonParity:
    def test_syn_a_skeleton_identical(self, syn_a_table):
        nodes = syn_a_table.dimensions
        old = learn_skeleton(
            nodes, CachedCITest(reference.ChiSquaredTest(syn_a_table))
        )
        new = learn_skeleton(nodes, CachedCITest(ChiSquaredTest(syn_a_table)))
        assert edge_set(old.graph) == edge_set(new.graph)
        assert old.sepsets == new.sepsets

    def test_syn_b_skeleton_identical(self, syn_b_table):
        nodes = syn_b_table.dimensions
        old = learn_skeleton(
            nodes, CachedCITest(reference.ChiSquaredTest(syn_b_table))
        )
        new = learn_skeleton(nodes, CachedCITest(ChiSquaredTest(syn_b_table)))
        assert edge_set(old.graph) == edge_set(new.graph)
        assert old.sepsets == new.sepsets

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_oracle_batched_replay_identical(self, seed):
        # Force the batched replay with a per-probe oracle: the replayed
        # visit order must reproduce the sequential skeleton exactly.
        rng = np.random.default_rng(seed)
        dag = dag_from_parents(random_parent_map(rng, 7, 0.4))
        nodes = tuple(dag.nodes)
        seq = learn_skeleton(nodes, OracleCITest(dag), batch=False)
        bat = learn_skeleton(nodes, OracleCITest(dag), batch=True)
        assert edge_set(seq.graph) == edge_set(bat.graph)
        assert seq.sepsets == bat.sepsets


class TestDiscoveryParity:
    def test_fci_pag_identical_on_syn_a(self, syn_a_table):
        old = fci_from_table(
            syn_a_table,
            lambda t: CachedCITest(reference.ChiSquaredTest(t)),
            max_depth=3,
        )
        new = fci_from_table(syn_a_table, max_depth=3)
        assert mark_signature(old.pag) == mark_signature(new.pag)
        assert old.sepsets == new.sepsets

    def test_pc_cpdag_identical_on_syn_b(self, syn_b_table):
        nodes = syn_b_table.dimensions
        old = pc(nodes, CachedCITest(reference.ChiSquaredTest(syn_b_table)))
        new = pc(nodes, CachedCITest(ChiSquaredTest(syn_b_table)))
        assert mark_signature(old.cpdag) == mark_signature(new.cpdag)

    def test_xlearner_pag_identical_on_syn_a(self, syn_a_table):
        old = xlearner(
            syn_a_table,
            ci_test=CachedCITest(reference.ChiSquaredTest(syn_a_table)),
            max_depth=3,
        )
        new = xlearner(syn_a_table, max_depth=3)  # default: vectorized engine
        assert mark_signature(old.pag) == mark_signature(new.pag)
        assert old.fd_skeleton == new.fd_skeleton

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fci_oracle_batched_replay_identical(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(7)]
        dag = dag_from_parents(random_parent_map(rng, 7, 0.4))
        latent = set(rng.choice(names, size=2, replace=False).tolist())
        observed = tuple(v for v in names if v not in latent)
        mag = latent_projection(dag, observed)

        class BatchedOracle(OracleCITest):
            supports_batch = True  # routes through the default looped batch

        seq = fci(observed, OracleCITest(mag), max_dsep_size=None)
        bat = fci(observed, BatchedOracle(mag), max_dsep_size=None)
        assert mark_signature(seq.pag) == mark_signature(bat.pag)
        assert seq.sepsets == bat.sepsets

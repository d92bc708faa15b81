"""Property-based invariants for SepsetMap, CachedCITest and EncodedDataset.

Hypothesis-driven checks of the contracts the discovery layer relies on:
sepset keys are unordered, cache hit accounting balances even with shared
inner tests, and the columnar encoding round-trips arbitrary values.  A
final property pits the vectorized engine against the per-stratum baseline
(tests/oracles/contingency.py) on random tables, covering the degenerate shapes (empty strata, cardinality
1, single rows) that example-based parity tests can miss.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import contingency as reference

from repro.data import Table
from repro.discovery import SepsetMap
from repro.graph import dag_from_parents
from repro.independence import (
    CachedCITest,
    ChiSquaredTest,
    EncodedDataset,
    GTest,
    OracleCITest,
)

nodes_st = st.integers(min_value=0, max_value=5)
records_st = st.lists(
    st.tuples(nodes_st, nodes_st, st.sets(nodes_st, max_size=4)), max_size=20
)


class TestSepsetMapProperties:
    @given(records=records_st)
    @settings(deadline=None)
    def test_symmetric_last_write_wins(self, records):
        m = SepsetMap()
        expected = {}
        for x, y, z in records:
            m.record(x, y, z)
            expected[frozenset((x, y))] = set(z)
        for x, y, z in records:
            assert m.get(x, y) == expected[frozenset((x, y))]
            assert m.get(x, y) == m.get(y, x)
            for member in expected[frozenset((x, y))]:
                assert m.contains(x, y, member) and m.contains(y, x, member)
        assert len(m) == len(expected)
        assert dict(m.items()) == expected

    @given(x=nodes_st, y=nodes_st)
    def test_unrecorded_pair_is_none(self, x, y):
        m = SepsetMap()
        assert m.get(x, y) is None
        assert not m.contains(x, y, 0)


VARS = ("a", "b", "c", "d")
probe_st = st.tuples(
    st.sampled_from(VARS),
    st.sampled_from(VARS),
    st.sets(st.sampled_from(VARS), max_size=2),
).filter(lambda p: p[0] != p[1] and p[0] not in p[2] and p[1] not in p[2])


def _oracle():
    return OracleCITest(dag_from_parents({"b": ["a"], "c": ["b"], "d": []}))


class TestCachedCITestProperties:
    @given(probes=st.lists(probe_st, max_size=30))
    @settings(deadline=None)
    def test_hit_accounting_balances(self, probes):
        inner = _oracle()
        cached = CachedCITest(inner)
        for x, y, z in probes:
            cached.test(x, y, z)
        distinct = len({CachedCITest.canonical_key(x, y, z) for x, y, z in probes})
        assert cached.calls == len(probes)
        assert cached.misses == distinct
        assert cached.hits == cached.calls - cached.misses
        assert inner.calls == cached.misses

    @given(
        first_probes=st.lists(probe_st, max_size=15),
        second_probes=st.lists(probe_st, max_size=15),
    )
    @settings(deadline=None)
    def test_hits_independent_of_shared_inner(self, first_probes, second_probes):
        # Two wrappers sharing one inner test: each wrapper's hits must
        # reflect only its own cache, regardless of interleaving.
        inner = _oracle()
        first, second = CachedCITest(inner), CachedCITest(inner)
        for i, probe in enumerate(first_probes + second_probes):
            (first if i % 2 == 0 else second).test(*probe)
            assert first.hits == first.calls - first.misses >= 0
            assert second.hits == second.calls - second.misses >= 0
        assert inner.calls == first.misses + second.misses

    @given(probes=st.lists(probe_st, min_size=1, max_size=10))
    @settings(deadline=None)
    def test_clear_resets_cache(self, probes):
        inner = _oracle()
        cached = CachedCITest(inner)
        results = [cached.test(*p) for p in probes]
        cached.clear()
        before = inner.calls
        replayed = [cached.test(*p) for p in probes]
        distinct = len({CachedCITest.canonical_key(*p) for p in probes})
        assert inner.calls - before == distinct  # cache really was emptied
        for old, new in zip(results, replayed):
            assert old.p_value == new.p_value

    @given(probes=st.lists(probe_st, max_size=20))
    @settings(deadline=None)
    def test_batch_equals_sequential_cache_state(self, probes):
        seq, bat = CachedCITest(_oracle()), CachedCITest(_oracle())
        seq_results = [seq.test(*p) for p in probes]
        bat_results = bat.test_batch(probes)
        for a, b in zip(seq_results, bat_results):
            assert (a.p_value, a.statistic, a.dof) == (b.p_value, b.statistic, b.dof)
        assert (seq.calls, seq.misses, seq.hits) == (bat.calls, bat.misses, bat.hits)


value_st = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
)


class TestEncodedDatasetProperties:
    @given(values=st.lists(value_st, max_size=40))
    @settings(deadline=None)
    def test_round_trip_arbitrary_values(self, values):
        ds = EncodedDataset.from_arrays({"col": values})
        decoded = ds.decode("col")
        # Round-trip is up to Python equality (1 == 1.0 == True share a code,
        # exactly as CategoricalColumn factorizes them).
        assert len(decoded) == len(values)
        assert all(d == v for d, v in zip(decoded, values))
        codes = ds.codes("col")
        assert ds.cardinality("col") == len(set(values))
        assert all(0 <= c < ds.cardinality("col") for c in codes)

    @given(
        n_rows=st.integers(min_value=0, max_value=30),
        seeds=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    @settings(deadline=None)
    def test_strata_partition_is_order_insensitive(self, n_rows, seeds):
        rng = np.random.default_rng(seeds[0] * 100 + seeds[1])
        ds = EncodedDataset.from_arrays(
            {
                "u": rng.integers(0, 3, size=n_rows).tolist(),
                "v": rng.integers(0, 2, size=n_rows).tolist(),
            }
        )
        codes_uv, n_uv = ds.strata(("u", "v"))
        codes_vu, n_vu = ds.strata(("v", "u"))
        assert n_uv == n_vu
        assert (codes_uv == codes_vu).all()

    @given(
        cards=st.lists(
            st.one_of(st.integers(1, 6), st.just(1 << 16)), min_size=1, max_size=5
        ),
        n_rows=st.integers(min_value=0, max_value=60),
        seed=st.integers(0, 2**16),
    )
    # Radix within the presence-table bound (6 ≤ 4 × 50 rows), above it
    # (64,000 > 4 × 20), and past _RADIX_LIMIT mid-fold (2**64).
    @example(cards=[2, 3], n_rows=50, seed=0)
    @example(cards=[40, 40, 40], n_rows=20, seed=1)
    @example(cards=[1 << 16] * 4, n_rows=30, seed=2)
    @settings(deadline=None)
    def test_strata_equal_np_unique_of_the_fold(self, cards, n_rows, seed):
        rng = np.random.default_rng(seed)
        names = [f"z{i}" for i in range(len(cards))]
        ds = EncodedDataset(
            {n: rng.integers(0, k, size=n_rows) for n, k in zip(names, cards)},
            {n: tuple(range(k)) for n, k in zip(names, cards)},
        )
        # The mixed-radix fold in Python ints, which never overflow.
        fold = [0] * n_rows
        for name in sorted(names, key=repr):
            k = ds.cardinality(name)
            fold = [f * k + int(c) for f, c in zip(fold, ds.codes(name))]
        observed, inverse = np.unique(np.array(fold, dtype=object), return_inverse=True)
        codes, count = ds.strata(names)
        assert count == observed.size == ds.n_strata(names)
        assert codes.dtype == np.int64
        assert codes.tolist() == inverse.tolist()


column_st = st.lists(st.sampled_from("pqr"), min_size=1, max_size=50)


@given(
    x=column_st,
    y=column_st,
    z=column_st,
    kind=st.sampled_from(["chi2", "g"]),
    with_z=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_baseline_on_random_tables(x, y, z, kind, with_z):
    """Vectorized vs per-stratum baseline on arbitrary small tables."""
    n = min(len(x), len(y), len(z))
    table = Table.from_columns({"X": x[:n], "Y": y[:n], "Z": z[:n]})
    old_cls = reference.ChiSquaredTest if kind == "chi2" else reference.GTest
    new_cls = ChiSquaredTest if kind == "chi2" else GTest
    cond = ("Z",) if with_z else ()
    old = old_cls(table).test("X", "Y", cond)
    new = new_cls(table).test("X", "Y", cond)
    assert old.dof == new.dof
    assert abs(old.statistic - new.statistic) <= 1e-9
    assert abs(old.p_value - new.p_value) <= 1e-9

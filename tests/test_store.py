"""Column-store tests: round-trip, zero-copy pickling, chunked-kernel parity.

The contract under test: a store-backed :class:`~repro.data.table.Table` /
:class:`~repro.independence.engine.EncodedDataset` must be *observably
identical* to its in-RAM twin — same skeleton, same sepsets, same
explanation reports, byte-identical contingency cubes — while a
store-backed ``Table`` crosses a process boundary as O(manifest-path)
bytes instead of O(n_rows) column arrays.
"""

import pickle

import numpy as np
import pytest

from repro.core.model import fit_model
from repro.core.session import ExplainSession
from repro.data import ColumnStore, QueryWorkspace, Role, Subspace, Table, WhyQuery
from repro.data.store import MANIFEST_NAME
from repro.discovery.fci import fci_from_table
from repro.errors import StoreError
from repro.independence import BatchCITester
from repro.independence.engine import EncodedDataset

from test_parallel import report_signature

SEED = 7


def make_table(n: int = 6000, seed: int = SEED) -> Table:
    """Binary chain A -> B -> C with an extra noise dimension and a measure
    driven by C — enough structure for discovery and explanation parity."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.85, a, 1 - a)
    c = np.where(rng.random(n) < 0.85, b, 1 - b)
    noise = rng.integers(0, 3, n)
    measure = c * 2.0 + rng.normal(0.0, 0.25, n)
    return Table.from_columns(
        {
            "A": ["a" if v else "b" for v in a],
            "B": ["y" if v else "n" for v in b],
            "C": ["hi" if v else "lo" for v in c],
            "N": [str(v) for v in noise],
            "M": measure.tolist(),
        }
    )


@pytest.fixture(scope="module")
def ram_table() -> Table:
    return make_table()


@pytest.fixture(scope="module")
def store(ram_table, tmp_path_factory) -> ColumnStore:
    return ram_table.to_store(tmp_path_factory.mktemp("cs") / "store")


@pytest.fixture(scope="module")
def mapped_table(store) -> Table:
    return Table.from_store(store.path)


class TestStoreRoundTrip:
    def test_table_round_trips(self, ram_table, mapped_table):
        assert mapped_table.n_rows == ram_table.n_rows
        assert mapped_table.schema == ram_table.schema
        for name in ram_table.dimensions:
            np.testing.assert_array_equal(
                mapped_table.codes(name), ram_table.codes(name)
            )
            assert mapped_table.categories(name) == ram_table.categories(name)
        for name in ram_table.measures:
            np.testing.assert_array_equal(
                mapped_table.measure_values(name), ram_table.measure_values(name)
            )

    def test_mapped_columns_are_memmaps(self, mapped_table, store):
        for name in mapped_table.schema.columns:
            col = mapped_table.column(name)
            assert col.is_mapped
        assert mapped_table.store.path == store.path

    def test_copy_mode_loads_plain_arrays(self, store):
        table = Table.from_store(store.path, mmap=False)
        assert not any(table.column(n).is_mapped for n in table.schema.columns)

    def test_store_introspection(self, store, ram_table):
        assert store.n_rows == ram_table.n_rows
        assert store.columns == ram_table.schema.columns
        assert set(store.dimensions) == set(ram_table.dimensions)
        assert set(store.measures) == set(ram_table.measures)
        assert store.role("A") is Role.DIMENSION
        assert store.role("M") is Role.MEASURE
        assert store.categories("A") == ram_table.categories("A")

    def test_write_refuses_existing_store(self, ram_table, store):
        with pytest.raises(StoreError, match="already holds"):
            ram_table.to_store(store.path)

    def test_force_replaces_existing_store(self, ram_table, tmp_path):
        target = tmp_path / "s"
        ram_table.to_store(target)
        smaller = make_table(n=100, seed=SEED + 1)
        replaced = smaller.to_store(target, force=True)
        assert replaced.n_rows == 100
        # No leftover column files from the larger original store.
        assert len(sorted(target.glob("col_*.npy"))) == len(replaced.columns)
        assert Table.from_store(target).n_rows == 100

    def test_write_refuses_leftover_column_files(self, ram_table, tmp_path):
        target = tmp_path / "crashed"
        target.mkdir()
        (target / "col_00000.npy").write_bytes(b"half-written")
        with pytest.raises(StoreError, match="leftover column file"):
            ram_table.to_store(target)
        ram_table.to_store(target, force=True)
        assert Table.from_store(target).n_rows == ram_table.n_rows

    def test_force_refuses_foreign_directory(self, ram_table, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.txt").write_text("irreplaceable")
        with pytest.raises(StoreError, match="refusing"):
            ram_table.to_store(target, force=True)
        assert (target / "thesis.txt").read_text() == "irreplaceable"

    def test_unknown_column_raises(self, store):
        with pytest.raises(StoreError, match="no column"):
            store.load_column("nope")
        with pytest.raises(StoreError, match="measure, not a dimension"):
            store.categories("M")


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest.json"):
            ColumnStore.open(tmp_path)

    def test_bad_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreError, match="not valid JSON"):
            ColumnStore.open(tmp_path)

    def test_wrong_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"format": "parquet"}')
        with pytest.raises(StoreError, match="not a repro-column-store"):
            ColumnStore.open(tmp_path)

    def test_wrong_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"format": "repro-column-store", "version": 99}'
        )
        with pytest.raises(StoreError, match="version 99"):
            ColumnStore.open(tmp_path)

    def test_missing_keys(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"format": "repro-column-store", "version": 1}'
        )
        with pytest.raises(StoreError, match="n_rows"):
            ColumnStore.open(tmp_path)

    def test_missing_column_file(self, ram_table, tmp_path):
        store = ram_table.to_store(tmp_path / "s")
        (store.path / "col_00000.npy").unlink()
        with pytest.raises(StoreError, match="missing"):
            ColumnStore.open(store.path).load_column("A")

    def test_row_count_mismatch(self, ram_table, tmp_path):
        store = ram_table.to_store(tmp_path / "s")
        np.save(store.path / "col_00000.npy", np.zeros(3, dtype=np.int64))
        with pytest.raises(StoreError, match="3 rows"):
            ColumnStore.open(store.path).load_column("A")

    def test_unstorable_category_raises(self, tmp_path):
        table = Table.from_columns({"K": [(1, 2), (3, 4)], "M": [0.0, 1.0]})
        with pytest.raises(StoreError, match="not storable"):
            table.to_store(tmp_path / "s")


class TestZeroCopyPickle:
    """The tentpole invariant: crossing a process boundary ships no arrays."""

    def test_store_pickles_as_path(self, store):
        payload = pickle.dumps(store)
        assert len(payload) < 1024
        back = pickle.loads(payload)
        assert back.path == store.path
        assert back.columns == store.columns

    def test_table_pickle_is_manifest_sized(self, mapped_table, ram_table):
        mapped_payload = pickle.dumps(mapped_table)
        ram_payload = pickle.dumps(ram_table)
        # O(manifest path), not O(n_rows): orders of magnitude below in-RAM.
        assert len(mapped_payload) < 1024
        assert len(mapped_payload) * 100 < len(ram_payload)
        back = pickle.loads(mapped_payload)
        assert back.schema == mapped_table.schema
        assert all(back.column(n).is_mapped for n in back.schema.columns)

    def test_store_backed_table_round_trips_through_pickle(self, store):
        table = Table.from_store(store.path, chunk_rows=1000)
        back = pickle.loads(pickle.dumps(table))
        assert back.chunk_rows == 1000
        assert back.store.path == store.path
        for name in table.dimensions:
            np.testing.assert_array_equal(back.codes(name), table.codes(name))


class TestChunkedKernelParity:
    """Chunk-wise streaming must be byte-identical to the in-RAM kernels."""

    @pytest.fixture(scope="class", params=[None, 512, 999, 100_000])
    def chunked(self, store, request):
        return EncodedDataset.attach(store, chunk_rows=request.param)

    @pytest.fixture(scope="class")
    def in_ram(self, ram_table):
        return EncodedDataset.from_table(ram_table)

    def test_contingency_parity(self, chunked, in_ram):
        for z in [(), ("N",), ("C", "N")]:
            np.testing.assert_array_equal(
                chunked.contingency("A", "B", z), in_ram.contingency("A", "B", z)
            )

    def test_n_strata_parity(self, chunked, in_ram):
        for z in [(), ("N",), ("B", "N"), ("A", "B", "N")]:
            assert chunked.n_strata(z) == in_ram.n_strata(z)

    def test_observed_cells_parity(self, chunked, in_ram):
        cells_c, counts_c, ns_c = chunked.observed_cells("A", "B", ("N",))
        cells_r, counts_r, ns_r = in_ram.observed_cells("A", "B", ("N",))
        np.testing.assert_array_equal(cells_c, cells_r)
        np.testing.assert_array_equal(counts_c, counts_r)
        assert ns_c == ns_r

    def test_batch_tester_parity(self, chunked, in_ram):
        probes = [("A", "B", ()), ("A", "C", ("B",)), ("A", "C", ("B", "N"))]
        for dense_limit in (None, 1):
            ram_tester = BatchCITester(in_ram, dense_limit=dense_limit or 2**20)
            chk_tester = BatchCITester(chunked, dense_limit=dense_limit or 2**20)
            for probe, ram_v, chk_v in zip(
                probes, ram_tester.test_batch(probes), chk_tester.test_batch(probes)
            ):
                assert ram_v == chk_v, probe


class TestEndToEndParity:
    """Store-backed discovery and serving ≡ in-RAM, report for report."""

    @pytest.fixture(scope="class")
    def chunked_table(self, store):
        return Table.from_store(store.path, chunk_rows=777)

    def test_skeleton_and_sepsets_identical(self, ram_table, chunked_table):
        ram = fci_from_table(ram_table)
        mapped = fci_from_table(chunked_table)
        assert mapped.pag == ram.pag
        assert mapped.sepsets == ram.sepsets

    def test_workspace_row_gather_identical(self, ram_table, chunked_table):
        query = WhyQuery.create(
            Subspace.of(A="a"), Subspace.of(A="b"), measure="M", agg="AVG"
        )
        ram_ws = QueryWorkspace(ram_table, query)
        mapped_ws = QueryWorkspace(chunked_table, query)
        assert ram_ws.delta == mapped_ws.delta
        ram_profile = ram_ws.profile("B")
        mapped_profile = mapped_ws.profile("B")
        np.testing.assert_array_equal(ram_profile.count1, mapped_profile.count1)
        np.testing.assert_array_equal(ram_profile.sum1, mapped_profile.sum1)

    def test_explain_batch_reports_identical(self, ram_table, chunked_table):
        queries = [
            WhyQuery.create(
                Subspace.of(A="a"), Subspace.of(A="b"), measure="M", agg=agg
            )
            for agg in ("AVG", "SUM", "COUNT")
        ]
        ram_model = fit_model(ram_table)
        mapped_model = fit_model(chunked_table)
        assert ram_model.to_dict() == mapped_model.to_dict()
        ram_reports = ExplainSession(ram_model, ram_table).explain_batch(queries)
        mapped_reports = ExplainSession(mapped_model, chunked_table).explain_batch(
            queries
        )
        assert [report_signature(r) for r in mapped_reports] == [
            report_signature(r) for r in ram_reports
        ]

    def test_process_workers_over_store(self, ram_table, chunked_table):
        """Store-backed serving through real process workers stays identical."""
        query = WhyQuery.create(
            Subspace.of(A="a"), Subspace.of(A="b"), measure="M", agg="AVG"
        )
        model = fit_model(chunked_table)
        session = ExplainSession(model, chunked_table)
        serial = session.explain_batch([query] * 4)
        sharded = session.explain_batch([query] * 4, workers=2, executor=None)
        assert [report_signature(r) for r in sharded] == [
            report_signature(r) for r in serial
        ]

"""Vectorized CI-test engine: columnar encoding + batched contingency tests.

A per-stratum χ² test re-derives the stratification of the conditioning
set Z for every probe, then walks the observed strata in a Python loop
(that formulation survives as the parity reference in
``tests/oracles/contingency.py``).  Skeleton learning issues thousands of
probes against the same columns, so this module restructures the hot path
around three ideas:

1. **Encode once** — :class:`EncodedDataset` factorizes every column into
   contiguous ``int64`` codes ``0..k-1`` exactly once (for a
   :class:`~repro.data.table.Table` the codes already exist and are reused
   without copying).  Every later operation is pure integer arithmetic.

2. **Flatten, then count** — a probe ``(X, Y | Z)`` needs the X×Y count
   matrix of every observed Z-stratum.  The engine combines the Z columns
   into a single mixed-radix stratum code per row, compressed to the sorted
   rank among *observed* strata (a presence table and its running count,
   O(n + radix), while the radix is a small multiple of the row count;
   ``np.unique`` above it), flattens the triple ``(stratum, x, y)`` into
   one linear cell index::

       cell = (stratum * k_x + code_x) * k_y + code_y

   and obtains the full 3-D contingency cube ``counts[s, i, j]`` with a
   single ``np.bincount``.  Per-stratum statistics, degrees of freedom and
   the zero-row/zero-column reduction of the baseline are then computed with
   whole-cube numpy reductions — no Python-level stratum loop.  Stratum
   codes are cached per conditioning set (order-insensitively), so the many
   probes of one skeleton depth that share Z pay for the stratification
   once.

3. **Batch the probes** — :class:`BatchCITester` exposes ``test_batch``,
   which evaluates a whole list of probes and issues one vectorized
   ``scipy.stats.chi2.sf`` call for all of their p-values.
   :func:`~repro.discovery.skeleton.learn_skeleton` feeds it one batch per
   PC-stable depth level.

When the dense cube would be too large (``n_strata * k_x * k_y`` above
``dense_limit``, e.g. very high-cardinality columns), the engine falls back
to an equivalent sparse path that counts only the *observed* cells via
``np.unique`` and reconstructs the Pearson zero-cell contribution in closed
form; both paths return identical statistics.

Numerical parity: statistics and degrees of freedom match the per-stratum
reference cell-for-cell; only the floating-point summation order differs,
so agreement is to ~1e-12 relative (the parity suite asserts 1e-9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from repro.data.column import CategoricalColumn
from repro.data.table import Table
from repro.errors import SchemaError
from repro.independence.base import CITest, CITestResult, Var

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.store import ColumnStore

# Mixed-radix stratum codes are compressed to observed values before the
# running radix can overflow int64.
_RADIX_LIMIT = 1 << 62

# The final stratum compression uses a presence table (O(n + radix)) while
# the mixed radix is at most this many times the row count, and a sort
# (np.unique) above it.
_PRESENCE_ROWS = 4

# Largest dense contingency cube (in cells) built per probe; above this the
# sparse path is used.  2**24 cells = 128 MiB of int64, well beyond any
# discrete workload in this repo.
_DENSE_LIMIT = 1 << 24

# Stratum-code arrays retained per EncodedDataset (each is n_rows int64).
# Discovery probes thousands of distinct conditioning sets on large graphs;
# without a cap the cache would hold one array per set for the dataset's
# lifetime.
_STRATA_CACHE_SIZE = 256


class EncodedDataset:
    """Columns factorized once into contiguous integer codes.

    The canonical dataset representation of the vectorized CI engine: each
    column is an ``int64`` code vector plus the category lookup table that
    decodes it.  Codes are always ``0..cardinality-1``; the category table
    preserves first-appearance order so :meth:`decode` round-trips the
    original values.
    """

    def __init__(
        self,
        codes: Mapping[str, np.ndarray],
        categories: Mapping[str, tuple[Hashable, ...]],
    ) -> None:
        if set(codes) != set(categories):
            raise SchemaError("codes and categories must cover the same columns")
        self._codes: dict[str, np.ndarray] = {}
        self._categories = {name: tuple(cats) for name, cats in categories.items()}
        lengths = set()
        for name, col in codes.items():
            col = np.asarray(col, dtype=np.int64)
            if col.ndim != 1:
                raise SchemaError(f"codes of {name!r} must be one-dimensional")
            k = len(self._categories[name])
            if col.size and (col.min() < 0 or col.max() >= k):
                raise SchemaError(f"codes of {name!r} out of range for {k} categories")
            self._codes[name] = col
            lengths.add(col.size)
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: {sorted(lengths)!r}")
        self.n_rows = lengths.pop() if lengths else 0
        # (sorted z names) -> (compressed stratum codes, n observed strata)
        self._strata_cache: dict[tuple[str, ...], tuple[np.ndarray, int]] = {}
        self._store: "ColumnStore | None" = None
        self._store_columns: frozenset[str] = frozenset()
        self._chunk_rows: int | None = None
        # (sorted z names) -> sorted observed mixed-radix stratum values
        self._observed_cache: dict[tuple[str, ...], np.ndarray] = {}

    def __getstate__(self) -> dict:
        """Pickle the codes, not the derived stratum caches: process workers
        rebuild strata locally, keeping the payload one array per column.

        Store-backed columns don't even ship their codes: the payload keeps
        only the :class:`~repro.data.store.ColumnStore` (which pickles as
        its directory path) and a placeholder per mapped column, and
        ``__setstate__`` re-attaches to the shared read-only mapping — the
        zero-copy process-worker path, O(manifest) bytes per worker."""
        state = dict(self.__dict__)
        state["_strata_cache"] = {}
        state["_observed_cache"] = {}
        if self._store_columns:
            state["_codes"] = {
                name: (None if name in self._store_columns else col)
                for name, col in self._codes.items()
            }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._store_columns:
            assert self._store is not None
            self._codes = {
                name: (
                    self._store.load_column(name, mmap=True)
                    if name in self._store_columns
                    else col
                )
                for name, col in self._codes.items()
            }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, columns: Sequence[str] | None = None) -> "EncodedDataset":
        """Wrap the dimension columns of a :class:`Table` (codes are shared,
        not copied — the Table already stores dimensions factorized).  For a
        store-backed table whose requested columns all live in the store,
        this delegates to :meth:`attach`, so the dataset keeps the zero-copy
        pickle path and the table's chunking hint."""
        if columns is None:
            columns = table.dimensions
        store = table.store
        if store is not None and set(columns) <= set(store.dimensions):
            return cls.attach(store, columns, chunk_rows=table.chunk_rows)
        return cls(
            {name: table.codes(name) for name in columns},
            {name: table.categories(name) for name in columns},
        )

    @classmethod
    def attach(
        cls,
        store: "ColumnStore",
        columns: Sequence[str] | None = None,
        chunk_rows: int | None = None,
    ) -> "EncodedDataset":
        """Attach to a :class:`~repro.data.store.ColumnStore`: every code
        vector is a read-only memmap over the store's files (no copy, no
        re-validation scan — the store checked the codes when writing), the
        dataset pickles as the manifest path, and ``chunk_rows`` turns on
        the chunk-wise streaming kernels."""
        if columns is None:
            columns = store.dimensions
        self = object.__new__(cls)
        self._codes = {name: store.load_column(name, mmap=True) for name in columns}
        self._categories = {name: store.categories(name) for name in columns}
        self.n_rows = store.n_rows
        self._strata_cache = {}
        self._store = store
        self._store_columns = frozenset(columns)
        self._chunk_rows = chunk_rows
        self._observed_cache = {}
        return self

    @classmethod
    def from_arrays(cls, data: Mapping[str, Sequence[Hashable]]) -> "EncodedDataset":
        """Factorize raw per-column values (any hashables)."""
        columns = {
            name: CategoricalColumn.from_values(values) for name, values in data.items()
        }
        return cls(
            {name: col.codes for name, col in columns.items()},
            {name: col.categories for name, col in columns.items()},
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._codes)

    def codes(self, name: str) -> np.ndarray:
        try:
            return self._codes[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def categories(self, name: str) -> tuple[Hashable, ...]:
        self.codes(name)
        return self._categories[name]

    def cardinality(self, name: str) -> int:
        return len(self.categories(name))

    def decode(self, name: str) -> list[Hashable]:
        cats = self.categories(name)
        return [cats[c] for c in self._codes[name]]

    # ------------------------------------------------------------------
    # Stratification
    # ------------------------------------------------------------------

    def strata(self, z: Sequence[str]) -> tuple[np.ndarray, int]:
        """Per-row codes of the observed Z-strata, plus the stratum count.

        The Z columns are folded into one mixed-radix code and compressed to
        its sorted rank among the observed values, so codes are contiguous
        in ``0..n_strata-1``.  The compression is a presence table plus
        ``cumsum`` while the radix is at most ``_PRESENCE_ROWS`` times the
        row count, else ``np.unique`` (also used mid-fold when the radix
        would pass ``_RADIX_LIMIT``); both give the same codes, which the
        chunked path's ``searchsorted`` over sorted observed values matches.
        Cached per conditioning *set* (bounded LRU): the row partition (and
        hence every statistic built on it) is invariant under Z ordering.
        """
        names = tuple(sorted(z, key=repr))
        hit = self._strata_cache.get(names)
        if hit is not None:
            self._strata_cache[names] = self._strata_cache.pop(names)  # LRU touch
            return hit
        if not names:
            out = (np.zeros(self.n_rows, dtype=np.int64), 1)
        else:
            combined = np.zeros(self.n_rows, dtype=np.int64)
            radix = 1
            for name in names:
                k = max(1, self.cardinality(name))
                if radix * k >= _RADIX_LIMIT:
                    observed, combined = np.unique(combined, return_inverse=True)
                    radix = observed.size
                combined = combined * k + self.codes(name)
                radix *= k
            if radix <= _PRESENCE_ROWS * self.n_rows:
                # O(n + radix): the running count of a presence table is
                # each observed value's sorted rank, i.e. np.unique's inverse.
                present = np.zeros(radix, dtype=bool)
                present[combined] = True
                rank = np.cumsum(present) - 1
                out = (rank[combined], int(np.count_nonzero(present)))
            else:
                observed, compressed = np.unique(combined, return_inverse=True)
                out = (compressed.astype(np.int64, copy=False), int(observed.size))
        while len(self._strata_cache) >= _STRATA_CACHE_SIZE:
            self._strata_cache.pop(next(iter(self._strata_cache)))
        self._strata_cache[names] = out
        return out

    # ------------------------------------------------------------------
    # Chunked streaming (store-backed, larger-than-RAM datasets)
    # ------------------------------------------------------------------

    @property
    def chunk_rows(self) -> int | None:
        """Rows per streamed slice of the chunk-wise kernels (``None`` =
        whole-array operations; set via :meth:`attach`)."""
        return self._chunk_rows

    def _chunk_bounds(self) -> Iterable[tuple[int, int]]:
        step = self._chunk_rows or max(1, self.n_rows)
        for start in range(0, self.n_rows, step):
            yield start, min(start + step, self.n_rows)

    def _fold_overflows(self, names: tuple[str, ...]) -> bool:
        """True when the mixed-radix fold of ``names`` cannot run chunk-wise
        (it would need the in-RAM path's mid-fold global compression)."""
        radix = 1
        for name in names:
            radix *= max(1, self.cardinality(name))
            if radix >= _RADIX_LIMIT:
                return True
        return False

    def _chunk_plan(self, z: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]] | None:
        """``(sorted observed stratum values, sorted names)`` when the probe
        can stream chunk-wise, else ``None`` (whole-array path)."""
        if self._chunk_rows is None:
            return None
        names = tuple(sorted(z, key=repr))
        if self._fold_overflows(names):
            return None
        return self._observed_strata(names), names

    def _combined_chunk(self, names: tuple[str, ...], start: int, stop: int) -> np.ndarray:
        """Mixed-radix fold of one row slice — the same fold :meth:`strata`
        runs whole-array, so observed values (and hence the compressed
        stratum ids) agree bit-for-bit between the two paths."""
        combined = np.zeros(stop - start, dtype=np.int64)
        for name in names:
            k = max(1, self.cardinality(name))
            combined = combined * k + self._codes[name][start:stop]
        return combined

    def _observed_strata(self, names: tuple[str, ...]) -> np.ndarray:
        """Sorted observed mixed-radix values of the Z-strata, accumulated
        one chunk at a time (cached per conditioning set)."""
        hit = self._observed_cache.get(names)
        if hit is not None:
            self._observed_cache[names] = self._observed_cache.pop(names)  # LRU
            return hit
        if not names:
            out = np.zeros(1, dtype=np.int64)
        else:
            out = np.empty(0, dtype=np.int64)
            for start, stop in self._chunk_bounds():
                chunk = np.unique(self._combined_chunk(names, start, stop))
                out = np.union1d(out, chunk) if out.size else chunk
        while len(self._observed_cache) >= _STRATA_CACHE_SIZE:
            self._observed_cache.pop(next(iter(self._observed_cache)))
        self._observed_cache[names] = out
        return out

    def n_strata(self, z: Sequence[str]) -> int:
        """Number of observed Z-strata — without materializing the per-row
        stratum codes when the chunked path applies."""
        plan = self._chunk_plan(z)
        if plan is not None:
            return int(plan[0].size)
        return self.strata(z)[1]

    def contingency(self, x: str, y: str, z: Sequence[str] = ()) -> np.ndarray:
        """Dense 3-D contingency cube ``counts[stratum, x_code, y_code]``.

        Streams one bounded row slice at a time on a chunked dataset (see
        :meth:`attach`), accumulating integer bincounts — the cube is
        bit-identical to the whole-array path either way.
        """
        kx, ky = self.cardinality(x), self.cardinality(y)
        plan = self._chunk_plan(z)
        if plan is not None:
            observed, names = plan
            n_strata = int(observed.size)
            counts = np.zeros(n_strata * kx * ky, dtype=np.int64)
            cx, cy = self._codes[x], self._codes[y]
            for start, stop in self._chunk_bounds():
                strata = np.searchsorted(
                    observed, self._combined_chunk(names, start, stop)
                )
                flat = (strata * kx + cx[start:stop]) * ky + cy[start:stop]
                counts += np.bincount(flat, minlength=counts.size)
            return counts.reshape(n_strata, kx, ky)
        strata, n_strata = self.strata(z)
        flat = (strata * kx + self.codes(x)) * ky + self.codes(y)
        return np.bincount(flat, minlength=n_strata * kx * ky).reshape(n_strata, kx, ky)

    def observed_cells(
        self, x: str, y: str, z: Sequence[str] = ()
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sparse companion of :meth:`contingency`: the sorted flat ids of
        the *observed* ``(stratum, x, y)`` cells, their counts, and the
        stratum count — chunk-wise merged on a chunked dataset, identical
        either way (the counts come back float64 because the chunked merge
        accumulates through ``bincount`` weights; they are integer-valued
        exactly)."""
        kx, ky = self.cardinality(x), self.cardinality(y)
        plan = self._chunk_plan(z)
        if plan is not None:
            observed, names = plan
            cells = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.float64)
            cx, cy = self._codes[x], self._codes[y]
            for start, stop in self._chunk_bounds():
                strata = np.searchsorted(
                    observed, self._combined_chunk(names, start, stop)
                )
                flat = (strata * kx + cx[start:stop]) * ky + cy[start:stop]
                new_cells, new_counts = np.unique(flat, return_counts=True)
                if not cells.size:
                    cells, counts = new_cells, new_counts.astype(np.float64)
                else:
                    merged = np.concatenate([cells, new_cells])
                    weights = np.concatenate([counts, new_counts.astype(np.float64)])
                    cells, inverse = np.unique(merged, return_inverse=True)
                    counts = np.bincount(inverse, weights=weights)
            return cells, counts, int(observed.size)
        strata, n_strata = self.strata(z)
        flat = (strata * kx + self.codes(x)) * ky + self.codes(y)
        cells, counts = np.unique(flat, return_counts=True)
        return cells, counts.astype(np.float64), n_strata


def _mask_stats(
    n_tot: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    min_stratum_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Valid-stratum mask and per-stratum dof from the marginals.

    Mirrors the baseline reduction: a stratum contributes only when, after
    dropping all-zero rows/columns, at least a 2×2 table remains (and the
    stratum meets ``min_stratum_rows``).
    """
    n_rows_pos = (rows > 0).sum(axis=1)
    n_cols_pos = (cols > 0).sum(axis=1)
    valid = (n_rows_pos >= 2) & (n_cols_pos >= 2) & (n_tot >= min_stratum_rows)
    dof = (n_rows_pos - 1) * (n_cols_pos - 1)
    return valid, dof


def _dense_stat(
    counts: np.ndarray, kind: str, min_stratum_rows: int
) -> tuple[float, float]:
    """Statistic + dof from the dense cube, whole-cube vectorized."""
    counts = counts.astype(np.float64)
    rows = counts.sum(axis=2)  # (s, kx)
    cols = counts.sum(axis=1)  # (s, ky)
    n_tot = rows.sum(axis=1)  # (s,)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[:, :, None] * cols[:, None, :] / n_tot[:, None, None]
        if kind == "chi2":
            terms = np.where(
                expected > 0,
                (counts - expected) ** 2 / np.where(expected > 0, expected, 1.0),
                0.0,
            )
        else:  # G: only observed cells contribute (expected > 0 there)
            ratio = counts / np.where(expected > 0, expected, 1.0)
            terms = np.where(
                counts > 0, 2.0 * counts * np.log(np.where(counts > 0, ratio, 1.0)), 0.0
            )
    valid, dof = _mask_stats(n_tot, rows, cols, min_stratum_rows)
    statistic = float(terms.sum(axis=(1, 2))[valid].sum())
    return statistic, float(dof[valid].sum())


def _sparse_stat(
    data: EncodedDataset, x: str, y: str, z: Sequence[str], kind: str, min_stratum_rows: int
) -> tuple[float, float]:
    """Statistic + dof without materializing the dense cube.

    Counts only the observed ``(stratum, x, y)`` cells (chunk-wise merged on
    a chunked dataset).  For χ² the cells with zero observations but
    positive expectation contribute ``Σ E = N_s − Σ_observed E`` per
    stratum, which is added in closed form.
    """
    kx, ky = data.cardinality(x), data.cardinality(y)
    cells, counts, n_strata = data.observed_cells(x, y, z)
    cy = cells % ky
    cx = (cells // ky) % kx
    cs = cells // (kx * ky)

    n_tot = np.bincount(cs, weights=counts, minlength=n_strata)
    rows = np.bincount(cs * kx + cx, weights=counts, minlength=n_strata * kx)
    rows = rows.reshape(n_strata, kx)
    cols = np.bincount(cs * ky + cy, weights=counts, minlength=n_strata * ky)
    cols = cols.reshape(n_strata, ky)

    expected = rows[cs, cx] * cols[cs, cy] / n_tot[cs]
    if kind == "chi2":
        cell_terms = (counts - expected) ** 2 / expected
        per_stratum = np.bincount(cs, weights=cell_terms, minlength=n_strata)
        per_stratum += n_tot - np.bincount(cs, weights=expected, minlength=n_strata)
    else:
        cell_terms = 2.0 * counts * np.log(counts / expected)
        per_stratum = np.bincount(cs, weights=cell_terms, minlength=n_strata)
    valid, dof = _mask_stats(n_tot, rows, cols, min_stratum_rows)
    return float(per_stratum[valid].sum()), float(dof[valid].sum())


class CIProbeShardTask:
    """Picklable :class:`~repro.parallel.ShardTask` evaluating probe shards.

    Ships the encoded dataset and test parameters to each worker exactly
    once (``build_state`` reconstructs a private :class:`BatchCITester`
    there); per-shard traffic is only ``(x, y, Z)`` name triples out and
    :class:`~repro.independence.base.CITestResult` verdicts back.  Workers
    run the same ``test_batch`` code as the serial path, so the merged
    verdicts are byte-identical to an unsharded run.
    """

    def __init__(
        self,
        data: EncodedDataset,
        alpha: float,
        statistic_kind: str,
        min_stratum_rows: int,
        dense_limit: int,
    ) -> None:
        self.data = data
        self.alpha = alpha
        self.statistic_kind = statistic_kind
        self.min_stratum_rows = min_stratum_rows
        self.dense_limit = dense_limit

    def build_state(self) -> "BatchCITester":
        return BatchCITester(
            self.data,
            alpha=self.alpha,
            min_stratum_rows=self.min_stratum_rows,
            statistic_kind=self.statistic_kind,
            dense_limit=self.dense_limit,
        )

    def run(self, state: "BatchCITester", probes) -> list[CITestResult]:
        return state.test_batch(probes)


class BatchCITester(CITest):
    """Vectorized contingency CI test with a native batch interface.

    Drop-in :class:`~repro.independence.base.CITest`: ``test`` evaluates a
    single probe; ``test_batch`` evaluates many, sharing stratum codes via
    the :class:`EncodedDataset` cache and issuing one vectorized survival-
    function call for all p-values.  ``statistic_kind`` selects Pearson χ²
    (``"chi2"``) or the likelihood-ratio G statistic (``"g"``); results are
    numerically equivalent to the per-stratum reference tests.
    """

    supports_batch = True
    statistic_kind = "chi2"

    def __init__(
        self,
        data: EncodedDataset | Table,
        alpha: float = 0.05,
        min_stratum_rows: int = 0,
        statistic_kind: str | None = None,
        dense_limit: int = _DENSE_LIMIT,
    ) -> None:
        super().__init__(alpha)
        if isinstance(data, Table):
            data = EncodedDataset.from_table(data)
        self.data = data
        self.min_stratum_rows = min_stratum_rows
        if statistic_kind is not None:
            self.statistic_kind = statistic_kind
        if self.statistic_kind not in ("chi2", "g"):
            raise ValueError(f"unknown statistic kind {self.statistic_kind!r}")
        self.dense_limit = dense_limit
        self._shard_task: CIProbeShardTask | None = None

    def _stat_dof(self, x: str, y: str, z: tuple[str, ...]) -> tuple[float, float]:
        n_strata = self.data.n_strata(z)
        kx, ky = self.data.cardinality(x), self.data.cardinality(y)
        if n_strata * kx * ky <= self.dense_limit:
            cube = self.data.contingency(x, y, z)
            return _dense_stat(cube, self.statistic_kind, self.min_stratum_rows)
        return _sparse_stat(
            self.data, x, y, z, self.statistic_kind, self.min_stratum_rows
        )

    def test(self, x: Var, y: Var, z: Iterable[Var] = ()) -> CITestResult:
        self.calls += 1
        z = tuple(z)
        statistic, dof = self._stat_dof(str(x), str(y), tuple(str(v) for v in z))
        p_value = float(stats.chi2.sf(statistic, dof)) if dof > 0 else 1.0
        return CITestResult(x, y, z, statistic, p_value, dof)

    def shard_task(self) -> CIProbeShardTask:
        """The picklable per-worker evaluator of this tester (cached, so a
        long-lived process pool is reused across every depth's batch)."""
        if self._shard_task is None:
            self._shard_task = CIProbeShardTask(
                self.data,
                self.alpha,
                self.statistic_kind,
                self.min_stratum_rows,
                self.dense_limit,
            )
        return self._shard_task

    def test_batch(
        self,
        probes: Sequence[tuple[Var, Var, Iterable[Var]]],
        executor=None,
    ) -> list[CITestResult]:
        probes = [(x, y, tuple(z)) for x, y, z in probes]
        if executor is not None and executor.workers > 1 and len(probes) > 1:
            from repro.parallel import split

            self.calls += len(probes)
            shards = split(probes, executor.workers)
            merged = executor.map(self.shard_task(), shards)
            return [result for chunk in merged for result in chunk]
        self.calls += len(probes)
        if not probes:
            return []
        statistics = np.empty(len(probes))
        dofs = np.empty(len(probes))
        for i, (x, y, z) in enumerate(probes):
            statistics[i], dofs[i] = self._stat_dof(
                str(x), str(y), tuple(str(v) for v in z)
            )
        p_values = np.ones(len(probes))
        testable = dofs > 0
        p_values[testable] = stats.chi2.sf(statistics[testable], dofs[testable])
        return [
            CITestResult(x, y, z, float(statistics[i]), float(p_values[i]), float(dofs[i]))
            for i, (x, y, z) in enumerate(probes)
        ]


class ChiSquaredTest(BatchCITester):
    """Pearson χ² test of conditional independence on discrete columns."""

    statistic_kind = "chi2"


class GTest(BatchCITester):
    """Likelihood-ratio (G) test: 2·Σ obs·ln(obs/exp), same asymptotics as χ²."""

    statistic_kind = "g"

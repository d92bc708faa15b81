"""Columnar multi-dimensional data table (Sec. 2.1).

:class:`Table` is the spreadsheet-style representation of multi-dimensional
data that every XInsight module consumes.  It is deliberately minimal: rows
are assumed i.i.d. (the paper's standing assumption), columns are typed by
:class:`~repro.data.schema.Role`, and all row-subset operations are expressed
through boolean masks so that selection composes with numpy vectorization.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.data.column import CategoricalColumn, Column, NumericColumn
from repro.data.schema import Role, Schema
from repro.errors import SchemaError


def _infer_role(values: Sequence[object]) -> Role:
    """Infer DIMENSION for non-numeric data, MEASURE for numeric data."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return Role.DIMENSION
        if isinstance(value, (int, float, np.integer, np.floating)):
            return Role.MEASURE
        return Role.DIMENSION
    return Role.DIMENSION


class Table:
    """Immutable columnar table with typed dimension/measure columns.

    A table is normally in-RAM, but it can be *store-backed*: persisted via
    :meth:`to_store` and re-opened with :meth:`from_store`, in which case
    every column is a read-only :class:`numpy.memmap` over the store's
    ``.npy`` files (zero-copy — all processes mapping the store share the
    same OS page cache) and the table pickles as just the store path.
    ``chunk_rows`` is the streaming hint the chunk-wise kernels
    (:class:`~repro.data.query.QueryWorkspace`, the CI contingency cubes)
    honour so tables larger than RAM never materialize whole columns.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Column],
        *,
        store: "object | None" = None,
        mmap: bool = True,
        chunk_rows: int | None = None,
    ) -> None:
        if set(schema.columns) != set(columns):
            raise SchemaError(
                f"schema columns {schema.columns!r} do not match data columns "
                f"{sorted(columns)!r}"
            )
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths!r}")
        for name in schema.columns:
            role = schema.role(name)
            col = columns[name]
            if role is Role.DIMENSION and not isinstance(col, CategoricalColumn):
                raise SchemaError(f"dimension {name!r} needs a CategoricalColumn")
            if role is Role.MEASURE and not isinstance(col, NumericColumn):
                raise SchemaError(f"measure {name!r} needs a NumericColumn")
        self._schema = schema
        self._columns = dict(columns)
        self._n_rows = next(iter(lengths.values())) if lengths else 0
        if chunk_rows is not None and chunk_rows < 1:
            raise SchemaError(f"chunk_rows must be ≥ 1, got {chunk_rows}")
        self._store = store
        self._store_mmap = mmap
        self._chunk_rows = chunk_rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Sequence[object]],
        roles: Mapping[str, Role] | None = None,
    ) -> "Table":
        """Build a table from raw per-column values, inferring roles if absent.

        >>> t = Table.from_columns({"city": ["a", "b"], "pop": [1.0, 2.0]})
        >>> t.schema.roles["city"] is Role.DIMENSION
        True
        """
        roles = dict(roles) if roles else {}
        columns: dict[str, Column] = {}
        for name, values in data.items():
            role = roles.get(name)
            if role is None:
                role = _infer_role(list(values))
                roles[name] = role
            if role is Role.DIMENSION:
                columns[name] = CategoricalColumn.from_values(values)
            else:
                columns[name] = NumericColumn.from_values(values)  # type: ignore[arg-type]
        schema = Schema(tuple(data), roles)
        return cls(schema, columns)

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        rows: Iterable[Sequence[object]],
        roles: Mapping[str, Role] | None = None,
    ) -> "Table":
        """Build a table from an iterable of row tuples."""
        materialized = [list(row) for row in rows]
        data = {
            name: [row[i] for row in materialized] for i, name in enumerate(names)
        }
        return cls.from_columns(data, roles)

    # ------------------------------------------------------------------
    # Column-store backing (zero-copy persistence)
    # ------------------------------------------------------------------

    def to_store(self, directory: "str | object", force: bool = False) -> "object":
        """Persist this table as a memmap-able column store (one directory:
        per-column ``.npy`` + a JSON manifest); returns the
        :class:`~repro.data.store.ColumnStore`.  ``force`` replaces an
        existing store at the path instead of raising."""
        from repro.data.store import ColumnStore

        return ColumnStore.write(self, directory, force=force)

    @classmethod
    def from_store(
        cls,
        directory: "str | object",
        mmap: bool = True,
        chunk_rows: int | None = None,
    ) -> "Table":
        """Open a stored table; ``mmap=True`` (default) maps the column
        files read-only instead of loading them."""
        from repro.data.store import ColumnStore

        return ColumnStore.open(directory).table(mmap=mmap, chunk_rows=chunk_rows)

    @property
    def store(self):
        """The backing :class:`~repro.data.store.ColumnStore`, or ``None``
        for an in-RAM (or derived) table."""
        return self._store

    @property
    def chunk_rows(self) -> int | None:
        """Streaming hint for the chunk-wise kernels (``None`` = whole-array
        operations).  Propagated through column-level derivations."""
        return self._chunk_rows

    def __getstate__(self) -> dict:
        """Store-backed tables pickle as the store path + open options: the
        receiving process re-attaches to the same read-only mapping instead
        of receiving column arrays (the zero-copy worker path).  Derived or
        in-RAM tables pickle their columns as usual."""
        if self._store is not None:
            return {
                "__store__": str(self._store.path),
                "mmap": self._store_mmap,
                "chunk_rows": self._chunk_rows,
            }
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        if "__store__" in state:
            reopened = Table.from_store(
                state["__store__"],
                mmap=state["mmap"],
                chunk_rows=state["chunk_rows"],
            )
            self.__dict__.update(reopened.__dict__)
        else:
            self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self._schema.dimensions

    @property
    def measures(self) -> tuple[str, ...]:
        return self._schema.measures

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def codes(self, dimension: str) -> np.ndarray:
        """Integer codes of a dimension column."""
        self._schema.require(dimension, Role.DIMENSION)
        col = self._columns[dimension]
        assert isinstance(col, CategoricalColumn)
        return col.codes

    def categories(self, dimension: str) -> tuple[Hashable, ...]:
        """Category values of a dimension column."""
        self._schema.require(dimension, Role.DIMENSION)
        col = self._columns[dimension]
        assert isinstance(col, CategoricalColumn)
        return col.categories

    def cardinality(self, dimension: str) -> int:
        """Number of categories of ``dimension`` (paper: used by Alg. 1 line 6)."""
        return len(self.categories(dimension))

    def measure_values(self, measure: str) -> np.ndarray:
        """Float values of a measure column."""
        self._schema.require(measure, Role.MEASURE)
        col = self._columns[measure]
        assert isinstance(col, NumericColumn)
        return col.values

    def values(self, name: str) -> list[object]:
        """Decoded raw values of any column."""
        col = self.column(name)
        if isinstance(col, CategoricalColumn):
            return col.decode()
        return list(col.values)

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "Table":
        """Return the sub-table of rows where ``mask`` is True.

        ``mask`` is either a boolean row mask or an integer index array; a
        float or object array raises :class:`~repro.errors.SchemaError`
        rather than being silently truncated into garbage row indices.
        """
        mask = np.asarray(mask)
        if mask.dtype == bool:
            indices = np.flatnonzero(mask)
        elif mask.size == 0:
            indices = np.zeros(0, dtype=np.int64)
        elif np.issubdtype(mask.dtype, np.integer):
            indices = mask.astype(np.int64, copy=False)
        else:
            raise SchemaError(
                f"select mask must be boolean or integer, got dtype {mask.dtype}"
            )
        columns = {name: col.take(indices) for name, col in self._columns.items()}
        return Table(self._schema, columns)

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.select(np.arange(min(n, self._n_rows)))

    # ------------------------------------------------------------------
    # Column operations
    # ------------------------------------------------------------------

    def with_column(
        self, name: str, values: Sequence[object] | Column, role: Role | None = None
    ) -> "Table":
        """Return a new table with an added (or replaced) column.

        ``values`` is raw values or a ready :class:`Column`; a column's kind
        fixes its role.
        """
        if isinstance(values, (CategoricalColumn, NumericColumn)):
            col: Column = values
            if role is None:
                is_dim = isinstance(col, CategoricalColumn)
                role = Role.DIMENSION if is_dim else Role.MEASURE
        else:
            if role is None:
                role = _infer_role(list(values))
            if role is Role.DIMENSION:
                col = CategoricalColumn.from_values(values)
            else:
                col = NumericColumn.from_values(values)  # type: ignore[arg-type]
        if len(col) != self._n_rows and self._n_rows:
            raise SchemaError(
                f"column {name!r} has {len(col)} rows, table has {self._n_rows}"
            )
        columns = dict(self._columns)
        columns[name] = col
        names = self._schema.columns if name in self._schema.columns else (
            *self._schema.columns,
            name,
        )
        roles = dict(self._schema.roles)
        roles[name] = role
        # Row-aligned derivation: the store identity is gone (columns
        # changed) but the streaming hint still applies.
        return Table(Schema(names, roles), columns, chunk_rows=self._chunk_rows)

    def drop_columns(self, names: Iterable[str]) -> "Table":
        """Return a new table without the given columns."""
        drop = set(names)
        unknown = drop - set(self._schema.columns)
        if unknown:
            raise SchemaError(f"cannot drop unknown columns {sorted(unknown)!r}")
        keep = tuple(c for c in self._schema.columns if c not in drop)
        roles = {c: self._schema.roles[c] for c in keep}
        columns = {c: self._columns[c] for c in keep}
        return Table(Schema(keep, roles), columns, chunk_rows=self._chunk_rows)

    def project(self, names: Sequence[str]) -> "Table":
        """Return a new table with only the given columns, in the given order."""
        roles = {c: self._schema.role(c) for c in names}
        columns = {c: self.column(c) for c in names}
        return Table(Schema(tuple(names), roles), columns, chunk_rows=self._chunk_rows)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{c}:{self._schema.roles[c].value[0].upper()}" for c in self._schema.columns
        )
        return f"Table({self._n_rows} rows; {cols})"

"""Zero-copy, file-backed columnar store for :class:`~repro.data.table.Table`.

The in-RAM :class:`Table` / :class:`~repro.independence.engine.EncodedDataset`
pair is the right representation for a workstation-sized dataset, but it has
two production failure modes:

* every :class:`~repro.parallel.ProcessExecutor` serving worker receives a
  *pickled copy* of the full column arrays, and
* the dataset must fit in RAM at all, which caps the table sizes the
  north-star serving workload can reach.

:class:`ColumnStore` fixes both with the oldest trick in the columnar book:
persist each column as its own ``.npy`` file next to a small JSON manifest
(dtypes, category tables, roles, row count), then **memory-map** the files
back.  Mapped arrays are

* **zero-copy across processes** — every worker that opens the store shares
  the same read-only OS page-cache mapping, so a store-backed ``Table``
  pickles as *just the manifest path* (serving workers re-attach instead of
  receiving arrays), and
* **larger than RAM** — pages stream in on demand, and the chunked
  contingency / workspace kernels touch the mapping one bounded slice at a
  time.

Layout of a store directory::

    store/
      manifest.json     # {"format": ..., "version": 1, "n_rows": N,
                        #  "columns": [{"name", "role", "file", "dtype",
                        #               "categories"?}, ...]}
      col_00000.npy     # int64 codes (dimension) or float64 values (measure)
      col_00001.npy
      ...

Column files are named by position, not by column name, so arbitrary
(user-controlled) column names can never escape the directory or collide on
a case-insensitive filesystem.  Dimension columns are stored *encoded* —
the int64 codes plus the JSON category table — which is exactly the layout
the CI engine consumes, so :meth:`~repro.independence.engine.EncodedDataset.
attach` maps them with no re-factorization pass.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from repro.data.column import CategoricalColumn, Column, NumericColumn
from repro.data.schema import Role, Schema
from repro.errors import StoreError

MANIFEST_NAME = "manifest.json"
STORE_FORMAT = "repro-column-store"
STORE_VERSION = 1

# Default number of rows per streamed slice in the chunked kernels.  Chosen
# so one int64 chunk is ~8 MiB — big enough to amortize numpy dispatch,
# small enough that a handful of live chunks never threatens RAM.
DEFAULT_CHUNK_ROWS = 1 << 20

# The only category value types the JSON manifest can round-trip exactly.
_JSON_SCALARS = (str, bool, int, float, type(None))


def _json_safe_category(name: str, value: Hashable) -> object:
    """Validate one category value for exact JSON round-tripping."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    raise StoreError(
        f"category {value!r} of column {name!r} is not storable: the manifest "
        "holds JSON scalars (str, int, float, bool, None) only"
    )


def _decode_category(value: object) -> Hashable:
    # json round-trips the scalar types exactly; nothing to undo.
    return value  # type: ignore[return-value]


class ColumnStore:
    """One on-disk dataset: per-column ``.npy`` files + a JSON manifest.

    Open an existing store with :meth:`open`, create one from a table with
    :meth:`write` (or ``Table.to_store``).  Loading is lazy: the manifest is
    read eagerly (it is small and validates the directory), column arrays
    are mapped on demand by :meth:`load_column`.

    A store pickles as its directory path alone (see ``__reduce__``) — this
    is the property the zero-copy worker path is built on.
    """

    def __init__(self, directory: str | Path, manifest: Mapping) -> None:
        self._directory = Path(directory)
        self._manifest = dict(manifest)
        self._specs: dict[str, dict] = {}
        for spec in self._manifest.get("columns", ()):
            self._specs[spec["name"]] = spec

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> "ColumnStore":
        """Open (and validate) an existing store directory."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{directory} is not a column store: no {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"{manifest_path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != STORE_FORMAT:
            raise StoreError(f"{manifest_path} is not a {STORE_FORMAT} manifest")
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"{manifest_path} has format version {manifest.get('version')!r}; "
                f"this build reads version {STORE_VERSION}"
            )
        for key in ("n_rows", "columns"):
            if key not in manifest:
                raise StoreError(f"{manifest_path} is missing {key!r}")
        return cls(directory, manifest)

    @classmethod
    def write(
        cls, table, directory: str | Path, force: bool = False
    ) -> "ColumnStore":
        """Persist ``table`` into ``directory`` and return the opened store.

        The target must be new (or an empty directory).  An existing store
        — or the column files of a crashed half-written ingest — is never
        silently overwritten: that is a typed :class:`StoreError` naming
        the path unless ``force`` is set, in which case the *store files*
        (manifest + ``col_*.npy``) are replaced.  A non-empty directory
        holding anything else is always refused, ``force`` or not — this
        function will not delete data it did not write.
        """
        directory = Path(directory)
        had_manifest = (directory / MANIFEST_NAME).exists()
        stale = (
            sorted(directory.glob("col_*.npy")) if directory.is_dir() else []
        )
        if (had_manifest or stale) and not force:
            what = (
                "already holds a column store"
                if had_manifest
                else f"holds {len(stale)} leftover column file(s)"
            )
            raise StoreError(
                f"{directory} {what}; pass force=True (CLI: --force) to "
                "replace it"
            )
        if force:
            for leftover in stale:
                leftover.unlink()
            (directory / MANIFEST_NAME).unlink(missing_ok=True)
        if directory.is_dir() and any(directory.iterdir()):
            raise StoreError(
                f"{directory} is not empty and not a column store; refusing "
                "to write store files into it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        specs: list[dict] = []
        for i, name in enumerate(table.schema.columns):
            role = table.schema.role(name)
            file_name = f"col_{i:05d}.npy"
            spec: dict = {"name": name, "role": role.value, "file": file_name}
            if role is Role.DIMENSION:
                codes = table.codes(name)
                spec["dtype"] = "int64"
                spec["categories"] = [
                    _json_safe_category(name, c) for c in table.categories(name)
                ]
                np.save(directory / file_name, np.ascontiguousarray(codes, dtype=np.int64))
            else:
                values = table.measure_values(name)
                spec["dtype"] = "float64"
                np.save(
                    directory / file_name,
                    np.ascontiguousarray(values, dtype=np.float64),
                )
            specs.append(spec)
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "n_rows": int(table.n_rows),
            "columns": specs,
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
        return cls(directory, manifest)

    # A store re-opens from its path: pickling one ships O(path) bytes and
    # re-reads the manifest on the receiving side (fresh validation, shared
    # file mapping).
    def __reduce__(self):
        return (ColumnStore.open, (str(self._directory),))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._directory

    @property
    def manifest_path(self) -> Path:
        return self._directory / MANIFEST_NAME

    @property
    def n_rows(self) -> int:
        return int(self._manifest["n_rows"])

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def role(self, name: str) -> Role:
        return Role(self._spec(name)["role"])

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(
            n for n, s in self._specs.items() if s["role"] == Role.DIMENSION.value
        )

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(
            n for n, s in self._specs.items() if s["role"] == Role.MEASURE.value
        )

    def categories(self, name: str) -> tuple[Hashable, ...]:
        spec = self._spec(name)
        if "categories" not in spec:
            raise StoreError(f"column {name!r} is a measure, not a dimension")
        return tuple(_decode_category(c) for c in spec["categories"])

    def _spec(self, name: str) -> dict:
        try:
            return self._specs[name]
        except KeyError:
            raise StoreError(
                f"store {self._directory} has no column {name!r}; "
                f"have {list(self._specs)}"
            ) from None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_column(self, name: str, mmap: bool = True) -> np.ndarray:
        """The raw array of one column: int64 codes for a dimension,
        float64 values for a measure.  ``mmap=True`` (default) returns a
        read-only :class:`numpy.memmap` over the shared file pages;
        ``mmap=False`` copies into RAM."""
        spec = self._spec(name)
        path = self._directory / spec["file"]
        if not path.is_file():
            raise StoreError(f"store column file {path} is missing")
        array = np.load(path, mmap_mode="r" if mmap else None)
        if array.ndim != 1 or array.dtype != np.dtype(spec["dtype"]):
            raise StoreError(
                f"store column {name!r} has dtype {array.dtype}/{array.ndim}d, "
                f"manifest says {spec['dtype']}/1d"
            )
        if array.size != self.n_rows:
            raise StoreError(
                f"store column {name!r} has {array.size} rows, "
                f"manifest says {self.n_rows}"
            )
        return array

    def table(self, mmap: bool = True, chunk_rows: int | None = None):
        """Materialize the whole store as a :class:`~repro.data.table.Table`.

        With ``mmap=True`` every column is a read-only mapping (zero-copy;
        the table pickles as the store path).  ``chunk_rows`` sets the
        table's streaming hint for the chunk-wise kernels.
        """
        from repro.data.table import Table

        columns: dict[str, Column] = {}
        roles: dict[str, Role] = {}
        for name in self.columns:
            role = self.role(name)
            roles[name] = role
            if role is Role.DIMENSION:
                columns[name] = CategoricalColumn.attach(
                    self.load_column(name, mmap=mmap), self.categories(name)
                )
            else:
                columns[name] = NumericColumn.attach(self.load_column(name, mmap=mmap))
        schema = Schema(self.columns, roles)
        return Table(
            schema, columns, store=self, mmap=mmap, chunk_rows=chunk_rows
        )

    def __repr__(self) -> str:
        return (
            f"ColumnStore({str(self._directory)!r}: {self.n_rows} rows, "
            f"{len(self._specs)} columns)"
        )

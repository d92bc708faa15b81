"""The offline artifact: a persistable, immutable ``XInsightModel``.

Fig. 3 splits XInsight into a heavy offline phase (FD detection + XLearner,
once per dataset) and a cheap online phase (per-query translation and
predicate search).  This module makes the offline output a first-class
artifact: everything the online phase needs — the learned PAG, the
separating sets, the FD graph, the measure→bin alias map, and the
discretization bin edges — bundled with the fit metadata and serialized
through a versioned JSON schema.

Workflow::

    model = fit_model(table, measure_bins=4)      # heavy, once
    model.save("model.json")
    ...
    model = XInsightModel.load("model.json")      # any process, any time
    session = model.session(table)                # cheap online serving
    report = session.explain(query)

The bin specs are stored so that a *loaded* model re-discretizes fresh data
identically instead of re-fitting the edges — serving data never shifts the
category boundaries the graph was learned on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro import obs

from repro.core.xlearner import xlearner
from repro.data.discretize import BinSpec, fit_bins
from repro.data.table import Table
from repro.discovery.skeleton import SepsetMap
from repro.errors import DiscoveryError, ModelError, SchemaError
from repro.fd.graph import FDGraph
from repro.graph.mixed_graph import MixedGraph
from repro.graph.pag import pag_from_dict, pag_to_dict
from repro.independence.base import CITest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.session import ExplainSession
    from repro.core.xplainer import XPlainerConfig

FORMAT_NAME = "xinsight-model"
SCHEMA_VERSION = 1

# The single source of truth for offline-phase defaults; the CLI's ``fit``
# and ``discover`` flags and ``fit_model`` all read these.
DEFAULT_MEASURE_BINS = 5
DEFAULT_ALPHA = 0.05
DEFAULT_MAX_DSEP_SIZE = 3


@dataclass(frozen=True)
class XInsightModel:
    """Immutable, fully-serializable output of the offline phase.

    Many :class:`~repro.core.session.ExplainSession` objects can share one
    model; nothing in the online phase mutates it.
    """

    pag: MixedGraph
    """The FD-augmented PAG learned by XLearner."""
    sepsets: SepsetMap
    """Separating sets recorded during skeleton learning / D-SEP pruning."""
    fd_graph: FDGraph
    """The FD-induced graph G_FD (Sec. 2.1)."""
    aliases: Mapping[str, str]
    """Measure → derived bin-column name (graph node of the measure)."""
    bin_specs: Mapping[str, BinSpec]
    """Measure → frozen discretization recipe (edges / singleton values)."""
    columns: tuple[str, ...]
    """The variables discovery ran over, in order."""
    alpha: float = DEFAULT_ALPHA
    max_depth: int | None = None
    max_dsep_size: int | None = DEFAULT_MAX_DSEP_SIZE
    measure_bins: int = DEFAULT_MEASURE_BINS
    fit_profile: dict[str, Any] | None = field(default=None, compare=False)
    """Phase profile of the fit that produced this model, read off its
    ``fit`` span by :func:`fit_profile_of` (``repro inspect`` prints it).
    Save-time metadata like the fingerprint: excluded from :meth:`to_dict`,
    the content hash, and equality — two fits with identical learned
    content stay interchangeable artifacts no matter how long each phase
    took."""

    # ------------------------------------------------------------------
    # Online-phase helpers
    # ------------------------------------------------------------------

    def node_of(self, column: str) -> str:
        """Graph node standing for a table column (bin alias for measures)."""
        return self.aliases.get(column, column)

    def transform(self, table: Table) -> Table:
        """Append the discretized measure companions to ``table``.

        Applies the stored bin specs — never re-fits edges — so fresh data
        is discretized exactly as the fitted table was.  Specs are applied
        in the table's measure order, making the derived-column order (and
        hence candidate iteration order) independent of serialization.
        """
        missing = [m for m in self.bin_specs if m not in table.measures]
        if missing:
            raise ModelError(
                f"model expects measure(s) {missing!r} absent from {table!r}"
            )
        out = table
        for measure in table.measures:
            spec = self.bin_specs.get(measure)
            if spec is not None:
                out = spec.apply(out)
        return out

    def session(
        self, table: Table, config: "XPlainerConfig | None" = None
    ) -> "ExplainSession":
        """Open an online serving session over ``table`` with this model."""
        from repro.core.session import ExplainSession

        return ExplainSession(self, table, config=config)

    def with_pag(self, pag: MixedGraph) -> "XInsightModel":
        """A copy with the PAG replaced (e.g. after applying background
        knowledge, Sec. 5); everything else is shared."""
        return replace(self, pag=pag)

    # ------------------------------------------------------------------
    # Versioned JSON persistence
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the canonical JSON payload (cached).

        Two models with identical learned content — regardless of how they
        were fitted, saved, or loaded — share a fingerprint; any change to
        the PAG, sepsets, FDs, bins, or fit metadata changes it.  This is
        the registry's hot-reload trigger and is echoed in serving stats so
        clients can verify which artifact answered.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_of_payload(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "pag": pag_to_dict(self.pag),
            "sepsets": self.sepsets.to_dict(),
            "fd_graph": self.fd_graph.to_dict(),
            "aliases": dict(self.aliases),
            "bin_specs": {m: s.to_dict() for m, s in self.bin_specs.items()},
            "columns": list(self.columns),
            "fit": {
                "alpha": self.alpha,
                "max_depth": self.max_depth,
                "max_dsep_size": self.max_dsep_size,
                "measure_bins": self.measure_bins,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "XInsightModel":
        fit_profile = None
        if isinstance(payload, dict) and "profile" in payload:
            # Like the fingerprint, the profile is save-time metadata: it
            # rides outside the canonical payload and must come off before
            # the content hash is recomputed.
            fit_profile = payload["profile"]
            payload = {k: v for k, v in payload.items() if k != "profile"}
        if isinstance(payload, dict) and "fingerprint" in payload:
            # The fingerprint is save-time metadata over the canonical
            # payload (it is not part of the hash input itself); a mismatch
            # means the artifact was corrupted or hand-edited after save.
            stored = payload["fingerprint"]
            payload = {k: v for k, v in payload.items() if k != "fingerprint"}
            actual = fingerprint_of_payload(payload)
            if stored != actual:
                raise ModelError(
                    f"model fingerprint mismatch: artifact says {stored!r} "
                    f"but the payload hashes to {actual!r} (corrupted or "
                    "hand-edited after save)"
                )
        if not isinstance(payload, dict):
            raise ModelError(f"not an {FORMAT_NAME!r} artifact")
        if payload.get("format") != FORMAT_NAME:
            raise ModelError(
                f"not an {FORMAT_NAME!r} artifact "
                f"(format = {payload.get('format')!r})"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ModelError(
                f"unsupported model schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            fit = payload["fit"]
            return cls(
                pag=pag_from_dict(payload["pag"]),
                sepsets=SepsetMap.from_dict(payload["sepsets"]),
                fd_graph=FDGraph.from_dict(payload["fd_graph"]),
                aliases=dict(payload["aliases"]),
                bin_specs={
                    m: BinSpec.from_dict(s) for m, s in payload["bin_specs"].items()
                },
                columns=tuple(payload["columns"]),
                alpha=float(fit["alpha"]),
                max_depth=fit["max_depth"],
                max_dsep_size=fit["max_dsep_size"],
                measure_bins=int(fit["measure_bins"]),
                fit_profile=fit_profile,
            )
        except (KeyError, TypeError, AttributeError, ValueError, SchemaError) as exc:
            raise ModelError(f"malformed model artifact: {exc!r}") from exc

    def save(self, path: str | Path) -> Path:
        """Write the model as versioned JSON; returns the path written.

        The file carries a top-level ``fingerprint`` key — the content hash
        of the canonical payload — which :meth:`load` verifies, the model
        registry uses as its reload trigger, and serving stats echo so
        clients can check which artifact answered.  Pre-fingerprint
        artifacts load fine (the key is optional metadata, not schema).
        """
        path = Path(path)
        payload = self.to_dict()
        payload["fingerprint"] = self.fingerprint()
        if self.fit_profile is not None:
            # Save-time metadata, outside the fingerprinted payload — a
            # profiled and an unprofiled save of the same model share a
            # fingerprint, and pre-profile artifacts stay loadable.
            payload["profile"] = self.fit_profile
        try:
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            raise ModelError(f"cannot write model to {path}: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: str | Path) -> "XInsightModel":
        """Read a model saved by :meth:`save`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ModelError(f"no model file at {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ModelError(f"cannot read model file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def fingerprint_of_payload(payload: dict) -> str:
    """SHA-256 of a model payload's canonical JSON form (sorted keys,
    compact separators).  Shared by :meth:`XInsightModel.fingerprint` and
    the load-time verification, so the two can never drift."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_fit_knobs(
    alpha: float, max_depth: int | None = None, max_dsep_size: int | None = None
) -> None:
    """Raise :class:`~repro.errors.DiscoveryError` when ``alpha`` is not in
    (0, 1) (NaN included) or ``max_depth`` / ``max_dsep_size`` is negative."""
    if not 0 < alpha < 1:
        raise DiscoveryError(f"alpha must be in (0, 1), got {alpha}")
    for name, value in (
        ("max_depth", max_depth),
        ("max_dsep_size", max_dsep_size),
    ):
        if value is not None and value < 0:
            raise DiscoveryError(f"{name} must be ≥ 0, got {value}")


def fit_model(
    table: Table,
    columns: Sequence[str] | None = None,
    ci_test: CITest | None = None,
    measure_bins: int = DEFAULT_MEASURE_BINS,
    alpha: float = DEFAULT_ALPHA,
    max_depth: int | None = None,
    max_dsep_size: int | None = DEFAULT_MAX_DSEP_SIZE,
) -> XInsightModel:
    """Run the offline phase (discretize, detect FDs, XLearner) once and
    return the immutable, persistable :class:`XInsightModel`.

    Raises :class:`~repro.errors.DiscoveryError` before any work when the
    knobs fail :func:`check_fit_knobs`.
    """
    check_fit_knobs(alpha, max_depth, max_dsep_size)
    # The fit's spans are its only clock: under the caller's trace when one
    # is active, else under a private one, so every fit has its profile.
    private = None if obs.current_trace() is not None else obs.Trace(name="fit")
    with obs.activate(private), obs.span("fit", rows=table.n_rows) as fit:
        graph_table = table
        aliases: dict[str, str] = {}
        specs: dict[str, BinSpec] = {}
        with obs.span("discretize", measures=len(table.measures)):
            for measure in table.measures:
                spec = fit_bins(table, measure, n_bins=measure_bins)
                graph_table = spec.apply(graph_table)
                aliases[measure] = spec.column
                specs[measure] = spec
        if columns is None:
            columns = graph_table.dimensions
        columns = tuple(columns)
        fit.tag(columns=len(columns))
        learner = xlearner(
            graph_table,
            columns=columns,
            ci_test=ci_test,
            alpha=alpha,
            max_depth=max_depth,
            max_dsep_size=max_dsep_size,
        )
    return XInsightModel(
        pag=learner.pag,
        sepsets=learner.fci_result.sepsets,
        fd_graph=learner.fd_graph,
        aliases=aliases,
        bin_specs=specs,
        columns=columns,
        alpha=alpha,
        max_depth=max_depth,
        max_dsep_size=max_dsep_size,
        measure_bins=measure_bins,
        fit_profile=fit_profile_of(fit),
    )


def fit_profile_of(fit: obs.Span) -> dict[str, Any]:
    """The persisted fit profile, read off a finished ``fit`` span.

    Each child span is a phase: its duration is the phase's ``seconds``
    (rounded to 6 places) and its tags are the phase's counts.  The
    ``fci`` phase nests its sub-phases the same way, and every
    ``skeleton.depth`` span below them is one ``skeleton_depths`` entry.
    """

    def timed(span: obs.Span) -> dict[str, Any]:
        return {"name": span.name, "seconds": round(span.duration_s, 6), **span.tags}

    phases = []
    for span in fit.children:
        phase = timed(span)
        if span.children:
            phase["phases"] = [timed(sub) for sub in span.children]
        phases.append(phase)
    return {
        "total_seconds": round(fit.duration_s, 6),
        **fit.tags,
        "phases": phases,
        "skeleton_depths": [
            {**span.tags, "seconds": round(span.duration_s, 6)}
            for span in fit.walk()
            if span.name == "skeleton.depth"
        ],
    }

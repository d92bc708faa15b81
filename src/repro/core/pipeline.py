"""The end-to-end XInsight pipeline (Fig. 3) — backward-compatible facade.

The two phases now live in dedicated layers:

* offline — :func:`repro.core.model.fit_model` produces an immutable,
  persistable :class:`~repro.core.model.XInsightModel` (PAG, sepsets, FD
  graph, alias map, bin edges, fit metadata) with ``save``/``load``;
* online — :class:`repro.core.session.ExplainSession` serves ``explain`` /
  ``explain_batch`` over one model with per-session memoization.

:class:`XInsight` remains as a thin wrapper tying the two together for
scripts that want the one-object workflow: ``fit()`` builds a model (and a
session over it), ``explain()`` delegates to the session.  New code should
prefer the model/session surface — it separates the heavy fit from cheap
serving and lets many sessions share one persisted artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.model import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_DSEP_SIZE,
    DEFAULT_MEASURE_BINS,
    XInsightModel,
    fit_offline,
)
from repro.core.session import ExplainSession, XInsightReport
from repro.core.xlearner import XLearnerResult
from repro.core.xplainer import XPlainerConfig
from repro.core.xtranslator import Translation
from repro.data.query import WhyQuery
from repro.data.table import Table
from repro.errors import QueryError
from repro.independence.base import CITest

__all__ = ["XInsight", "XInsightReport"]


@dataclass
class XInsight:
    """Facade tying XLearner, XTranslator and XPlainer together.

    Deprecated in favor of ``fit_model(table)`` + ``model.session(table)``;
    kept as a one-object convenience and for backward compatibility.
    """

    table: Table
    config: XPlainerConfig = field(default_factory=XPlainerConfig)
    measure_bins: int = DEFAULT_MEASURE_BINS
    alpha: float = DEFAULT_ALPHA
    max_depth: int | None = None
    max_dsep_size: int | None = DEFAULT_MAX_DSEP_SIZE

    _model: XInsightModel | None = None
    _session: ExplainSession | None = None
    _learner: XLearnerResult | None = None
    _ci_test: CITest | None = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------

    def fit(
        self,
        columns: Sequence[str] | None = None,
        ci_test: CITest | None = None,
        workers: int | None = None,
        executor=None,
    ) -> "XInsight":
        """Run the offline phase: discretize measures, detect FDs, XLearner.

        ``workers`` / ``executor`` shard the discovery phase's CI probing
        (see :mod:`repro.parallel`); the fitted state is identical to a
        serial fit.
        """
        model, learner, test, graph_table = fit_offline(
            self.table,
            columns=columns,
            ci_test=ci_test,
            measure_bins=self.measure_bins,
            alpha=self.alpha,
            max_depth=self.max_depth,
            max_dsep_size=self.max_dsep_size,
            workers=workers,
            executor=executor,
        )
        self._model = model
        self._learner = learner
        self._ci_test = test
        self._session = ExplainSession(
            model, self.table, config=self.config, graph_table=graph_table
        )
        return self

    @property
    def model(self) -> XInsightModel:
        """The persistable offline artifact (``model.save(path)`` to keep it)."""
        if self._model is None:
            raise QueryError("call fit() before querying (offline phase missing)")
        return self._model

    @property
    def session(self) -> ExplainSession:
        """The online serving session over the fitted model."""
        if self._session is None:
            raise QueryError("call fit() before querying (offline phase missing)")
        return self._session

    @property
    def learner(self) -> XLearnerResult:
        if self._learner is None:
            raise QueryError("call fit() before querying (offline phase missing)")
        return self._learner

    @property
    def ci_test(self) -> CITest | None:
        """The CI test the offline phase ran with (None before ``fit``)."""
        return self._ci_test

    @property
    def graph_table(self) -> Table:
        """The fitted table including the discretized measure companions —
        the table against which explanation predicates are expressed."""
        return self.session.graph_table

    @property
    def graph(self):
        return self.model.pag

    def node_of(self, column: str) -> str:
        """Graph node standing for a table column (bin alias for measures)."""
        if self._model is not None:
            return self._model.node_of(column)
        return column

    # ------------------------------------------------------------------
    # Online phase (delegated to the session)
    # ------------------------------------------------------------------

    def translations_for(self, query: WhyQuery) -> dict[str, Translation]:
        """XTranslator output for every candidate variable of the query."""
        return self.session.translations_for(query)

    def is_homogeneous(self, query: WhyQuery, attribute: str) -> bool:
        """Def. 3.7: the siblings are homogeneous on ``attribute`` iff the
        attribute and the foreground are m-separated given the background."""
        return self.session.is_homogeneous(query, attribute)

    def explain(
        self,
        query: WhyQuery,
        method: str = "auto",
        config: XPlainerConfig | None = None,
    ) -> XInsightReport:
        """Answer a Why Query with ranked, typed explanations (requires an
        explicit fit, like every online method)."""
        return self.session.explain(query, method=method, config=config)

    def explain_batch(
        self,
        queries: Sequence[WhyQuery],
        method: str = "auto",
        config: XPlainerConfig | None = None,
        workers: int | None = None,
        executor=None,
    ) -> list[XInsightReport]:
        """Batch serving over the fitted model (requires an explicit fit).

        ``workers`` / ``executor`` fan the query stream across shards (see
        :meth:`repro.core.session.ExplainSession.explain_batch`), matching
        the session surface so facade users get sharded serving too.
        """
        return self.session.explain_batch(
            queries, method=method, config=config, workers=workers, executor=executor
        )

"""XInsight reproduction: explainable data analysis through causality.

Reproduces Ma, Ding, Wang, Han & Zhang, *XInsight: eXplainable Data
Analysis Through The Lens of Causality*, SIGMOD 2023 (PACMMOD 1(2):156).

Quickstart::

    from repro import Subspace, Table, WhyQuery, fit_model

    table = Table.from_columns({...})
    model = fit_model(table)                             # offline phase
    model.save("model.json")                             # persistable artifact
    session = model.session(table)                       # online phase
    query = WhyQuery.create(Subspace.of(Location="A"),
                            Subspace.of(Location="B"),
                            measure="LungCancer", agg="AVG")
    for explanation in session.explain(query).top(5):
        print(explanation.as_row())
"""

from repro.core import (
    ExplainSession,
    Explanation,
    ExplanationType,
    XDASemantics,
    XInsightModel,
    XInsightReport,
    XPlainerConfig,
    explain_attribute,
    fit_model,
    translate,
    xlearner,
)
from repro.data import (
    Aggregate,
    ColumnStore,
    Filter,
    Predicate,
    QueryWorkspace,
    Role,
    Subspace,
    Table,
    WhyQuery,
    discretize,
    read_csv,
    write_csv,
)
from repro.discovery import fci, pc
from repro.fd import FD, fd_graph_from_table, find_functional_dependencies
from repro.graph import Endpoint, MixedGraph, m_separated

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "ColumnStore",
    "Endpoint",
    "ExplainSession",
    "Explanation",
    "ExplanationType",
    "FD",
    "Filter",
    "MixedGraph",
    "Predicate",
    "QueryWorkspace",
    "Role",
    "Subspace",
    "Table",
    "WhyQuery",
    "XDASemantics",
    "XInsightModel",
    "XInsightReport",
    "XPlainerConfig",
    "discretize",
    "explain_attribute",
    "fit_model",
    "fci",
    "fd_graph_from_table",
    "find_functional_dependencies",
    "m_separated",
    "pc",
    "read_csv",
    "translate",
    "write_csv",
    "xlearner",
]

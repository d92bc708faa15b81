"""The paper's core contribution: XLearner, XTranslator, XPlainer, model, session."""

from repro.core.changes import ChangeDirection, ChangeReport, explain_change
from repro.core.multidim import ConjunctionExplanation, explain_conjunction, product_attribute
from repro.core.decomposition import FilterDecomposition, count_based_share, decompose_sum_delta
from repro.core.explanation import Explanation, ExplanationType, cross_product
from repro.core.model import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_DSEP_SIZE,
    DEFAULT_MEASURE_BINS,
    SCHEMA_VERSION,
    XInsightModel,
    fit_model,
)
from repro.core.session import ExplainSession, SessionStats, XInsightReport
from repro.core.view import (
    ViewExplanation,
    ViewPair,
    ViewQuerySpec,
    ViewSummary,
    enumerate_view_queries,
    summarize_view,
    view_from_spec,
    view_summary_to_markdown,
)
from repro.core.reporting import (
    explanation_to_dict,
    report_to_dict,
    report_to_json,
    report_to_markdown,
)
from repro.core.xlearner import XLearnerResult, peel_fd_sinks, xlearner
from repro.core.xplainer import (
    AttributeExplanation,
    XPlainerConfig,
    avg_search,
    brute_force_search,
    canonical_predicate_avg,
    canonical_predicate_sum,
    exact_responsibility,
    explain_attribute,
    sum_responsibility_estimate,
    sum_search,
)
from repro.core.xtranslator import (
    CausalRole,
    Translation,
    XDASemantics,
    translate,
    translate_variable,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_DSEP_SIZE",
    "DEFAULT_MEASURE_BINS",
    "ExplainSession",
    "SCHEMA_VERSION",
    "SessionStats",
    "ViewExplanation",
    "ViewPair",
    "ViewQuerySpec",
    "ViewSummary",
    "enumerate_view_queries",
    "summarize_view",
    "view_from_spec",
    "view_summary_to_markdown",
    "XInsightModel",
    "fit_model",
    "explanation_to_dict",
    "report_to_dict",
    "report_to_json",
    "report_to_markdown",
    "FilterDecomposition",
    "count_based_share",
    "decompose_sum_delta",
    "ChangeDirection",
    "ChangeReport",
    "ConjunctionExplanation",
    "explain_change",
    "explain_conjunction",
    "product_attribute",
    "AttributeExplanation",
    "CausalRole",
    "Explanation",
    "ExplanationType",
    "Translation",
    "XDASemantics",
    "XInsightReport",
    "XLearnerResult",
    "XPlainerConfig",
    "avg_search",
    "brute_force_search",
    "canonical_predicate_avg",
    "canonical_predicate_sum",
    "cross_product",
    "exact_responsibility",
    "sum_responsibility_estimate",
    "explain_attribute",
    "peel_fd_sinks",
    "sum_search",
    "translate",
    "translate_variable",
    "xlearner",
]

"""XPlainer (Sec. 3.3): predicate-level quantitative explanations.

Implements the paper's adaptation of DB causality to XDA:

* **W-Causality** (Def. 3.4) — predicates, not tuples, are causes; a
  contingency Γ is itself a predicate on the same attribute.
* **W-Responsibility** (Def. 3.5) — ρ_P = 1 / (1 + min_Γ |Γ|_W) with
  |Γ|_W = max((Δ(D−D_P) − Δ(D−D_P−D_Γ)) / Δ(D), 0).
* **Conciseness** (Eqn. 4) — the optimal explanation maximizes
  ρ_P − σ·|P| with σ = 1/m by default.

Three search strategies (Table 4):

* :func:`brute_force_search` — exact, O(3^m): enumerates every (P, Γ) pair.
* :func:`sum_search` — O(m log m) for additive aggregates (SUM/COUNT):
  canonical predicate (Def. 3.6) + the closed-form optimum of Eqn. 8.
* :func:`avg_search` — Alg. 2 greedy with the homogeneity pruning of
  Prop. 3.4.

All Δ probes run on :class:`~repro.data.query.AttributeProfile` group sums,
so each is O(m) regardless of the row count — the source of the Table 8
speed-ups.  On top of that, every search here is driven through the
profile's *batched* Δ kernels (``delta_without_many`` /
``delta_from_stats``): the greedy AVG loop evaluates all of an iteration's
candidates as one leave-one-out stat sweep, brute force evaluates all 2^m
subset probes as a single bit-matrix matmul, and the SUM candidate sweep is
a cumulative-sum scan — no per-candidate Python probes anywhere on the hot
path.  The pre-vectorization per-probe formulations live on under
``tests/oracles/`` as the parity and benchmark reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.filters import Predicate
from repro.data.query import AttributeProfile, QueryWorkspace, WhyQuery
from repro.data.table import Table
from repro.errors import ExplanationError


@dataclass(frozen=True)
class AttributeExplanation:
    """Optimal explanation found within one attribute."""

    attribute: str
    predicate: Predicate
    responsibility: float
    score: float
    """Objective value ρ − σ·|P| (Eqn. 4)."""
    contingency: Predicate | None
    """Minimal-|Γ|_W contingency found (None ⇔ counterfactual cause)."""
    method: str

    @property
    def is_counterfactual(self) -> bool:
        return self.contingency is None


@dataclass(frozen=True)
class XPlainerConfig:
    """Search knobs; paper defaults throughout."""

    epsilon: float | None = None
    """Absolute counterfactual threshold ε.  None → fraction of Δ(D)."""
    epsilon_fraction: float = 0.05
    sigma: float | None = None
    """Conciseness weight σ; None → 1/m per attribute (Sec. 3.3.1)."""
    brute_force_limit: int = 14
    """Refuse brute force beyond this filter count (3^m blow-up)."""

    def resolve_epsilon(self, delta_full: float) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return self.epsilon_fraction * delta_full

    def resolve_sigma(self, n_filters: int) -> float:
        if self.sigma is not None:
            return self.sigma
        return 1.0 / max(n_filters, 1)


def _as_predicate(profile: AttributeProfile, indices: np.ndarray) -> Predicate:
    selected = np.zeros(profile.n_filters, dtype=bool)
    selected[indices] = True
    return profile.predicate(selected)


# Subset enumerations are evaluated through the batched Δ kernels in blocks
# of this many bit-rows, bounding the transient mask matrix at a few MiB.
_ENUM_CHUNK = 1 << 14


def _bit_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Boolean subset rows for the bit patterns ``start .. stop-1``: row b,
    column i is bit i of ``start + b`` — the scalar enumeration order."""
    bits = np.arange(start, stop, dtype=np.int64)
    return (bits[:, None] >> np.arange(max(width, 1))[None, :width]) & 1 == 1


# ---------------------------------------------------------------------------
# Brute force (exact)
# ---------------------------------------------------------------------------


def exact_responsibility(
    profile: AttributeProfile, selected: np.ndarray, epsilon: float
) -> tuple[float, np.ndarray | None]:
    """Exact ρ_P via exhaustive contingency search.

    Returns (ρ, best Γ as index array) — ρ = 0 when P is not an actual
    cause, ρ = 1 with Γ = empty when P is a counterfactual cause.

    All 2^|complement| contingency probes are evaluated through the batched
    Δ kernels (chunked bit-matrix matmuls); enumeration order and
    tie-breaking match the scalar reference, so the returned Γ is the one
    the per-probe ``exact_responsibility_scalar`` oracle finds.
    """
    delta_full = profile.delta_full()
    m = profile.n_filters
    selected = np.asarray(selected, dtype=bool)
    complement = np.flatnonzero(~selected)
    # Through the batched kernel, not the scalar probe: |Γ|_W for a Γ that
    # adds nothing to P must come out exactly 0 so ties break like the
    # scalar reference, which requires both operands on one kernel path.
    delta_without_p = float(profile.delta_without_many(selected[None, :])[0])
    n_c = int(complement.size)

    best_w: float | None = None
    best_bits = -1
    total = 1 << n_c
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        masks = np.zeros((stop - start, m), dtype=bool)
        masks[:, complement] = _bit_rows(start, stop, n_c)
        dw_gamma = profile.delta_without_many(masks)
        dw_both = profile.delta_without_many(masks | selected[None, :])
        # Δ(D − D_Γ) must stay above ε while Δ(D − D_Γ − D_P) drops to ε.
        valid = (dw_gamma > epsilon) & (dw_both <= epsilon)
        if not valid.any():
            continue
        w = np.maximum((delta_without_p - dw_both) / delta_full, 0.0)
        positions = np.flatnonzero(valid)
        local = int(positions[np.argmin(w[positions])])
        if best_w is None or w[local] < best_w:
            best_w = float(w[local])
            best_bits = start + local
    if best_w is None:
        return 0.0, None
    gamma = complement[_bit_rows(best_bits, best_bits + 1, n_c)[0]]
    return 1.0 / (1.0 + best_w), gamma.astype(np.int64)


def brute_force_search(
    profile: AttributeProfile,
    epsilon: float,
    sigma: float,
    limit: int = 14,
) -> AttributeExplanation | None:
    """Exact optimum of Eqn. 4 by enumerating every predicate.

    One bit-matrix matmul evaluates Δ(D − D_S) for all 2^m subsets S up
    front; each predicate's contingency scan then reduces to numpy gathers
    over that table, with the scalar path's enumeration order and
    tie-breaking preserved.
    """
    m = profile.n_filters
    if m > limit:
        raise ExplanationError(
            f"brute force over {m} filters exceeds the limit of {limit}"
        )
    delta_full = profile.delta_full()
    all_masks = _bit_rows(0, 1 << m, m)
    dw = profile.delta_without_many(all_masks)
    sizes = all_masks.sum(axis=1)
    all_bits = np.arange(1 << m, dtype=np.int64)

    best: tuple[int, float, int] | None = None  # (p_bits, rho, gamma_bits)
    best_score = -math.inf
    for p_bits in range(1, 1 << m):
        gamma_bits = all_bits[(all_bits & p_bits) == 0]
        dw_both = dw[gamma_bits | p_bits]
        valid = (dw[gamma_bits] > epsilon) & (dw_both <= epsilon)
        if not valid.any():
            continue  # ρ_P = 0: not an actual cause
        w = np.maximum((dw[p_bits] - dw_both) / delta_full, 0.0)
        positions = np.flatnonzero(valid)
        local = int(positions[np.argmin(w[positions])])
        rho = 1.0 / (1.0 + float(w[local]))
        score = rho - sigma * int(sizes[p_bits])
        if best is None or score > best_score + 1e-12:
            best = (p_bits, rho, int(gamma_bits[local]))
            best_score = score
    if best is None:
        return None
    p_bits, rho, gamma_bits_best = best
    gamma = np.flatnonzero(all_masks[gamma_bits_best]).astype(np.int64)
    return AttributeExplanation(
        attribute=profile.attribute,
        predicate=profile.predicate(all_masks[p_bits]),
        responsibility=rho,
        score=best_score,
        contingency=_as_predicate(profile, gamma) if gamma.size else None,
        method="brute-force",
    )


# ---------------------------------------------------------------------------
# SUM fast path (Defs. 3.6, Thms. 3.3–3.4, Eqn. 8)
# ---------------------------------------------------------------------------


def canonical_predicate_sum(
    profile: AttributeProfile, epsilon: float
) -> tuple[np.ndarray, float] | None:
    """Def. 3.6: the shortest Δ-descending prefix that reaches ε.

    Returns (indices ordered by Δ descending, τ = Σ Δ_i over the prefix),
    or None when no counterfactual predicate exists on this attribute.
    """
    deltas = profile.per_filter_delta()
    delta_full = profile.delta_full()
    order = np.argsort(-deltas, kind="stable")
    cumulative = np.cumsum(deltas[order])
    reached = np.flatnonzero(delta_full - cumulative <= epsilon)
    if reached.size == 0:
        return None
    j = int(reached[0]) + 1
    if deltas[order[j - 1]] <= 0:
        # Needing non-positive filters contradicts Prop. 3.2: bail out.
        return None
    return order[:j], float(cumulative[j - 1])


def sum_responsibility_estimate(
    delta_p: float, tau: float, delta_full: float
) -> float:
    """ρ via the canonical contingency Γ = P_C − P (Thms. 3.3–3.4).

    Additivity makes |Γ|_W = (τ − Δ(D_P))/Δ(D) exact for that Γ, so
    ρ = 1/(1 + (τ − Δ(D_P))/Δ(D)) is the paper's immediately-computable
    responsibility (a lower bound on the min over all contingencies; the
    Thm. 3.4 upper bound caps the gap — measured in the E6 tightness bench).
    """
    w = max((tau - delta_p) / delta_full, 0.0)
    return 1.0 / (1.0 + w)


def sum_search(
    profile: AttributeProfile, epsilon: float, sigma: float
) -> AttributeExplanation | None:
    """O(m log m) optimal search for additive aggregates.

    Prop. 3.3 restricts attention to the canonical predicate P_C.  Eqn. 8's
    closed-form candidate P* = {p_i ∈ P_C : Δ_i > C3} with
    C3 = σ·Δ(D)/(1 + τ/Δ(D))² is scored alongside every Δ-descending prefix
    of P_C (all share the Thm. 3.3 contingency structure), and the best
    ρ − σ|P| wins.  Additivity makes every prefix's Δ(D_P) one cumulative
    sum, so the whole candidate sweep is three vector operations; the
    winner's contingency is a single ``np.setdiff1d``.
    """
    if not profile.query.agg.is_additive:
        raise ExplanationError("sum_search requires an additive aggregate")
    canonical = canonical_predicate_sum(profile, epsilon)
    if canonical is None:
        return None
    pc_indices, tau = canonical
    deltas = profile.per_filter_delta()
    delta_full = profile.delta_full()
    t = tau / delta_full
    c3 = sigma * delta_full / (1.0 + t) ** 2
    n_canonical = len(pc_indices)

    # Score every Δ-descending prefix P_k of P_C at once: Δ(D_{P_k}) is the
    # cumulative sum, ρ follows Thms. 3.3–3.4 (the full prefix is the
    # counterfactual cause), and the objective subtracts σ·k.
    prefix_dp = np.cumsum(deltas[pc_indices])
    w = np.maximum((tau - prefix_dp) / delta_full, 0.0)
    rho = 1.0 / (1.0 + w)
    rho[n_canonical - 1] = 1.0
    scores = rho - sigma * np.arange(1, n_canonical + 1)

    best_k = 0
    best_score = float(scores[0])
    for k in range(1, n_canonical):
        if scores[k] > best_score + 1e-12:
            best_k = k
            best_score = float(scores[k])
    chosen = pc_indices[: best_k + 1]
    responsibility = float(rho[best_k])

    eqn8 = pc_indices[deltas[pc_indices] > c3]
    if eqn8.size:
        if eqn8.size == n_canonical:
            rho_eqn8 = 1.0
        else:
            rho_eqn8 = sum_responsibility_estimate(
                float(deltas[eqn8].sum()), tau, delta_full
            )
        score_eqn8 = rho_eqn8 - sigma * int(eqn8.size)
        if score_eqn8 > best_score + 1e-12:
            chosen = eqn8
            responsibility = rho_eqn8
            best_score = score_eqn8

    gamma = (
        None if chosen.size == n_canonical else np.setdiff1d(pc_indices, chosen)
    )
    selected = np.zeros(profile.n_filters, dtype=bool)
    selected[chosen] = True
    return AttributeExplanation(
        attribute=profile.attribute,
        predicate=profile.predicate(selected),
        responsibility=responsibility,
        score=best_score,
        contingency=(
            _as_predicate(profile, gamma)
            if gamma is not None and gamma.size
            else None
        ),
        method="sum-canonical",
    )


# ---------------------------------------------------------------------------
# AVG greedy path (Alg. 2, Prop. 3.4)
# ---------------------------------------------------------------------------


def canonical_predicate_avg(
    profile: AttributeProfile,
    epsilon: float,
    sigma: float,
    homogeneous: bool = False,
) -> list[int] | None:
    """Alg. 2 lines 1–15: greedily grow the canonical predicate for AVG.

    Returns the filter indices in insertion order, or None (⊥) when no
    counterfactual cause fits within the 1/σ size budget.
    """
    m = profile.n_filters
    deltas = profile.per_filter_delta()  # invariant across iterations
    max_size = min(m, math.ceil(1.0 / sigma)) if sigma > 0 else m
    stats = profile.stats_matrix()

    def residual() -> tuple[np.ndarray, float]:
        """Kept-row statistics and Δ(D − D_{P_C}) so far, always through
        the batched kernel — the loop's termination test and the final
        counterfactual verdict must agree bit-for-bit, so both use this
        one float path."""
        kept = stats[~pc_mask].sum(axis=0)
        return kept, float(profile.delta_from_stats(kept[None, :])[0])

    pc: list[int] = []
    pc_mask = np.zeros(m, dtype=bool)
    for _ in range(max_size):
        # Sufficient statistics of the rows that survive removing P_C so
        # far; one leave-one-out row subtraction then scores every
        # candidate of this iteration in a single kernel call (the scalar
        # reference probes each candidate separately).
        kept, current = residual()
        if current <= epsilon:
            break
        pool = np.flatnonzero(~pc_mask)
        if homogeneous:
            pool = pool[deltas[pool] > current]
        if pool.size == 0:
            break
        candidate_values = profile.delta_from_stats(kept[None, :] - stats[pool])
        best_i = int(pool[np.argmin(candidate_values)])
        pc.append(best_i)
        pc_mask[best_i] = True

    if residual()[1] > epsilon:
        return None
    return pc


def avg_search(
    profile: AttributeProfile,
    epsilon: float,
    sigma: float,
    homogeneous: bool = False,
) -> AttributeExplanation | None:
    """Alg. 2: greedy canonical-predicate construction for AVG.

    ``homogeneous`` should be True when the sibling subspaces are
    homogeneous on this attribute (Def. 3.7: X ⫫_G F | B), enabling the
    Prop. 3.4 pruning of filters whose Δ_i cannot reduce the residual
    difference.
    """
    m = profile.n_filters
    delta_full = profile.delta_full()
    pc = canonical_predicate_avg(profile, epsilon, sigma, homogeneous)
    if pc is None:
        return None  # ⊥: no counterfactual cause within the size budget
    n_canonical = len(pc)
    if n_canonical == 0:
        return None
    pc_mask = np.zeros(m, dtype=bool)
    pc_mask[pc] = True

    # Two batched kernel calls score every prefix P_k of the canonical
    # predicate: Δ(D − D_{P_k}) and the Γ_k-validity probe Δ(D − D_{Γ_k}).
    prefixes = np.zeros((n_canonical, m), dtype=bool)
    for k, index in enumerate(pc):
        prefixes[k:, index] = True
    dw_prefix = profile.delta_without_many(prefixes)
    dw_gamma = profile.delta_without_many(pc_mask[None, :] & ~prefixes)
    delta_without_pc = float(dw_prefix[-1])

    best_k, best_rho, best_score = n_canonical, 1.0, -math.inf
    for k in range(1, n_canonical + 1):
        if k < n_canonical:
            if dw_gamma[k - 1] <= epsilon:
                continue  # Γ_k alone already collapses Δ: not a valid contingency
            w = max((float(dw_prefix[k - 1]) - delta_without_pc) / delta_full, 0.0)
            responsibility = 1.0 / (1.0 + w)
        else:
            responsibility = 1.0  # the full canonical predicate always scores
        score = responsibility - sigma * k
        if score > best_score + 1e-12:
            best_k, best_rho, best_score = k, responsibility, score
    contingency = (
        _as_predicate(profile, np.array(pc[best_k:])) if best_k < n_canonical else None
    )
    return AttributeExplanation(
        attribute=profile.attribute,
        predicate=profile.predicate(prefixes[best_k - 1]),
        responsibility=best_rho,
        score=best_score,
        contingency=contingency,
        method="avg-greedy",
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: The search methods :func:`explain_attribute` dispatches on.
SEARCH_METHODS = ("auto", "brute", "sum", "avg")


def check_method(method: object) -> str:
    """Return ``method`` if it names a search method, else raise
    :class:`ExplanationError` (callers check before doing any work)."""
    if method not in SEARCH_METHODS:
        raise ExplanationError(
            f"unknown search method {method!r}; expected one of "
            f"{list(SEARCH_METHODS)}"
        )
    return method


def explain_attribute(
    table: Table,
    query: WhyQuery,
    attribute: str,
    config: XPlainerConfig | None = None,
    method: str = "auto",
    homogeneous: bool = False,
    workspace: QueryWorkspace | None = None,
) -> AttributeExplanation | None:
    """Find the optimal explanation of ``query`` within one attribute.

    ``method``: "auto" (SUM/COUNT → canonical, AVG → greedy), "brute",
    "sum", or "avg".

    ``workspace`` — a :class:`~repro.data.query.QueryWorkspace` for this
    exact query — supplies the attribute profile and Δ(D) from its shared
    precomputation instead of rescanning the table; callers serving many
    attributes or repeated queries (e.g. :class:`~repro.core.session.
    ExplainSession`) pass one to amortize the O(N) mask work.

    Returns None when the attribute admits no counterfactual cause (Alg. 2
    line 15's ⊥).  Raises :class:`ExplanationError` when the query itself
    is invalid (Δ(D) ≤ ε: there is no difference to explain).
    """
    config = config or XPlainerConfig()
    if workspace is not None:
        if workspace.query != query:
            raise ExplanationError(
                "workspace was built for a different query than the one "
                "being explained"
            )
        profile = workspace.profile(attribute)
        delta_full = workspace.delta
    else:
        profile = AttributeProfile.build(table, query, attribute)
        delta_full = query.delta(table)
    if profile.n_filters == 0:
        return None
    epsilon = config.resolve_epsilon(delta_full)
    if delta_full <= epsilon:
        raise ExplanationError(
            f"Why Query has Δ(D) = {delta_full:.4g} ≤ ε = {epsilon:.4g}; "
            "nothing to explain"
        )
    sigma = config.resolve_sigma(profile.n_filters)

    if method == "auto":
        method = "sum" if query.agg.is_additive else "avg"
    if method == "brute":
        return brute_force_search(profile, epsilon, sigma, config.brute_force_limit)
    if method == "sum":
        return sum_search(profile, epsilon, sigma)
    if method == "avg":
        return avg_search(profile, epsilon, sigma, homogeneous=homogeneous)
    raise ExplanationError(f"unknown search method {method!r}")

"""Discrete additive noise model (ANM) direction test (Sec. 3.1.2, suppl. 8.6).

Peters, Janzing & Schölkopf (2011): if ``Y = f(X) + N_Y`` with ``N_Y ⫫ X``
holds in one direction and the identifiability conditions of suppl. Thm. 8.1
fail in the reverse direction, the ANM direction is causal.  XLearner uses
this as the justification for orienting FD edges (an FD *is* an ANM with
``N_Y = 0``); this module makes the argument executable and testable.

The regression function is fit non-parametrically as the per-x mode of y
(exact for deterministic relations), the residual is ``y − f̂(x)`` over the
integer codes, and residual independence is assessed with the χ² test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.errors import DiscoveryError
from repro.independence.engine import ChiSquaredTest


class AnmDirection(enum.Enum):
    """Outcome of a bidirectional discrete-ANM fit."""

    X_TO_Y = "x->y"
    Y_TO_X = "y->x"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class AnmResult:
    """Fit summary: the residual-independence p-value of each direction."""

    p_forward: float
    p_backward: float
    direction: AnmDirection


def _ordinal_codes(table: Table, column: str) -> np.ndarray:
    """Codes remapped so they respect the natural category order.

    Additivity needs an ordinal embedding: appearance-order codes would
    scatter an additive noise term arbitrarily.  Categories are sorted
    numerically when every one parses as a number (after stripping a common
    non-numeric prefix such as ``"y"`` in ``"y-1", "y0", ...``), otherwise
    lexicographically.
    """
    categories = table.categories(column)

    def sort_key(value) -> tuple:
        text = str(value)
        stripped = text.lstrip("".join(c for c in text if c.isalpha()))
        try:
            return (0, float(stripped or text))
        except ValueError:
            return (1, text)

    order = sorted(range(len(categories)), key=lambda i: sort_key(categories[i]))
    remap = np.empty(len(categories), dtype=np.int64)
    for new_code, old_code in enumerate(order):
        remap[old_code] = new_code
    return remap[table.codes(column)]


def _residual_codes(cause: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Residual ``effect − mode(effect | cause)`` over integer codes."""
    k_cause = int(cause.max()) + 1 if cause.size else 1
    k_eff = int(effect.max()) + 1 if effect.size else 1
    joint = np.bincount(cause * k_eff + effect, minlength=k_cause * k_eff)
    f_hat = joint.reshape(k_cause, k_eff).argmax(axis=1)
    return effect - f_hat[cause]


def _independence_p(a: np.ndarray, b: np.ndarray) -> float:
    table = Table.from_columns(
        {"a": [str(v) for v in a], "b": [str(v) for v in b]}
    )
    return ChiSquaredTest(table).test("a", "b").p_value


def anm_direction(
    table: Table, x: str, y: str, alpha: float = 0.05, margin: float = 0.0
) -> AnmResult:
    """Fit discrete ANMs in both directions between two dimensions.

    Decision rule: a direction is *accepted* when its residual is
    independent of the cause (p > alpha); if exactly one direction is
    accepted — or both are but one p-value beats the other by more than
    ``margin`` — that direction wins, otherwise UNDECIDED.
    """
    for col in (x, y):
        if col not in table.dimensions:
            raise DiscoveryError(f"ANM needs dimension columns; {col!r} is not one")
    cx = _ordinal_codes(table, x)
    cy = _ordinal_codes(table, y)
    p_forward = _independence_p(_residual_codes(cx, cy), cx)
    p_backward = _independence_p(_residual_codes(cy, cx), cy)

    fwd_ok = p_forward > alpha
    bwd_ok = p_backward > alpha
    if fwd_ok and not bwd_ok:
        direction = AnmDirection.X_TO_Y
    elif bwd_ok and not fwd_ok:
        direction = AnmDirection.Y_TO_X
    elif fwd_ok and bwd_ok and abs(p_forward - p_backward) > margin:
        direction = (
            AnmDirection.X_TO_Y if p_forward > p_backward else AnmDirection.Y_TO_X
        )
    else:
        direction = AnmDirection.UNDECIDED
    return AnmResult(p_forward, p_backward, direction)


def fd_implies_forward_anm(table: Table, lhs: str, rhs: str) -> bool:
    """The paper's observation: an FD lhs → rhs admits a forward ANM with
    zero noise.  True iff the fitted forward residual is identically zero."""
    residual = _residual_codes(table.codes(lhs), table.codes(rhs))
    return bool(np.all(residual == 0))

"""Conditional-independence test interface.

Constraint-based discovery (Sec. 2.2) consumes CI decisions
``X ⫫ Y | Z ?`` through the small :class:`CITest` protocol so the same FCI /
XLearner code runs against statistical tests (chi², G, Fisher-z) and the
graph oracle used to verify algorithmic correctness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Hashable, Iterable

Var = Hashable


@dataclass(frozen=True)
class CITestResult:
    """Outcome of one conditional-independence test."""

    x: Var
    y: Var
    z: tuple[Var, ...]
    statistic: float
    p_value: float
    dof: float

    def independent(self, alpha: float) -> bool:
        """Fail-to-reject decision at significance level ``alpha``."""
        return self.p_value > alpha


class CITest(abc.ABC):
    """A conditional-independence decision procedure bound to one dataset."""

    supports_batch = False
    """True when ``test_batch`` is natively vectorized (not a per-probe
    loop); batch-aware callers like skeleton learning key off this."""

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.calls = 0

    @abc.abstractmethod
    def test(self, x: Var, y: Var, z: Iterable[Var] = ()) -> CITestResult:
        """Run the test and return the full result."""

    def test_batch(
        self, probes: Iterable[tuple[Var, Var, Iterable[Var]]]
    ) -> list["CITestResult"]:
        """Evaluate many probes; the default simply loops :meth:`test`."""
        return [self.test(x, y, z) for x, y, z in probes]

    def independent(self, x: Var, y: Var, z: Iterable[Var] = ()) -> bool:
        """Convenience wrapper: the boolean CI decision at ``self.alpha``."""
        return self.test(x, y, z).independent(self.alpha)

    @staticmethod
    def canonical_key(x: Var, y: Var, z: Iterable[Var]) -> tuple:
        """Order-insensitive cache key for (x ⫫ y | z) ≡ (y ⫫ x | z)."""
        a, b = sorted((x, y), key=repr)
        return (a, b, frozenset(z))

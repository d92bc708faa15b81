"""Permutation-based conditional independence test.

The χ² asymptotics degrade on small strata (exactly where the WEB dataset
lives: 764 rows, up to 29 variables).  This test computes the same χ²
statistic but calibrates it by permuting Y *within each stratum of Z* —
which preserves P(X|Z) and P(Y|Z) while breaking any conditional
association — and reports the empirical tail probability.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.table import Table
from repro.independence.base import CITest, CITestResult, Var


def _stratum_tables(
    cx: np.ndarray,
    cy: np.ndarray,
    strata: np.ndarray,
    kx: int,
    ky: int,
) -> Iterable[np.ndarray]:
    """Yield the X×Y count matrix of every non-empty stratum."""
    order = np.argsort(strata, kind="stable")
    sorted_strata = strata[order]
    boundaries = np.flatnonzero(np.diff(sorted_strata)) + 1
    for chunk in np.split(order, boundaries):
        joint = cx[chunk] * ky + cy[chunk]
        counts = np.bincount(joint, minlength=kx * ky).reshape(kx, ky)
        yield counts


def _reduce_table(counts: np.ndarray) -> np.ndarray:
    """Drop all-zero rows and columns (unobserved categories in a stratum)."""
    counts = counts[counts.sum(axis=1) > 0]
    if counts.size:
        counts = counts[:, counts.sum(axis=0) > 0]
    return counts


class PermutationCITest(CITest):
    """Stratified-permutation calibration of the χ² statistic."""

    def __init__(
        self,
        table: Table,
        alpha: float = 0.05,
        n_permutations: int = 200,
        seed: int = 0,
    ) -> None:
        super().__init__(alpha)
        self.table = table
        self.n_permutations = n_permutations
        self._rng = np.random.default_rng(seed)

    def _statistic(self, cx, cy, strata, kx, ky) -> float:
        stat = 0.0
        for counts in _stratum_tables(cx, cy, strata, kx, ky):
            counts = _reduce_table(counts)
            if counts.ndim < 2 or counts.shape[0] < 2 or counts.shape[1] < 2:
                continue
            total = counts.sum()
            row = counts.sum(axis=1, keepdims=True)
            col = counts.sum(axis=0, keepdims=True)
            expected = row @ col / total
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = (counts - expected) ** 2 / expected
            stat += float(np.where(expected > 0, terms, 0.0).sum())
        return stat

    def test(self, x: Var, y: Var, z: Iterable[Var] = ()) -> CITestResult:
        self.calls += 1
        z = tuple(z)
        cx = self.table.codes(str(x))
        cy = self.table.codes(str(y)).copy()
        kx = self.table.cardinality(str(x))
        ky = self.table.cardinality(str(y))
        strata = np.zeros(self.table.n_rows, dtype=np.int64)
        for var in z:
            strata = strata * self.table.cardinality(str(var)) + self.table.codes(
                str(var)
            )

        observed = self._statistic(cx, cy, strata, kx, ky)
        order = np.argsort(strata, kind="stable")
        boundaries = np.flatnonzero(np.diff(strata[order])) + 1
        chunks = np.split(order, boundaries)

        exceed = 0
        permuted = cy.copy()
        for _ in range(self.n_permutations):
            for chunk in chunks:
                permuted[chunk] = cy[chunk][self._rng.permutation(chunk.size)]
            if self._statistic(cx, permuted, strata, kx, ky) >= observed:
                exceed += 1
        p_value = (exceed + 1) / (self.n_permutations + 1)
        return CITestResult(x, y, z, observed, float(p_value), 0)

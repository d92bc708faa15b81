"""Conditional-independence testing substrate."""

from repro.independence.base import CITest, CITestResult
from repro.independence.cache import CachedCITest
from repro.independence.engine import (
    BatchCITester,
    ChiSquaredTest,
    EncodedDataset,
    GTest,
)
from repro.independence.fisher_z import FisherZTest
from repro.independence.oracle import OracleCITest
from repro.independence.permutation import PermutationCITest

__all__ = [
    "BatchCITester",
    "CITest",
    "CITestResult",
    "CachedCITest",
    "ChiSquaredTest",
    "EncodedDataset",
    "FisherZTest",
    "GTest",
    "OracleCITest",
    "PermutationCITest",
]

"""Parity references: the original implementations the shipped kernels
are checked against.

* :mod:`oracles.contingency` — the per-stratum χ² / G conditional-
  independence tests that :mod:`repro.independence.engine` vectorizes;
* :mod:`oracles.xplainer_scalar` — the per-probe XPlainer searches that
  :mod:`repro.core.xplainer` runs through batched Δ kernels.

Nothing under ``src/`` imports them.  The parity suites and the speed
benchmarks do, as ``oracles.*``; ``pytest.ini`` puts ``tests/`` on the
import path, so the import works whichever directory pytest collects first.
"""

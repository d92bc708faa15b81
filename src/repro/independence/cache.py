"""Memoizing wrapper around any CI test.

Skeleton learning probes the same (X, Y, Z) triples repeatedly across
depths and the Possible-D-SEP stage; caching them is the single biggest
constant-factor win in the offline phase.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.independence.base import CITest, CITestResult, Var


class CachedCITest(CITest):
    """Transparent cache keyed on the canonical (x, y, frozenset(z)) form.

    Hit accounting is tracked with an explicit ``misses`` counter rather
    than by differencing against ``inner.calls``: the inner test may be
    shared across several wrappers (or already have calls on it at
    construction time), in which case ``calls - inner.calls`` undercounts
    this wrapper's hits.
    """

    def __init__(self, inner: CITest) -> None:
        super().__init__(inner.alpha)
        self.inner = inner
        self.misses = 0
        self._cache: dict[tuple, CITestResult] = {}

    @property
    def supports_batch(self) -> bool:  # type: ignore[override]
        """Batched probing pays off only when the inner test vectorizes."""
        return getattr(self.inner, "supports_batch", False)

    @property
    def hits(self) -> int:
        return self.calls - self.misses

    def test(self, x: Var, y: Var, z: Iterable[Var] = ()) -> CITestResult:
        self.calls += 1
        key = self.canonical_key(x, y, z)
        result = self._cache.get(key)
        if result is None:
            self.misses += 1
            result = self.inner.test(x, y, z)
            self._cache[key] = result
        return result

    def test_batch(
        self, probes: Sequence[tuple[Var, Var, Iterable[Var]]]
    ) -> list[CITestResult]:
        """Batch lookup: unseen canonical keys are deduplicated and sent to
        the inner test in one batch, then every probe is answered from the
        cache (so ``(x, y | z)`` and ``(y, x | z)`` cost one inner test)."""
        probes = [(x, y, tuple(z)) for x, y, z in probes]
        self.calls += len(probes)
        keys = [self.canonical_key(x, y, z) for x, y, z in probes]
        missing: dict[tuple, tuple[Var, Var, tuple[Var, ...]]] = {}
        for key, probe in zip(keys, probes):
            if key not in self._cache and key not in missing:
                missing[key] = probe
        if missing:
            self.misses += len(missing)
            results = self.inner.test_batch(list(missing.values()))
            for key, result in zip(missing, results):
                self._cache[key] = result
        return [self._cache[key] for key in keys]

    def clear(self) -> None:
        self._cache.clear()

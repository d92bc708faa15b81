"""Deterministic shard planning for the parallel execution subsystem.

Multi-worker batch serving splits an ordered list of ``n_items``
independent queries into at most ``max_shards`` contiguous, balanced
slices.  Contiguity keeps the merge trivial (concatenate shard results in
shard order and the original input order is restored) and balance keeps
the slowest worker from dominating the wall clock.

The plan is a pure function of ``(n_items, max_shards)``: no randomness,
no dependence on worker identity — so a parallel run visits exactly the
items a serial run would, in a merge order that reproduces the serial
order byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the item list."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def take(self, items: Sequence[T]) -> Sequence[T]:
        """The items of this shard (a slice — no copy for lists)."""
        return items[self.start : self.stop]


def plan_shards(n_items: int, max_shards: int) -> tuple[Shard, ...]:
    """Split ``n_items`` into ≤ ``max_shards`` balanced contiguous shards.

    Every shard is non-empty and sizes differ by at most one.
    ``n_items == 0`` yields an empty plan.
    """
    if max_shards < 1:
        raise ReproError(f"max_shards must be ≥ 1, got {max_shards}")
    if n_items <= 0:
        return ()
    n_shards = min(max_shards, n_items)
    base, extra = divmod(n_items, n_shards)
    shards: list[Shard] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index, start, start + size))
        start += size
    assert start == n_items
    return tuple(shards)

"""Fingerprint-hash sharding over private per-shard engines.

The server's hot-path concurrency story is *partitioning, not locking*:
every action is routed by the hash of its canonical fingerprint to
exactly one shard, and each shard owns a **private**
:class:`~repro.core.cache.RulingCache` and
:class:`~repro.core.engine.ComplianceEngine`.  Two shards never read or
write the same cache, so there is nothing to contend on — a shard can
rule its whole sub-batch without synchronizing with anyone.

What *is* shared is deliberately serialized elsewhere: optionally, one
ledger handle (all shard engines record fresh rulings through it; the
asyncio server runs every shard on one thread, so ledger writes are
naturally serialized and deduplicated by the ledger's fingerprint
conflict clause).  The engine's intern and memo tables are
process-wide, so shards share rulings, but no shard's cache.

Routing uses the built-in ``hash`` of the fingerprint tuple — a few
hundred nanoseconds, stable within a process, which is the only scope a
shard assignment needs to be stable in (caches live and die with the
process).  The ruling itself is a pure function of the fingerprint, so
*any* assignment yields byte-identical results; the hash only has to
spread load.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.cache import DEFAULT_CACHE_SIZE, RulingCache
from repro.core.engine import ComplianceEngine, RulingLedger
from repro.core.fingerprint import action_fingerprint

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.action import InvestigativeAction
    from repro.core.ruling import Ruling


class Shard:
    """One partition: a private cache, a private engine, local counters."""

    __slots__ = ("index", "cache", "engine", "actions_ruled", "batches")

    def __init__(
        self,
        index: int,
        cache_size: int,
        ledger: RulingLedger | None,
    ) -> None:
        self.index = index
        self.cache = RulingCache(maxsize=cache_size)
        self.engine = ComplianceEngine(cache=self.cache, ledger=ledger)
        self.actions_ruled = 0
        self.batches = 0

    def evaluate_many(
        self, actions: Sequence[InvestigativeAction]
    ) -> list[Ruling]:
        """Rule a sub-batch on this shard's private engine."""
        self.actions_ruled += len(actions)
        self.batches += 1
        return self.engine.evaluate_many(actions)


class ShardRouter:
    """Routes actions to N private shards and reassembles batch order.

    Args:
        n_shards: Number of partitions.
        cache_size: Per-shard LRU capacity (total capacity is
            ``n_shards * cache_size``).
        ledger: Optional shared persistence backend; every shard's fresh
            rulings are recorded through it.
    """

    def __init__(
        self,
        n_shards: int = 4,
        cache_size: int = DEFAULT_CACHE_SIZE,
        ledger: RulingLedger | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1: {cache_size}")
        self.shards = tuple(
            Shard(index, cache_size, ledger)
            for index in range(n_shards)
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, fingerprint: tuple) -> int:
        """The owning shard index for a canonical action fingerprint."""
        return hash(fingerprint) % len(self.shards)

    def partition(
        self, actions: Sequence[InvestigativeAction]
    ) -> list[list[int]]:
        """Positions of ``actions`` grouped by owning shard index."""
        buckets: list[list[int]] = [[] for _ in self.shards]
        for position, action in enumerate(actions):
            buckets[self.shard_for(action_fingerprint(action))].append(
                position
            )
        return buckets

    def evaluate_many(
        self, actions: Iterable[InvestigativeAction]
    ) -> list[Ruling]:
        """Rule a batch across the shards, preserving input order.

        Ruling-for-ruling identical to a single engine's
        ``evaluate_many`` — the ruling is deterministic per fingerprint,
        so partitioning cannot change any answer, only which private
        cache serves it.
        """
        batch = list(actions)
        rulings: list[Ruling | None] = [None] * len(batch)
        for shard, positions in zip(self.shards, self.partition(batch)):
            if not positions:
                continue
            for position, ruling in zip(
                positions, shard.evaluate_many([batch[p] for p in positions])
            ):
                rulings[position] = ruling
        return rulings  # type: ignore[return-value]

    def prime_from_ledger(self, ledger: RulingLedger) -> int:
        """Warm every shard's cache from persisted rulings.

        Each persisted ruling is routed to the shard that would own its
        fingerprint at serve time, so a primed entry is always a hit on
        the shard that gets asked.

        Returns:
            The number of rulings loaded.
        """
        loaded = 0
        for fingerprint, ruling in ledger.iter_rulings():
            self.shards[self.shard_for(fingerprint)].cache.put(
                fingerprint, ruling
            )
            loaded += 1
        return loaded

    def stats(self) -> dict:
        """Per-shard counters plus aggregate cache hit rate."""
        shards = []
        hits = misses = evictions = 0
        for shard in self.shards:
            cache_stats = shard.cache.stats
            hits += cache_stats.hits
            misses += cache_stats.misses
            evictions += cache_stats.evictions
            shards.append(
                {
                    "shard": shard.index,
                    "actions_ruled": shard.actions_ruled,
                    "batches": shard.batches,
                    "cache_hits": cache_stats.hits,
                    "cache_misses": cache_stats.misses,
                    "cache_evictions": cache_stats.evictions,
                    "cache_size": len(shard.cache),
                }
            )
        lookups = hits + misses
        return {
            "n_shards": len(self.shards),
            "shards": shards,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_evictions": evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

"""Shard router invariants: isolation, routing stability, order, priming."""

import pytest

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.fingerprint import action_fingerprint
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.ledger.store import Ledger
from repro.serve.shard import ShardRouter
from repro.workloads import action_corpus


def _render(rulings):
    return [canonical_json(ruling_to_dict(r)) for r in rulings]


class TestShardIsolation:
    def test_no_two_shards_share_cache_or_engine(self):
        router = ShardRouter(n_shards=8)
        caches = [id(s.cache) for s in router.shards]
        engines = [id(s.engine) for s in router.shards]
        assert len(set(caches)) == len(caches)
        assert len(set(engines)) == len(engines)
        for shard in router.shards:
            assert shard.engine.cache is shard.cache

    def test_every_fingerprint_lands_only_in_its_owning_cache(self):
        router = ShardRouter(n_shards=4)
        corpus = action_corpus(600, seed=21)
        router.evaluate_many(corpus)
        for action in corpus:
            fingerprint = action_fingerprint(action)
            owner = router.shard_for(fingerprint)
            for shard in router.shards:
                held = shard.cache.get(fingerprint) is not None
                assert held == (shard.index == owner)


class TestRouting:
    def test_routing_is_stable_within_process(self):
        router = ShardRouter(n_shards=5)
        for action in action_corpus(100, seed=22):
            fingerprint = action_fingerprint(action)
            first = router.shard_for(fingerprint)
            assert all(
                router.shard_for(fingerprint) == first for _ in range(3)
            )

    def test_partition_covers_every_position_exactly_once(self):
        router = ShardRouter(n_shards=3)
        corpus = action_corpus(250, seed=23)
        buckets = router.partition(corpus)
        flat = sorted(p for bucket in buckets for p in bucket)
        assert flat == list(range(len(corpus)))

    def test_constructor_validates_arguments(self):
        with pytest.raises(ValueError):
            ShardRouter(n_shards=0)
        with pytest.raises(ValueError):
            ShardRouter(cache_size=0)


class TestRouterEquivalence:
    def test_sharded_rulings_byte_identical_to_single_engine(self):
        corpus = action_corpus(2_000, seed=24)
        for n_shards in (1, 2, 4, 7):
            router = ShardRouter(n_shards=n_shards)
            reference = ComplianceEngine(
                cache=RulingCache(maxsize=2 * len(corpus))
            )
            assert _render(router.evaluate_many(corpus)) == _render(
                reference.evaluate_many(corpus)
            )

    def test_stats_aggregate_matches_per_shard_counters(self):
        router = ShardRouter(n_shards=4)
        corpus = action_corpus(800, seed=25)
        router.evaluate_many(corpus)
        router.evaluate_many(corpus)
        stats = router.stats()
        assert sum(
            s["actions_ruled"] for s in stats["shards"]
        ) == 2 * len(corpus)
        assert stats["cache_hits"] == sum(
            s["cache_hits"] for s in stats["shards"]
        )
        assert 0.0 < stats["hit_rate"] < 1.0


class TestLedgerPriming:
    def test_primed_entries_hit_on_the_owning_shard(self, tmp_path):
        path = str(tmp_path / "rulings.sqlite")
        corpus = action_corpus(400, seed=26)

        ledger = Ledger(path)
        try:
            ShardRouter(n_shards=4, ledger=ledger).evaluate_many(corpus)
        finally:
            ledger.close()

        ledger = Ledger(path)
        try:
            router = ShardRouter(n_shards=4)
            loaded = router.prime_from_ledger(ledger)
        finally:
            ledger.close()
        assert loaded == len({action_fingerprint(a) for a in corpus})

        router.evaluate_many(corpus)
        stats = router.stats()
        assert stats["cache_misses"] == 0
        assert stats["cache_hits"] == len(corpus)

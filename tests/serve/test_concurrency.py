"""Concurrency coverage: hammer private shard engines from threads and
tasks, and drive one server from many concurrent client connections.

The serving design's whole concurrency argument is that partitioning
replaces locking — each shard's cache and engine are touched only by
that shard.  These tests hammer that claim: same results as a single
engine, no cross-shard cache leakage, and byte-identical ordered
responses per connection when many connections pile onto one server.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.fingerprint import action_fingerprint
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.server import ServerConfig
from repro.serve.shard import ShardRouter
from repro.workloads import action_corpus

N_SHARDS = 4


def _render(rulings):
    return [canonical_json(ruling_to_dict(r)) for r in rulings]


def _assert_isolation(router: ShardRouter, corpus) -> None:
    """Every ruled fingerprint lives only in its owning shard's cache."""
    for action in corpus:
        fingerprint = action_fingerprint(action)
        owner = router.shard_for(fingerprint)
        for shard in router.shards:
            held = shard.cache.get(fingerprint) is not None
            assert held == (shard.index == owner)


class TestThreadedShardHammer:
    def test_per_shard_engines_hammered_from_threads(self):
        corpus = action_corpus(2_000, seed=41)
        router = ShardRouter(n_shards=N_SHARDS)
        buckets = router.partition(corpus)
        rounds = 5

        def hammer(shard_index: int) -> list[str]:
            shard = router.shards[shard_index]
            mine = [corpus[p] for p in buckets[shard_index]]
            rendered: list[str] = []
            for _ in range(rounds):
                rendered = _render(shard.evaluate_many(mine))
            return rendered

        with ThreadPoolExecutor(max_workers=N_SHARDS) as pool:
            per_shard = list(pool.map(hammer, range(N_SHARDS)))

        reference = _reference(corpus)
        for positions, rendered in zip(buckets, per_shard):
            assert rendered == [reference[p] for p in positions]
        _assert_isolation(router, corpus)
        stats = router.stats()
        assert sum(
            s["actions_ruled"] for s in stats["shards"]
        ) == rounds * len(corpus)

    def test_async_tasks_hammer_independent_shards(self):
        corpus = action_corpus(1_200, seed=42)
        router = ShardRouter(n_shards=N_SHARDS)
        buckets = router.partition(corpus)
        reference = _reference(corpus)

        async def hammer(shard_index: int) -> list[str]:
            shard = router.shards[shard_index]
            mine = [corpus[p] for p in buckets[shard_index]]
            rendered: list[str] = []
            for _ in range(3):
                rendered = await asyncio.to_thread(
                    lambda: _render(shard.evaluate_many(mine))
                )
            return rendered

        async def main() -> list[list[str]]:
            return await asyncio.gather(
                *(hammer(i) for i in range(N_SHARDS))
            )

        per_shard = asyncio.run(main())
        for positions, rendered in zip(buckets, per_shard):
            assert rendered == [reference[p] for p in positions]
        _assert_isolation(router, corpus)


class TestConcurrentConnections:
    def test_many_connections_each_see_ordered_identical_rulings(self):
        corpus = action_corpus(1_500, seed=43)
        reference = _reference(corpus)
        batches = [
            corpus[i : i + 100] for i in range(0, len(corpus), 100)
        ]
        n_clients = 6
        failures: list[str] = []
        barrier = threading.Barrier(n_clients)

        with ServerThread(
            ServerConfig(port=0, metrics_port=0, n_shards=N_SHARDS)
        ) as thread:
            host, port = thread.address

            def drive(client_index: int) -> None:
                try:
                    with ServeClient(host, port) as client:
                        barrier.wait(timeout=30)
                        for index, batch in enumerate(batches):
                            client.send_rule(index, batch)
                        got: list[str] = []
                        for index, _batch in enumerate(batches):
                            response = client.read_response()
                            if response.get("id") != index:
                                failures.append(
                                    f"client {client_index}: order "
                                    f"violated at {index}"
                                )
                                return
                            got.extend(
                                canonical_json(r)
                                for r in response["rulings"]
                            )
                        if got != reference:
                            failures.append(
                                f"client {client_index}: rulings diverged"
                            )
                except Exception as exc:  # collected below
                    failures.append(f"client {client_index}: {exc!r}")

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(n_clients)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=120)

            assert failures == []

            with ServeClient(host, port) as client:
                stats = client.stats()["stats"]
            assert sum(
                s["actions_ruled"] for s in stats["shards"]
            ) <= n_clients * len(corpus)
            # The connections share the shard caches, so most lookups
            # hit.
            assert stats["cache_hits"] > 0


def _reference(corpus) -> list[str]:
    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    return _render(engine.evaluate_many(corpus))

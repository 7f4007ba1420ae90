"""Differential tests: memoization must never change a ruling.

The correctness spine for the batched/cached engine.  A cached engine and
a fresh engine are run over the same 10,000-action corpus and every
ruling's complete canonical bytes (``ruling_to_utf8``: every field,
down to each requirement's and exception's reasoning) must match; a
second pass must be served (at least partly) from the cache.
``repro bench`` runs the same gate on every benchmark invocation.
"""

import pytest

from repro.core import ComplianceEngine, RulingCache
from repro.ledger.serialize import ruling_to_utf8
from repro.workloads import action_corpus

CORPUS_SIZE = 10_000
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return action_corpus(CORPUS_SIZE, seed=SEED)


class TestCachedVsFresh:
    def test_identical_rulings_over_10k_actions(self, corpus):
        fresh = ComplianceEngine()
        cached = ComplianceEngine(cache=RulingCache(maxsize=2 * CORPUS_SIZE))
        fresh_bytes = list(map(ruling_to_utf8, fresh.evaluate_many(corpus)))
        cached_bytes = list(map(ruling_to_utf8, cached.evaluate_many(corpus)))
        assert fresh_bytes == cached_bytes

    def test_second_pass_reports_cache_hits(self, corpus):
        cached = ComplianceEngine(cache=RulingCache(maxsize=2 * CORPUS_SIZE))
        cached.evaluate_many(corpus)
        cached.cache_stats.reset()
        second = cached.evaluate_many(corpus)
        assert len(second) == CORPUS_SIZE
        assert cached.cache_stats.hit_rate > 0
        assert cached.cache_stats.hits == CORPUS_SIZE
        assert cached.cache_stats.misses == 0

    def test_small_cache_still_correct_under_eviction(self, corpus):
        """Thrashing an 64-entry LRU must degrade speed, never rulings."""
        sample = corpus[:2000]
        fresh = ComplianceEngine()
        tiny = ComplianceEngine(cache=RulingCache(maxsize=64))
        fresh_bytes = list(map(ruling_to_utf8, fresh.evaluate_many(sample)))
        tiny_bytes = list(map(ruling_to_utf8, tiny.evaluate_many(sample)))
        assert fresh_bytes == tiny_bytes
        assert tiny.cache_stats.evictions > 0


class TestEvaluateMany:
    def test_matches_per_action_loop_and_preserves_order(self, corpus):
        sample = corpus[:1000]
        engine = ComplianceEngine()
        loop = [ruling_to_utf8(engine.evaluate(action)) for action in sample]
        batch = list(map(ruling_to_utf8, engine.evaluate_many(sample)))
        assert loop == batch

    def test_uncached_batch_dedupes_within_the_call(self, corpus):
        action = corpus[0]
        engine = ComplianceEngine()
        rulings = engine.evaluate_many([action] * 5)
        assert len(rulings) == 5
        # One evaluation, shared by every duplicate in the batch.
        assert all(r is rulings[0] for r in rulings)

    def test_empty_batch(self):
        assert ComplianceEngine().evaluate_many([]) == []

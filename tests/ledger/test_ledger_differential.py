"""Differential tests: persistence must never change a ruling.

The ledger-side mirror of ``tests/core/test_engine_differential.py``.
Three engines rule the same 10,000-action corpus:

* **fresh** — no cache, no ledger: the reference;
* **recorded** — a ledger-bearing engine whose rulings are then
  *reloaded from the ledger* by fingerprint;
* **primed** — a brand-new engine whose cache was warm-primed from that
  ledger before it ruled anything.

All three must agree byte for byte on complete canonical texts
(``ruling_to_utf8``) and ``explain()`` output, and the primed engine
must actually serve from its warmed cache.
"""

import pytest

from repro.core import ComplianceEngine, RulingCache
from repro.core.fingerprint import action_fingerprint
from repro.ledger import Ledger
from repro.ledger.serialize import ruling_to_utf8
from repro.workloads import action_corpus

CORPUS_SIZE = 10_000
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return action_corpus(CORPUS_SIZE, seed=SEED)


@pytest.fixture(scope="module")
def fresh_rulings(corpus):
    return ComplianceEngine().evaluate_many(corpus)


@pytest.fixture(scope="module")
def ledger(corpus):
    with Ledger(":memory:") as led:
        engine = ComplianceEngine(
            cache=RulingCache(maxsize=2 * CORPUS_SIZE), ledger=led
        )
        engine.evaluate_many(corpus)
        yield led


class TestLedgerReloadedVsFresh:
    def test_every_ruling_reloads_byte_identical(
        self, corpus, fresh_rulings, ledger
    ):
        for action, fresh in zip(corpus, fresh_rulings):
            reloaded = ledger.ruling_for(action_fingerprint(action))
            assert reloaded is not None
            assert ruling_to_utf8(reloaded) == ruling_to_utf8(fresh)
            assert reloaded.explain() == fresh.explain()

    def test_ledger_holds_every_unique_fingerprint(self, corpus, ledger):
        unique = {action_fingerprint(action) for action in corpus}
        assert ledger.counts()["rulings"] == len(unique)


class TestWarmPrimedVsFresh:
    def test_primed_engine_agrees_and_hits_its_cache(
        self, corpus, fresh_rulings, ledger
    ):
        primed = ComplianceEngine(
            cache=RulingCache(maxsize=2 * CORPUS_SIZE), ledger=ledger
        )
        n_primed = primed.prime_from_ledger()
        assert n_primed == ledger.counts()["rulings"]

        primed_rulings = primed.evaluate_many(corpus)
        for fresh, warm in zip(fresh_rulings, primed_rulings):
            assert ruling_to_utf8(warm) == ruling_to_utf8(fresh)
            assert warm.explain() == fresh.explain()
        # Every action was primed, so nothing should have been computed.
        assert primed.cache_stats.hits == CORPUS_SIZE
        assert primed.cache_stats.misses == 0

    def test_prime_without_ledger_or_cache_raises(self):
        with pytest.raises(ValueError):
            ComplianceEngine(cache=RulingCache()).prime_from_ledger()
        with Ledger(":memory:") as led:
            with pytest.raises(ValueError):
                ComplianceEngine(ledger=led).prime_from_ledger()


class TestPersistenceAcrossProcessBoundary:
    def test_file_ledger_round_trips_rulings(self, tmp_path):
        """Same gate over a *file* ledger closed and reopened."""
        corpus = action_corpus(500, seed=SEED)
        path = tmp_path / "case.db"
        with Ledger(path) as led:
            ComplianceEngine(
                cache=RulingCache(), ledger=led
            ).evaluate_many(corpus)
        fresh = ComplianceEngine().evaluate_many(corpus)
        with Ledger(path) as led:
            primed = ComplianceEngine(cache=RulingCache(), ledger=led)
            primed.prime_from_ledger()
            warm = primed.evaluate_many(corpus)
        assert list(map(ruling_to_utf8, warm)) == list(
            map(ruling_to_utf8, fresh)
        )
        assert [r.explain() for r in warm] == [r.explain() for r in fresh]

"""The ruling intern table: one shared ruling per distinct rule output.

Equal rule outputs must come back as the identical object from every
engine, and sharing must never change a byte: each interned ruling
encodes exactly as a ruling built without the table would.  Every
ruling's citations are checked when it is built, before any table holds
it, and a ruling decoded from a (possibly tampered) ledger row must
never stand in for a fresh evaluation.
"""

import json
import sqlite3
import sys
import threading

import pytest

from repro.core import ComplianceEngine, RulingCache, build_default_registry
from repro.core import cache as cache_module
from repro.core import engine as engine_module
from repro.core.caselaw import AuthorityRegistry
from repro.core.fingerprint import action_fingerprint
from repro.ledger import Ledger
from repro.ledger import serialize
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.serve.shard import ShardRouter
from repro.workloads import action_corpus

GOLDEN_SIZE = 5000
GOLDEN_SEED = 99


class _NeverStores(dict):
    """An intern table that stays empty: every evaluation builds anew."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture(scope="module")
def golden_corpus():
    return action_corpus(GOLDEN_SIZE, seed=GOLDEN_SEED)


def _reference_texts(actions, monkeypatch):
    """Canonical texts of rulings built with the intern table bypassed."""
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_RULINGS", _NeverStores())
        rulings = ComplianceEngine().evaluate_many(actions)
        assert engine_module.interned_rulings() == 0
        return [canonical_json(ruling_to_dict(r)) for r in rulings]


def test_equal_outputs_share_one_object_across_engines(
    empty_tables, golden_corpus
):
    sample = golden_corpus[:1000]
    first = ComplianceEngine().evaluate_many(sample)
    second = ComplianceEngine(cache=RulingCache()).evaluate_many(sample)
    assert all(a is b for a, b in zip(first, second))
    by_text: dict[str, set[int]] = {}
    for ruling in first:
        by_text.setdefault(serialize.ruling_to_json(ruling), set()).add(
            id(ruling)
        )
    assert all(len(ids) == 1 for ids in by_text.values())
    # Many fingerprints, few rulings: that is what the table is for.
    assert len(by_text) < len(sample) // 2
    assert engine_module.interned_rulings() == len(by_text)


def test_equal_outputs_share_one_object_across_shards(
    empty_tables, golden_corpus
):
    sample = golden_corpus[:1000]
    router = ShardRouter(n_shards=4)
    rulings = router.evaluate_many(sample)
    shards_by_ruling: dict[int, set[int]] = {}
    for action, ruling in zip(sample, rulings):
        shard = router.shard_for(action_fingerprint(action))
        shards_by_ruling.setdefault(id(ruling), set()).add(shard)
    assert any(len(shards) > 1 for shards in shards_by_ruling.values())
    fresh = ComplianceEngine().evaluate_many(sample)
    assert all(a is b for a, b in zip(rulings, fresh))


def test_interned_texts_match_rulings_built_without_the_table(
    empty_tables, golden_corpus, monkeypatch
):
    reference = _reference_texts(golden_corpus, monkeypatch)
    rulings = ComplianceEngine().evaluate_many(golden_corpus)
    assert [serialize.ruling_to_json(r) for r in rulings] == reference


@pytest.mark.parametrize("cache", [None, 1], ids=["uncached", "cached"])
def test_an_unknown_citation_fails_when_the_ruling_is_built(
    empty_tables, monkeypatch, cache
):
    action = action_corpus(1, seed=GOLDEN_SEED)[0]
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_RULINGS", _NeverStores())
        ruling = ComplianceEngine().evaluate(action)
    cited = next(key for step in ruling.steps for key in step.authorities)
    registry = AuthorityRegistry()
    for authority in build_default_registry():
        if authority.key != cited:
            registry.add(authority)
    monkeypatch.setattr(engine_module, "AUTHORITIES", registry)
    engine = ComplianceEngine(cache=cache)
    assert cited not in engine.registry
    with pytest.raises(KeyError, match=cited):
        engine.evaluate(action)
    assert engine_module.interned_rulings() == 0
    assert not engine_module._COMBINED
    if cache is not None:
        assert len(engine.cache) == 0


def test_a_tampered_primed_row_never_reaches_a_fresh_engine(
    empty_tables, tmp_path
):
    action = action_corpus(1, seed=GOLDEN_SEED)[0]
    path = str(tmp_path / "case.db")
    with Ledger(path) as ledger:
        honest = ComplianceEngine(ledger=ledger).evaluate(action)
    honest_text = serialize.ruling_to_json(honest)
    # Keep the rule outputs and change only the combined answer, so the
    # tampered ruling would land on the honest ruling's intern key.
    payload = json.loads(honest_text)
    payload["required_process"] = (
        "SEARCH_WARRANT"
        if payload["required_process"] != "SEARCH_WARRANT"
        else "NONE"
    )
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE ruling_texts SET ruling_json = ?",
            (canonical_json(payload),),
        )
    connection.close()
    engine_module._RULINGS.clear()
    serialize._TEXTS.clear()
    with Ledger(path) as ledger:
        primed = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        assert primed.prime_from_ledger() == 1
        assert serialize.ruling_to_json(primed.evaluate(action)) != honest_text
    assert engine_module.interned_rulings() == 0
    fresh = ComplianceEngine().evaluate(action)
    assert serialize.ruling_to_json(fresh) == honest_text


def _largest_table() -> int:
    """The fullest intern, text or memo table right now."""
    return max(
        len(engine_module._RULINGS),
        len(engine_module._COMBINED),
        len(serialize._TEXTS),
        *(
            len(table)
            for memo in engine_module.RULE_MEMOS
            for table in (memo._guards, memo._entries, memo._outputs)
        ),
    )


def test_a_small_cap_bounds_both_tables_and_keeps_every_byte(
    empty_tables, golden_corpus, monkeypatch
):
    reference = _reference_texts(golden_corpus, monkeypatch)
    monkeypatch.setattr(cache_module, "INTERN_MAX", 8)
    # No cache runs the whole pipeline every time; a one-entry cache
    # sends nearly every action down the memoized miss path.
    for cache in (None, 1):
        engine = ComplianceEngine(cache=cache)
        texts = []
        largest = 0
        for action in golden_corpus:
            texts.append(serialize.ruling_to_json(engine.evaluate(action)))
            largest = max(largest, _largest_table())
        assert 0 < largest <= 8
        assert texts == reference


def test_threads_sharing_a_tiny_table_keep_every_byte(
    empty_tables, golden_corpus, monkeypatch
):
    """Concurrent misses, hits and wholesale clears never mix up texts.

    Half the workers run the pipeline and half the stage memos, so the
    memo, combination, intern and text tables all churn at once.
    """
    sample = golden_corpus[:1500]
    reference = _reference_texts(sample, monkeypatch)
    monkeypatch.setattr(cache_module, "INTERN_MAX", 8)
    results: dict[int, list[str]] = {}

    def rule(worker: int) -> None:
        engine = ComplianceEngine(cache=None if worker % 2 else 1)
        results[worker] = [
            serialize.ruling_to_json(engine.evaluate(action))
            for action in sample
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rule, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[n] == reference for n in range(6))

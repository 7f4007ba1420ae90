"""A fresh ruling is recorded in the ledger before any cache holds it.

The ledger's first ``record_ruling`` writes its row and then fails.
After a ``rollback()`` drops that row, retrying the same call must leave
a row for every fingerprint, on every engine path: a ruling cached
before its write would be a hit on the retry and never recorded again.
"""

import sqlite3

import pytest

from repro.core import ComplianceEngine
from repro.core.fingerprint import action_fingerprint
from repro.ledger import Ledger
from repro.workloads import action_corpus


class _FailsOnce(Ledger):
    """A ledger whose first write fails after it is pending; every
    later write is counted."""

    def __init__(self) -> None:
        super().__init__(":memory:")
        self.failed = False
        self.recorded: list[tuple] = []

    def record_ruling(self, fingerprint, ruling):
        if not self.failed:
            self.failed = True
            super().record_ruling(fingerprint, ruling)
            raise sqlite3.OperationalError("disk I/O error")
        self.recorded.append(fingerprint)
        return super().record_ruling(fingerprint, ruling)


def _evaluate(engine, actions):
    return [engine.evaluate(action) for action in actions]


def _evaluate_many(engine, actions):
    return engine.evaluate_many(actions)


@pytest.mark.parametrize(
    "call", [_evaluate, _evaluate_many], ids=["evaluate", "evaluate_many"]
)
@pytest.mark.parametrize("cache", [None, 64], ids=["uncached", "cached"])
def test_a_failed_write_is_recorded_on_retry(cache, call):
    actions = action_corpus(40, seed=24)
    fingerprints = [action_fingerprint(a) for a in actions]
    assert len(set(fingerprints)) == len(actions)
    with _FailsOnce() as ledger:
        engine = ComplianceEngine(cache=cache, ledger=ledger)
        with pytest.raises(sqlite3.OperationalError):
            call(engine, actions)
        ledger.rollback()
        assert ledger.counts()["rulings"] == 0

        rulings = call(engine, actions)

        assert len(rulings) == len(actions)
        assert sorted(ledger.recorded) == sorted(fingerprints)
        assert ledger.counts()["rulings"] == len(fingerprints)
        for fingerprint, ruling in zip(fingerprints, rulings):
            assert ledger.ruling_for(fingerprint) == ruling

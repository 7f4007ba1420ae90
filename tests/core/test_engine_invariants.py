"""Property-based engine invariants over the seeded workload generator.

Complements ``test_property_core`` (which builds actions directly with
hypothesis strategies) by driving :func:`repro.workloads.random_action`
with hypothesis-chosen seeds — the exact generator the benchmarks, the
golden corpus, and ``repro bench`` use, so anything those workloads can
produce is fair game here.

Invariants:

* determinism — re-evaluating the same action yields an identical ruling
  payload, cached or not;
* process-ladder monotonicity — granting an effective consent, exigent
  circumstances, or a 3125 emergency never *raises* the required rung;
* instrument monotonicity and ``permits()`` consistency — ``permits(p)``
  holds exactly when ``p`` satisfies ``required_process``, and stronger
  instruments never lose permission a weaker one had;
* memoization transparency — a cached engine's rulings (their complete
  canonical bytes), traces, and ``explain()`` output are
  indistinguishable from a fresh engine's.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComplianceEngine,
    ConsentFacts,
    ConsentScope,
    ProcessKind,
    RulingCache,
)
from repro.ledger.serialize import ruling_to_utf8
from repro.workloads import random_action

_FRESH = ComplianceEngine()
_CACHED = ComplianceEngine(cache=RulingCache())

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _action_from_seed(seed: int):
    return random_action(random.Random(seed), index=seed % 1000)


@given(seeds)
@settings(max_examples=200)
def test_reevaluation_is_deterministic(seed):
    action = _action_from_seed(seed)
    assert (
        _FRESH.evaluate(action).to_dict() == _FRESH.evaluate(action).to_dict()
    )


@given(seeds)
@settings(max_examples=200)
def test_effective_consent_never_raises_the_rung(seed):
    action = _action_from_seed(seed)
    consented = dataclasses.replace(
        action, consent=ConsentFacts(scope=ConsentScope.TARGET)
    )
    assert (
        _FRESH.evaluate(consented).required_process
        <= _FRESH.evaluate(action).required_process
    )


@given(seeds)
@settings(max_examples=200)
def test_exigency_never_raises_the_rung(seed):
    action = _action_from_seed(seed)
    exigent = dataclasses.replace(
        action,
        doctrine=dataclasses.replace(
            action.doctrine, exigent_circumstances=True
        ),
    )
    assert (
        _FRESH.evaluate(exigent).required_process
        <= _FRESH.evaluate(action).required_process
    )


@given(seeds)
@settings(max_examples=200)
def test_pen_trap_emergency_never_raises_the_rung(seed):
    action = _action_from_seed(seed)
    emergency = dataclasses.replace(
        action,
        doctrine=dataclasses.replace(
            action.doctrine, emergency_pen_trap=True
        ),
    )
    assert (
        _FRESH.evaluate(emergency).required_process
        <= _FRESH.evaluate(action).required_process
    )


@given(seeds)
@settings(max_examples=200)
def test_permits_is_consistent_with_required_process(seed):
    ruling = _FRESH.evaluate(_action_from_seed(seed))
    for held in ProcessKind:
        assert ruling.permits(held) == (held >= ruling.required_process)
    assert ruling.permits(ruling.required_process)


@given(seeds)
@settings(max_examples=200)
def test_held_instruments_are_monotone(seed):
    ruling = _FRESH.evaluate(_action_from_seed(seed))
    ladder = sorted(ProcessKind)
    for weaker, stronger in zip(ladder, ladder[1:]):
        if ruling.permits(weaker):
            assert ruling.permits(stronger)


@given(seeds)
@settings(max_examples=200)
def test_cache_is_invisible_in_ruling_and_explanation(seed):
    action = _action_from_seed(seed)
    fresh = _FRESH.evaluate(action)
    cached_first = _CACHED.evaluate(action)
    cached_again = _CACHED.evaluate(action)  # served from the LRU
    assert ruling_to_utf8(cached_first) == ruling_to_utf8(fresh)
    assert cached_again.explain() == fresh.explain()
    assert cached_again.steps == fresh.steps

"""The shared canonical encoder and the per-ruling text memos.

* The module-level encoder behind :func:`canonical_json` is
  byte-identical to a fresh ``json.dumps`` with the canonical settings,
  for nested, non-ASCII and float payloads.
* ``ruling_to_json``, ``reasoning_text`` and ``citation_keys`` share one
  memo entry per ruling object.  With the cap forced down to 8 the memo
  stays bounded and every ledger row is byte-identical to one written
  with the default cap.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComplianceEngine
from repro.core import cache as cache_module
from repro.core import engine as engine_module
from repro.core.fingerprint import action_fingerprint
from repro.ledger import Ledger, serialize
from repro.ledger.serialize import canonical_json
from repro.workloads import action_corpus


def _fresh_dumps(payload) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_shared_encoder_matches_a_fresh_dumps(payload):
    assert canonical_json(payload) == _fresh_dumps(payload)


def test_non_ascii_and_floats_render_verbatim():
    payload = {"ž": ["Fourth Amendment §", 0.1, -0.0, 1e300], "a": 1}
    text = canonical_json(payload)
    assert text == _fresh_dumps(payload)
    assert text.startswith('{"a":1,"ž":["Fourth Amendment §",0.1,')


_ROWS = """
    SELECT r.fingerprint_digest, r.fingerprint_json, r.required_process,
           r.needs_process, t.ruling_json, t.reasoning_text
    FROM rulings r JOIN ruling_texts t ON t.id = r.ruling_text_id
    ORDER BY r.id
"""
_CITATIONS = """
    SELECT t.ruling_json, c.authority_key
    FROM ruling_citations c JOIN ruling_texts t ON t.id = c.ruling_text_id
    ORDER BY c.rowid
"""


def _ledger_rows(actions, cap_monitor=None):
    """Every ruling and citation row a fresh ledger holds for ``actions``."""
    engine = ComplianceEngine()
    with Ledger(":memory:") as ledger:
        for action in actions:
            ruling = engine.evaluate(action)
            ledger.record_ruling(action_fingerprint(action), ruling)
            if cap_monitor is not None:
                cap_monitor(ruling)
        rulings = [tuple(row) for row in ledger._db.execute(_ROWS)]
        citations = [tuple(row) for row in ledger._db.execute(_CITATIONS)]
    return rulings, citations


def test_a_small_cap_bounds_the_memos_and_keeps_every_row(
    empty_tables, monkeypatch
):
    actions = action_corpus(2000, seed=99)
    reference = _ledger_rows(actions)
    monkeypatch.setattr(serialize, "_TEXTS", {})
    monkeypatch.setattr(engine_module, "_RULINGS", {})
    monkeypatch.setattr(cache_module, "INTERN_MAX", 8)
    largest = 0

    def monitor(ruling):
        nonlocal largest
        largest = max(largest, len(serialize._TEXTS))
        entry = serialize._TEXTS[id(ruling)]
        assert entry.ruling is ruling
        assert entry.reasoning == "\n".join(str(s) for s in ruling.steps)
        if entry.citations is not None:  # None: a duplicate row, skipped
            assert entry.citations == tuple(
                sorted({key for s in ruling.steps for key in s.authorities})
            )

    bounded = _ledger_rows(actions, monitor)
    assert 0 < largest <= 8
    assert bounded == reference
    assert len(reference[0]) > 100


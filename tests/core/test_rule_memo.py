"""Each rule stage's declared facts, checked against what it really reads.

A cached engine rules a miss by looking each stage up in a memo keyed on
the fingerprint fields the stage's module declares (its ``FACTS`` row),
guard fields first.  That is sound only if a stage's output never
changes while its declared projection stays the same.  The check below
changes every raw field of every action in turn, to every other value,
and compares the stage's *direct* output wherever the projection did not
move; a rule that starts reading an undeclared field fails it.
"""

import dataclasses
import functools
import itertools

import pytest

from repro.core import ComplianceEngine, RulingCache
from repro.core import cache as cache_module
from repro.core import engine as engine_module
from repro.core import exceptions, privacy
from repro.core.action import InvestigativeAction
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)
from repro.core.fingerprint import (
    _FIELD_NAMES,
    RuleRow,
    action_fingerprint,
    fact_getter,
)
from repro.core.statutes import fourth_amendment, pentrap, sca, wiretap
from repro.ledger.serialize import ruling_to_json
from repro.workloads import action_corpus, paper_corpus

#: How many distinct actions of each golden corpus the mutation sweep
#: covers (every field, every alternative value, every stage).
SWEEP_ACTIONS = 600

_ENGINE = ComplianceEngine()

#: Each stage's row and its direct output.  The Fourth Amendment takes
#: the privacy finding as given, so its check isolates its own reads.
STAGES = {
    "privacy": (privacy.FACTS, lambda a, p: privacy.analyze_privacy(a)),
    "fourth_amendment": (
        fourth_amendment.FACTS,
        lambda a, p: fourth_amendment.evaluate(a, p),
    ),
    "wiretap": (wiretap.FACTS, lambda a, p: wiretap.evaluate(a)),
    "sca": (sca.FACTS, lambda a, p: sca.evaluate(a)),
    "pentrap": (pentrap.FACTS, lambda a, p: pentrap.evaluate(a)),
    "exceptions": (
        exceptions.FACTS,
        lambda a, p: tuple(exceptions.gather_exceptions(a)),
    ),
    "statutory_exceptions": (
        engine_module.STATUTORY_EXCEPTION_FACTS,
        lambda a, p: tuple(_ENGINE._statutory_exceptions(a)),
    ),
}


def _alternatives(value, annotation) -> list:
    """Every other value a raw field of this type can hold."""
    enums = {
        "Actor": Actor,
        "DataKind": DataKind,
        "Timing": Timing,
        "Place": Place,
        "ConsentScope": ConsentScope,
        "ProviderRole | None": ProviderRole,
    }
    if annotation == "str":
        return [value + " (reworded)"]
    if annotation == "bool":
        return [not value]
    if annotation == "bool | None":
        return [v for v in (None, False, True) if v is not value]
    options = list(enums[annotation])
    if annotation.endswith("| None"):
        options.append(None)
    return [v for v in options if v is not value]


def _mutations(action: InvestigativeAction):
    """``(field, value, mutated action)`` for every one-field change."""
    parts = {
        "": action,
        "context": action.context,
        "consent": action.consent,
        "doctrine": action.doctrine,
    }
    for part, owner in parts.items():
        for field in dataclasses.fields(owner):
            if part == "" and field.name in parts:
                continue
            current = getattr(owner, field.name)
            for value in _alternatives(current, field.type):
                changed = dataclasses.replace(owner, **{field.name: value})
                if part:
                    changed = dataclasses.replace(action, **{part: changed})
                yield f"{part}.{field.name}".lstrip("."), value, changed


def _violations(row: RuleRow, stage, sweep) -> list[tuple]:
    """One-field changes the row says cannot matter, yet change the output.

    Guard first: equal guard fields must agree on whether the stage
    applies, and where it does not, fix the output.  Then equal full
    rows must fix the output.
    """
    full = fact_getter(row.fields)
    guard = fact_getter(row.guard) if row.guard else None
    found = []
    for action, fingerprint, changes in sweep:
        finding = privacy.analyze_privacy(action)
        output = stage(action, finding)
        applies = row.applies is None or row.applies(action)
        for field, value, changed, changed_fp in changes:
            if full(changed_fp) == full(fingerprint):
                if stage(changed, finding) != output:
                    found.append((action.description, field, value))
            elif guard is not None and guard(changed_fp) == guard(
                fingerprint
            ):
                if row.applies(changed) != applies or (
                    not applies and stage(changed, finding) != output
                ):
                    found.append((action.description, field, value))
    return found


def _distinct(actions, limit):
    """The first ``limit`` actions with distinct raw facts."""
    seen = {}
    for action in actions:
        key = dataclasses.replace(action, description="")
        seen.setdefault(key, action)
        if len(seen) == limit:
            break
    return list(seen.values())


@functools.lru_cache(maxsize=None)
def _sweep(name: str) -> tuple:
    """Each action of a corpus with its fingerprint and every one-field
    change (and that change's fingerprint), built once per corpus."""
    if name == "paper":
        actions = [action for _, action in paper_corpus()]
    else:
        size, seed = {
            "golden_5000_seed99": (5000, 99),
            "differential_seed7": (10_000, 7),
        }[name]
        actions = _distinct(action_corpus(size, seed), SWEEP_ACTIONS)
    return tuple(
        (
            action,
            action_fingerprint(action),
            [
                (field, value, changed, action_fingerprint(changed))
                for field, value, changed in _mutations(action)
            ],
        )
        for action in actions
    )


CORPORA = ("paper", "golden_5000_seed99", "differential_seed7")


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_stage_never_reads_past_its_declared_row(stage, corpus):
    row, run = STAGES[stage]
    assert _violations(row, run, _sweep(corpus)) == []


@pytest.mark.parametrize(
    "stage, dropped",
    [
        ("privacy", "encrypted"),
        ("wiretap", "consent_scope"),
        ("sca", "provider_role"),
        ("fourth_amendment", "mining_of_lawful_data"),
        ("statutory_exceptions", "emergency_pen_trap"),
    ],
)
def test_the_check_catches_a_row_missing_a_field_its_stage_reads(
    stage, dropped
):
    row, run = STAGES[stage]
    short = dataclasses.replace(
        row, reads=tuple(n for n in row.reads if n != dropped)
    )
    sweep = _sweep("paper") + _sweep("golden_5000_seed99")
    assert _violations(short, run, sweep)


def test_the_rows_cover_exactly_the_fingerprint():
    declared = set(
        itertools.chain.from_iterable(row.fields for row, _ in STAGES.values())
    )
    assert declared == set(_FIELD_NAMES)
    assert [memo.row for memo in engine_module.RULE_MEMOS] == [
        row for row, _ in STAGES.values()
    ]


def test_a_row_refuses_unknown_fields_and_a_guard_without_its_test():
    with pytest.raises(ValueError, match="unknown"):
        RuleRow("typo", reads=("encryptd",))
    with pytest.raises(ValueError, match="twice"):
        RuleRow("twice", reads=("place", "place"))
    with pytest.raises(ValueError, match="applies"):
        RuleRow("unguarded", reads=("place",), guard=("timing",))


def test_guard_first_keys_keep_the_statute_memos_small(empty_tables):
    actions = action_corpus(20_000, seed=5)
    cached = ComplianceEngine(cache=RulingCache(maxsize=len(actions)))
    plain = ComplianceEngine()
    assert [ruling_to_json(r) for r in cached.evaluate_many(actions)] == [
        ruling_to_json(r) for r in plain.evaluate_many(actions)
    ]
    sizes = engine_module.rule_memo_entries()
    fingerprints = {action_fingerprint(a) for a in actions}
    # Keyed on its whole row, a statute's memo would hold one key per
    # distinct row (thousands here); keyed on the guard first, only the
    # actions the statute reaches get a full-row key.
    for memo in engine_module.RULE_MEMOS:
        if memo.row.name in ("wiretap", "sca", "pentrap", "statutory_exceptions"):
            full = fact_getter(memo.row.fields)
            rows = len({full(fp) for fp in fingerprints})
            assert 0 < sizes[memo.row.name] < rows / 4, (memo.row.name, rows)
    assert all(
        size <= cache_module.INTERN_MAX for size in sizes.values()
    )

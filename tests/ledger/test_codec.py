"""The record codec: one encoder and decoder per dataclass, from its fields.

* A synthetic nested frozen dataclass holding every supported field
  shape encodes every field, at every depth, and round-trips through
  canonical JSON to an equal object.
* Unsupported field types (``dict``, ``list[int]``, ``int | str``) are
  refused with ``TypeError`` when the plan is built, not when a value
  is first encoded.
* Every ruling of the paper corpus and of the 5k golden corpus decodes
  from its encoding to an equal ruling, and its canonical bytes are the
  ones the ledger and the wire have always carried: each paper ruling
  matches its golden digest, and the 5k corpus matches a digest pinned
  from the hand-written converters the codec replaced.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import ComplianceEngine
from repro.core.action import InvestigativeAction
from repro.ledger.serialize import (
    canonical_json,
    codec,
    ruling_from_dict,
    ruling_from_json,
    ruling_to_dict,
    ruling_to_json,
)
from repro.serve.protocol import action_from_dict, action_to_dict
from repro.workloads import action_corpus, paper_corpus

GOLDEN_PAPER = (
    Path(__file__).parent.parent / "data" / "golden_paper_corpus.json"
)

#: SHA-256 of the 5k golden corpus's canonical ruling texts, one per
#: action joined by newlines, as the hand-written converters wrote them.
GOLDEN_5K_RULINGS_SHA256 = (
    "6e5621de5408f26f5122fde8417b53b4496e00d7ae7fcf705c475b5b706c8f08"
)
#: The same over the corpus's canonical action encodings.
GOLDEN_5K_ACTIONS_SHA256 = (
    "a389122d8538b3bc4ad97783db375a5e222781e195a989aefa06925b39560dc7"
)


class Colour(enum.Enum):
    RED = "red"
    GREEN = "green"
    BLUE = "blue"


@dataclasses.dataclass(frozen=True)
class Leaf:
    label: str
    colour: Colour


@dataclasses.dataclass(frozen=True)
class Everything:
    text: str
    flag: bool
    weight: float
    colour: Colour
    leaf: Leaf
    leaves: tuple[Leaf, ...]
    colours: tuple[Colour, ...]
    words: tuple[str, ...]
    palette: frozenset[Colour]
    tags: frozenset[str]
    maybe_flag: bool | None
    maybe_colour: Colour | None
    maybe_leaf: Leaf | None


def _everything(**overrides) -> Everything:
    fields = dict(
        text="naïve ✓",
        flag=True,
        weight=0.1,
        colour=Colour.GREEN,
        leaf=Leaf("inner", Colour.RED),
        leaves=(Leaf("a", Colour.BLUE), Leaf("b", Colour.GREEN)),
        colours=(Colour.BLUE, Colour.RED, Colour.BLUE),
        words=("z", "a"),
        palette=frozenset({Colour.RED, Colour.BLUE}),
        tags=frozenset({"zeta", "alpha"}),
        maybe_flag=False,
        maybe_colour=Colour.BLUE,
        maybe_leaf=Leaf("maybe", Colour.GREEN),
    )
    fields.update(overrides)
    return Everything(**fields)


class TestEverySupportedShape:
    def test_every_field_is_encoded(self):
        payload = codec(Everything).encode(_everything())
        assert payload == {
            "text": "naïve ✓",
            "flag": True,
            "weight": 0.1,
            "colour": "GREEN",
            "leaf": {"label": "inner", "colour": "RED"},
            "leaves": [
                {"label": "a", "colour": "BLUE"},
                {"label": "b", "colour": "GREEN"},
            ],
            "colours": ["BLUE", "RED", "BLUE"],
            "words": ["z", "a"],
            "palette": ["BLUE", "RED"],
            "tags": ["alpha", "zeta"],
            "maybe_flag": False,
            "maybe_colour": "BLUE",
            "maybe_leaf": {"label": "maybe", "colour": "GREEN"},
        }

    @pytest.mark.parametrize(
        "record",
        [
            _everything(),
            _everything(maybe_flag=None, maybe_colour=None, maybe_leaf=None),
            _everything(leaves=(), colours=(), words=(), palette=frozenset()),
        ],
        ids=["set", "none", "empty"],
    )
    def test_round_trips_through_canonical_json(self, record):
        plan = codec(Everything)
        text = canonical_json(plan.encode(record))
        rebuilt = plan.decode(json.loads(text))
        assert rebuilt == record
        assert canonical_json(plan.encode(rebuilt)) == text

    def test_a_plan_is_built_once_per_class(self):
        assert codec(Everything) is codec(Everything)
        assert codec(Everything).encode is codec(Everything).encode


@dataclasses.dataclass(frozen=True)
class WithDict:
    name: str
    extra: dict


@dataclasses.dataclass(frozen=True)
class WithList:
    name: str
    counts: list[int]


@dataclasses.dataclass(frozen=True)
class WithUnion:
    name: str
    either: int | str


@dataclasses.dataclass(frozen=True)
class WithBadNested:
    name: str
    inner: WithList


class TestUnsupportedShapes:
    @pytest.mark.parametrize(
        "cls", [WithDict, WithList, WithUnion, WithBadNested]
    )
    def test_the_plan_refuses_the_field_type(self, cls):
        with pytest.raises(TypeError, match="no canonical JSON form"):
            codec(cls)


class TestRulings:
    def test_the_paper_corpus_round_trips_to_its_golden_digests(self):
        golden = json.loads(GOLDEN_PAPER.read_text())["actions"]
        engine = ComplianceEngine()
        actions = [action for _, action in paper_corpus()]
        assert len(actions) == len(golden)
        for action, expected in zip(actions, golden):
            ruling = engine.evaluate(action)
            text = canonical_json(ruling_to_dict(ruling))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == expected["ruling_sha256"]
            rebuilt = ruling_from_dict(json.loads(text))
            assert rebuilt == ruling
            assert rebuilt.explain() == ruling.explain()
            assert canonical_json(ruling_to_dict(rebuilt)) == text

    def test_the_5k_golden_corpus_keeps_its_bytes(self):
        rulings = ComplianceEngine().evaluate_many(
            action_corpus(5000, seed=99)
        )
        texts = []
        for ruling in rulings:
            text = ruling_to_json(ruling)
            rebuilt = ruling_from_json(text)
            assert rebuilt == ruling
            assert ruling_from_dict(ruling_to_dict(ruling)) == ruling
            assert canonical_json(ruling_to_dict(rebuilt)) == text
            texts.append(text)
        joined = "\n".join(texts).encode("utf-8")
        assert hashlib.sha256(joined).hexdigest() == GOLDEN_5K_RULINGS_SHA256

    def test_a_ruling_encoding_is_plain_json(self):
        ruling = ComplianceEngine().evaluate(paper_corpus()[0][1])
        payload = ruling_to_dict(ruling)
        assert json.loads(canonical_json(payload)) == payload


class TestActions:
    def test_the_5k_golden_corpus_keeps_its_bytes(self):
        actions = action_corpus(5000, seed=99)
        texts = [canonical_json(action_to_dict(a)) for a in actions]
        joined = "\n".join(texts).encode("utf-8")
        assert hashlib.sha256(joined).hexdigest() == GOLDEN_5K_ACTIONS_SHA256

    def test_the_codec_and_the_wire_decoder_agree(self):
        decode = codec(InvestigativeAction).decode
        for _, action in paper_corpus():
            payload = json.loads(canonical_json(action_to_dict(action)))
            assert decode(payload) == action
            assert action_from_dict(payload) == action

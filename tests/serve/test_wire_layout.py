"""The strict wire decoder's field table is derived from the action
dataclasses, so it cannot drift from the record codec that encodes
actions."""

import dataclasses

import pytest

from repro.core.enums import ProviderRole
from repro.ledger.serialize import json_types
from repro.serve import protocol
from repro.serve.protocol import action_to_dict
from repro.workloads import action_corpus


def _leaf_paths(payload, prefix=""):
    """Every leaf path of an encoded action, in emission order."""
    paths = []
    for key, value in payload.items():
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, f"{prefix}{key}."))
        else:
            paths.append(prefix + key)
    return paths


def test_the_field_table_lists_every_leaf_the_codec_emits_in_order():
    for action in action_corpus(20, seed=5):
        assert [path for path, _ in protocol._FIELDS] == _leaf_paths(
            action_to_dict(action)
        )


@pytest.mark.parametrize(
    "hint, expected",
    [
        (str, (str,)),
        (bool, (bool,)),
        (ProviderRole, (str,)),
        (bool | None, (bool, type(None))),
        (None | ProviderRole, (str, type(None))),
    ],
)
def test_json_types_maps_each_supported_hint(hint, expected):
    assert json_types(hint) == expected


@dataclasses.dataclass(frozen=True)
class WithInt:
    name: str
    count: int


@dataclasses.dataclass(frozen=True)
class WithFloat:
    name: str
    weight: float


@dataclasses.dataclass(frozen=True)
class WithTuple:
    name: str
    tags: tuple[str, ...]


@pytest.mark.parametrize("cls", [WithInt, WithFloat, WithTuple])
def test_a_field_with_no_strict_check_is_refused_when_the_table_is_built(cls):
    with pytest.raises(TypeError, match="no strict JSON type check"):
        protocol._fields(cls)

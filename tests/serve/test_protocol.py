"""Wire-codec tests: the action codec must be lossless and the framing strict."""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.cache import INTERN_MAX
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)
from repro.core.fingerprint import action_fingerprint
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_BATCH_ACTIONS,
    MAX_LINE_BYTES,
    FieldTypeError,
    ProtocolError,
    action_from_dict,
    action_to_dict,
    decode_line,
    encode_line,
)
from repro.workloads import action_corpus


class TestActionCodec:
    def test_round_trip_preserves_equality_and_fingerprint(self):
        for action in action_corpus(300, seed=11):
            rebuilt = action_from_dict(action_to_dict(action))
            assert rebuilt == action
            assert action_fingerprint(rebuilt) == action_fingerprint(action)

    def test_round_trip_survives_json_framing(self):
        for action in action_corpus(50, seed=12):
            line = encode_line(action_to_dict(action))
            rebuilt = action_from_dict(decode_line(line))
            assert rebuilt == action

    def test_missing_field_raises_protocol_error(self):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        del payload["context"]
        with pytest.raises(ProtocolError):
            action_from_dict(payload)

    def test_unknown_enum_name_raises_protocol_error(self):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        payload["actor"] = "NOT_AN_ACTOR"
        with pytest.raises(ProtocolError):
            action_from_dict(payload)

    def test_non_dict_field_raises_protocol_error(self):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        payload["doctrine"] = "nope"
        with pytest.raises(ProtocolError):
            action_from_dict(payload)


contexts = st.builds(
    EnvironmentContext,
    place=st.sampled_from(list(Place)),
    encrypted=st.booleans(),
    knowingly_exposed=st.booleans(),
    shared_with_others=st.booleans(),
    delivered_to_recipient=st.booleans(),
    provider_serves_public=st.none() | st.booleans(),
    provider_role=st.none() | st.sampled_from(list(ProviderRole)),
    policy_eliminates_rep=st.booleans(),
    home_interior=st.booleans(),
    technology_in_general_public_use=st.booleans(),
    abandoned=st.booleans(),
)

actions = st.builds(
    InvestigativeAction,
    description=st.text(max_size=40),
    actor=st.sampled_from(list(Actor)),
    data_kind=st.sampled_from(list(DataKind)),
    timing=st.sampled_from(list(Timing)),
    context=contexts,
    consent=st.builds(
        ConsentFacts,
        scope=st.sampled_from(list(ConsentScope)),
        voluntary=st.booleans(),
        exceeds_authority=st.booleans(),
        revoked=st.booleans(),
        covers_target_data=st.booleans(),
    ),
    doctrine=st.builds(
        DoctrineFacts,
        **{
            field.name: st.booleans()
            for field in DoctrineFacts.__dataclass_fields__.values()
        },
    ),
)

#: Values a hostile client might put in any field.
junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(["GOVERNMENT", "PUBLIC", "ECS", "NONE", "content"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _flag(value, optional=False):
    """A JSON ``true``/``false`` (or ``null`` when optional), else TypeError."""
    if type(value) is bool or (optional and value is None):
        return value
    raise TypeError(f"not a flag: {value!r}")


def _member(enum_type, name, optional=False):
    """The member a JSON string names (or ``None``), else Key/TypeError."""
    if optional and name is None:
        return None
    if type(name) is not str:
        raise TypeError(f"not a name: {name!r}")
    return enum_type[name]


def _reference(payload):
    """The decoder as a plain construction: ``Enum[name]`` and strict types."""
    context = payload["context"]
    consent = payload["consent"]
    doctrine = payload["doctrine"]
    description = payload["description"]
    if type(description) is not str:
        raise TypeError(f"not a string: {description!r}")
    return InvestigativeAction(
        description=description,
        actor=_member(Actor, payload["actor"]),
        data_kind=_member(DataKind, payload["data_kind"]),
        timing=_member(Timing, payload["timing"]),
        context=EnvironmentContext(
            place=_member(Place, context["place"]),
            encrypted=_flag(context["encrypted"]),
            knowingly_exposed=_flag(context["knowingly_exposed"]),
            shared_with_others=_flag(context["shared_with_others"]),
            delivered_to_recipient=_flag(context["delivered_to_recipient"]),
            provider_serves_public=_flag(
                context["provider_serves_public"], optional=True
            ),
            provider_role=_member(
                ProviderRole, context["provider_role"], optional=True
            ),
            policy_eliminates_rep=_flag(context["policy_eliminates_rep"]),
            home_interior=_flag(context["home_interior"]),
            technology_in_general_public_use=_flag(
                context["technology_in_general_public_use"]
            ),
            abandoned=_flag(context["abandoned"]),
        ),
        consent=ConsentFacts(
            scope=_member(ConsentScope, consent["scope"]),
            voluntary=_flag(consent["voluntary"]),
            exceeds_authority=_flag(consent["exceeds_authority"]),
            revoked=_flag(consent["revoked"]),
            covers_target_data=_flag(consent["covers_target_data"]),
        ),
        doctrine=DoctrineFacts(
            **{
                name: _flag(doctrine[name])
                for name in DoctrineFacts.__dataclass_fields__
            }
        ),
    )


def _flag_paths(payload):
    """``(part, field)`` of every flag field of an encoded action."""
    return [
        (part, name)
        for part in ("context", "consent", "doctrine")
        for name, value in payload[part].items()
        if isinstance(value, bool) or name == "provider_serves_public"
    ]


#: JSON values that are not ``true``/``false``, ``0``/``1`` included.
non_bool_json = st.recursive(
    st.none()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(["true", "false", "True", "", "0", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _field_paths(payload):
    """Every top-level and nested field path of an encoded action."""
    paths = [()]
    for key, value in payload.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


class TestActionCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(actions)
    def test_round_trip_is_equal_and_fingerprints_identically(self, action):
        payload = json.loads(json.dumps(action_to_dict(action)))
        rebuilt = action_from_dict(payload)
        assert rebuilt == action
        assert action_fingerprint(rebuilt) == action_fingerprint(action)

    @settings(max_examples=100, deadline=None)
    @given(actions)
    def test_equal_payloads_share_their_parts(self, action):
        first = action_from_dict(action_to_dict(action))
        second = action_from_dict(action_to_dict(action))
        assert first is not second
        assert first.context is second.context
        assert first.consent is second.consent
        assert first.doctrine is second.doctrine

    @settings(max_examples=400, deadline=None)
    @given(actions, st.data(), junk, st.booleans())
    def test_fuzzed_field_decodes_like_the_reference_or_is_refused(
        self, action, data, value, delete
    ):
        payload = action_to_dict(action)
        path = data.draw(st.sampled_from(_field_paths(payload)))
        if not path:
            payload = value
        else:
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        try:
            expected = _reference(payload)
        except (KeyError, TypeError):
            with pytest.raises(ProtocolError):
                action_from_dict(payload)
        else:
            assert action_from_dict(payload) == expected

    @settings(max_examples=300, deadline=None)
    @given(actions, st.data(), non_bool_json)
    def test_every_non_bool_flag_value_is_refused_by_name(
        self, action, data, value
    ):
        payload = action_to_dict(action)
        part, name = data.draw(st.sampled_from(_flag_paths(payload)))
        if value is None and name == "provider_serves_public":
            value = 0  # null is this field's "unknown"; refuse a number
        payload[part][name] = value
        with pytest.raises(FieldTypeError, match=rf"^{part}\.{name} must be"):
            action_from_dict(payload)

    def test_string_false_is_refused_not_read_as_true(self):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        payload["context"]["encrypted"] = "false"
        with pytest.raises(
            FieldTypeError, match="context.encrypted must be true or false"
        ):
            action_from_dict(payload)

    @pytest.mark.parametrize("value", [1, 0, 1.0, [], [0], {}])
    def test_values_equal_to_a_flag_never_hit_its_interned_part(self, value):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        action_from_dict(payload)  # interns the parts for the real flags
        payload["doctrine"]["plain_view"] = value
        with pytest.raises(FieldTypeError, match="doctrine.plain_view"):
            action_from_dict(payload)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("description",), 7),
            (("actor",), 1),
            (("context", "place"), ["PUBLIC"]),
            (("context", "provider_role"), True),
            (("consent", "scope"), None),
        ],
    )
    def test_non_string_names_and_descriptions_are_refused_by_name(
        self, path, value
    ):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(FieldTypeError, match=r"\.".join(path) + " must be"):
            action_from_dict(payload)

    def test_intern_tables_stay_within_the_cap(self):
        payload = action_to_dict(action_corpus(1, seed=3)[0])
        context = payload["context"]
        flags = [
            name
            for name, value in context.items()
            if isinstance(value, bool) and name != "provider_serves_public"
        ]
        variants = itertools.product(
            [place.name for place in Place],
            [None, False, True],
            [None] + [role.name for role in ProviderRole],
            *[(False, True)] * len(flags),
        )
        seen = set()
        for place, serves_public, role, *bits in itertools.islice(
            variants, INTERN_MAX + 100
        ):
            context.update(zip(flags, bits))
            context["place"] = place
            context["provider_serves_public"] = serves_public
            context["provider_role"] = role
            rebuilt = action_from_dict(payload)
            assert rebuilt == _reference(payload)
            seen.add(rebuilt.context)
        assert len(seen) > INTERN_MAX
        for table in (
            protocol._CONTEXTS,
            protocol._CONSENTS,
            protocol._DOCTRINES,
        ):
            assert len(table) <= INTERN_MAX


class TestFraming:
    def test_encode_line_is_canonical_and_newline_terminated(self):
        line = encode_line({"b": 1, "a": 2})
        assert line == b'{"a":2,"b":1}\n'

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_decode_refuses_over_deep_nesting(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[" * 100_000 + b"\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no integer digit limit before Python 3.11",
    )
    def test_decode_refuses_integers_past_the_digit_limit(self):
        with pytest.raises(ProtocolError):
            decode_line(b'{"n": ' + b"9" * 5000 + b"}\n")

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")

    def test_request_framing_bound_fits_the_batch_cap(self):
        # A request at the batch-size cap must fit the line bound —
        # otherwise the cap is unreachable and the bound is the real cap.
        sample = [action_to_dict(a) for a in action_corpus(200, seed=5)]
        per_action = max(
            len(encode_line({"op": "rule", "id": 0, "actions": [d]}))
            for d in sample
        )
        assert per_action * MAX_BATCH_ACTIONS <= MAX_LINE_BYTES

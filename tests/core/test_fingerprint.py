"""Tests for the canonical action fingerprint.

The fingerprint's contract: equal fingerprints imply identical rulings.
Each normalization (dropped description, provider facts, the Kyllo
factor, collapsed ineffective consent) is tested both ways — the
normalized variants collide, and the colliding actions really do get the
same ruling.
"""

import dataclasses
import enum
import hashlib
import random

from repro.core import (
    Actor,
    ComplianceEngine,
    ConsentFacts,
    ConsentScope,
    DataKind,
    EnvironmentContext,
    InvestigativeAction,
    Place,
    ProviderRole,
    Timing,
    action_fingerprint,
    fingerprint_digest,
)
from repro.core import fingerprint as fingerprint_module
from repro.core.fingerprint import describe_fingerprint
from repro.workloads import action_corpus, random_action

_ENGINE = ComplianceEngine()


def _base_action(**context_overrides) -> InvestigativeAction:
    return InvestigativeAction(
        description="baseline",
        actor=Actor.GOVERNMENT,
        data_kind=DataKind.CONTENT,
        timing=Timing.STORED,
        context=EnvironmentContext(
            place=Place.THIRD_PARTY_PROVIDER, **context_overrides
        ),
    )


class TestFingerprintBasics:
    def test_hashable_and_deterministic(self):
        action = _base_action()
        assert hash(action_fingerprint(action)) == hash(
            action_fingerprint(action)
        )
        assert action.fingerprint() == action_fingerprint(action)

    def test_description_is_normalized_out(self):
        a = _base_action()
        b = dataclasses.replace(a, description="a very different label")
        assert action_fingerprint(a) == action_fingerprint(b)
        assert (
            _ENGINE.evaluate(a).explain() == _ENGINE.evaluate(b).explain()
        )

    def test_distinct_rule_inputs_distinguish(self):
        a = _base_action()
        b = dataclasses.replace(a, timing=Timing.REAL_TIME)
        assert action_fingerprint(a) != action_fingerprint(b)

    def test_digest_is_stable_and_hex(self):
        fingerprint = action_fingerprint(_base_action())
        digest = fingerprint_digest(fingerprint)
        assert digest == fingerprint_digest(fingerprint)
        assert len(digest) == 64
        int(digest, 16)  # must be valid hex

    def test_describe_names_every_field(self):
        fingerprint = action_fingerprint(_base_action())
        described = describe_fingerprint(fingerprint)
        assert len(described) == len(fingerprint)
        assert described["place"] is Place.THIRD_PARTY_PROVIDER


#: Fields the fingerprint normalizes instead of copying (module docstring).
_NORMALIZED = {
    "provider_serves_public",
    "provider_role",
    "technology_in_general_public_use",
}


def _flipped(value):
    """Another value for a field: the other flag, or the next enum member."""
    if isinstance(value, bool):
        return not value
    members = list(type(value))
    return members[(members.index(value) + 1) % len(members)]


class TestFieldNames:
    """Each fingerprint slot holds the field ``_FIELD_NAMES`` names there."""

    def test_one_name_per_slot(self):
        names = fingerprint_module._FIELD_NAMES
        assert len(names) == len(action_fingerprint(_base_action()))
        assert len(set(names)) == len(names)

    def test_flipping_a_copied_field_changes_exactly_its_slot(self):
        action = _base_action()
        base = action_fingerprint(action)
        names = fingerprint_module._FIELD_NAMES
        flipped = []
        for part in (None, "context", "doctrine"):
            holder = action if part is None else getattr(action, part)
            for field in dataclasses.fields(holder):
                value = getattr(holder, field.name)
                if field.name in _NORMALIZED or not isinstance(
                    value, (bool, enum.Enum)
                ):
                    continue  # normalized, the description or a part
                changed = dataclasses.replace(
                    holder, **{field.name: _flipped(value)}
                )
                if part is not None:
                    changed = dataclasses.replace(action, **{part: changed})
                after = action_fingerprint(changed)
                moved = [
                    i for i, (x, y) in enumerate(zip(base, after)) if x != y
                ]
                assert moved == [names.index(field.name)], field.name
                flipped.append(field.name)
        assert len(flipped) == 3 + 8 + 9  # head, context, doctrine


class TestNormalizations:
    """Each collapse mirrors a guard in the rule modules; colliding
    actions must also receive identical rulings."""

    def _assert_collides_and_agrees(self, a, b):
        assert action_fingerprint(a) == action_fingerprint(b)
        assert (
            _ENGINE.evaluate(a).to_dict() == _ENGINE.evaluate(b).to_dict()
        )

    def test_unknown_provider_treated_as_public(self):
        # sca.provider_role_for: None means "assume the provider is public".
        a = _base_action(provider_serves_public=None)
        b = _base_action(provider_serves_public=True)
        self._assert_collides_and_agrees(a, b)

    def test_serves_public_dead_when_role_explicit(self):
        # The SCA returns an explicit provider_role before consulting it.
        a = _base_action(
            provider_role=ProviderRole.RCS, provider_serves_public=False
        )
        b = _base_action(
            provider_role=ProviderRole.RCS, provider_serves_public=True
        )
        self._assert_collides_and_agrees(a, b)

    def test_kyllo_factor_dead_outside_home(self):
        # privacy._objective_prong consults the technology factor only
        # when home_interior is set.
        a = _base_action(technology_in_general_public_use=True)
        b = _base_action(technology_in_general_public_use=False)
        self._assert_collides_and_agrees(a, b)

    def test_kyllo_factor_live_inside_home(self):
        a = _base_action(
            home_interior=True, technology_in_general_public_use=True
        )
        b = _base_action(
            home_interior=True, technology_in_general_public_use=False
        )
        assert action_fingerprint(a) != action_fingerprint(b)

    def test_ineffective_consent_variants_collapse(self):
        # Every rule-module consult goes through consent.effective();
        # an involuntary consent and a revoked one are equally void.
        base = _base_action()
        a = dataclasses.replace(
            base,
            consent=ConsentFacts(scope=ConsentScope.TARGET, voluntary=False),
        )
        b = dataclasses.replace(
            base,
            consent=ConsentFacts(scope=ConsentScope.SPOUSE, revoked=True),
        )
        self._assert_collides_and_agrees(a, b)

    def test_effective_consent_scope_distinguishes(self):
        # An effective consent's scope appears in the ruling's trace.
        base = _base_action()
        a = dataclasses.replace(
            base, consent=ConsentFacts(scope=ConsentScope.TARGET)
        )
        b = dataclasses.replace(
            base, consent=ConsentFacts(scope=ConsentScope.SPOUSE)
        )
        assert action_fingerprint(a) != action_fingerprint(b)


class TestFingerprintSoundnessSweep:
    def test_equal_fingerprints_imply_equal_rulings(self):
        """Over a random corpus, every fingerprint collision is harmless."""
        rng = random.Random(123)
        by_fingerprint = {}
        for index in range(2000):
            action = random_action(rng, index)
            fingerprint = action_fingerprint(action)
            payload = _ENGINE.evaluate(action).to_dict()
            seen = by_fingerprint.setdefault(fingerprint, payload)
            assert seen == payload


def _reference_digest(fingerprint) -> str:
    """The digest's definition: the describe-based ``name=value`` join."""
    rendered = "|".join(
        f"{name}={value!s}"
        for name, value in describe_fingerprint(fingerprint).items()
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _outcome(digest, fingerprint):
    """A digest, or the type of the error computing it raised."""
    try:
        return digest(fingerprint)
    except Exception as error:
        return type(error)


#: Values no fingerprint position stores: ints and a float equal to the
#: flags, a string, an enum member in place of its value, an unhashable.
_OFF_TYPE = (1, 0, 1.0, "x", Actor.GOVERNMENT, [True])


class TestDigestTable:
    """The table-rendered digest equals the reference rendering."""

    def _positions(self):
        base = action_fingerprint(_base_action())
        for index, name in enumerate(fingerprint_module._FIELD_NAMES):
            enum_type = fingerprint_module._FIELD_ENUMS.get(name)
            if enum_type is None:
                stored = [True, False, None]
            else:
                stored = [member.value for member in enum_type] + [None]
            yield base, index, stored

    @staticmethod
    def _with(base, index, value):
        return base[:index] + (value,) + base[index + 1 :]

    def test_every_stored_value_at_every_position(self):
        checked = 0
        for base, index, stored in self._positions():
            for value in stored:
                fingerprint = self._with(base, index, value)
                assert fingerprint_digest(fingerprint) == _reference_digest(
                    fingerprint
                ), (index, value)
                checked += 1
        assert checked == 20 * 3 + sum(
            len(enum_type) + 1
            for enum_type in fingerprint_module._FIELD_ENUMS.values()
        )

    def test_off_type_values_render_as_the_reference_does(self):
        for base, index, __ in self._positions():
            for value in _OFF_TYPE:
                fingerprint = self._with(base, index, value)
                assert _outcome(fingerprint_digest, fingerprint) == _outcome(
                    _reference_digest, fingerprint
                ), (index, value)

    def test_an_int_never_takes_the_bool_piece(self):
        base = action_fingerprint(_base_action())
        index = fingerprint_module._FIELD_NAMES.index("encrypted")
        as_int = self._with(base, index, 1)
        as_bool = self._with(base, index, True)
        assert fingerprint_digest(as_int) != fingerprint_digest(as_bool)
        assert fingerprint_digest(as_int) == _reference_digest(as_int)

    def test_short_and_long_tuples_match_the_reference(self):
        base = action_fingerprint(_base_action())
        for fingerprint in (base[:5], base + (True,), ()):
            assert fingerprint_digest(fingerprint) == _reference_digest(
                fingerprint
            )

    def test_corpus_digests_are_unchanged(self):
        for action in action_corpus(5000, seed=3):
            fingerprint = action_fingerprint(action)
            assert fingerprint_digest(fingerprint) == _reference_digest(
                fingerprint
            )

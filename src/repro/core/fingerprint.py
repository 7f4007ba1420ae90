"""Canonical fingerprints for investigative actions.

The engine is a pure function of a subset of an
:class:`~repro.core.action.InvestigativeAction`'s fields: the ruling never
reads ``description`` (free text for humans), and several other fields are
read only behind guards in the rule modules.  The fingerprint is the
canonical, hashable projection of exactly the facts the ruling depends on,
with the guarded fields normalized to their effective values:

* ``description`` is dropped — no rule module reads it.
* ``context.provider_serves_public`` is normalized ``None -> True``
  (:func:`repro.core.statutes.sca.provider_role_for` treats an unknown
  provider as public), and to ``True`` whenever ``provider_role`` is set
  explicitly (the SCA returns the explicit role before ever consulting it).
* ``context.technology_in_general_public_use`` is normalized to ``False``
  unless ``home_interior`` is set — the Kyllo factor is only consulted for
  acquisitions that reveal the home interior
  (:func:`repro.core.privacy._objective_prong`).
* Consent collapses to ``(effective, scope-if-effective,
  covers_target_data)``: every consult in the rule modules goes through
  :meth:`~repro.core.action.ConsentFacts.effective`, reads ``scope`` only
  after ``effective()`` held, or reads ``covers_target_data`` directly
  (the computer-trespasser paths).

Two actions with equal fingerprints therefore receive byte-identical
rulings — including the full reasoning trace and ``explain()`` output —
which is what makes the fingerprint safe as a memoization key.  The
differential test suite re-proves this over a 10,000-action corpus on
every run.

Each rule stage also declares, as a :class:`RuleRow`, which of these
fields it reads: ``privacy.FACTS``, ``fourth_amendment.FACTS``,
``wiretap.FACTS``, ``sca.FACTS``, ``pentrap.FACTS``, ``exceptions.FACTS``
and the engine's ``STATUTORY_EXCEPTION_FACTS``.  Together the rows cover
every field above, and the engine memoizes each stage on its own row
(:class:`repro.core.engine.RuleMemo`).  ``tests/core/test_rule_memo.py``
checks each row against what its stage actually reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable
from operator import itemgetter

from repro.core.action import DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)

#: A fingerprint is a flat tuple of primitives (str/bool/None) — enum
#: members are stored as their ``.value`` so tuple hashing stays entirely
#: in C.  ``Enum.__hash__`` is a Python-level call, and the cache hashes
#: each fingerprint up to three times per miss (get, membership check,
#: insert); with ~5 enum members per 26-field tuple that overhead alone
#: made a cold cached batch slower than the uncached loop.  Fields are
#: positional, so same-valued members of *different* enums cannot collide.
ActionFingerprint = tuple

#: The fields :func:`action_fingerprint` fills, in slot order: the head's
#: enums, the context, the three consent facts the rules read, the doctrine.
_FIELD_NAMES = (
    "actor",
    "data_kind",
    "timing",
    *(field.name for field in dataclasses.fields(EnvironmentContext)),
    "consent_effective",
    "consent_scope",
    "consent_covers_target_data",
    *(field.name for field in dataclasses.fields(DoctrineFacts)),
)


@dataclasses.dataclass(frozen=True)
class RuleRow:
    """The fingerprint fields one rule stage reads.

    Attributes:
        name: The stage, as metrics and stats label it.
        guard: Fields the stage's applicability test reads.  Empty for a
            stage that always runs.
        reads: Fields the stage reads once its guard holds.
        applies: The applicability test itself, over the action; set
            exactly when ``guard`` is.  When it fails, the stage's output
            may depend on the ``guard`` fields alone.
    """

    name: str
    reads: tuple[str, ...]
    guard: tuple[str, ...] = ()
    applies: Callable[[InvestigativeAction], bool] | None = None

    def __post_init__(self) -> None:
        unknown = set(self.fields) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"{self.name} declares unknown fields: {unknown}")
        if len(set(self.fields)) != len(self.fields):
            raise ValueError(f"{self.name} declares a field twice")
        if bool(self.guard) != (self.applies is not None):
            raise ValueError(f"{self.name}: a guard needs its applies test")

    @property
    def fields(self) -> tuple[str, ...]:
        """Every field the stage may read: the guard's, then the rest."""
        return self.guard + self.reads


def fact_getter(names: tuple[str, ...]) -> Callable[[ActionFingerprint], object]:
    """An ``itemgetter`` projecting a fingerprint onto the named fields."""
    return itemgetter(*(_FIELD_NAMES.index(name) for name in names))


def action_fingerprint(action: InvestigativeAction) -> ActionFingerprint:
    """The canonical hashable projection of one action's ruling inputs.

    Args:
        action: The action to fingerprint.

    Returns:
        A flat tuple of the normalized fields the engine's ruling depends
        on.  Equal fingerprints guarantee identical rulings.
    """
    ctx = action.context
    consent = action.consent
    doctrine = action.doctrine
    consent_effective = consent.effective()
    provider_role = ctx.provider_role
    return (
        action.actor._value_,
        action.data_kind._value_,
        action.timing._value_,
        ctx.place._value_,
        ctx.encrypted,
        ctx.knowingly_exposed,
        ctx.shared_with_others,
        ctx.delivered_to_recipient,
        (
            True
            if provider_role is not None
            or ctx.provider_serves_public is None
            else ctx.provider_serves_public
        ),
        provider_role._value_ if provider_role is not None else None,
        ctx.policy_eliminates_rep,
        ctx.home_interior,
        (
            ctx.technology_in_general_public_use
            if ctx.home_interior
            else False
        ),
        ctx.abandoned,
        consent_effective,
        consent.scope._value_ if consent_effective else None,
        consent.covers_target_data,
        doctrine.exigent_circumstances,
        doctrine.plain_view,
        doctrine.target_on_probation,
        doctrine.emergency_pen_trap,
        doctrine.hash_search_of_lawful_media,
        doctrine.mining_of_lawful_data,
        doctrine.credentials_lawfully_obtained,
        doctrine.monitoring_own_network,
        doctrine.victim_invited_monitoring,
    )


#: Enum type per enum-bearing fingerprint field, for rehydrating the
#: stored primitive values in the human-facing views below.
_FIELD_ENUMS = {
    "actor": Actor,
    "data_kind": DataKind,
    "timing": Timing,
    "place": Place,
    "provider_role": ProviderRole,
    "consent_scope": ConsentScope,
}


def _field_pieces(name: str) -> dict:
    """``name=value`` pieces of one field, keyed by ``(type, stored value)``.

    One entry per enum member (by its stored ``.value``) for an enum
    field, ``True``/``False`` for a flag field, and ``None`` for both,
    each rendered exactly as :func:`describe_fingerprint` shows it.  The
    key carries the value's type, so an off-type value that compares
    equal to a table value (``1 == True``) misses instead of borrowing
    its piece.
    """
    enum_type = _FIELD_ENUMS.get(name)
    pieces = {(type(None), None): f"{name}=None"}
    if enum_type is None:
        for flag in (True, False):
            pieces[bool, flag] = f"{name}={flag!s}"
    else:
        for member in enum_type:
            pieces[type(member._value_), member._value_] = f"{name}={member!s}"
    return pieces


#: Per-position piece tables for :func:`fingerprint_digest`.
_PIECES = tuple(_field_pieces(name) for name in _FIELD_NAMES)


def fingerprint_digest(fingerprint: ActionFingerprint) -> str:
    """Stable SHA-256 hex digest of a fingerprint.

    Enum-bearing fields render as ``ClassName.MEMBER`` so the digest
    survives process restarts and is safe to persist (tuple ``hash()`` is
    salted per interpreter; this is not) — and is unchanged from when the
    fingerprint tuple carried the enum members themselves.  Each field's
    ``name=value`` piece comes from a precomputed table; a value the
    table lacks is rendered through :func:`describe_fingerprint`, which
    yields the same text for every value the table holds.
    """
    try:
        rendered = "|".join(
            map(dict.get, _PIECES, zip(map(type, fingerprint), fingerprint))
        )
    except TypeError:  # a missing piece (None) or an unhashable value
        rendered = "|".join(
            f"{name}={value!s}"
            for name, value in describe_fingerprint(fingerprint).items()
        )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def describe_fingerprint(fingerprint: ActionFingerprint) -> dict:
    """Field-name -> value view of a fingerprint, for debugging output.

    Stored enum values are rehydrated to their members, so the view reads
    the same as it did when the tuple carried members directly.
    """
    described = {}
    for name, value in zip(_FIELD_NAMES, fingerprint):
        enum_type = _FIELD_ENUMS.get(name)
        if enum_type is not None and value is not None:
            value = enum_type(value)
        described[name] = value
    return described

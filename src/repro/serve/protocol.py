"""The ruling server's newline-delimited-JSON wire format.

One request or response per line, UTF-8, compact sorted-key JSON — the
same canonical form :mod:`repro.ledger.serialize` uses for persisted
rulings, so the bytes a client receives for a ruling are exactly the
bytes ``canonical_json(ruling_to_dict(ruling))`` produces in-process.
That is what makes the serve-bench differential gate a *byte* equality
check rather than a tolerance.

Requests (the ``op`` field selects the verb):

* ``{"op": "rule", "id": 7, "actions": [...]}`` — rule on a batch;
  answered by ``{"id": 7, "ok": true, "rulings": [...]}`` with rulings
  in action order.
* ``{"op": "ping"}`` — liveness; answered by ``{"ok": true, "pong": true}``.
* ``{"op": "stats"}`` — shard/cache counters as JSON.

Errors (non-UTF-8 or malformed JSON, unknown op, bad action, a failed
ruling) answer ``{"id": ..., "ok": false, "error": "..."}``.  The
connection survives request-level errors; only an oversized line
closes it, after an error response.

Actions are encoded by the ledger's record codec
(:func:`repro.ledger.serialize.codec`): every field of every frozen
dataclass, enums by stable ``name``.  Their decoder is written out by
hand instead: it reads untrusted input on the hottest path, so it
checks every value's JSON type before using it and shares the frozen
parts between actions, and a decoded action compares equal to — and
fingerprints identically to — the one the client held.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from operator import itemgetter
from typing import Any

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.cache import bounded_put
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)
from repro.ledger.serialize import canonical_json, codec

#: Framing bound: one request line must fit a full batch of actions.
#: Encoded actions run ~800 bytes each, so 4 MiB comfortably holds the
#: ``MAX_BATCH_ACTIONS`` cap with headroom.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Client-side framing bound for *response* lines.  Responses carry
#: complete rulings (requirements, exceptions, reasoning steps — several
#: KiB each), so a full 4,096-action batch answer runs to tens of MiB.
MAX_RESPONSE_LINE_BYTES = 64 * 1024 * 1024

#: Server-side cap on actions per ``rule`` request.
MAX_BATCH_ACTIONS = 4096


class ProtocolError(ValueError):
    """A request the server can answer with an error response."""


# -- action codec ----------------------------------------------------------------


#: The complete JSON-serializable encoding of an action: the ledger's
#: record codec, so every field of every part is on the wire.
action_to_dict = codec(InvestigativeAction).encode


#: Enum name -> member, built once: a plain dict lookup instead of the
#: ``Enum[name]`` metaclass call on every decoded field.
_ACTORS = dict(Actor.__members__)
_DATA_KINDS = dict(DataKind.__members__)
_TIMINGS = dict(Timing.__members__)
_PLACES = dict(Place.__members__)
_PROVIDER_ROLES = dict(ProviderRole.__members__)
_CONSENT_SCOPES = dict(ConsentScope.__members__)

# One frozen part per distinct tuple of raw, type-checked field values
# (enums by name).  Parts repeat heavily across traffic (36k distinct
# actions hold ~1,400 distinct contexts) while descriptions usually do
# not, so sharing the parts saves most of the construction work without
# holding every distinct action alive.  Each table is filled through
# bounded_put, so hostile traffic with endlessly new parts cannot grow
# memory.
_CONTEXTS: dict[tuple, EnvironmentContext] = {}
_CONSENTS: dict[tuple, ConsentFacts] = {}
_DOCTRINES: dict[tuple, DoctrineFacts] = {}


class FieldTypeError(ProtocolError):
    """An action field holding a JSON value of the wrong type."""


#: The JSON types a field may hold, by the Python type ``json`` decodes.
_NAME = (str,)
_FLAG = (bool,)
_OPTIONAL_NAME = (str, type(None))
_OPTIONAL_FLAG = (bool, type(None))

_JSON_TYPE_NAMES = {
    str: "a string",
    bool: "true or false",
    type(None): "null",
    int: "a number",
    float: "a number",
    list: "an array",
    dict: "an object",
}


def _flags(part: str, *names: str) -> tuple[tuple[str, tuple], ...]:
    return tuple((f"{part}.{name}", _FLAG) for name in names)


# Every action field with the JSON types it may hold: the top level,
# then the context, consent and doctrine parts, each part's fields in
# declaration order, so a part's value tuple doubles as its positional
# constructor arguments once the enum names are resolved.
_HEAD_FIELDS = (
    ("description", _NAME),
    ("actor", _NAME),
    ("data_kind", _NAME),
    ("timing", _NAME),
)
_CONTEXT_FIELDS = (
    ("context.place", _NAME),
    *_flags(
        "context",
        "encrypted",
        "knowingly_exposed",
        "shared_with_others",
        "delivered_to_recipient",
    ),
    ("context.provider_serves_public", _OPTIONAL_FLAG),
    ("context.provider_role", _OPTIONAL_NAME),
    *_flags(
        "context",
        "policy_eliminates_rep",
        "home_interior",
        "technology_in_general_public_use",
        "abandoned",
    ),
)
_CONSENT_FIELDS = (
    ("consent.scope", _NAME),
    *_flags(
        "consent", "voluntary", "exceeds_authority", "revoked",
        "covers_target_data",
    ),
)
_DOCTRINE_FIELDS = _flags(
    "doctrine", *(field.name for field in dataclasses.fields(DoctrineFacts))
)
_FIELDS = _HEAD_FIELDS + _CONTEXT_FIELDS + _CONSENT_FIELDS + _DOCTRINE_FIELDS


def _values(fields: tuple[tuple[str, tuple], ...]) -> itemgetter:
    """Reads one part's raw field values in a single C-level call."""
    return itemgetter(*(path.rpartition(".")[2] for path, _ in fields))


_HEAD = _values(_HEAD_FIELDS)
_CONTEXT = _values(_CONTEXT_FIELDS)
_CONSENT = _values(_CONSENT_FIELDS)
_DOCTRINE = _values(_DOCTRINE_FIELDS)

#: Every valid tuple of the types of an action's field values, in
#: ``_FIELDS`` order.  The check runs before any value tuple is used as
#: an intern key: ``1 == True`` and ``hash(1) == hash(True)``, so an
#: unchecked ``1`` would find the part interned for ``true``.
_ALLOWED_TYPES = frozenset(itertools.product(*(types for _, types in _FIELDS)))


def _type_error(values: tuple) -> FieldTypeError:
    """The error naming the first field whose value has the wrong type."""
    for (path, types), value in zip(_FIELDS, values):
        if type(value) not in types:
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
            found = _JSON_TYPE_NAMES.get(type(value), "another type")
            return FieldTypeError(f"{path} must be {expected}, not {found}")
    raise AssertionError("no field has the wrong type")  # pragma: no cover


def _context(values: tuple) -> EnvironmentContext:
    role = values[6]
    return EnvironmentContext(
        _PLACES[values[0]],
        *values[1:6],
        None if role is None else _PROVIDER_ROLES[role],
        *values[7:],
    )


def _consent(values: tuple) -> ConsentFacts:
    return ConsentFacts(_CONSENT_SCOPES[values[0]], *values[1:])


def _doctrine(values: tuple) -> DoctrineFacts:
    return DoctrineFacts(*values)


def action_from_dict(payload: dict) -> InvestigativeAction:
    """Rebuild an action that compares equal to (and fingerprints
    identically to) the encoded one.

    Flags must be JSON ``true``/``false`` (``provider_serves_public``
    may also be ``null``), enum fields strings naming a member
    (``provider_role`` may also be ``null``) and ``description`` a
    string.  The context, consent and doctrine parts are shared between
    actions whose field values are equal; the parts are frozen, so the
    sharing is invisible to every consumer.

    Raises:
        FieldTypeError: On a field holding a value of the wrong JSON type;
            the message names the field.
        ProtocolError: On missing fields, non-object parts or unknown
            enum names.
    """
    try:
        head = _HEAD(payload)
        context = _CONTEXT(payload["context"])
        consent = _CONSENT(payload["consent"])
        doctrine = _DOCTRINE(payload["doctrine"])
        values = head + context + consent + doctrine
        if tuple(map(type, values)) not in _ALLOWED_TYPES:
            raise _type_error(values)
        return InvestigativeAction(
            head[0],
            _ACTORS[head[1]],
            _DATA_KINDS[head[2]],
            _TIMINGS[head[3]],
            _CONTEXTS.get(context)
            or bounded_put(_CONTEXTS, context, _context(context)),
            _CONSENTS.get(consent)
            or bounded_put(_CONSENTS, consent, _consent(consent)),
            _DOCTRINES.get(doctrine)
            or bounded_put(_DOCTRINES, doctrine, _doctrine(doctrine)),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed action: {exc}") from exc


# -- framing ---------------------------------------------------------------------


def encode_line(payload: dict) -> bytes:
    """One canonical-JSON message, newline-terminated, UTF-8."""
    return canonical_json(payload).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received line into a message dict.

    Raises:
        ProtocolError: On non-UTF-8 bytes, invalid JSON (including
            over-long integers and over-deep nesting), or a non-object
            top level.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError("line is not UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Integer literals past the int-conversion digit limit, and
        # nesting deeper than the interpreter's recursion limit.
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload

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
dataclass, enums by stable ``name``.  Their decoder, which reads
untrusted input on the hottest path, derives its field table, JSON
types and part construction from the same dataclasses, but checks every
value's type by hand before using any (``1`` never passes for ``true``)
and shares frozen parts between actions.  A decoded action compares
equal to — and fingerprints identically to — the one the client held.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing
from operator import itemgetter
from typing import Any

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.cache import bounded_put
from repro.core.context import EnvironmentContext
from repro.ledger.serialize import canonical_json, codec, json_types

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


#: Name -> member for the head's enum fields, from their annotations: a
#: plain dict lookup instead of the ``Enum[name]`` metaclass call.
_ACTORS, _DATA_KINDS, _TIMINGS = (
    dict(typing.get_type_hints(InvestigativeAction)[name].__members__)
    for name in ("actor", "data_kind", "timing")
)

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


_JSON_TYPE_NAMES = {
    str: "a string",
    bool: "true or false",
    type(None): "null",
    int: "a number",
    float: "a number",
    list: "an array",
    dict: "an object",
}


def _fields(cls: type, prefix: str = "") -> tuple[tuple[str, tuple], ...]:
    """Each leaf field of ``cls`` in declaration order, with the JSON types
    it may hold (:func:`repro.ledger.serialize.json_types`, which raises
    ``TypeError`` for a type it has no check for).  Nested dataclass
    fields are skipped: each part has its own table."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (prefix + field.name, json_types(hints[field.name]))
        for field in dataclasses.fields(cls)
        if not dataclasses.is_dataclass(hints[field.name])
    )


# Every action field with the JSON types it may hold: the top level,
# then the context, consent and doctrine parts.
_PART_FIELDS = (
    _fields(InvestigativeAction),
    _fields(EnvironmentContext, "context."),
    _fields(ConsentFacts, "consent."),
    _fields(DoctrineFacts, "doctrine."),
)
_FIELDS = sum(_PART_FIELDS, ())

#: Each reads one part's raw field values in a single C-level call.
_HEAD, _CONTEXT, _CONSENT, _DOCTRINE = (
    itemgetter(*(path.rpartition(".")[2] for path, _ in fields))
    for fields in _PART_FIELDS
)

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
            or bounded_put(
                _CONTEXTS, context, codec(EnvironmentContext).decode(payload["context"])
            ),
            _CONSENTS.get(consent)
            or bounded_put(
                _CONSENTS, consent, codec(ConsentFacts).decode(payload["consent"])
            ),
            _DOCTRINES.get(doctrine)
            or bounded_put(
                _DOCTRINES, doctrine, codec(DoctrineFacts).decode(payload["doctrine"])
            ),
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

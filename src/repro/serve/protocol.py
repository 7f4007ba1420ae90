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

The action codec below is the inverse problem of the ledger's ruling
codec: every field of every frozen dataclass, enums by stable ``name``,
so a decoded action compares equal to — and fingerprints identically
to — the one the client held.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)
from repro.ledger.serialize import canonical_json

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


def action_to_dict(action: InvestigativeAction) -> dict:
    """The complete JSON-serializable encoding of an action."""
    context = action.context
    return {
        "description": action.description,
        "actor": action.actor.name,
        "data_kind": action.data_kind.name,
        "timing": action.timing.name,
        "context": {
            "place": context.place.name,
            "encrypted": context.encrypted,
            "knowingly_exposed": context.knowingly_exposed,
            "shared_with_others": context.shared_with_others,
            "delivered_to_recipient": context.delivered_to_recipient,
            "provider_serves_public": context.provider_serves_public,
            "provider_role": (
                None
                if context.provider_role is None
                else context.provider_role.name
            ),
            "policy_eliminates_rep": context.policy_eliminates_rep,
            "home_interior": context.home_interior,
            "technology_in_general_public_use": (
                context.technology_in_general_public_use
            ),
            "abandoned": context.abandoned,
        },
        "consent": {
            "scope": action.consent.scope.name,
            "voluntary": action.consent.voluntary,
            "exceeds_authority": action.consent.exceeds_authority,
            "revoked": action.consent.revoked,
            "covers_target_data": action.consent.covers_target_data,
        },
        "doctrine": {
            "exigent_circumstances": action.doctrine.exigent_circumstances,
            "plain_view": action.doctrine.plain_view,
            "target_on_probation": action.doctrine.target_on_probation,
            "emergency_pen_trap": action.doctrine.emergency_pen_trap,
            "hash_search_of_lawful_media": (
                action.doctrine.hash_search_of_lawful_media
            ),
            "mining_of_lawful_data": action.doctrine.mining_of_lawful_data,
            "credentials_lawfully_obtained": (
                action.doctrine.credentials_lawfully_obtained
            ),
            "monitoring_own_network": action.doctrine.monitoring_own_network,
            "victim_invited_monitoring": (
                action.doctrine.victim_invited_monitoring
            ),
        },
    }


#: Enum name -> member, built once: a plain dict lookup instead of the
#: ``Enum[name]`` metaclass call on every decoded field.
_ACTORS = dict(Actor.__members__)
_DATA_KINDS = dict(DataKind.__members__)
_TIMINGS = dict(Timing.__members__)
_PLACES = dict(Place.__members__)
_PROVIDER_ROLES = dict(ProviderRole.__members__)
_CONSENT_SCOPES = dict(ConsentScope.__members__)

#: Cap on each intern table below (entries).  A full table is cleared
#: wholesale and refilled, like the engine's ruling intern table, so
#: hostile traffic with endlessly new parts cannot grow memory.
INTERN_MAX = 4096

# One frozen part per distinct tuple of *coerced* field values.  Parts
# repeat heavily across traffic (36k distinct actions hold ~1,400
# distinct contexts) while descriptions usually do not, so sharing the
# parts saves most of the construction work without holding every
# distinct action alive.
_CONTEXTS: dict[tuple, EnvironmentContext] = {}
_CONSENTS: dict[tuple, ConsentFacts] = {}
_DOCTRINES: dict[tuple, DoctrineFacts] = {}


def _intern(table: dict, key: tuple, part_type: type) -> Any:
    part = table.get(key)
    if part is None:
        if len(table) >= INTERN_MAX:
            table.clear()
        part = table[key] = part_type(*key)
    return part


def action_from_dict(payload: dict) -> InvestigativeAction:
    """Rebuild an action that compares equal to (and fingerprints
    identically to) the encoded one.

    The context, consent and doctrine parts are shared between actions
    whose coerced field values are equal; the parts are frozen, so the
    sharing is invisible to every consumer.

    Raises:
        ProtocolError: On missing fields, unknown enum names or
            unhashable enum values.
    """
    try:
        context = payload["context"]
        consent = payload["consent"]
        doctrine = payload["doctrine"]
        provider_role = context["provider_role"]
        description = str(payload["description"])
        actor = _ACTORS[payload["actor"]]
        data_kind = _DATA_KINDS[payload["data_kind"]]
        timing = _TIMINGS[payload["timing"]]
        # Each key lists its part's fields in declaration order, so it
        # doubles as the part's positional constructor arguments.
        context_key = (
            _PLACES[context["place"]],
            bool(context["encrypted"]),
            bool(context["knowingly_exposed"]),
            bool(context["shared_with_others"]),
            bool(context["delivered_to_recipient"]),
            (
                None
                if (serves_public := context["provider_serves_public"])
                is None
                else bool(serves_public)
            ),
            None if provider_role is None else _PROVIDER_ROLES[provider_role],
            bool(context["policy_eliminates_rep"]),
            bool(context["home_interior"]),
            bool(context["technology_in_general_public_use"]),
            bool(context["abandoned"]),
        )
        consent_key = (
            _CONSENT_SCOPES[consent["scope"]],
            bool(consent["voluntary"]),
            bool(consent["exceeds_authority"]),
            bool(consent["revoked"]),
            bool(consent["covers_target_data"]),
        )
        doctrine_key = (
            bool(doctrine["exigent_circumstances"]),
            bool(doctrine["plain_view"]),
            bool(doctrine["target_on_probation"]),
            bool(doctrine["emergency_pen_trap"]),
            bool(doctrine["hash_search_of_lawful_media"]),
            bool(doctrine["mining_of_lawful_data"]),
            bool(doctrine["credentials_lawfully_obtained"]),
            bool(doctrine["monitoring_own_network"]),
            bool(doctrine["victim_invited_monitoring"]),
        )
        return InvestigativeAction(
            description,
            actor,
            data_kind,
            timing,
            _intern(_CONTEXTS, context_key, EnvironmentContext),
            _intern(_CONSENTS, consent_key, ConsentFacts),
            _intern(_DOCTRINES, doctrine_key, DoctrineFacts),
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

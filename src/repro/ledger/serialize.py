"""Canonical, loss-free serialization for persisted legal records.

:meth:`~repro.core.ruling.Ruling.to_dict` is a human-facing export and
drops detail (per-requirement reasoning, exception steps, authorities);
reloading from it could never reproduce ``explain()`` byte for byte.
This module defines the *complete* encoding the ledger stores and the
wire carries instead: every field of every frozen dataclass, enums by
their stable ``name``, rendered as compact sorted-key JSON so two equal
rulings always serialize to identical bytes and a persisted ruling
decodes to an object that compares equal to — and explains identically
to — the one the engine produced.

That encoding is not written out by hand per record type.
:func:`codec` reads a dataclass's fields and annotations once and
builds its encoder and decoder from them, so a field added to
:class:`~repro.core.ruling.ReasoningStep` or
:class:`~repro.core.action.InvestigativeAction` reaches the ledger and
the wire with no converter to update.

Fingerprints are flat tuples of primitives (``str``/``bool``/``None``;
see :mod:`repro.core.fingerprint`), which JSON round-trips exactly, so
they are stored as a JSON array.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
import typing
from collections.abc import Callable
from operator import attrgetter, itemgetter
from typing import Any

from repro.core.cache import bounded_put
from repro.core.fingerprint import ActionFingerprint
from repro.core.ruling import Ruling

#: Compact, sorted-key JSON — the ledger's canonical text form.  One
#: shared encoder with exactly the settings ``json.dumps(payload,
#: sort_keys=True, separators=(",", ":"), ensure_ascii=False)`` builds
#: afresh on every call; its output is byte-identical.
_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


# -- fingerprints ----------------------------------------------------------------


def fingerprint_to_json(fingerprint: ActionFingerprint) -> str:
    """Encode a fingerprint tuple as a JSON array."""
    return _canonical(list(fingerprint))


def fingerprint_from_json(text: str) -> ActionFingerprint:
    """Decode a stored fingerprint back to the tuple the cache keys on."""
    return tuple(json.loads(text))


# -- the record codec ------------------------------------------------------------

#: One field's conversion to or from its JSON value; ``None`` when the
#: value is already its own JSON form, so leaf fields cost no call.
_Convert = Callable[[Any], Any] | None


@dataclasses.dataclass(frozen=True)
class Codec:
    """The canonical encoder and decoder of one dataclass."""

    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[dict[str, Any]], Any]


def _as_tuple(getter: Callable[..., Any], names: tuple[str, ...]) -> Any:
    """``getter(*names)``, returning a tuple for one name too."""
    if len(names) == 1:
        one = getter(names[0])
        return lambda source: (one(source),)
    return getter(*names)


def _optional(hint: Any) -> Any:
    """``X`` for an ``X | None`` hint, else ``None``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) not in (typing.Union, types.UnionType):
        return None
    if len(args) != 2 or type(None) not in args:
        return None
    return args[0] if args[1] is type(None) else args[1]


def _field_codec(hint: Any) -> tuple[_Convert, _Convert]:
    """The (encode, decode) conversions for one annotated field type.

    Raises:
        TypeError: For a type with no canonical JSON form.
    """
    if hint in (str, bool, float):  # their own JSON form
        return None, None
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        # ``_name_`` is a plain attribute; ``.name`` runs a descriptor.
        return attrgetter("_name_"), dict(hint.__members__).__getitem__
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        plan = codec(hint)
        return plan.encode, plan.decode
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if (origin is tuple and args[1:] == (Ellipsis,)) or origin is frozenset:
        enc, dec = _field_codec(args[0])
        array: Callable[[Any], list[Any]] = (
            sorted if origin is frozenset else list
        )
        return (
            array if enc is None else lambda v: array(map(enc, v)),
            origin if dec is None else lambda v: origin(map(dec, v)),
        )
    inner = _optional(hint)
    if inner is not None:
        enc, dec = _field_codec(inner)
        return (
            None if enc is None else lambda v: None if v is None else enc(v),
            None if dec is None else lambda v: None if v is None else dec(v),
        )
    raise TypeError(f"no canonical JSON form for field type {hint!r}")


def json_types(hint: Any) -> tuple[type, ...]:
    """The types ``json`` may decode a leaf field's value to, for a strict
    ``type(value)`` check: ``str`` for ``str`` and enums (by name), ``bool``
    for ``bool``, then ``NoneType`` for ``X | None``.  Any other type raises
    ``TypeError``: a number or container would need a different check."""
    if hint in (str, bool):
        return (hint,)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (str,)
    inner = _optional(hint)
    if inner is not None:
        return (*json_types(inner), type(None))
    raise TypeError(f"no strict JSON type check for field type {hint!r}")


@functools.cache
def codec(cls: type) -> Codec:
    """The canonical codec of a dataclass, built once from its annotations.

    A field may be a nested dataclass, an :class:`~enum.Enum` (encoded by
    member name), ``tuple[X, ...]`` (an array), ``frozenset[X]`` (a
    sorted array), ``X | None``, or a ``str``/``bool``/``float`` leaf.
    The encoder emits every field; the decoder reads every field and
    rebuilds an object that compares equal to the encoded one.

    Raises:
        TypeError: If any field, at any depth, has another type.
    """
    hints = typing.get_type_hints(cls)
    names = tuple(field.name for field in dataclasses.fields(cls))
    codecs = [_field_codec(hints[name]) for name in names]
    attributes = _as_tuple(attrgetter, names)
    items = _as_tuple(itemgetter, names)
    encoders = [(n, e) for n, (e, _) in zip(names, codecs) if e is not None]
    decoders = [(i, d) for i, (_, d) in enumerate(codecs) if d is not None]

    def encode(record: Any) -> dict[str, Any]:
        payload = dict(zip(names, attributes(record)))
        for name, convert in encoders:
            payload[name] = convert(payload[name])
        return payload

    def decode(payload: dict[str, Any]) -> Any:
        values = list(items(payload))
        for index, convert in decoders:
            values[index] = convert(values[index])
        return cls(*values)

    return Codec(encode, decode)


#: The complete JSON-serializable encoding of a ruling.
ruling_to_dict = codec(Ruling).encode

#: Rebuild a :class:`Ruling` that compares equal to the encoded one.
ruling_from_dict = codec(Ruling).decode


class _Texts:
    """The texts derived from one ruling object, each built on first use."""

    __slots__ = ("ruling", "json", "utf8", "reasoning", "citations")

    def __init__(self, ruling: Ruling) -> None:
        self.ruling = ruling  # pins the id() the entry is keyed by
        self.json: str | None = None
        self.utf8: bytes | None = None
        self.reasoning: str | None = None
        self.citations: tuple[str, ...] | None = None


# Derived texts per ruling object, keyed by id() and filled through
# bounded_put.  Every text is always derived from the object, never
# taken from a stored row, so a non-canonical row still encodes
# canonically once decoded.
_TEXTS: dict[int, _Texts] = {}


def _texts(ruling: Ruling) -> _Texts:
    return _TEXTS.get(id(ruling)) or bounded_put(
        _TEXTS, id(ruling), _Texts(ruling)
    )


def ruling_to_json(ruling: Ruling) -> str:
    """Canonical JSON text for a ruling (equal rulings → equal bytes).

    Memoized per ruling object: the engine interns rulings by their rule
    outputs, so the wire encoder and the ledger writer encode each
    distinct ruling once.
    """
    entry = _TEXTS.get(id(ruling)) or _texts(ruling)
    text = entry.json
    if text is None:
        text = entry.json = _canonical(ruling_to_dict(ruling))
    return text


def ruling_to_utf8(ruling: Ruling) -> bytes:
    """:func:`ruling_to_json`'s text as UTF-8, memoized alongside it.

    The wire response is assembled from these bytes with one join, so a
    ruling is encoded to bytes once, not once per response.  The ledger
    writer keys its text-id memo on the same bytes, so a server holds
    each ruling's canonical form once; the ``str`` is kept only if
    something asks :func:`ruling_to_json` for it.
    """
    entry = _TEXTS.get(id(ruling)) or _texts(ruling)
    data = entry.utf8
    if data is None:
        text = entry.json or _canonical(ruling_to_dict(ruling))
        data = entry.utf8 = text.encode("utf-8")
    return data


def ruling_from_json(text: str) -> Ruling:
    """Decode :func:`ruling_to_json` output."""
    return ruling_from_dict(json.loads(text))


def canonical_json(payload: object) -> str:
    """Public canonical-JSON renderer (sorted keys, compact)."""
    return _canonical(payload)


def reasoning_text(ruling: Ruling) -> str:
    """The flattened reasoning trace as one searchable document.

    One line per step, rendered exactly as ``explain()`` renders it
    (``(source) text [cites]``), so full-text queries match what a
    human reads in the trace.  Memoized per ruling object alongside
    :func:`ruling_to_json`'s text.
    """
    entry = _texts(ruling)
    if entry.reasoning is None:
        entry.reasoning = "\n".join(str(step) for step in ruling.steps)
    return entry.reasoning


def citation_keys(ruling: Ruling) -> tuple[str, ...]:
    """Every authority key the ruling's trace cites, sorted and unique.

    Memoized per ruling object alongside :func:`ruling_to_json`'s text.
    """
    entry = _texts(ruling)
    if entry.citations is None:
        keys: set[str] = set()
        for step in ruling.steps:
            keys.update(step.authorities)
        entry.citations = tuple(sorted(keys))
    return entry.citations

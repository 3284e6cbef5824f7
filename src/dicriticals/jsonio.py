"""Strict JSON helpers: exact integers only, canonical byte-stable dumps, and
one field-driven codec for the scenario files and the artifacts the CLI
writes and reads back."""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ScenarioError

SCHEMA_VERSION = 1


def require_int(value, what: str) -> int:
    """Accept exact integers only; floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an exact integer, got {value!r}")
    return value


def reject_unknown_keys(data: dict, known, what: str) -> None:
    """Input error naming the keys of ``data`` outside ``known``."""
    unknown = sorted(data.keys() - known)
    if unknown:
        raise ScenarioError(f"{what} has unknown keys {unknown}")


def fraction_to_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def fraction_from_json(data, what: str = "rational") -> Fraction:
    """Read the pair ``fraction_to_json`` writes: reduced, with ``den > 0``."""
    if not isinstance(data, dict) or set(data) != {"num", "den"}:
        raise ScenarioError(f"{what} must be a {{num, den}} pair")
    num, den = require_int(data["num"], what), require_int(data["den"], what)
    if den <= 0 or math.gcd(num, den) != 1:
        raise ScenarioError(f"{what} must be a reduced {{num, den}} pair with den > 0, got {data!r}")
    return Fraction(num, den)


def canonical_dumps(obj) -> str:
    """Deterministic rendering used for every artifact written to disk.

    The format is JSON with a two-space indent, keys sorted, every string
    ASCII with ``\\uXXXX`` escapes and a trailing newline: exactly the bytes
    of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, written without
    the pure-Python encoder that ``indent`` selects.  An artifact holds dicts
    with ``str`` keys, lists, tuples, strings, ints, booleans and None; any
    other value (a float in an exact artifact, say) raises ``TypeError``.
    """
    out: list[str] = []
    _dump(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _dump(obj, out: list[str], newline: str) -> None:
    """Append the rendering of ``obj`` to ``out``; ``newline`` is a newline
    followed by the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in obj):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _dump(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"canonical_dumps writes only str keys, got {key!r}")
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _dump(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"canonical_dumps cannot write {obj!r} of type {type(obj).__name__}")


# -- field-driven codec ----------------------------------------------------------


def json_field(*, key: str | None = None, omit: bool = False, codec: tuple | None = None, **kwargs):
    """A dataclass field with JSON options for ``FieldCodec``.

    ``key`` is the JSON key where it differs from the field name; ``omit``
    leaves the field out while it equals its default; ``codec`` is an
    ``(encode, decode)`` pair for a value whose JSON shape is not the one its
    annotation gives, with ``decode(value, what)`` checking as it converts.
    The other arguments go to ``dataclasses.field``.
    """
    return dataclasses.field(metadata={"json": (key, omit, codec)}, **kwargs)


_KEEP = object()  # the ``omitted`` value of a field that is always written


class FieldCodec:
    """Dataclass mixin: the JSON form is one key per field plus ``envelope()``.

    The envelope holds the keys that are no field (a schema version, a kind,
    data derived from the fields); the reader accepts an object only when its
    envelope is exactly the one the writer would derive.
    """

    def envelope(self) -> dict:
        return {}

    def to_json(self) -> dict:
        data = self.envelope()
        for name, key, encode, omitted in _plan(type(self))[0]:
            value = getattr(self, name)
            if omitted is _KEEP or value != omitted:
                data[key] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_json(cls, data):
        """Read the form ``to_json`` writes.

        Every value must have exactly its field's annotated type; a field
        with a default may be left out.  The keys that are no field must be
        exactly the envelope of the object read.
        """
        if type(data) is not dict:
            raise ScenarioError(f"{cls.__name__} must be a JSON object, got {data!r}")
        _, fields, keys, enveloped = _plan(cls)
        kwargs = {}
        for name, key, what, decode, required in fields:
            if key in data:
                kwargs[name] = decode(data[key], what)
            elif required:
                raise ScenarioError(f"{cls.__name__} lacks the key {key!r}")
        obj = cls(**kwargs)
        expected = obj.envelope() if enveloped else {}
        known = keys | expected.keys() if expected else keys
        if not data.keys() <= known:
            reject_unknown_keys(data, known, cls.__name__)
        for key, value in expected.items():
            got = data.get(key)
            if type(got) is not type(value) or got != value:
                raise ScenarioError(f"{cls.__name__} key {key!r} must be {value!r}, got {got!r}")
        return obj


class Kinded(FieldCodec):
    """A ``FieldCodec`` whose envelope is its class-level ``kind``."""

    kind = ""

    def envelope(self) -> dict:
        return {"kind": self.kind}


def read_kinded(classes, data, what: str):
    """Read ``data`` with the class among ``classes`` whose ``kind`` it names."""
    kind = data.get("kind") if type(data) is dict else None
    for cls in classes:
        if cls.kind == kind:
            return cls.from_json(data)
    raise ScenarioError(f"{what} has the unknown kind {kind!r}; known: {[cls.kind for cls in classes]}")


@functools.cache
def _plan(cls) -> tuple:
    """``(writer, reader, keys, enveloped)`` for ``cls``: ``(name, key,
    encode, omitted)`` per field for ``to_json``, where ``omitted`` is the
    value at which the field is left out; ``(name, key, what, decode,
    required)`` per field for ``from_json``; the field keys; and whether
    ``cls`` writes an envelope of its own.

    Cached per class: resolving the annotations costs more than a whole read.
    """
    hints = typing.get_type_hints(cls)
    writer, reader = [], []
    for f in dataclasses.fields(cls):
        key, omit, codec = f.metadata.get("json", (None, False, None))
        key = key or f.name
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            default = _KEEP
        encode, decode = codec or type_codec(hints[f.name])
        writer.append((f.name, key, encode, default if omit else _KEEP))
        reader.append((f.name, key, f"{cls.__name__} field {key!r}", decode, default is _KEEP))
    keys = frozenset(entry[1] for entry in writer)
    return tuple(writer), tuple(reader), keys, cls.envelope is not FieldCodec.envelope


@functools.cache
def type_codec(tp) -> tuple:
    """``(encode, decode)`` for values annotated ``tp``, cached per annotation.

    ``encode(value)`` returns the JSON form, and is None where the value is
    its own JSON form; ``decode(value, what)`` checks a JSON value against
    ``tp`` and returns the field value.  A union of several ``Kinded``
    classes is told apart by its ``kind``.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int:
        return None, require_int
    if tp in (bool, str):
        return None, functools.partial(_exact, tp)
    if tp is Fraction:
        return fraction_to_json, fraction_from_json
    if origin in (typing.Union, types.UnionType):
        inner = tuple(a for a in args if a is not type(None))
        if len(inner) == 1:
            enc, dec = type_codec(inner[0])
        elif all(issubclass(a, Kinded) for a in inner):
            enc, dec = _to_json, functools.partial(read_kinded, inner)
        else:
            raise TypeError(f"no JSON codec for {tp!r}")
        if len(inner) == len(args):
            return enc, dec
        return (
            None if enc is None else lambda value: None if value is None else enc(value),
            lambda value, what: None if value is None else dec(value, what),
        )
    if origin in (tuple, list) and (origin is list or args[1:] == (Ellipsis,)):
        enc, dec = type_codec(args[0])

        def read(value, what):
            return origin([dec(v, what) for v in _exact(list, value, what)])

        if args[0] in (int, str):
            per_element, exact = read, {args[0]}

            def read(value, what):
                if type(value) is list and set(map(type, value)) <= exact:
                    return origin(value)  # the element types told in one pass
                return per_element(value, what)

        return list if enc is None else lambda value: [enc(v) for v in value], read
    if origin is tuple:
        codecs = tuple(type_codec(a) for a in args)
        return (
            lambda value: [v if enc is None else enc(v) for (enc, _), v in zip(codecs, value)],
            lambda value, what: tuple(dec(v, what) for (_, dec), v in zip(codecs, _sized(value, len(args), what))),
        )
    if origin is Mapping and args[0] in (int, str):
        enc, dec = type_codec(args[1])
        if args[0] is int:

            def read(value, what):
                return {_int_key(k, what): dec(v, what) for k, v in _exact(dict, value, what).items()}

        else:

            def read(value, what):  # JSON object keys are strings already
                return {k: dec(v, what) for k, v in _exact(dict, value, what).items()}

        return lambda value: {str(k): v if enc is None else enc(v) for k, v in sorted(value.items())}, read
    if hasattr(tp, "from_json"):
        return _to_json, (lambda value, what: tp.from_json(value))
    raise TypeError(f"no JSON codec for {tp!r}")


def _to_json(value):
    return value.to_json()


def _exact(tp, value, what: str):
    if type(value) is not tp:
        raise ScenarioError(f"{what} must be of type {tp.__name__}, got {value!r}")
    return value


def _sized(value, size: int, what: str) -> list:
    if len(_exact(list, value, what)) != size:
        raise ScenarioError(f"{what} must be a list of {size} entries, got {value!r}")
    return value


def _int_key(key: str, what: str) -> int:
    """A mapping key as the writer renders it: ``str`` of an integer."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ScenarioError(f"{what} has the key {key!r}, which is not an integer")

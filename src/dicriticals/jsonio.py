"""Strict JSON helpers: exact integers only, canonical byte-stable dumps, and
one field-driven codec for the artifacts the CLI writes and reads back."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from collections.abc import Mapping
from fractions import Fraction

from .errors import ScenarioError

SCHEMA_VERSION = 1


def require_int(value, what: str) -> int:
    """Accept exact integers only; floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an exact integer, got {value!r}")
    return value


def reject_unknown_keys(data: dict, known, what: str) -> None:
    """Input error naming the keys of ``data`` outside ``known``."""
    unknown = sorted(data.keys() - set(known))
    if unknown:
        raise ScenarioError(f"{what} has unknown keys {unknown}")


def fraction_to_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def fraction_from_json(data, what: str = "rational") -> Fraction:
    if not isinstance(data, dict) or set(data) != {"num", "den"}:
        raise ScenarioError(f"{what} must be a {{num, den}} pair")
    return Fraction(require_int(data["num"], what), require_int(data["den"], what))


def canonical_dumps(obj) -> str:
    """Deterministic rendering used for every artifact written to disk."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- field-driven codec ----------------------------------------------------------


class FieldCodec:
    """Dataclass mixin: the JSON form is one key per field plus ``envelope()``.

    The envelope holds the keys that are no field (a schema version, a kind,
    data derived from the fields); the reader accepts an object only when its
    envelope is exactly the one the writer would derive.
    """

    def envelope(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {**self.envelope(), **fields_to_json(self)}

    @classmethod
    def from_json(cls, data):
        return fields_from_json(cls, data)


def fields_to_json(obj) -> dict:
    """One key per dataclass field of ``obj``, each value made JSON-ready."""
    data = {}
    for name, _, encode, _, _ in _plan(type(obj)):
        value = getattr(obj, name)
        data[name] = value if encode is None else encode(value)
    return data


def fields_from_json(cls, data):
    """Read a ``FieldCodec`` dataclass back from the form ``to_json`` writes.

    Every value must have exactly its field's annotated type; a field with a
    default may be left out.  The keys that are no field must be exactly the
    envelope of the object read.
    """
    if type(data) is not dict:
        raise ScenarioError(f"{cls.__name__} must be a JSON object, got {data!r}")
    kwargs = {}
    for name, what, _, decode, required in _plan(cls):
        if name in data:
            kwargs[name] = decode(data[name], what)
        elif required:
            raise ScenarioError(f"{cls.__name__} lacks the key {name!r}")
    obj = cls(**kwargs)
    expected = obj.envelope()
    reject_unknown_keys(data, kwargs.keys() | expected.keys(), cls.__name__)
    for key, value in expected.items():
        got = data.get(key)
        if type(got) is not type(value) or got != value:
            raise ScenarioError(f"{cls.__name__} key {key!r} must be {value!r}, got {got!r}")
    return obj


@functools.cache
def _plan(cls) -> tuple:
    """``(name, what, encode, decode, required)`` per field of ``cls``.

    Cached per class: resolving the annotations costs more than a whole read.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f"{cls.__name__} field {f.name!r}",
            *_codec(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _codec(tp) -> tuple:
    """``(encode, decode)`` for values annotated ``tp``.

    ``encode(value)`` returns the JSON form, and is None where the value is
    its own JSON form; ``decode(value, what)`` checks a JSON value against
    ``tp`` and returns the field value.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int:
        return None, require_int
    if tp in (bool, str):
        return None, functools.partial(_exact, tp)
    if tp is Fraction:
        return fraction_to_json, fraction_from_json
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _codec(inner)
        return (
            None if enc is None else lambda value: None if value is None else enc(value),
            lambda value, what: None if value is None else dec(value, what),
        )
    if origin in (tuple, list) and (origin is list or args[1:] == (Ellipsis,)):
        enc, dec = _codec(args[0])
        return (
            list if enc is None else lambda value: [enc(v) for v in value],
            lambda value, what: origin([dec(v, what) for v in _exact(list, value, what)]),
        )
    if origin is Mapping and args[0] is int:
        enc, dec = _codec(args[1])
        return (
            lambda value: {str(k): v if enc is None else enc(v) for k, v in sorted(value.items())},
            lambda value, what: {_int_key(k, what): dec(v, what) for k, v in _exact(dict, value, what).items()},
        )
    if hasattr(tp, "from_json"):
        return (lambda value: value.to_json()), (lambda value, what: tp.from_json(value))
    raise TypeError(f"no JSON codec for {tp!r}")


def _exact(tp, value, what: str):
    if type(value) is not tp:
        raise ScenarioError(f"{what} must be of type {tp.__name__}, got {value!r}")
    return value


def _int_key(key: str, what: str) -> int:
    """A mapping key as the writer renders it: ``str`` of an integer."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ScenarioError(f"{what} has the key {key!r}, which is not an integer")

"""The generic JSON reader as it was before the per-class readers: the
reference the differential reader test holds ``jsonio.FieldCodec.from_json``
and ``poly.Polynomial.from_json`` to.

``reading()`` swaps both readers for these copies while a block runs, so a
read started there takes the reference path at every level, the steps of a
tower (read through their own codec) included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from fractions import Fraction

from dicriticals.errors import PolynomialError, ScenarioError
from dicriticals.jsonio import FieldCodec, Kinded, fraction_from_json, read_kinded, reject_unknown_keys, require_int
from dicriticals.poly import Polynomial, _broken_term_rule


RECORD: dict[int, type] | None = None  # while ``reading(record)`` runs: id of each object read -> its class


def field_codec_from_json(cls, data):
    if RECORD is not None:
        RECORD[id(data)] = cls
    if type(data) is not dict:
        raise ScenarioError(f"{cls.__name__} must be a JSON object, got {data!r}")
    kwargs = {}
    for name, key, what, decode, required in _plan(cls):
        if key in data:
            kwargs[name] = decode(data[key], what)
        elif required:
            raise ScenarioError(f"{cls.__name__} lacks the key {key!r}")
    obj = cls(**kwargs)
    expected = obj.envelope()
    reject_unknown_keys(data, frozenset(entry[1] for entry in _plan(cls)) | expected.keys(), cls.__name__)
    for key, value in expected.items():
        got = data.get(key)
        if type(got) is not type(value) or got != value:
            raise ScenarioError(f"{cls.__name__} key {key!r} must be {value!r}, got {got!r}")
    return obj


def polynomial_from_json(cls, data):
    if RECORD is not None:
        RECORD[id(data)] = cls
    if type(data) is not dict or data.keys() != {"vars", "terms"}:
        raise PolynomialError(f"a polynomial must be an object with the keys vars and terms only, got {data!r}")
    variables, items = data["vars"], data["terms"]
    if (
        type(variables) is not list
        or not all(type(v) is str for v in variables)
        or len(set(variables)) != len(variables)
    ):
        raise PolynomialError(f"polynomial vars must be a list of distinct strings, got {variables!r}")
    if type(items) is not list:
        raise PolynomialError(f"polynomial terms in {variables!r} must be a list, got {items!r}")
    n = len(variables)
    terms = {}
    last = None
    for k, item in enumerate(items):
        rule = _broken_term_rule(item, n)
        if rule is None:
            e = tuple(item["exps"])
            key = (sum(e), e)
            if last is not None and key <= last:
                rule = "does not come strictly after the term before it in (total degree, exponents) order"
        if rule is not None:
            raise PolynomialError(f"polynomial in {variables!r}: term {k} {rule}, got {item!r}")
        last = key
        num, den = item["num"], item["den"]
        terms[e] = num if den == 1 else Fraction(num, den)
    return cls._trusted(tuple(variables), terms)


@contextlib.contextmanager
def reading(record: dict[int, type] | None = None):
    """Read with the reference readers while the block runs; ``record``, when
    given, collects the id of every JSON object read as a codec object or a
    polynomial, mapped to the class it was read as."""
    global RECORD
    saved = FieldCodec.__dict__["from_json"], Polynomial.__dict__["from_json"]
    FieldCodec.from_json = classmethod(field_codec_from_json)
    Polynomial.from_json = classmethod(polynomial_from_json)
    RECORD = record
    try:
        yield
    finally:
        FieldCodec.from_json, Polynomial.from_json = saved
        RECORD = None


@functools.cache
def _plan(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        key, _, codec = f.metadata.get("json", (None, False, None))
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        decode = codec[1] if codec else _decoder(hints[f.name])
        plan.append((f.name, key or f.name, f"{cls.__name__} field {key or f.name!r}", decode, required))
    return tuple(plan)


@functools.cache
def _decoder(tp):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int:
        return require_int
    if tp in (bool, str):
        return functools.partial(_exact, tp)
    if tp is Fraction:
        return fraction_from_json
    if origin in (typing.Union, types.UnionType):
        inner = tuple(a for a in args if a is not type(None))
        if len(inner) == 1:
            dec = _decoder(inner[0])
        else:
            assert all(issubclass(a, Kinded) for a in inner)
            dec = functools.partial(read_kinded, inner)
        if len(inner) == len(args):
            return dec
        return lambda value, what: None if value is None else dec(value, what)
    if origin in (tuple, list) and (origin is list or args[1:] == (Ellipsis,)):
        dec = _decoder(args[0])
        return lambda value, what: origin([dec(v, what) for v in _exact(list, value, what)])
    if origin is tuple:
        decs = tuple(_decoder(a) for a in args)
        return lambda value, what: tuple(dec(v, what) for dec, v in zip(decs, _sized(value, len(args), what)))
    if origin is Mapping and args[0] in (int, str):
        read_key = _int_key if args[0] is int else (lambda key, what: key)
        dec = _decoder(args[1])
        return lambda value, what: {read_key(k, what): dec(v, what) for k, v in _exact(dict, value, what).items()}
    assert hasattr(tp, "from_json"), tp
    return lambda value, what: tp.from_json(value)


def _exact(tp, value, what):
    if type(value) is not tp:
        raise ScenarioError(f"{what} must be of type {tp.__name__}, got {value!r}")
    return value


def _sized(value, size, what):
    if len(_exact(list, value, what)) != size:
        raise ScenarioError(f"{what} must be a list of {size} entries, got {value!r}")
    return value


def _int_key(key, what):
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ScenarioError(f"{what} has the key {key!r}, which is not an integer")

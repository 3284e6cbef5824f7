"""Every JSON shape reads and writes through ``jsonio.FieldCodec`` except the
few listed here; a new hand-written reader or writer has to join the list.
``canonical_dumps`` writes the bytes of ``json.dumps`` with its options."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals.jsonio import canonical_dumps

SRC = Path(__file__).resolve().parent.parent / "src" / "dicriticals"

# module.qualname -> why it is not a FieldCodec field
ALLOWED = {
    "jsonio.FieldCodec.to_json": "the field-driven codec itself",
    "jsonio.FieldCodec.from_json": "the field-driven codec itself",
    "jsonio._to_json": "the codec's encoder for a field that is itself a codec",
    "jsonio.fraction_to_json": "the {num, den} leaf the codec uses for Fraction fields",
    "jsonio.fraction_from_json": "the {num, den} leaf the codec uses for Fraction fields",
    "poly.Polynomial.to_json": "a canonical term list, not one key per field",
    "poly.Polynomial.from_json": "a canonical term list, not one key per field",
    "charts._steps_to_json": "a list of steps, each tagged by its kind",
    "charts._steps_from_json": "a list of steps, each tagged by its kind",
    "scenario.scenario_to_json": "entry point that calls Scenario.to_json",
    "scenario.scenario_from_json": "entry point that calls Scenario.from_json, then validates",
    "solver.certificate_from_json": "entry point that reads a certificate by its kind",
}


def _definitions(tree: ast.Module, prefix: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}"
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.")


def test_every_json_reader_and_writer_is_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(), str(path)), f"{path.stem}."):
            if name.endswith(("to_json", "from_json")):
                found.add(name)
    assert sorted(found) == sorted(ALLOWED)


CHARACTERS = st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ufeff'),
    st.characters(min_codepoint=0x10000),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.integers(2**64, 2**200),
    st.text(CHARACTERS, max_size=6),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(-(2**70), 2**70), max_size=4),
        st.dictionaries(st.text(CHARACTERS, max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_canonical_dumps_writes_the_bytes_of_json_dumps(tree):
    assert canonical_dumps(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, {1, 2}, [Fraction(1, 2)], ("a", b"bytes")],
    ids=["float", "nested-float", "int-key", "none-key", "set", "fraction", "bytes"],
)
def test_canonical_dumps_refuses_what_no_artifact_holds(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)

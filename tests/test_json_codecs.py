"""Every JSON shape reads and writes through ``jsonio.FieldCodec`` except the
few listed here; a new hand-written reader or writer has to join the list.
``canonical_dumps`` writes the bytes of ``json.dumps`` with its options."""

import ast
import contextlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import reference_reader
from helpers import bench_workloads
from hypothesis import strategies as st

from dicriticals.fixtures import FIXTURES, load_fixture
from dicriticals.jsonio import Kinded, canonical_dumps
from dicriticals.scenario import Scenario, scenario_to_json

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
    "scenario.scenario_from_json": "entry point: Scenario.from_json, then validation, once per object",
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


# -- the scenario reader against the reference reader ---------------------------

DELETE = object()
# one value of each shape a leaf mutation draws (see ``leaf_mutations`` in test_scenarios.py)
SHAPES = (DELETE, None, True, 0, -1, 2, 1.5, "x", [], {})


def _leaf_paths(data, path=()):
    if isinstance(data, (dict, list)) and data:
        keys = data if isinstance(data, dict) else range(len(data))
        return [leaf for key in keys for leaf in _leaf_paths(data[key], (*path, key))]
    return [path]


def _outcome(read, data):
    try:
        obj = read(data)
    except Exception as exc:  # the reference reader's exact failure is the point
        return "raises", type(exc), str(exc)
    return "reads", obj, repr(obj)


def _innermost_object(data, path, record):
    """``(object, class, path inside it)`` of the innermost JSON object that
    holds the leaf at ``path`` and was read as a codec object or polynomial.
    A ``kind`` key goes to the object around, whose reader picks the class."""
    best = (data, record[id(data)], path)
    node = data
    for depth, key in enumerate(path[:-1], start=1):
        node = node[key]
        cls = record.get(id(node))
        if cls is not None and not (issubclass(cls, Kinded) and path[depth:] == ("kind",)):
            best = (node, cls, path[depth:])
    return best


@contextlib.contextmanager
def _mutated(data, path, shape):
    """``data`` with the leaf at ``path`` deleted or replaced by ``shape``,
    changed in place while the block runs."""
    *parents, last = path
    holder = data
    for key in parents:
        holder = holder[key]
    original = holder[last]
    if shape is DELETE:
        del holder[last]
    else:
        holder[last] = shape
    try:
        yield data
    finally:
        if shape is DELETE and isinstance(holder, list):
            holder.insert(last, original)
        else:
            holder[last] = original


def test_the_reader_matches_the_reference_on_every_leaf_mutation(monkeypatch):
    """Every leaf of every fixture and seed-1 generated scenario, deleted or
    replaced by one value of each shape: the reader returns an object equal to
    the reference reader's, or fails with the same exception and text.

    A mutated leaf changes only the read of the innermost object that holds
    it: the objects around it read it through the same decoder and pass its
    result or its error on unchanged, and the rest of the file reads as it
    did.  So each mutation is read at that object, as the class the whole
    read read it as, and a mutation of an object met before is not read again.
    """
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in sorted(FIXTURES)]
    for generate in (workloads.chain_scenarios, workloads.shear_chain_scenarios, workloads.solve_scenarios):
        scenarios += generate(1)
    seen = set()
    mutations = 0
    for sc in scenarios:
        data = scenario_to_json(sc)
        record = {}
        with reference_reader.reading(record):
            assert Scenario.from_json(data) == sc
        texts = {}
        for path in _leaf_paths(data):
            node, cls, inner = _innermost_object(data, path, record)
            if id(node) not in texts:
                texts[id(node)] = json.dumps(node, sort_keys=True)
            if (cls, texts[id(node)], inner) in seen:
                continue
            seen.add((cls, texts[id(node)], inner))
            for shape in SHAPES:
                with _mutated(node, inner, shape):
                    got = _outcome(cls.from_json, node)
                    with reference_reader.reading():
                        want = _outcome(cls.from_json, node)
                assert got[0] == want[0] and got[1:] == want[1:], (sc.name, path, shape, got, want)
                mutations += 1
    assert mutations > 10_000

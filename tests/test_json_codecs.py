"""Every JSON shape reads and writes through ``jsonio.FieldCodec`` except the
few listed here; a new hand-written reader or writer has to join the list."""

import ast
from pathlib import Path

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

"""The benchmark imports library names and its tracer wraps them by string;
each must still exist, because the tier-1 suite does not collect the bench."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_name_resolves_in_the_library(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_bench_import_from_the_library_resolves():
    checked = 0
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dicriticals":
                for alias in node.names:
                    checked += 1
                    if not _resolves(node.module, alias.name):
                        missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert checked
    assert missing == []

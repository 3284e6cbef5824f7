"""The benchmark imports library names and its tracer wraps them by string;
each must still exist, and each observer must still read what its function
returns, because the tier-1 suite does not collect the bench."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from dicriticals.charts import walk_tower
from dicriticals.fixtures import load_fixture
from dicriticals.ratfunc import RationalFunction
from dicriticals.solver import solve_single_dicritical
from dicriticals.verify import run_verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def load_spans(monkeypatch):
    """``bench/spans.py``, loaded from its file."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_in_the_library(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []


def test_the_tracer_installs_after_importing_only_the_cli():
    """The bench harness imports ``dicriticals.cli`` alone, and the tracer
    finds each target's module in ``sys.modules``; so that one import must
    load every module the tracer wraps.  A fresh process shows it, where this
    suite has imported the whole package already."""
    code = "import dicriticals.cli, spans; tracer = spans.Tracer(); tracer.install(); tracer.uninstall()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


def test_every_observer_reads_a_real_result(monkeypatch):
    """Each ``Target.observe`` runs on what its function returns, so a result
    that loses a field the bench reads fails here and not only in the bench."""
    three_points = load_fixture("three-points")
    h = RationalFunction(three_points.equations["H1"])
    line = load_fixture("three-points-line")
    request = line.request
    results = {
        "charts.walk": walk_tower(three_points.tower, [h.num, h.den]),
        "verify.run_verify": run_verify(three_points),
        "solver.solve_single_dicritical": solve_single_dicritical(
            line.descriptor, request.s, request.degree, request.special_exponents, request.contact_orders
        ),
    }
    observed = [target for target in load_spans(monkeypatch).TARGETS if target.observe is not None]
    assert sorted(target.name for target in observed) == sorted(results)
    tracer = SimpleNamespace(counts=Counter())
    for target in observed:
        target.observe(tracer, results[target.name])
    assert tracer.counts["verify.rows"] == len(results["verify.run_verify"].rows) == 3
    assert tracer.counts["solver.doublings"] == results["solver.solve_single_dicritical"].doublings
    assert tracer.counts["poly.max_terms"] > 0 and tracer.counts["poly.max_coeff_bits"] > 0

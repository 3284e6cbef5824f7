import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from helpers import bench_workloads, four_divisor_tower, pole_tie_single, support_middle
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals.charts import LineClassSpec
from dicriticals.cli import build_parser, main
from dicriticals.descriptor import make_descriptor
from dicriticals.errors import MatrixError, ScenarioError
from dicriticals.fixtures import FIXTURES, load_fixture, three_points, three_points_line, three_points_line_explicit
from dicriticals.jsonio import canonical_dumps
from dicriticals.poly import Polynomial
from dicriticals.scenario import LastRequest, Scenario, SingleRequest, scenario_from_json, scenario_to_json
from dicriticals.solver import request_maps
from dicriticals.verify import run_verify, solve_scenario

DATA = Path(__file__).parent / "data"


def input_json(data) -> str:
    """The text of a scenario or certificate file a test hands to the CLI.

    ``canonical_dumps`` writes exact artifacts only and refuses a float; a
    mutated input may hold one, and the reader must reject it.
    """
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_every_fixture_round_trips_through_json():
    for name in FIXTURES:
        sc = load_fixture(name)
        data = scenario_to_json(sc)
        again = scenario_from_json(json.loads(json.dumps(data)))
        assert scenario_to_json(again) == data


# sha256 of each fixture's canonical scenario JSON, taken before the scenario
# pieces were moved onto the field-driven codec; that move must not change a
# byte of the input format.
SCENARIO_SHA256 = {
    "conic-center": "46f72c72032b21dc164b1b3f89d10dfe374647e74a14162541001e36365a1dba",
    "point-line-fiber": "8738cbd67192a4d1841b13bfef8a88a9d07785eb5418829d616a2a9c0e06f2d8",
    "point-point-line": "2354a39ec68e5f5a96c92ee9f8038bb4655af8156543231c9964ed14f3a66c0e",
    "three-points": "e597e62d15120860f7383dc48947152163def4060bd5e02227646e7aeb824d71",
    "three-points-line": "4fb45629451871ed05ad36d6825a8d0a21cbfa137de32372fa1d942d68356a52",
    "two-dicriticals": "7142a8f5a03ecd22f38e4e1c0d3c9baf8ca31464de87ed7e92a192e656d1a067",
}


def test_scenario_bytes_are_pinned():
    assert sorted(SCENARIO_SHA256) == sorted(FIXTURES)
    for name, digest in SCENARIO_SHA256.items():
        payload = canonical_dumps(scenario_to_json(load_fixture(name)))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, name


def test_scenario_json_rejects_bad_schema():
    sc = scenario_to_json(load_fixture("three-points"))
    sc["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_json(sc)


def test_every_fixture_verifies():
    for name in FIXTURES:
        report = run_verify(load_fixture(name))
        assert report.overall, f"fixture {name} failed verification"


def test_verify_is_deterministic():
    a = run_verify(load_fixture("two-dicriticals"))
    b = run_verify(load_fixture("two-dicriticals"))
    assert canonical_dumps(a.to_json()) == canonical_dumps(b.to_json())


def test_verify_golden_bytes():
    report = run_verify(load_fixture("three-points"))
    golden = (DATA / "three-points.verify.json").read_text()
    assert canonical_dumps(report.to_json()) == golden


def test_fault_injection_pole_power_flags_last_divisor():
    sc = three_points_line_explicit(20)
    report = run_verify(sc)
    assert not report.overall
    bad = {row.divisor for row in report.rows if not row.ok}
    assert 4 in bad  # the divisor whose window the oversized pole power violates


def test_support_request_verifies_end_to_end():
    report = run_verify(support_middle())
    assert report.overall
    rows = {row.divisor: row for row in report.rows}
    assert rows[2].status == "dicritical" and rows[2].symbolic_order == 0
    assert rows[1].status == "constant" and rows[3].status == "constant"


def test_cli_matrix(capsys):
    assert main(["matrix", "--scenario", "point-point-line", "--out", ""]) == 0
    out = capsys.readouterr().out
    assert "[ 1  1  1 ]" in out and "minors: [1, 1, 1]" in out
    assert main(["matrix", "--scenario", "three-points", "--out", ""]) == 0
    out = capsys.readouterr().out
    assert "[ 2  4  7 ]" in out and "[ 3  5  9 ]" in out


def test_cli_matrix_exits_1_with_one_line_when_the_minors_fail(monkeypatch, capsys):
    def refuse(matrix):
        raise MatrixError("row 2 of the valuation matrix does not undo to multiplicity row 2")

    monkeypatch.setattr("dicriticals.cli.leading_principal_minors", refuse)
    capsys.readouterr()
    assert main(["matrix", "--scenario", "three-points", "--out", ""]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: row 2 of the valuation matrix does not undo to multiplicity row 2"
    ]


def test_cli_solve_verify_report(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--scenario", "three-points", "--out", out]) == 0
    cert_path = tmp_path / "three-points.solve.json"
    assert cert_path.exists()
    assert json.loads(cert_path.read_text())["bundle_exponents"] == [2, 4]

    assert main(["verify", "--scenario", "three-points", "--out", out]) == 0
    report_path = tmp_path / "three-points.verify.json"
    first = report_path.read_text()
    assert main(["verify", "--scenario", "three-points", "--out", out]) == 0
    assert report_path.read_text() == first  # byte-stable under the fixed seed

    assert main(["report", "--scenario", "three-points", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert (tmp_path / "three-points.report.txt").exists()


def test_cli_verify_from_stored_certificate(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--scenario", "three-points-line", "--out", out]) == 0
    cert = str(tmp_path / "three-points-line.solve.json")
    assert main(["verify", "--scenario", "three-points-line", "--out", out, "--certificate", cert]) == 0
    capsys.readouterr()
    # a certificate for the wrong request is rejected as bad input
    assert main(["solve", "--scenario", "three-points", "--out", out]) == 0
    wrong = str(tmp_path / "three-points.solve.json")
    assert main(["verify", "--scenario", "three-points-line", "--out", out, "--certificate", wrong]) == 2


def test_cli_detects_drift(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["verify", "--scenario", "three-points", "--out", out]) == 0
    path = tmp_path / "three-points.verify.json"
    path.write_text(path.read_text().replace("PASS", "FAIL"))
    stored = path.read_bytes()
    capsys.readouterr()
    assert main(["verify", "--scenario", "three-points", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("drift:"), err
    assert path.read_bytes() == stored


@pytest.mark.parametrize(
    "command, artifact", [("matrix", "matrix.json"), ("solve", "solve.json"), ("report", "report.txt")]
)
def test_matrix_solve_and_report_fail_on_a_drifted_artifact(command, artifact, tmp_path, capsys):
    out = str(tmp_path)
    if command == "report":
        assert main(["verify", "--scenario", "three-points", "--out", out]) == 0
    path = tmp_path / f"three-points.{artifact}"
    path.write_text("not what the command writes\n")
    capsys.readouterr()
    assert main([command, "--scenario", "three-points", "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"drift: {path} already exists with different content"]
    assert path.read_text() == "not what the command writes\n"


def test_cli_solve_prints_a_support_profile(tmp_path, capsys):
    path = tmp_path / "support-middle.json"
    path.write_text(input_json(scenario_to_json(support_middle())))
    capsys.readouterr()
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "certificate for support-middle:",
        "  exponents: [2, -1, 0]",
        "  orders:    [1, 0, 1]",
    ]


def three_points_with_lines(tmp_path, lines) -> str:
    """The path of a three-points scenario file whose line templates are ``lines``."""
    path = tmp_path / "three-points.json"
    path.write_text(input_json(scenario_to_json(dataclasses.replace(three_points(), lines=lines))))
    return str(path)


def test_cli_verify_needs_a_line_template_for_a_degree_check(tmp_path, capsys):
    path = three_points_with_lines(tmp_path, {})
    capsys.readouterr()
    assert main(["verify", "--scenario", path, "--out", ""]) == 2
    assert capsys.readouterr().err.splitlines() == ["input error: divisor 3 needs a line template for its degree check"]


def test_cli_verify_fails_a_line_template_that_leaves_its_divisor(tmp_path, capsys):
    path = three_points_with_lines(tmp_path, {3: LineClassSpec({"x": "param", "y": "zero", "z": "zero"})})
    capsys.readouterr()
    assert main(["verify", "--scenario", path, "--out", ""]) == 1
    lines = capsys.readouterr().out.splitlines()
    note = "note: degree check failed at divisor 3: the divisor's own chart variable must be assigned zero"
    assert note in lines and lines[-1] == "overall: FAIL"
    (row,) = [line for line in lines if line.startswith("h     E_3")]
    assert row.split()[-1] == "MISMATCH"


def test_cli_input_errors(tmp_path):
    assert main(["matrix", "--scenario", "no-such-fixture", "--out", str(tmp_path)]) == 2
    assert main(["report", "--scenario", "three-points", "--out", str(tmp_path)]) == 2
    assert main(["solve", "--scenario", "point-point-line", "--out", str(tmp_path)]) == 2


def test_an_unknown_fixture_name_is_an_input_error():
    with pytest.raises(ScenarioError, match="^unknown fixture 'nope'; known: conic-center, "):
        load_fixture("nope")


def test_cli_builds_one_parser_per_process():
    assert build_parser() is build_parser()


def test_cli_parses_the_arguments_once_per_call(tmp_path, monkeypatch, capsys):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    out = str(tmp_path)
    for command in ("matrix", "solve", "verify", "report"):
        calls.clear()
        assert main([command, "--scenario", "three-points", "--out", out]) == 0
        assert calls == [f"dicriticals {command}"]
    calls.clear()
    assert main(["list"]) == 0
    assert calls == ["dicriticals list"]
    capsys.readouterr()
    for argv in ([], ["bogus"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:"), err
    assert main(["verify", "--scenario", "three-points", "--out", out, "--retries", "4"]) == 2
    assert capsys.readouterr().err == "input error: unrecognized arguments: --retries 4\n"
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    assert "--certificate" in capsys.readouterr().out


def test_cli_runs_as_a_module(tmp_path):
    """``python -m dicriticals.cli`` reads its arguments from ``sys.argv``,
    as the console script does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-B", "-m", "dicriticals.cli"]
    argv += ["verify", "--scenario", "three-points", "--out", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    done = subprocess.run([*argv, "--retries", "4"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["input error: unrecognized arguments: --retries 4"]


def test_cli_scenario_file_and_list(tmp_path, capsys):
    sc = load_fixture("three-points")
    path = tmp_path / "scenario.json"
    path.write_text(input_json(scenario_to_json(sc)))
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["list"]) == 0
    assert "two-dicriticals" in capsys.readouterr().out


# Stored-artifact mutations, case -> (scenario fixture, key path, value): the
# value is written at the key path into the fixture's certificate
# (``certificate-``) or its stored verify report (``report-``).
ARTIFACT_MUTATIONS = {
    "certificate-schema-version": ("three-points", ("schema_version",), 99),
    "certificate-schema-version-bool": ("three-points", ("schema_version",), True),
    "certificate-unknown-key": ("three-points", ("extra",), 1),
    "certificate-part-base-kind": ("two-dicriticals", ("parts", "1", "base", "kind"), "support"),
    "certificate-mobius": ("two-dicriticals", ("mobius",), {"1": {"a": "0", "b": "1"}}),
    "certificate-mobius-note-int": ("two-dicriticals", ("mobius_note",), 5),
    "certificate-linear-form-extra-key": ("three-points-line", ("threshold_form", "extra"), 1),
    "certificate-linear-form-unreduced-const": ("three-points-line", ("threshold_form", "const"), {"num": 10, "den": 2}),
    "certificate-linear-form-negative-den": ("three-points-line", ("threshold_form", "const"), {"num": -5, "den": -1}),
    "certificate-linear-form-zero-coefficient": (
        "three-points-line",
        ("threshold_form", "coeffs", "4"),
        {"num": 0, "den": 1},
    ),
    "certificate-linear-form-key-not-canonical": (
        "three-points-line",
        ("threshold_form", "coeffs"),
        {"04": {"num": 3, "den": 2}},
    ),
    "certificate-linear-form-missing-coeffs": ("three-points-line", ("threshold_form",), {"const": {"num": 5, "den": 1}}),
    "certificate-linear-form-const-not-a-pair": ("three-points-line", ("threshold_form", "const"), 5),
    "certificate-profile-degree": ("two-dicriticals", ("degrees", "1"), 2),
    "certificate-profile-part-degree": ("two-dicriticals", ("parts", "1", "degree"), 2),
    "certificate-pole-power-zero": ("three-points-line", ("pole_power",), 0),
    "certificate-later-power-zero": ("three-points-line", ("later_exponents",), {"4": 0}),
    "certificate-special-exponent-negative": ("three-points", ("special_exponents",), {"1": -1, "2": 1}),
    "report-row-extra-key": ("three-points", ("rows", 0, "extra"), 1),
    "report-row-ok-not-bool": ("three-points", ("rows", 0, "ok"), "no"),
    "report-row-divisor-not-int": ("three-points", ("rows", 0, "divisor"), "E"),
    "report-schema-version": ("three-points", ("schema_version",), 99),
    "report-command": ("three-points", ("command",), "solve"),
    "report-extra-key": ("three-points", ("extra",), 1),
    "report-null-seed": ("three-points", ("seed",), None),
}


# The terms of the equation "C1" of "three-points", x + y + z.
C1_TERMS = [
    {"exps": [0, 0, 1], "num": 1, "den": 1},
    {"exps": [0, 1, 0], "num": 1, "den": 1},
    {"exps": [1, 0, 0], "num": 1, "den": 1},
]

# Scenario mutations, case -> (scenario fixture, key path, value, *more): the
# value is written at the key path into the fixture's JSON form, or the key is
# deleted where the value is DELETE, and so is each further (key path, value)
# pair.  The support requests target divisor 1, whose bundle exponent only is
# nonzero among the bound bundles; targeting 1 and 2 gives bundle 1 the
# exponent zero, so it must be split into two distinct equations.
SUPPORT = {"kind": "support", "targets": [1]}
SPLIT_BUNDLE_1 = ("three-points", ("request",), {**SUPPORT, "targets": [1, 2]})
DELETE = object()
# A single request without usable tail data, which every command rejects.
TAIL_MUTATIONS = {
    "tail-missing": ("three-points-line", ("descriptor", "tail"), DELETE),
    "tail-for-another-index": ("three-points-line", ("request", "tail"), {"s": 2}),
    "tail-without-own-center": ("two-dicriticals", ("request", "parts", "1", "tail", "muZ", "2", "2"), DELETE),
}
SCENARIO_MUTATIONS = {
    "name-climbs-out": ("three-points", ("name",), "../../evil"),
    "name-empty": ("three-points", ("name",), ""),
    "name-not-string": ("three-points", ("name",), 5),
    "unknown-scenario-key": ("three-points", ("notes",), "ignored"),
    "unknown-request-key": ("three-points", ("request", "contact_order"), {"1": 3, "2": 3}),
    "duplicate-special-owner": (
        "three-points",
        ("descriptor", "special"),
        [{"owner": 1, "mu_row": [2, 2]}, {"owner": 2, "mu_row": [3, 2]}, {"owner": 1, "mu_row": [9, 9]}],
    ),
    "descriptor-schema-version": ("three-points", ("descriptor", "schema_version"), 99),
    "descriptor-schema-version-float": ("three-points", ("descriptor", "schema_version"), 1.5),
    "descriptor-parents-unsorted": ("three-points", ("descriptor", "centers", 2, "D"), [2, 1]),
    "descriptor-parents-repeated": ("three-points", ("descriptor", "centers", 2, "D"), [1, 1, 2]),
    "center-without-multiplicity-row": ("three-points", ("descriptor", "centers", 0), {"dim": 0, "D": []}),
    "center-without-parents": ("three-points", ("descriptor", "centers", 0), {"dim": 0, "T_row": [1]}),
    "unknown-tower-key": ("three-points", ("tower", "extra"), 1),
    "unknown-blowup-key": ("three-points", ("tower", "steps", 0, "blowup", "extra"), 1),
    "step-with-both-tags": ("three-points", ("tower", "steps", 0, "shear"), {}),
    "blowup-center-string": ("three-points", ("tower", "steps", 0, "blowup", "center"), "xyz"),
    "tower-vars-string": ("three-points", ("tower", "vars"), "xyz"),
    "tower-vars-beyond-dimension": ("three-points", ("tower", "vars"), ["x", "y", "z", "w"]),
    "unknown-bindings-key": ("three-points", ("bindings", "primry"), "C3p"),
    "binding-not-string": ("three-points", ("bindings", "primary"), 5),
    "binding-missing-equation": ("three-points", ("bindings", "primary"), "NOPE"),
    "binding-secondary-is-primary": ("three-points", ("bindings", "secondary"), "C3p"),
    "binding-split-bundle-repeated": (*SPLIT_BUNDLE_1, (("bindings", "bundles", "1"), ["C1", "C1"])),
    "binding-split-bundle-single": (*SPLIT_BUNDLE_1, (("bindings", "bundles", "1"), ["C1"])),
    "unknown-line-key": ("three-points", ("lines", "3", "extra"), 1),
    "line-divisor-key": ("three-points", ("lines", "3", "divisor"), 3),
    "line-assign-pairs": ("three-points", ("lines", "3", "assign"), [["x", "zero"], ["y", "const"], ["z", "param"]]),
    "unknown-expect-key": ("three-points", ("expect", "extra"), 1),
    "chart-key-not-canonical": ("three-points", ("charts",), {"01": {"charts": None, "blowups": 3}}),
    "chart-key-not-an-integer": ("three-points", ("charts",), {"a": {"charts": None, "blowups": 3}}),
    "repeated-term": ("three-points", ("equations", "C1", "terms"), [C1_TERMS[0], *C1_TERMS]),
    "zero-term": ("three-points", ("equations", "C1", "terms"), [*C1_TERMS, {"exps": [0, 0, 2], "num": 0, "den": 1}]),
    "unknown-term-key": ("three-points", ("equations", "C1", "terms", 0, "extra"), 1),
    "unreduced-term": ("three-points", ("equations", "C1", "terms", 0), {"exps": [0, 0, 1], "num": 2, "den": 2}),
    "support-target-outside": ("three-points", ("request",), {**SUPPORT, "targets": [7]}),
    "support-targets-empty": ("three-points", ("request",), {**SUPPORT, "targets": []}),
    "support-offset-on-target": ("three-points", ("request",), {**SUPPORT, "offsets": {"1": 1}}),
    "support-offset-zero": ("three-points", ("request",), {**SUPPORT, "offsets": {"2": 0}}),
    "support-offset-outside": ("three-points", ("request",), {**SUPPORT, "offsets": {"7": 1}}),
    "zero-degree-last": ("three-points", ("request", "degree"), 0),
    "zero-degree-single": ("three-points", ("request",), {"kind": "single", "s": 3, "degree": 0}),
    "zero-degree-profile-part": (
        "three-points",
        ("request",),
        {"kind": "profile", "parts": {"3": {"kind": "single", "s": 3, "degree": 0}}},
    ),
    "special-row-short": ("three-points", ("descriptor", "special", 0, "mu_row"), [2]),
    "special-row-of-no-parent": ("three-points", ("descriptor", "special", 1, "owner"), 3),
    "contact-order-zero": ("three-points", ("request", "contact_orders"), {"1": 0, "2": 1}),
    "special-exponent-of-no-parent": ("three-points", ("request", "special_exponents"), {"7": 1}),
    "target-order-at-a-parent": ("three-points", ("request", "target_orders"), {"1": 1}),
    "chart-blowups-beyond-tower": ("three-points", ("charts",), {"3": {"charts": None, "blowups": 9}}),
    "chart-blowups-negative": ("three-points", ("charts",), {"3": {"charts": None, "blowups": -1}}),
    "chart-variable-outside-center": ("three-points", ("charts",), {"2": {"charts": ["q"], "blowups": None}}),
    "chart-list-beyond-tower": ("three-points", ("charts",), {"3": {"charts": ["z", "y", "x", "q"], "blowups": None}}),
    "chart-path-hides-divisor": ("three-points-line", ("charts", "3", "blowups"), None),
    "explicit-negative-exponent": ("conic-center", ("request", "den", 1, 0, 1), -3),
    "explicit-without-expect": ("conic-center", ("expect",), DELETE),
    "profile-without-parts": ("two-dicriticals", ("request", "parts"), {}),
    "verify-without-tower": ("three-points", ("tower",), DELETE),
    "tower-short-of-m": ("three-points", ("tower", "steps", 2), DELETE),
    "tower-steps-not-a-list": ("three-points", ("tower", "steps"), {}),
    "negative-multiplicity": ("three-points", ("descriptor", "centers", 1, "T_row"), [-1, 1]),
    **TAIL_MUTATIONS,
}


# The checks that no fixture, benchmark workload or other case reaches:
# case -> the end of the one line each must print, so the case shows the
# check it names fired and not an earlier one.
UNREACHED_CHECKS = {
    "certificate-linear-form-const-not-a-pair": "LinearForm field 'const' must be a {num, den} pair",
    "explicit-without-expect": "an explicit scenario needs expected outcomes",
    "profile-without-parts": "a profile request needs at least one target divisor",
    "verify-without-tower": "verification needs a chart tower",
    "tower-short-of-m": "chart tower: tower has 2 blow-ups, descriptor has 3",
    "tower-steps-not-a-list": "ChartTower field 'steps' must be a list of steps, got {}",
    "negative-multiplicity": "multiplicity row 2 has a negative entry",
    "matrix-only-certificate": "matrix-only scenarios take no certificate",
    "matrix-only-without-rows": "matrix verification needs row bindings",
    "tower-vars-beyond-dimension": "chart tower: tower has 4 variables, descriptor ambient dimension is 3",
    "chart-key-not-an-integer": "Scenario field 'charts' has the key 'a', which is not an integer",
    "binding-secondary-is-primary": "primary and secondary hypercurvettes must be distinct",
    "binding-split-bundle-repeated": "bundle 1 needs two distinct equations",
    "binding-split-bundle-single": (
        "divisor 1 needs a nonconstant bundle with total exponent zero; bind two distinct equations"
    ),
    "certificate-pole-power-zero": "the pole power must be a positive honest power",
    "certificate-later-power-zero": "later hypercurvette powers must be positive",
    "certificate-special-exponent-negative": "special hypersurfaces carry honest positive powers",
}

# Stored certificates with a value out of range that only the candidate
# builders check: ``verify --certificate`` exits 1 on them with one
# ``error:`` line, as for a certificate the construction cannot honour.
BUILDER_FAULTS = {
    "certificate-pole-power-zero",
    "certificate-later-power-zero",
    "certificate-special-exponent-negative",
}


def set_at(data, keys, value):
    for key in keys[:-1]:
        data = data[key]
    if value is DELETE:
        del data[keys[-1]]
    else:
        data[keys[-1]] = value


def mutated(case):
    """The JSON form of the scenario of ``SCENARIO_MUTATIONS[case]``, mutated."""
    fixture, keys, value, *more = SCENARIO_MUTATIONS[case]
    data = scenario_to_json(load_fixture(fixture))
    for keys, value in ((keys, value), *more):
        set_at(data, keys, value)
    return data


@pytest.mark.parametrize(
    "case",
    [
        "malformed-json",
        "not-an-object",
        "missing-descriptor",
        "unknown-option",
        "solve-seed",
        "missing-scenario",
        "unknown-template-variable",
        "wrongly-typed-descriptor",
        "one-variable-blowup-center",
        "chart-divisor-out-of-range",
        "line-divisor-out-of-range",
        "chart-blowups-not-int",
        "expect-orders-short",
        "expect-status-kind",
        "expect-constant-with-degree",
        "profile-part-key",
        "profile-part-out-of-range",
        "profile-part-bindings-missing",
        "empty-certificate",
        "non-json-certificate",
        "scenario-is-a-directory",
        "certificate-is-a-directory",
        "deeply-nested-scenario",
        "solve-out-is-a-file",
        "verify-out-is-a-file",
        "matrix-out-is-a-file",
        "artifact-is-a-directory",
        "scenario-path-too-long",
        "certificate-path-too-long",
        "report-out-too-long",
        "matrix-only-certificate",
        "matrix-only-without-rows",
        *ARTIFACT_MUTATIONS,
        *SCENARIO_MUTATIONS,
    ],
)
def test_cli_rejects_bad_input_with_one_line(case, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    fixture = "three-points"
    if case in ARTIFACT_MUTATIONS or case in SCENARIO_MUTATIONS:
        fixture = {**ARTIFACT_MUTATIONS, **SCENARIO_MUTATIONS}[case][0]
    elif case.startswith("expect-"):
        fixture = "conic-center"
    elif case.startswith("profile-"):
        fixture = "two-dicriticals"
    data = scenario_to_json(load_fixture(fixture))
    argv = ["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]
    if case in ARTIFACT_MUTATIONS:
        _, keys, value = ARTIFACT_MUTATIONS[case]
        path.write_text(input_json(data))
        if case.startswith("certificate-"):
            stored = tmp_path / "certificate.json"
            artifact = solve_scenario(load_fixture(fixture)).to_json()
            argv += ["--certificate", str(stored)]
        else:
            assert main(argv) == 0
            stored = tmp_path / "out" / f"{fixture}.verify.json"
            artifact = json.loads(stored.read_text())
            argv[0] = "report"
        set_at(artifact, keys, value)
        stored.write_text(input_json(artifact))
    elif case in SCENARIO_MUTATIONS:
        path.write_text(input_json(mutated(case)))
    elif case == "malformed-json":
        path.write_text(input_json(data)[:-10])
    elif case == "not-an-object":
        path.write_text("[]")
    elif case == "missing-descriptor":
        del data["descriptor"]
        path.write_text(input_json(data))
    elif case == "wrongly-typed-descriptor":
        data["descriptor"] = 5
        path.write_text(input_json(data))
    elif case == "one-variable-blowup-center":
        data["tower"]["steps"][0]["blowup"]["center"] = ["x"]
        path.write_text(input_json(data))
    elif case == "chart-divisor-out-of-range":
        data["charts"] = {"12": {"charts": ["q"], "blowups": 40}}
        path.write_text(input_json(data))
    elif case == "line-divisor-out-of-range":
        data["lines"]["9"] = data["lines"]["3"]
        path.write_text(input_json(data))
    elif case == "chart-blowups-not-int":
        data["charts"] = {"3": {"charts": None, "blowups": 1.5}}
        path.write_text(input_json(data))
    elif case == "expect-orders-short":
        data["expect"]["orders"] = [0]
        path.write_text(input_json(data))
    elif case == "expect-status-kind":
        data["expect"]["statuses"]["2"]["kind"] = "dominant"
        path.write_text(input_json(data))
    elif case == "expect-constant-with-degree":
        data["expect"]["statuses"]["2"]["degree"] = 3
        path.write_text(input_json(data))
    elif case.startswith("profile-"):
        parts = data["request"]["parts"]
        if case == "profile-part-key":
            parts["2"] = parts.pop("1")
        elif case == "profile-part-out-of-range":
            parts["7"] = {**parts.pop("1"), "s": 7}
        else:
            del data["bindings"]["parts"]["1"]
        path.write_text(input_json(data))
    elif case.startswith("matrix-only-"):
        del data["request"]
        if case == "matrix-only-without-rows":
            del data["bindings"]["rows"]
        else:
            stored = tmp_path / "certificate.json"
            stored.write_text(input_json(solve_scenario(load_fixture(fixture)).to_json()))
            argv += ["--certificate", str(stored)]
        path.write_text(input_json(data))
    elif case in ("empty-certificate", "non-json-certificate"):
        path.write_text(input_json(data))
        certificate = tmp_path / "certificate.json"
        certificate.write_text("{}" if case == "empty-certificate" else "not json")
        argv += ["--certificate", str(certificate)]
    elif case == "scenario-is-a-directory":
        path.mkdir()
    elif case == "certificate-is-a-directory":
        path.write_text(input_json(data))
        argv += ["--certificate", str(tmp_path)]
    elif case == "deeply-nested-scenario":
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif case.endswith("-out-is-a-file"):
        path.write_text(input_json(data))
        argv[0] = case.split("-")[0]
        (tmp_path / "out").write_text("")
    elif case == "artifact-is-a-directory":
        path.write_text(input_json(data))
        (tmp_path / "out" / "three-points.verify.json").mkdir(parents=True)
    elif case == "scenario-path-too-long":
        argv = ["matrix", "--scenario", "a" * 5000, "--out", str(tmp_path / "out")]
    elif case == "certificate-path-too-long":
        argv = ["verify", "--scenario", "three-points", "--out", str(tmp_path / "out"), "--certificate", "c" * 5000]
    elif case == "report-out-too-long":
        argv = ["report", "--scenario", "three-points", "--out", "o" * 5000]
    elif case == "unknown-option":
        path.write_text(input_json(data))
        argv += ["--retries", "4"]
    elif case == "solve-seed":
        argv = ["solve", "--scenario", "three-points", "--out", str(tmp_path / "out"), "--seed", "3"]
    elif case == "missing-scenario":
        argv = ["verify", "--out", str(tmp_path / "out")]
    else:
        data["lines"]["3"]["assign"] = {"x": "zero", "y": "const", "w": "param"}
        path.write_text(input_json(data))
    code, prefix = (1, "error:") if case in BUILDER_FAULTS else (2, "input error:")
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    assert err[0].endswith(UNREACHED_CHECKS.get(case, "")), err
    assert not any(tmp_path.parent.glob("evil*"))  # nothing written above --out


def _raise_part_degrees(request):
    for part in request["parts"].values():
        part["degree"] = 2


# Request edits, case -> (scenario, edit): the scenario's certificate is
# stored, then verified against the scenario with its request edited.
STALE_CERTIFICATES = {
    "support-targets": (support_middle, lambda request: request.update(targets=[3], offsets={"1": 1})),
    "support-offset": (support_middle, lambda request: request["offsets"].update({"1": 2})),
    "profile-degrees": (lambda: load_fixture("two-dicriticals"), _raise_part_degrees),
}


@pytest.mark.parametrize("case", STALE_CERTIFICATES)
def test_cli_rejects_a_certificate_for_another_request(case, tmp_path, capsys):
    scenario, edit = STALE_CERTIFICATES[case]
    sc = scenario()
    stored = tmp_path / "certificate.json"
    stored.write_text(input_json(solve_scenario(sc).to_json()))
    data = scenario_to_json(sc)
    edit(data["request"])
    path = tmp_path / "scenario.json"
    path.write_text(input_json(data))
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out"), "--certificate", str(stored)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err


def _drop_last(vector):
    return vector[:-1]


def _append_zero(vector):
    return [*vector, 0]


# Certificate edits, case -> (scenario, key path, edit): the edit is applied
# to the vector at the key path of the scenario's certificate, which then has
# a length other than the one the descriptor gives.
MISSIZED_CERTIFICATES = {
    "support-middle-orders": (support_middle, ("orders",), _drop_last),
    "three-points-orders": (three_points, ("orders",), _drop_last),
    "three-points-line-orders": (three_points_line, ("orders",), _drop_last),
    "support-middle-long-exponents": (support_middle, ("exponents",), _append_zero),
    "three-points-bundle-exponents": (three_points, ("bundle_exponents",), _drop_last),
    "three-points-line-base-orders": (three_points_line, ("base", "orders"), _drop_last),
    "three-points-line-aux-orders": (three_points_line, ("aux_orders",), _drop_last),
    "two-dicriticals-part-orders": (lambda: load_fixture("two-dicriticals"), ("parts", "3", "orders"), _drop_last),
}


@pytest.mark.parametrize("case", MISSIZED_CERTIFICATES)
def test_cli_rejects_a_certificate_vector_of_another_length(case, tmp_path, capsys):
    scenario, keys, edit = MISSIZED_CERTIFICATES[case]
    sc = scenario()
    certificate = solve_scenario(sc).to_json()
    owner = certificate
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = edit(owner[keys[-1]])
    stored = tmp_path / "certificate.json"
    stored.write_text(input_json(certificate))
    path = tmp_path / "scenario.json"
    path.write_text(input_json(scenario_to_json(sc)))
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out"), "--certificate", str(stored)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and keys[-1] in err[0], err


# The last-dicritical certificate of each solved fixture whose s has
# parents: the key path of its special owners.
SPECIAL_OWNERS = {
    "three-points": ("special_owners",),
    "three-points-line": ("base", "special_owners"),
    "two-dicriticals": ("parts", "3", "base", "special_owners"),
}
OWNER_EDITS = {
    "owner-0": lambda owners: [0, *owners[1:]],
    "owner-minus-1": lambda owners: [-1, *owners[1:]],
    "owner-7": lambda owners: [*owners[:-1], 7],
    "owner-100": lambda owners: [*owners[:-1], 100],
    "owners-1-1": lambda owners: [1, 1],
    "extra-owner-0": lambda owners: [0, *owners],
    "no-exponent": None,  # the last owner's special exponent is deleted
}


@pytest.mark.parametrize("edit", OWNER_EDITS)
@pytest.mark.parametrize("name", SPECIAL_OWNERS)
def test_cli_rejects_a_certificate_whose_special_owners_are_not_the_parents(name, edit, tmp_path, capsys):
    """``candidates.build_last`` reads a special exponent for each special
    owner; a stored certificate whose owners are not the parents of its s,
    or that has no exponent for one, is an input error, not a KeyError."""
    sc = load_fixture(name)
    certificate = solve_scenario(sc).to_json()
    last = certificate
    for key in SPECIAL_OWNERS[name][:-1]:
        last = last[key]
    if OWNER_EDITS[edit] is None:
        del last["special_exponents"][str(last["special_owners"][-1])]
    else:
        last["special_owners"] = OWNER_EDITS[edit](last["special_owners"])
    stored = tmp_path / "certificate.json"
    stored.write_text(input_json(certificate))
    capsys.readouterr()
    assert main(["verify", "--scenario", name, "--out", str(tmp_path / "out"), "--certificate", str(stored)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "special" in err[0], err


def test_report_rejects_the_verify_artifact_of_another_scenario(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["verify", "--scenario", "two-dicriticals", "--out", out]) == 0
    (tmp_path / "three-points.verify.json").write_text((tmp_path / "two-dicriticals.verify.json").read_text())
    capsys.readouterr()
    assert main(["report", "--scenario", "three-points", "--out", out]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "two-dicriticals" in err[0], err
    assert not captured.out and not (tmp_path / "three-points.report.txt").exists()


def run_command(command, data, tmp_path, capsys):
    """Exit code and stderr lines of ``command`` on the scenario JSON ``data``."""
    path = tmp_path / "scenario.json"
    path.write_text(input_json(data))
    capsys.readouterr()
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["matrix", "solve", "verify"])
def test_every_command_checks_the_tower(command, tmp_path, capsys):
    data = scenario_to_json(load_fixture("three-points"))
    # still a valid descriptor, but the tower's third center lies in E_1 too
    data["descriptor"]["centers"][2]["D"] = [2]
    code, err = run_command(command, data, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("input error:") and "blow-up 3" in err[0], err


@pytest.mark.parametrize("command", ["matrix", "solve", "verify"])
@pytest.mark.parametrize("case", TAIL_MUTATIONS)
def test_every_command_checks_the_tail(case, command, tmp_path, capsys):
    code, err = run_command(command, mutated(case), tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("input error:"), err


# Requests matrix accepts, case -> (key path, value, special rows): the value
# is written at the key path into the JSON form of "three-points".
MATRIX_REQUESTS = {
    "contact-order-of-one-parent": (("request", "contact_orders"), {"1": 2}, [[2, 4, 8], [3, 5, 9]]),
    "divisor-without-parents": (("request",), {"kind": "last", "s": 1, "degree": 1}, []),
}


@pytest.mark.parametrize("case", MATRIX_REQUESTS)
def test_matrix_writes_special_rows_only_for_a_divisor_with_parents(case, tmp_path, capsys):
    keys, value, rows = MATRIX_REQUESTS[case]
    data = scenario_to_json(load_fixture("three-points"))
    set_at(data, keys, value)
    assert run_command("matrix", data, tmp_path, capsys) == (0, [])
    artifact = json.loads((tmp_path / "out" / "three-points.matrix.json").read_text())
    assert artifact["special_rows"] == rows


def test_matrix_reads_the_tail_of_a_single_request_wherever_it_is_carried(tmp_path, capsys):
    """The special rows of a ``single`` request take the tail on the request
    as ``solve`` does, and the same rows as from the tail on the descriptor."""
    carried = four_divisor_tower()
    bare = make_descriptor(
        3, [[], [1], [1, 2], [2, 3]], curvette_mults=carried.curvette_mults, special_mults={1: (2, 2), 2: (3, 2)}
    )
    placements = {
        "on-descriptor": Scenario(name="four-divisors", descriptor=carried, request=SingleRequest(s=3, degree=1)),
        "on-request": Scenario(
            name="four-divisors", descriptor=bare, request=SingleRequest(s=3, degree=1, tail=carried.tail)
        ),
    }
    certificates = []
    for where, sc in placements.items():
        (tmp_path / where).mkdir()
        assert run_command("matrix", scenario_to_json(sc), tmp_path / where, capsys) == (0, [])
        artifact = json.loads((tmp_path / where / "out" / "four-divisors.matrix.json").read_text())
        assert artifact["special_rows"] == [[2, 4, 7, 13], [3, 5, 9, 14]], where
        certificates.append(solve_scenario(sc).to_json())
    assert certificates[0] == certificates[1]


MAP_NAMES = ("special_exponents", "contact_orders", "target_orders")


def four_divisor_single() -> Scenario:
    return Scenario(
        name="four-divisors",
        descriptor=four_divisor_tower(),
        request=SingleRequest(s=3, degree=1, contact_orders={1: 1}),
    )


@pytest.mark.parametrize("scenario", [four_divisor_single, three_points, three_points_line])
def test_writing_out_a_default_never_changes_a_certificate(scenario):
    """The certificate is the same whether an order of 1 is given or left out."""
    sc = scenario()
    req = sc.request
    maps = request_maps(sc.descriptor, req.s, req.degree, *(getattr(req, name) for name in MAP_NAMES))
    written = dataclasses.replace(req, **dict(zip(MAP_NAMES, maps)))
    expected = solve_scenario(dataclasses.replace(sc, request=written)).to_json()
    assert solve_scenario(sc).to_json() == expected
    for name, full in zip(MAP_NAMES, maps):
        for j in [j for j, v in full.items() if v == 1]:
            sparse = dataclasses.replace(written, **{name: {k: v for k, v in full.items() if k != j}})
            assert solve_scenario(dataclasses.replace(sc, request=sparse)).to_json() == expected, (name, j)


SCENARIOS = {name: scenario_to_json(load_fixture(name)) for name in sorted(FIXTURES)}


def leaves(data, path=()):
    """Key paths of the leaves of a JSON value: its scalars and empty containers."""
    if isinstance(data, (dict, list)) and data:
        keys = data if isinstance(data, dict) else range(len(data))
        return [leaf for key in keys for leaf in leaves(data[key], (*path, key))]
    return [path]


SMALL_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-7, 7),
    st.floats(-7, 7),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


@st.composite
def leaf_mutations(draw):
    """A fixture's scenario JSON with one leaf deleted or replaced by a small JSON value."""
    data = copy.deepcopy(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))])
    set_at(data, draw(st.sampled_from(leaves(data))), draw(st.one_of(st.just(DELETE), SMALL_JSON)))
    return data


@settings(max_examples=250, deadline=None)
@given(leaf_mutations())
def test_every_command_keeps_the_exit_code_contract(data):
    """Exit 0, 1 or 2 and no traceback; exit 2 prints one ``input error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(input_json(data))
        for command in ("matrix", "solve", "verify"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path), "--out", str(Path(tmp) / "out")])
            assert code in (0, 1, 2), (command, code)
            lines = err.getvalue().splitlines()
            assert code != 2 or (len(lines) == 1 and lines[0].startswith("input error:")), (command, lines)


def test_single_request_target_orders_must_be_positive():
    # s = 3 has the one parent 2, so divisor 1 takes a target order
    descriptor = make_descriptor(3, [[], [1], [2]], special_mults={2: (1, 1)})
    last = Scenario(name="path", descriptor=descriptor, request=LastRequest(s=3, degree=1, target_orders={1: -1}))
    assert scenario_from_json(scenario_to_json(last)) == last
    single = Scenario(name="path", descriptor=descriptor, request=SingleRequest(s=3, degree=1, target_orders={1: -1}))
    with pytest.raises(ScenarioError, match="must be positive"):
        scenario_from_json(scenario_to_json(single))


def test_reading_a_scenario_never_writes_a_polynomial_back(monkeypatch):
    """The reader checks each term list in one pass; a write-back comparison
    (``to_json`` and compare) must not come back."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    scenarios += workloads.chain_scenarios(1) + workloads.shear_chain_scenarios(1)
    texts = [json.dumps(scenario_to_json(sc)) for sc in scenarios]

    def refuse(self):
        raise AssertionError("the scenario reader wrote a polynomial back")

    monkeypatch.setattr(Polynomial, "to_json", refuse)
    read = [scenario_from_json(json.loads(text)) for text in texts]
    assert read == scenarios


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the pole term of a single construction can cancel the leading form of g * twist at a tie below s",
)
def test_a_single_construction_keeps_its_orders_where_the_pole_term_ties():
    """E_2 of ``pole_tie_single`` walks to order 0 and dicritical, where the
    solver predicts order 1 and a constant; E_5 is dicritical of degree 3."""
    assert run_verify(pole_tie_single()).overall

import hashlib
import json
from pathlib import Path

import pytest
from helpers import support_middle

from dicriticals.cli import build_parser, main
from dicriticals.errors import ScenarioError
from dicriticals.fixtures import FIXTURES, load_fixture, three_points_line_explicit
from dicriticals.jsonio import canonical_dumps
from dicriticals.scenario import scenario_from_json, scenario_to_json
from dicriticals.verify import run_verify, solve_scenario

DATA = Path(__file__).parent / "data"


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
    assert main(["verify", "--scenario", "three-points", "--out", out]) == 1


def test_cli_input_errors(tmp_path):
    assert main(["matrix", "--scenario", "no-such-fixture", "--out", str(tmp_path)]) == 2
    assert main(["report", "--scenario", "three-points", "--out", str(tmp_path)]) == 2
    assert main(["solve", "--scenario", "point-point-line", "--out", str(tmp_path)]) == 2


def test_cli_builds_one_parser_per_process():
    assert build_parser() is build_parser()


def test_cli_scenario_file_and_list(tmp_path, capsys):
    sc = load_fixture("three-points")
    path = tmp_path / "scenario.json"
    path.write_text(canonical_dumps(scenario_to_json(sc)))
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

# Scenario mutations, case -> (key path, value): the value is written at the
# key path into the JSON form of "three-points".
SCENARIO_MUTATIONS = {
    "name-climbs-out": (("name",), "../../evil"),
    "name-empty": (("name",), ""),
    "name-not-string": (("name",), 5),
    "unknown-scenario-key": (("notes",), "ignored"),
    "unknown-request-key": (("request", "contact_order"), {"1": 3, "2": 3}),
    "duplicate-special-owner": (
        ("descriptor", "special"),
        [{"owner": 1, "mu_row": [2, 2]}, {"owner": 2, "mu_row": [3, 2]}, {"owner": 1, "mu_row": [9, 9]}],
    ),
    "descriptor-schema-version": (("descriptor", "schema_version"), 99),
    "descriptor-schema-version-float": (("descriptor", "schema_version"), 1.5),
    "descriptor-parents-unsorted": (("descriptor", "centers", 2, "D"), [2, 1]),
    "descriptor-parents-repeated": (("descriptor", "centers", 2, "D"), [1, 1, 2]),
    "center-without-multiplicity-row": (("descriptor", "centers", 0), {"dim": 0, "D": []}),
    "center-without-parents": (("descriptor", "centers", 0), {"dim": 0, "T_row": [1]}),
    "unknown-tower-key": (("tower", "extra"), 1),
    "unknown-blowup-key": (("tower", "steps", 0, "blowup", "extra"), 1),
    "step-with-both-tags": (("tower", "steps", 0, "shear"), {}),
    "blowup-center-string": (("tower", "steps", 0, "blowup", "center"), "xyz"),
    "tower-vars-string": (("tower", "vars"), "xyz"),
    "unknown-bindings-key": (("bindings", "primry"), "C3p"),
    "binding-not-string": (("bindings", "primary"), 5),
    "binding-missing-equation": (("bindings", "primary"), "NOPE"),
    "unknown-line-key": (("lines", "3", "extra"), 1),
    "line-assign-pairs": (("lines", "3", "assign"), [["x", "zero"], ["y", "const"], ["z", "param"]]),
    "unknown-expect-key": (("expect", "extra"), 1),
    "chart-key-not-canonical": (("charts",), {"01": {"charts": None, "blowups": 3}}),
    "repeated-term": (("equations", "C1", "terms"), [C1_TERMS[0], *C1_TERMS]),
    "zero-term": (("equations", "C1", "terms"), [*C1_TERMS, {"exps": [0, 0, 2], "num": 0, "den": 1}]),
    "unknown-term-key": (("equations", "C1", "terms", 0, "extra"), 1),
    "unreduced-term": (("equations", "C1", "terms", 0), {"exps": [0, 0, 1], "num": 2, "den": 2}),
}


def set_at(data, keys, value):
    for key in keys[:-1]:
        data = data[key]
    data[keys[-1]] = value


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
        *ARTIFACT_MUTATIONS,
        *SCENARIO_MUTATIONS,
    ],
)
def test_cli_rejects_bad_input_with_one_line(case, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    fixture = "three-points"
    if case.startswith("expect-"):
        fixture = "conic-center"
    elif case.startswith("profile-"):
        fixture = "two-dicriticals"
    elif case in ARTIFACT_MUTATIONS:
        fixture = ARTIFACT_MUTATIONS[case][0]
    data = scenario_to_json(load_fixture(fixture))
    argv = ["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]
    if case == "malformed-json":
        path.write_text(canonical_dumps(data)[:-10])
    elif case == "not-an-object":
        path.write_text("[]")
    elif case == "missing-descriptor":
        del data["descriptor"]
        path.write_text(canonical_dumps(data))
    elif case == "wrongly-typed-descriptor":
        data["descriptor"] = 5
        path.write_text(canonical_dumps(data))
    elif case == "one-variable-blowup-center":
        data["tower"]["steps"][0]["blowup"]["center"] = ["x"]
        path.write_text(canonical_dumps(data))
    elif case == "chart-divisor-out-of-range":
        data["charts"] = {"12": {"charts": ["q"], "blowups": 40}}
        path.write_text(canonical_dumps(data))
    elif case == "line-divisor-out-of-range":
        data["lines"]["9"] = data["lines"]["3"]
        path.write_text(canonical_dumps(data))
    elif case == "chart-blowups-not-int":
        data["charts"] = {"3": {"charts": None, "blowups": 1.5}}
        path.write_text(canonical_dumps(data))
    elif case == "expect-orders-short":
        data["expect"]["orders"] = [0]
        path.write_text(canonical_dumps(data))
    elif case == "expect-status-kind":
        data["expect"]["statuses"]["2"]["kind"] = "dominant"
        path.write_text(canonical_dumps(data))
    elif case == "expect-constant-with-degree":
        data["expect"]["statuses"]["2"]["degree"] = 3
        path.write_text(canonical_dumps(data))
    elif case.startswith("profile-"):
        parts = data["request"]["parts"]
        if case == "profile-part-key":
            parts["2"] = parts.pop("1")
        elif case == "profile-part-out-of-range":
            parts["7"] = {**parts.pop("1"), "s": 7}
        else:
            del data["bindings"]["parts"]["1"]
        path.write_text(canonical_dumps(data))
    elif case in ARTIFACT_MUTATIONS:
        _, keys, value = ARTIFACT_MUTATIONS[case]
        path.write_text(canonical_dumps(data))
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
        stored.write_text(canonical_dumps(artifact))
    elif case in SCENARIO_MUTATIONS:
        set_at(data, *SCENARIO_MUTATIONS[case])
        path.write_text(canonical_dumps(data))
    elif case in ("empty-certificate", "non-json-certificate"):
        path.write_text(canonical_dumps(data))
        certificate = tmp_path / "certificate.json"
        certificate.write_text("{}" if case == "empty-certificate" else "not json")
        argv += ["--certificate", str(certificate)]
    elif case == "unknown-option":
        path.write_text(canonical_dumps(data))
        argv += ["--retries", "4"]
    elif case == "solve-seed":
        argv = ["solve", "--scenario", "three-points", "--out", str(tmp_path / "out"), "--seed", "3"]
    elif case == "missing-scenario":
        argv = ["verify", "--out", str(tmp_path / "out")]
    else:
        data["lines"]["3"]["assign"] = {"x": "zero", "y": "const", "w": "param"}
        path.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err
    assert not any(tmp_path.parent.glob("evil*"))  # nothing written above --out

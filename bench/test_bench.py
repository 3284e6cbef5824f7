"""Self-tests of the benchmark: generators, checks, failure accounting, tracing."""

import json
from pathlib import Path

import pytest

from dicriticals import cli
from dicriticals.descriptor import leading_principal_minors, valuation_matrix
from dicriticals.fixtures import three_points_line_explicit
from dicriticals.scenario import scenario_from_json, scenario_to_json, validate_scenario
from dicriticals.verify import run_verify, solve_scenario
from harness import Harness
from spans import Tracer
from workloads import DEFAULT_SEED, GENERATORS, WORKLOADS, Item, build_items

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH.parent / "tests" / "data" / "three-points.verify.json"
REFERENCES = json.loads((BENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 2, 3])
@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generated_scenarios_are_valid_and_pass(workload, seed):
    for sc in GENERATORS[workload](seed):
        data = scenario_to_json(sc)
        again = scenario_from_json(json.loads(json.dumps(data)))
        assert scenario_to_json(again) == data, sc.name
        validate_scenario(again)
        assert set(leading_principal_minors(valuation_matrix(again.descriptor))) == {1}, sc.name
        if again.tower is None:
            solve_scenario(again)
        else:
            assert run_verify(again).overall, sc.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_reference_digests(workload, tmp_path):
    harness = Harness(build_items(workload, DEFAULT_SEED), tmp_path, REFERENCES[workload], GOLDEN.read_text())
    done = harness.run_pass()
    assert [c for c in done.calls if c.failure] == []
    assert harness.digests == REFERENCES[workload]
    assert done.processed == len(harness.items)


def test_golden_mismatch_is_a_failed_call(tmp_path):
    golden = GOLDEN.read_text().replace('"PASS"', '"FAIL"')
    harness = Harness(build_items("fixtures", DEFAULT_SEED), tmp_path, golden=golden)
    failures = [c for c in harness.run_pass().calls if c.failure]
    assert [(c.scenario, c.command, c.failure) for c in failures] == [
        ("three-points", "verify", "golden bytes mismatch")
    ]


def test_known_fail_scenario_counts_as_one_failed_call(tmp_path):
    sc = three_points_line_explicit(20)
    item = Item(sc.name, ("matrix", "verify"), data=scenario_to_json(sc))
    done = Harness([item], tmp_path).run_pass()
    assert len(done.calls) == 2
    assert [(c.command, c.failure) for c in done.calls if c.failure] == [("verify", f"exit code {cli.VIOLATION}")]
    assert done.processed == 0


def test_repeat_pass_drift_is_a_failed_call(tmp_path):
    harness = Harness(build_items("fixtures", DEFAULT_SEED)[2:3], tmp_path)
    harness.run_pass()
    artifact = harness.out / "three-points.solve.json"
    artifact.write_text(artifact.read_text().replace("2", "3", 1))
    failures = [c.failure for c in harness.run_pass().calls if c.failure]
    assert failures and failures[0] == "drift"


def test_traced_fixture_pass_reproduces_baseline_counts(tmp_path):
    harness = Harness(build_items("fixtures", DEFAULT_SEED), tmp_path)
    tracer = Tracer()
    original = cli.main
    tracer.install()
    try:
        done = harness.run_pass()
    finally:
        tracer.uninstall()
    assert cli.main is original
    layer = tracer.layer_metrics(tracer.summary())
    assert (layer["charts.walks"], layer["verify.rows"]) == (47, 30)
    assert layer["charts.degree.calls"] > 0 and layer["charts.degree.draws"] > 0
    assert 0 < layer["charts.shear_s"] < done.seconds("verify")
    unaccounted = 1 - (tracer.covered_seconds() - layer["cli.self_s"]) / done.wall
    assert layer["cli.self_s"] / done.wall <= unaccounted < 0.05

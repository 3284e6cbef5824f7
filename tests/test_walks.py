"""The walk engine: one walk per chart override, a stage kept after every
blow-up, each order and restriction read off a stage, the divisor
equations of each chart path pushed once per tower object, and the leaves
of a function walked, never the function multiplied out."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from functools import reduce
from operator import add, mul

import pytest
from helpers import bench_workloads, pole_tie_single, support_middle, three_points_line_last
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dicriticals import charts, poly, ratfunc, scenario, verify
from dicriticals.candidates import build_last
from dicriticals.cli import main
from dicriticals.charts import StageLeaves, ShearStep, divisor_order, read_divisor, walk_tower
from dicriticals.descriptor import make_descriptor
from dicriticals.errors import ChartError, ScenarioError
from dicriticals.fixtures import FIXTURES, load_fixture, three_points, three_points_line
from dicriticals.jsonio import canonical_dumps
from dicriticals.poly import Polynomial
from dicriticals.ratfunc import LeafQuotient, Quotient, RationalFunction, as_leaf_quotient, over_common_leaves
from dicriticals.scenario import (
    DivisorChart,
    ExplicitRequest,
    restricted_divisors,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from dicriticals.solver import certificate_from_json
from dicriticals.verify import VerifyReport, run_verify, solve_scenario

# sha256 of each fixture's canonical verify artifact, taken before the walk
# engine was merged; the walk engine must not change a byte.
VERIFY_SHA256 = {
    "conic-center": "461c3a3e08718e0fd4739f1ccd620cebee7bd9a910d22646ff519018474130fd",
    "point-line-fiber": "e1aa650f0896e74b70f832cdc0183a1a6e9f07b6344eb25a8f7990ee5f5e29bb",
    "point-point-line": "f58aef7e58cc0f92d4c997abb4d2b8c4551a72c2e05fca59689450f3043edc2e",
    "three-points": "5796e8b1d0d02f70abd9f6132ae2d3b395b1d0845cc297bca1452c935a80b836",
    "three-points-line": "3e8ef5222a582932bd1e057a028e1a2417508624501a8ee1e0d8834a0c3f69c5",
    "two-dicriticals": "e0d1a04e5d82d1575ed85dc1c5f26d4eb77d2c5047d7bfb7e54bd57439ac366f",
}

# sha256 of each fixture's matrix artifact, taken before ``cli.cmd_matrix``
# took its contact orders from ``solver.request_maps``; that must not change
# a byte.
MATRIX_SHA256 = {
    "conic-center": "c12743d8782beb4865d4831c96f90cb7dd4a206e5b7a33cce54a0b493870301b",
    "point-line-fiber": "f9c2bde459137ecfbd6bd3652dae6112f9465543514b4044a3f152e30642166f",
    "point-point-line": "fec9f638a6dd550c1fd43202d5523a3fb707d726492c19a64e4b90652ba4644e",
    "three-points": "78f8705fcb9d2c51e073dd18686900331e545aae29d5bb6e02ff57a9930e769f",
    "three-points-line": "60be0177e40abf3757b58e0334ddb94acc20418cd097c68322f07b30c03f95bb",
    "two-dicriticals": "19b9b9f3eebe28901720b960b14033ddb8524cc354a6f0c87c9cb37ba01460a1",
}

# sha256 of the verify artifacts of the request shapes no fixture has: a
# support request, and a last request whose scope stops below the top divisor.
REQUEST_VERIFY_SHA256 = {
    "support-middle": "b7dd73fb6d2597f1b1e14ca6c21d7f4f4607032c42aa07ae2e2e94d9e6aaa5fd",
    "three-points-line-last": "e40c36a96fd8c8a27a0ea1231581ed5549de4d1fbc12495a2b3403633d602b1d",
}

# sha256 of one canonical certificate of each kind, taken before the
# certificates were moved onto the field-driven codec; that move must not
# change a byte.
CERTIFICATE_SHA256 = {
    "support-middle": "d5d44968dabbc49c1629120027eb149ada9680862f16420f31d22603321f60c7",
    "three-points": "d26d1bf83688224ce8cd5cc839ffddbdf1add9244d6ab603cd53c8b4d2acd56c",
    "three-points-line": "894eb4b650e087e91ca6e460350098041e59ba840688bca4c5bcc94f21583fe7",
    "two-dicriticals": "9cd819d96ec785891cf876e3ee6a76eacd48715d1e4eb7e52871411393b2931c",
}


def counting_walks(monkeypatch):
    """Count calls of ``charts.walk_tower``, the one walk loop, keyed by (polys, charts, blowups)."""
    calls = Counter()
    original = charts.walk_tower

    def counted(tower, polys, charts=None, blowups=None):
        calls[(tuple(polys), None if charts is None else tuple(charts), blowups)] += 1
        return original(tower, polys, charts=charts, blowups=blowups)

    monkeypatch.setattr(charts, "walk_tower", counted)
    return calls


def test_fixture_table_is_pinned():
    assert sorted(VERIFY_SHA256) == sorted(MATRIX_SHA256) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(MATRIX_SHA256))
def test_matrix_artifact_bytes_are_pinned(name, tmp_path, capsys):
    assert main(["matrix", "--scenario", name, "--out", str(tmp_path)]) == 0
    payload = (tmp_path / f"{name}.matrix.json").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == MATRIX_SHA256[name]


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_walks_once_per_chart_path_with_unchanged_bytes(name, monkeypatch):
    calls = counting_walks(monkeypatch)
    sc = load_fixture(name)
    payload = canonical_dumps(run_verify(sc).to_json())
    assert hashlib.sha256(payload.encode()).hexdigest() == VERIFY_SHA256[name]
    assert set(calls.values()) == {1}
    paths = {sc.chart_path(i) for i in range(1, sc.descriptor.m + 1)}
    assert sum(calls.values()) <= len(paths)  # the row equations of a matrix-only scenario walk together


@pytest.mark.parametrize("build", [support_middle, three_points_line_last])
def test_request_verify_bytes_are_pinned(build):
    sc = build()
    report = run_verify(sc)
    assert report.overall and len(report.rows) == 3
    payload = canonical_dumps(report.to_json())
    assert hashlib.sha256(payload.encode()).hexdigest() == REQUEST_VERIFY_SHA256[sc.name]


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned_and_read_back(name):
    sc = support_middle() if name == "support-middle" else load_fixture(name)
    cert = solve_scenario(sc)
    payload = canonical_dumps(cert.to_json())
    assert hashlib.sha256(payload.encode()).hexdigest() == CERTIFICATE_SHA256[name]
    assert certificate_from_json(json.loads(payload)) == cert


def test_path_stopping_before_its_divisor_keeps_the_order_row(monkeypatch):
    sc = load_fixture("point-point-line")
    cut = dataclasses.replace(sc, charts={3: DivisorChart(charts=None, blowups=2)})
    expected = run_verify(sc).to_json()
    calls = counting_walks(monkeypatch)
    assert run_verify(cut).to_json() == expected
    # one walk of all curvette rows, to the creating step of divisor 3
    assert [key[1:] for key in calls.elements()] == [(None, 3)]
    ((leaves, _, _),) = calls
    assert sorted(leaves, key=Polynomial.render) == sorted(
        {sc.equations[name] for name in sc.bindings.rows.values()}, key=Polynomial.render
    )


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_full_walk_orders_match_divisor_order(name):
    sc = load_fixture(name)
    for poly in sc.equations.values():
        h = RationalFunction(poly)
        state = walk_tower(sc.tower, [h.num, h.den])
        for i in range(1, sc.descriptor.m + 1):
            assert order_at((h,), state, i) == divisor_order(h, sc.tower, i), (name, i)


def test_full_walk_orders_match_divisor_order_across_charts():
    sc = three_points()
    h = build_last(solve_scenario(sc), sc.equations, sc.bindings)
    q = h.quotient()
    for path in (("z", "y", "x"), ("z", "y", "y"), ("z", "y", "z"), ("z", "y"), ("z", "x")):
        state = walk_tower(sc.tower, [q.num, q.den], charts=path)
        for i in (1, 2, 3):
            assert order_at((q,), state, i) == divisor_order(h, sc.tower, i, charts=path)
        assert_stages_match_stopped_walks(sc.tower, (h,), charts=path)


def solved_parts(sc):
    """The parts of the function verify checks on a scenario with a request."""
    if isinstance(sc.request, ExplicitRequest):
        return (verify.explicit_form(sc),)
    report = VerifyReport(scenario=sc.name, seed=sc.seed, rows=[])
    return verify._prescription(sc, sc.request, solve_scenario(sc), report)[0]


def pairwise(polys):
    """The parts ``polys[0] / polys[1]``, ``polys[2] / polys[3]``, ... over
    the leaves ``polys``."""
    ring = tuple(map(str, range(len(polys))))
    gens = [Polynomial.variable(ring, name) for name in ring]
    return tuple(LeafQuotient(gens[k], gens[k + 1], tuple(polys), polys[0].variables) for k in range(0, len(polys), 2))


def leaf_parts(parts):
    """``parts`` as leaf forms over one tuple of leaves: a tuple of
    ``RationalFunction`` or ``Quotient`` parts is read pairwise."""
    if all(isinstance(part, LeafQuotient) for part in parts):
        return tuple(parts)
    return pairwise([poly for part in parts for poly in (part.num, part.den)])


def flat(parts):
    """The polynomials verify walks for ``parts``: their leaves."""
    return list(leaf_parts(parts)[0].leaves)


def multiplied_out(parts):
    """The product of the parts, multiplied out into one quotient."""
    quotients = [part.quotient() for part in leaf_parts(parts)]
    return Quotient(reduce(mul, (q.num for q in quotients)), reduce(mul, (q.den for q in quotients)))


def order_at(parts, state, divisor):
    """The order of the product of ``parts`` read off a walk of their leaves."""
    return read_divisor(leaf_parts(parts), StageLeaves(state.stages[divisor], divisor))[0]


def assert_stages_match_stopped_walks(tower, parts, charts=None):
    """Stage k of one full walk of ``parts`` is the walk stopped after k blow-ups."""
    polys = flat(parts)
    full = walk_tower(tower, polys, charts=charts)
    assert len(full.stages) == tower.blowup_count + 1
    for k in range(tower.blowup_count + 1):
        stopped = walk_tower(tower, polys, charts=charts, blowups=k)
        assert full.stages[k] == (stopped.polys, stopped.divisor_eqs), k
        assert stopped.blowups_done == k and stopped.stages == full.stages[: k + 1], k
        assert [order_at(parts, stopped, i) for i in range(1, k + 1)] == [
            order_at(parts, full, i) for i in range(1, k + 1)
        ], k


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_stage_of_a_walk_is_the_walk_stopped_there(name):
    sc = load_fixture(name)
    functions = [(RationalFunction(poly),) for poly in sc.equations.values()]
    if sc.request is not None:
        functions.append(solved_parts(sc))
    for parts in functions:
        assert_stages_match_stopped_walks(sc.tower, parts)


def test_every_stage_matches_on_a_shear_chain(monkeypatch):
    workloads = bench_workloads(monkeypatch)
    sc = workloads.chain_scenario("shear-chain-6", 6, (6,), random.Random(6), shear=True)
    assert sum(isinstance(step, ShearStep) for step in sc.tower.steps) == 5
    for parts in [*((RationalFunction(poly),) for poly in sc.equations.values()), solved_parts(sc)]:
        assert_stages_match_stopped_walks(sc.tower, parts)


def test_verify_walks_a_chain_once_and_reading_it_walks_nothing(monkeypatch):
    """A chain reads divisor i's restriction after i blow-ups: all of them
    are stages of the one walk, and the reader finds every default path in
    the tower check's walk."""
    workloads = bench_workloads(monkeypatch)
    sc = workloads.chain_scenario("chain-5", 5, (5,), random.Random(5), shear=False)
    assert {sc.chart_path(i) for i in range(1, 6)} == {(None, i) for i in range(1, 6)}
    calls = counting_walks(monkeypatch)
    assert scenario_from_json(json.loads(json.dumps(scenario_to_json(sc)))) == sc
    assert not calls
    assert run_verify(sc).overall
    assert [key[1:] for key in calls.elements()] == [(None, 5)]


def test_reading_an_override_no_divisor_reads_there_walks_nothing(monkeypatch):
    """Divisor 4 of the last request at 3 is not read: its override's charts
    are checked against the blow-up centers, and nothing is walked."""
    sc = three_points_line_last()
    sc = dataclasses.replace(sc, charts={**sc.charts, 4: DivisorChart(charts=("z", "y", "x", "y"))})
    calls = counting_walks(monkeypatch)
    assert scenario_from_json(json.loads(json.dumps(scenario_to_json(sc)))) == sc
    assert not calls


def test_an_unread_override_outside_its_center_is_an_input_error(tmp_path, capsys):
    data = scenario_to_json(three_points_line_last())
    data["charts"]["4"] = {"charts": ["z", "y", "x", "q"], "blowups": None}
    path = tmp_path / "scenario.json"
    path.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "divisor 4" in err[0], err


def test_walk_stopped_early_has_no_order_for_later_divisors():
    sc = three_points()
    h = RationalFunction(sc.equations["H1"])
    state = walk_tower(sc.tower, [h.num, h.den], blowups=1)
    assert len(state.stages) == 2
    assert order_at((h,), state, 1) == 2
    with pytest.raises(ChartError, match="divisor 2 is not visible"):
        StageLeaves(state.stages[-1], 2)


@pytest.mark.parametrize("blowups", [-1, 4])
def test_walk_rejects_a_blowup_count_outside_the_tower(blowups):
    sc = three_points()
    h = RationalFunction(sc.equations["H1"])
    with pytest.raises(ChartError, match="outside 0..3"):
        walk_tower(sc.tower, [h.num, h.den], blowups=blowups)


def multiplied_out_at(parts, leaves):
    """The product of the leaf forms ``parts`` multiplied out over the walked
    leaves of a stage: the product of the parts walked to that stage."""
    images = dict(zip(parts[0].num.variables, leaves.polys))
    sides = [(part.num.substitute(images, leaves.variables), part.den.substitute(images, leaves.variables)) for part in parts]
    return reduce(mul, (num for num, _ in sides)), reduce(mul, (den for _, den in sides))


def _restriction_by_division(parts, leaves):
    """The restriction as it was read before the one-pass slice and before
    the leaves were walked: multiply the parts out, divide by the common
    power of the chart variable, then set it to zero."""
    num, den = multiplied_out_at(parts, leaves)
    divisor, chart_var = leaves.divisor, leaves.chart_var
    if num.is_zero():
        return charts.Restriction(divisor, num, num.one(num.variables), chart_var)
    common = min(num.order_in(chart_var), den.order_in(chart_var))
    clear = tuple(common if v == chart_var else 0 for v in num.variables)
    num0 = num.divide_by_monomial(clear).set_to_zero(chart_var)
    den0 = den.divide_by_monomial(clear).set_to_zero(chart_var)
    if den0.is_zero():
        return charts.Restriction(divisor, num0, den0, chart_var)
    reduced = RationalFunction(num0, den0)
    return charts.Restriction(divisor, reduced.num, reduced.den, chart_var)


def test_every_restriction_verify_reads_equals_the_division_formula(monkeypatch):
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    scenarios += workloads.chain_scenarios(1) + workloads.shear_chain_scenarios(1)
    reads = []
    original = verify.read_divisor

    def recorded(parts, leaves):
        read = original(parts, leaves)
        reads.append((parts, leaves, read[1]))
        return read

    monkeypatch.setattr(verify, "read_divisor", recorded)
    readers = set()
    for sc in scenarios:
        before = len(reads)
        assert run_verify(sc).overall, sc.name
        checked = set(restricted_divisors(sc))  # the rows that check a status read a restriction
        reads[before:] = [read for read in reads[before:] if read[1].divisor in checked]
        if len(reads) > before:
            readers.add(sc.name)
    # The two matrix-only fixtures check orders only and read no status row.
    assert readers == {sc.name for sc in scenarios} - {"point-point-line", "point-line-fiber"}
    for parts, leaves, restriction in reads:
        assert restriction == _restriction_by_division(parts, leaves)


def test_a_verify_call_checks_the_tower_once(tmp_path, monkeypatch, capsys):
    """Reading the scenario file checks the tower; ``verify`` finds the
    scenario flagged as validated instead of checking again."""
    calls = []
    original = scenario.check_tower

    def counted(d, tower):
        calls.append(tower)
        return original(d, tower)

    monkeypatch.setattr(scenario, "check_tower", counted)
    path = tmp_path / "scenario.json"
    path.write_text(canonical_dumps(scenario_to_json(load_fixture("three-points-line"))))
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    calls.clear()
    certificate = str(tmp_path / "three-points-line.solve.json")
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path), "--certificate", certificate]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["verify", "--scenario", "three-points-line", "--out", str(tmp_path / "fixture")]) == 0
    assert len(calls) == 1


def test_a_tower_that_disagrees_with_its_descriptor_is_an_input_error(tmp_path, capsys):
    """The tower check's ``ChartError`` is scenario input, through the
    library as through a scenario file (exit 2)."""
    wrong = dataclasses.replace(three_points(), descriptor=make_descriptor(3, [[], [1], [2]]))
    with pytest.raises(ScenarioError, match="chart tower: blow-up 3: .*descriptor says"):
        run_verify(wrong)
    path = tmp_path / "scenario.json"
    path.write_text(canonical_dumps(scenario_to_json(wrong)))
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "descriptor says" in err[0], err


def test_verify_still_validates_a_scenario_built_in_python():
    sc = three_points()
    wrong_parents = dataclasses.replace(sc.request, contact_orders={1: 1, 3: 2})
    with pytest.raises(ScenarioError, match="parents of s"):
        run_verify(dataclasses.replace(sc, request=wrong_parents))
    with pytest.raises(ScenarioError, match="descriptor says"):
        run_verify(dataclasses.replace(sc, descriptor=make_descriptor(3, [[], [1], [2]])))
    assert run_verify(sc).overall


def counting_pushes(monkeypatch):
    """The (tower, chart path) of each push of divisor equations through a tower."""
    pushed = []
    original = charts._push_divisor_eqs

    def counted(tower, path):
        pushed.append((tower, path))
        return original(tower, path)

    monkeypatch.setattr(charts, "_push_divisor_eqs", counted)
    return pushed


def test_reading_and_verifying_push_each_chart_path_of_a_tower_once(monkeypatch):
    """The divisor equations depend on the tower and the chart path alone:
    reading and verifying a scenario push them once per (tower object,
    chart path), all while reading, and verifying pushes none."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    scenarios += workloads.chain_scenarios(1)[:6] + workloads.shear_chain_scenarios(1)[:6]
    pushed = counting_pushes(monkeypatch)
    for sc in scenarios:
        before = len(pushed)
        sc = scenario_from_json(json.loads(json.dumps(scenario_to_json(sc))))
        read = len(pushed)
        assert read > before, sc.name
        assert run_verify(sc).overall, sc.name
        assert len(pushed) == read, sc.name
    for sc in scenarios:  # built in Python: verify checks the scenario first
        assert run_verify(sc).overall, sc.name
    assert set(Counter((id(tower), path) for tower, path in pushed).values()) == {1}


def _verify_walks(sc, monkeypatch):
    """The walks ``run_verify`` makes on ``sc``, with the arguments it made them with."""
    made = []
    original = verify.path_walks

    def recorded(tower, polys, reads):
        walks = original(tower, polys, reads)
        made.append((tower, polys, reads, walks))
        return walks

    monkeypatch.setattr(verify, "path_walks", recorded)
    assert run_verify(sc).overall, sc.name
    monkeypatch.setattr(verify, "path_walks", original)
    return made


def test_walks_on_a_tower_with_cached_equations_equal_walks_on_a_fresh_copy(monkeypatch):
    """On every chart path verify reads, the stages of h's walk on the
    tower's cached divisor equations are those of a walk on a fresh copy of
    the tower, which pushes its own: the polynomials and the divisor
    equations, stage by stage."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    for seed in (1, 2):
        scenarios += workloads.chain_scenarios(seed) + workloads.shear_chain_scenarios(seed)
    for sc in scenarios:
        for tower, polys, reads, walks in _verify_walks(sc, monkeypatch):
            assert tower is sc.tower
            for path, walk in walks.items():
                fresh = walk_tower(dataclasses.replace(tower), polys, path, walk.blowups_done)
                assert len(walk.stages) == len(fresh.stages), (sc.name, path)
                for k, (stage, want) in enumerate(zip(walk.stages, fresh.stages)):
                    assert stage == want, (sc.name, path, k)


def test_a_replaced_tower_never_sees_another_towers_cache(monkeypatch):
    """Equal towers keep their own divisor equations, and a tower cut short
    pushes the first steps of its own."""
    tower = three_points_line().tower
    pushed = counting_pushes(monkeypatch)
    eqs = tower.divisor_eqs()
    again = dataclasses.replace(tower)
    cut = dataclasses.replace(tower, steps=tower.steps[:-1])
    assert again == tower and again.divisor_eqs() == eqs and again.divisor_eqs() is not eqs
    assert cut.divisor_eqs() == eqs[:-1]
    assert tower.divisor_eqs() is eqs
    assert [id(pushed_on) for pushed_on, _ in pushed] == [id(tower), id(again), id(cut)]


# sha256 of the canonical [numerator, denominator] of each solved fixture's
# reduced h, taken while the builders still reduced it; reducing the
# quotient verify walks must give the same function, scaled the same way.
REDUCED_H_SHA256 = {
    "three-points": "4989edc38a08f1ad29a7bc2f5e8bee29fa831f0e46c9dd6b850f61b9dfe16f98",
    "three-points-line": "b21a7a4248091ed203344563f79f892acb0a5834f27b988dad484fac1c011c19",
    "two-dicriticals": "a726bd192a1fbc6c53cca32a550d69b51ed2ce90b18579a03ef898d943119b5b",
}


def _solved(sc) -> bool:
    return sc.request is not None and not isinstance(sc.request, ExplicitRequest)


def test_reducing_the_walked_quotient_gives_the_reduced_h():
    assert sorted(REDUCED_H_SHA256) == sorted(name for name in FIXTURES if _solved(load_fixture(name)))
    for name, digest in REDUCED_H_SHA256.items():
        sc = load_fixture(name)
        report = VerifyReport(scenario=sc.name, seed=sc.seed, rows=[])
        parts = verify._prescription(sc, sc.request, solve_scenario(sc), report)[0]  # the parts run_verify walks
        assert all(isinstance(part, LeafQuotient) for part in parts)
        assert len(parts) == (2 if name == "two-dicriticals" else 1)
        reduced = RationalFunction(*multiplied_out(parts))
        payload = canonical_dumps([reduced.num.to_json(), reduced.den.to_json()])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, name


def with_leaf(parts, poly):
    """``parts`` over their leaves and one more, ``poly``, named ``F*``."""
    ring = ("F*",)
    extra = LeafQuotient(Polynomial.variable(ring, "F*"), Polynomial.one(ring), (poly,), parts[0].variables)
    return over_common_leaves((*parts, extra))[:-1]


def test_a_common_factor_of_h_changes_no_verify_row(monkeypatch):
    """Orders and restrictions are properties of the function, not of how
    N/D is written: multiplying h's numerator and denominator by one of the
    scenario's own equations, which vanishes along divisors, leaves every
    row as it was: order, status, value, degree and restriction string.  On
    a profile the factor goes on the numerator of one part and the
    denominator of another."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [sc for sc in map(load_fixture, FIXTURES) if _solved(sc)]
    scenarios += [support_middle(), three_points_line_last()]
    for seed in (1, 2):
        scenarios += workloads.chain_scenarios(seed) + workloads.shear_chain_scenarios(seed)
    plain = [run_verify(sc) for sc in scenarios]
    original = verify._prescription

    def with_common_factor(sc, req, cert, report):
        parts, predicted, dicritical = original(sc, req, cert, report)
        factor = sc.equations[min(sc.equations)]
        assert not factor.is_constant()
        parts = list(with_leaf(parts, factor))  # F on the first numerator and the last denominator
        f = Polynomial.variable(parts[0].num.variables, "F*")
        parts[0] = dataclasses.replace(parts[0], num=parts[0].num * f)
        parts[-1] = dataclasses.replace(parts[-1], den=parts[-1].den * f)
        return tuple(parts), predicted, dicritical

    monkeypatch.setattr(verify, "_prescription", with_common_factor)
    for sc, report in zip(scenarios, plain):
        assert report.overall, sc.name
        assert run_verify(sc).rows == report.rows, sc.name


def _count_reductions(monkeypatch):
    """Record the pairs ``RationalFunction`` is built from, the calls of
    ``polynomial_gcd`` from every module that looks it up, and the
    polynomials verify walks."""
    built, gcds, walked = [], [], []
    construct, gcd, walks = RationalFunction.__init__, poly.polynomial_gcd, verify.path_walks

    def counted_construct(self, num, den=None):
        built.append((num, den))
        construct(self, num, den)

    def counted_gcd(p, q):
        gcds.append((p, q))
        return gcd(p, q)

    def recorded_walks(tower, polys, reads):
        walked.append(tuple(polys))
        return walks(tower, polys, reads)

    monkeypatch.setattr(RationalFunction, "__init__", counted_construct)
    for module in (poly, ratfunc, charts):
        monkeypatch.setattr(module, "polynomial_gcd", counted_gcd)
    monkeypatch.setattr(verify, "path_walks", recorded_walks)
    return built, gcds, walked


# two-dicriticals: 2 bases, the 2 restrictions with two nonconstant sides
# and 2 degree checks (7 while every finite nonzero restriction was reduced,
# 13 while h was reduced); the chain: none, since its one finite nonzero
# restriction has a constant numerator (1 and 3).
@pytest.mark.parametrize("name, singles, gcd_calls", [("two-dicriticals", 2, 6), ("chain-f1-m10-t1", 0, 0)])
def test_verify_builds_no_rational_function_from_the_full_candidate(name, singles, gcd_calls, monkeypatch):
    """The walked h is its leaves, and nothing multiplied out of them is
    reduced.  A ``RationalFunction`` is reduced only for the base of each
    ``single`` construction and for each finite restriction read whose two
    sides are nonconstant (a pair with a constant side is coprime already,
    and a zero one is (0, 1) by its orders); the gcds are those and the
    degree checks."""
    if name in FIXTURES:
        sc = load_fixture(name)
    else:
        sc = next(sc for sc in bench_workloads(monkeypatch).chain_scenarios(1) if sc.name == name)
    validate_scenario(sc)
    parts = solved_parts(sc)
    multiplied = [part.quotient() for part in parts]
    restrictions = []
    read = verify.read_divisor
    checked = set(restricted_divisors(sc))  # the rows that check a status read a restriction

    def recorded(parts, leaves):
        order, restriction = read(parts, leaves)
        if leaves.divisor in checked:
            restrictions.append(restriction)
        return order, restriction

    monkeypatch.setattr(verify, "read_divisor", recorded)
    built, gcds, walked = _count_reductions(monkeypatch)
    report = run_verify(sc)
    assert report.overall
    assert walked == [parts[0].leaves]
    nums, dens = [q.num for q in multiplied], [q.den for q in multiplied]
    assert not any(pair[0] in nums or pair[1] in dens for pair in built)
    reduced = [r for r in restrictions if not (r.is_infinite() or r.num.is_constant() or r.den.is_constant())]
    assert len(built) == singles + len(reduced)
    assert len(gcds) == gcd_calls


def _outcome(read, *args):
    """What a stage read gives: its value, or the error it raises."""
    try:
        return read(*args)
    except ChartError as exc:
        return ChartError, str(exc)


def _factor_pool(sc):
    """Factors for the parts: the scenario's six smallest equations, which
    vanish along divisors, and coordinates and their sums and differences
    with 1 and with each other, some of which do not."""
    coords = [Polynomial.variable(sc.tower.variables, v) for v in sc.tower.variables]
    pool = sorted(sc.equations.values(), key=lambda p: len(p._terms))[:6] + coords
    pool += [v + 1 for v in coords] + [v - 2 * w for v in coords for w in coords if v != w]
    return pool


def _division_oracle(num, den, divisor, chart_var):
    """The restriction of ``num / den`` by the division formula: divide by
    the common power of the chart variable, set it to zero, and reduce."""
    if num.is_zero():
        return charts.Restriction(divisor, num, num.one(num.variables), chart_var)
    if den.is_zero():
        return ChartError
    common = min(num.order_in(chart_var), den.order_in(chart_var))
    clear = tuple(common if v == chart_var else 0 for v in num.variables)
    num0 = num.divide_by_monomial(clear).set_to_zero(chart_var)
    den0 = den.divide_by_monomial(clear).set_to_zero(chart_var)
    if den0.is_zero():
        return charts.Restriction(divisor, num0, den0, chart_var)
    reduced = RationalFunction(num0, den0)
    return charts.Restriction(divisor, reduced.num, reduced.den, chart_var)


def _order_oracle(num, den, chart_var):
    """The order of ``num / den`` from the two polynomials themselves: None
    where the numerator is 0."""
    if num.is_zero():
        return None
    if den.is_zero():
        return ChartError
    return num.order_in(chart_var) - den.order_in(chart_var)


def _kind(outcome):
    """An outcome with the message of an error left out."""
    return ChartError if isinstance(outcome, tuple) and outcome[0] is ChartError else outcome


def assert_parts_read_like_their_product(sc, parts) -> list[int]:
    """The order and restriction read off a walk of the leaves of ``parts``
    equal those read off a walk of their product multiplied out, at every
    divisor's creating stage and at the stage verify reads its restriction:
    by the pairwise reader, and by the order and division formulas of the
    multiplied-out polynomials.  Where the product has a zero denominator
    both raise the same ``ChartError``.  The order is the same at both
    stages.  Returns the divisors where the total order is 0 but a part's
    order is not."""
    parts = leaf_parts(parts)
    product = multiplied_out(parts)
    reads = {i: sc.chart_path(i) for i in range(1, sc.descriptor.m + 1)}
    reach = {i: (path, max(i, blowups)) for i, (path, blowups) in reads.items()}
    by_leaves = charts.path_walks(sc.tower, flat(parts), reach)
    whole = charts.path_walks(sc.tower, list(product), reach)
    pair = (as_leaf_quotient(product),)

    def order_of(parts, leaves):
        read = _kind(_outcome(read_divisor, parts, leaves))
        return read if read is ChartError else read[0]

    cancelled = []
    for i, (path, blowups) in reads.items():
        orders = set()
        for k in {i, blowups}:
            leaves = StageLeaves(by_leaves[path].stages[k], i)
            read = _outcome(read_divisor, parts, leaves)
            assert read == _outcome(read_divisor, pair, StageLeaves(whole[path].stages[k], i)), (sc.name, i, k)
            order, restriction = (ChartError, ChartError) if _kind(read) is ChartError else read
            (num, den), _ = whole[path].stages[k]
            assert order == _order_oracle(num, den, leaves.chart_var), (sc.name, i, k)
            assert restriction == _division_oracle(num, den, i, leaves.chart_var), (sc.name, i, k)
            orders.add(order)
        assert len(orders) == 1, (sc.name, i)
        leaves = StageLeaves(by_leaves[path].stages[i], i)
        if order == 0 and any(order_of((part,), leaves) != 0 for part in parts):
            cancelled.append(i)
    return cancelled


@st.composite
def leaf_forms(draw, sc):
    """1 or 2 parts over 2 or 3 leaves from ``_factor_pool`` plus up to two
    twins, leaves of another name that stand for the same polynomial.  A side
    is a product of leaves or a sum of 2 or 3 such terms; it may carry a
    forced pair a·T·L + b·T·L' for a leaf L and its twin L': the two terms
    tie, and with b = -a they cancel exactly, as F·G - G·F does, leaving the
    rest of the side, or 0."""
    pool = _factor_pool(sc)
    base = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
    twins = draw(st.lists(st.integers(0, len(base) - 1), max_size=2))
    leaves = (*base, *(base[j] for j in twins))
    ring = tuple(f"L{k}" for k in range(len(leaves)))
    gens = [Polynomial.variable(ring, name) for name in ring]
    coeffs = st.sampled_from([1, -1, 2, -3])

    def monomial():
        exps = draw(st.lists(st.integers(0, 1), min_size=len(base), max_size=len(base)))
        return reduce(mul, (g for g, e in zip(gens, exps) if e), Polynomial.one(ring))

    def side():
        out = reduce(add, (draw(coeffs) * monomial() for _ in range(draw(st.sampled_from([1, 2, 3])))))
        if twins and draw(st.booleans()):
            k = draw(st.integers(0, len(twins) - 1))
            rest, a = monomial(), draw(coeffs)
            b = draw(st.sampled_from([-a, a, 2]))
            pair = a * rest * gens[twins[k]] + b * rest * gens[len(base) + k]
            out = pair if draw(st.booleans()) else out + pair
        return out

    return [LeafQuotient(side(), side(), leaves, sc.tower.variables) for _ in range(draw(st.integers(1, 2)))]


def test_parts_read_like_their_product(monkeypatch):
    """Generated leaf forms, and generated quotients of 2 or 3 parts read
    pairwise, on the fixture towers and the seed-1 chain and shear-chain
    towers read like their product multiplied out.  A factor of one
    quotient's numerator may recur in the next one's denominator.  On every
    tower, the pairwise parts (F·(y + 1), z + 1) and (x + 1, F·(x + y + 1))
    with F the product of the coordinates have the nonzero orders ±ord F
    along E_1, which cancel in the total."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    scenarios += workloads.chain_scenarios(1) + workloads.shear_chain_scenarios(1)
    for sc in scenarios:
        x, y, z = (Polynomial.variable(sc.tower.variables, v) for v in sc.tower.variables[:3])
        f = reduce(mul, (Polynomial.variable(sc.tower.variables, v) for v in sc.tower.variables))
        parts = (Quotient(f * (y + 1), z + 1), Quotient(x + 1, f * (x + y + 1)))
        assert 1 in assert_parts_read_like_their_product(sc, parts), sc.name

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        sc = data.draw(st.sampled_from(scenarios))
        assert_parts_read_like_their_product(sc, data.draw(leaf_forms(sc)))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check_quotients(data):
        sc = data.draw(st.sampled_from(scenarios))
        factors = st.sampled_from(_factor_pool(sc))
        sides = st.lists(factors, min_size=1, max_size=2).map(lambda fs: reduce(mul, fs))
        parts = [Quotient(data.draw(sides), data.draw(sides)) for _ in range(data.draw(st.integers(2, 3)))]
        for k in range(1, len(parts)):
            if data.draw(st.booleans()):  # the previous numerator's factor, now below
                shared = data.draw(factors)
                parts[k - 1] = Quotient(parts[k - 1].num * shared, parts[k - 1].den)
                parts[k] = Quotient(parts[k].num, parts[k].den * shared)
        assert_parts_read_like_their_product(sc, parts)

    check()
    check_quotients()


def test_a_profile_is_walked_part_by_part(monkeypatch):
    """A guard without timing: one verify of two-dicriticals makes 200
    monomial products in ``poly._mul_terms`` (202 while each power began with
    a product by 1, 254 while each row's order and restriction were two reads, 352 while each twisted part was multiplied
    out before the walk, 2,190 while the parts were multiplied into one),
    and no walked polynomial has more terms than its largest
    leaf, 36 (the larger twisted part had 46, the product 223)."""
    sc = load_fixture("two-dicriticals")
    validate_scenario(sc)
    products = []
    original = poly._mul_terms

    def counted(a, b, terms=None):
        products.append(len(a) * len(b))
        return original(a, b, terms)

    monkeypatch.setattr(poly, "_mul_terms", counted)
    walks = _verify_walks(sc, monkeypatch)
    assert sum(products) == 200
    ((_, polys, _, states),) = walks
    assert max(len(p._terms) for p in polys) == 36
    walked = [p for state in states.values() for stage_polys, _ in state.stages for p in stage_polys]
    assert max(len(p._terms) for p in walked) == 36


# The most terms of a polynomial walked in each fixture's verify, its leaves
# at every stage; while h was walked multiplied out, three-points-line
# reached 532 (its sheared numerator) and two-dicriticals 46.
MAX_WALKED_TERMS = {
    "conic-center": 4,
    "point-line-fiber": 3,
    "point-point-line": 3,
    "three-points": 3,
    "three-points-line": 264,
    "two-dicriticals": 36,
}


@pytest.mark.parametrize("name", sorted(MAX_WALKED_TERMS))
def test_the_largest_walked_polynomial_of_each_fixture_is_pinned(name, monkeypatch):
    """A guard without timing on the size of what verify walks."""
    ((_, _, _, states),) = _verify_walks(load_fixture(name), monkeypatch)
    walked = [p for state in states.values() for stage_polys, _ in state.stages for p in stage_polys]
    assert max(len(p._terms) for p in walked) == MAX_WALKED_TERMS[name]


def multiplied_out_walks(monkeypatch):
    """Make ``run_verify`` walk each part of h multiplied out, the oracle of
    the leaf reads: the pairwise form of the parts' quotients."""
    original = verify._prescription

    def multiplied(sc, req, cert, report):
        parts, predicted, dicritical = original(sc, req, cert, report)
        return pairwise([poly for part in parts for poly in part.quotient()]), predicted, dicritical

    monkeypatch.setattr(verify, "_prescription", multiplied)


def verify_bytes(sc) -> str:
    return canonical_dumps(run_verify(sc).to_json())


def test_the_pole_tie_multiplies_its_denominator_out_and_reads_like_the_multiplied_out_walk(monkeypatch):
    """At E_2 of ``pole_tie_single`` the two terms of g·twist + pole^k tie
    and their lowest slices cancel exactly: there, and only there, the
    denominator is multiplied out over the walked leaves.  The report is the
    one the multiplied-out walk gives, byte for byte (E_2 stays wrong in
    both, see the strict xfail in ``test_scenarios``)."""
    sc = pole_tie_single()
    fallbacks = []
    original = charts._multiplied_out

    def counted(side, leaves):
        fallbacks.append(leaves.divisor)
        return original(side, leaves)

    monkeypatch.setattr(charts, "_multiplied_out", counted)
    leaf_bytes = verify_bytes(sc)
    assert fallbacks == [2]  # one read of E_2's row, at stage 2
    multiplied_out_walks(monkeypatch)
    assert verify_bytes(sc) == leaf_bytes


def raised(sc, degree):
    """``sc`` with the degree of its request, or of every part of a profile, raised to ``degree``."""
    req = sc.request
    if hasattr(req, "parts"):
        req = dataclasses.replace(req, parts={j: dataclasses.replace(p, degree=degree) for j, p in req.parts.items()})
    else:
        req = dataclasses.replace(req, degree=degree)
    return dataclasses.replace(sc, request=req)


RAISED_DEGREES = [
    ("three-points", 2),
    ("three-points-line", 2),
    ("three-points-line", 4),
    ("two-dicriticals", 2),
    ("two-dicriticals", 4),
]


@pytest.mark.parametrize("name, degree", RAISED_DEGREES)
def test_raised_degrees_read_like_the_multiplied_out_walk(name, degree, monkeypatch):
    """With the requested degree raised, every fixture request verifies, at
    that degree, and its report through the leaf reads is the one through
    the multiplied-out walk, byte for byte."""
    sc = raised(load_fixture(name), degree)
    report = run_verify(sc)
    assert report.overall and {row.degree for row in report.rows} - {None} == {degree}
    leaf_bytes = canonical_dumps(report.to_json())
    multiplied_out_walks(monkeypatch)
    assert verify_bytes(sc) == leaf_bytes


def test_a_status_row_has_one_order_at_its_creating_stage_and_where_verify_reads_it(monkeypatch):
    """ord along E_i is a divisorial valuation, the same in every chart where
    E_i is a coordinate, so verify reads a row that checks a status once, at
    its chart path's blow-up count, and takes the order from that read.  On
    every such row of the fixtures, the raised-degree requests and the
    seed-1 chain and shear-chain scenarios, ``read_divisor`` gives the same
    order at E_i's creating stage."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES]
    scenarios += [raised(load_fixture(name), degree) for name, degree in RAISED_DEGREES]
    scenarios += workloads.chain_scenarios(1) + workloads.shear_chain_scenarios(1)
    rows = later = 0
    for sc in scenarios:
        validate_scenario(sc)
        checked = restricted_divisors(sc)
        if not checked:
            continue
        parts = solved_parts(sc)
        for i in checked:
            path, blowups = sc.chart_path(i)
            stages = walk_tower(sc.tower, parts[0].leaves, path, blowups).stages
            created, read = (read_divisor(parts, StageLeaves(stages[k], i))[0] for k in (i, blowups))
            assert created is not None and created == read, (sc.name, i)
            rows += 1
            later += blowups > i
    assert later > 0 and rows > later, (rows, later)


def test_verify_reads_each_row_once_off_one_stage_per_divisor(monkeypatch):
    """One ``read_divisor`` call per report row, and one ``StageLeaves`` per
    divisor in scope, shared by every item that reads it."""
    workloads = bench_workloads(monkeypatch)
    scenarios = [load_fixture(name) for name in FIXTURES] + workloads.chain_scenarios(1)
    reads, built = [], []
    read, stage_leaves = verify.read_divisor, verify.StageLeaves

    def counted_read(parts, leaves):
        reads.append(leaves.divisor)
        return read(parts, leaves)

    def counted_leaves(stage, divisor):
        built.append(divisor)
        return stage_leaves(stage, divisor)

    monkeypatch.setattr(verify, "read_divisor", counted_read)
    monkeypatch.setattr(verify, "StageLeaves", counted_leaves)
    for sc in scenarios:
        reads.clear()
        built.clear()
        report = run_verify(sc)
        assert reads == [row.divisor for row in report.rows], sc.name
        assert sorted(built) == sorted({row.divisor for row in report.rows}), sc.name


@pytest.mark.parametrize(
    "zeros, message",
    [
        (("Cp",), "cannot take the order of the zero function"),
        (("Cpp", "Cl"), "a denominator of h multiplies out to 0 at divisor 1"),
    ],
)
def test_verify_of_a_vanishing_side_is_one_error_line(zeros, message, tmp_path, capsys):
    """conic-center with the equations ``zeros`` set to 0: h is 0, or its
    denominator is, and verify exits 1 with one error line."""
    sc = load_fixture("conic-center")
    zero = Polynomial.zero(sc.tower.variables)
    equations = {**sc.equations, **dict.fromkeys(zeros, zero)}
    path = tmp_path / "scenario.json"
    path.write_text(canonical_dumps(scenario_to_json(dataclasses.replace(sc, equations=equations))))
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

import random
from fractions import Fraction

import pytest

from dicriticals.candidates import Bindings, build_profile, build_single, build_support, build_last, mobius
from dicriticals.descriptor import make_descriptor, valuation_matrix
from dicriticals.errors import ScenarioError, SolverError
from dicriticals.fixtures import load_fixture, RING
from dicriticals.poly import Polynomial
from dicriticals.ratfunc import RationalFunction
from dicriticals.scenario import scenario_from_json, scenario_to_json
from dicriticals.solver import solve_support
from dicriticals.verify import render_report, run_verify, solve_scenario


def xyz():
    return (
        Polynomial.variable(RING, "x"),
        Polynomial.variable(RING, "y"),
        Polynomial.variable(RING, "z"),
    )


def test_build_last_matches_expected_product():
    sc = load_fixture("three-points")
    cert = solve_scenario(sc)
    h = build_last(cert, sc.equations, sc.bindings)
    x, y, z = xyz()
    f = (x + z**2) * (x + y + z) ** 2 * (x + y) ** 4
    g = (x - z**2) * (x**2 + z**2 * y) * (x**2 * z + y**3)
    assert RationalFunction(*h.quotient()) == RationalFunction(f, g)


def test_build_single_matches_expected_product():
    sc = load_fixture("three-points-line")
    cert = solve_scenario(sc)
    h = build_single(cert, sc.equations, sc.bindings)
    x, y, z = xyz()
    f = (x + z**2) * (x + y + z) ** 2 * (x + y) ** 4
    g = (x - z**2) * (x**2 + z**2 * y) * (x**2 * z + y**3)
    twist = (x * z + y**2) ** 5
    expected = RationalFunction(f * twist, g * twist + (2 * x + z**2) ** 13)
    assert RationalFunction(*h.quotient()) == expected


def test_build_support_with_split_bundle():
    x, y, z = xyz()
    matrix = valuation_matrix(make_descriptor(3, [[]]))
    cert = solve_support(matrix, {1})
    assert cert.needs_split == (1,)
    bindings = Bindings(bundles={1: ("A", "B")})
    h = build_support(cert, {"A": x + y, "B": x - y}, bindings)
    assert RationalFunction(*h.quotient()) == RationalFunction(x + y, x - y)
    with pytest.raises(ScenarioError):
        build_support(cert, {"A": x + y}, Bindings(bundles={1: ("A",)}))


def test_build_support_negative_exponent():
    matrix = valuation_matrix(make_descriptor(3, [[], [1], [1]], dims=[0, 0, 1]))
    cert = solve_support(matrix, {2}, {1: 1, 3: 1})
    assert cert.exponents == (2, -1, 0)
    x, y, z = xyz()
    eqs = {"L1": x + y + z, "L2": x + 2 * y, "L3": y + 3 * z**2}
    h = build_support(cert, eqs, Bindings(bundles={1: ("L1",), 2: ("L2",), 3: ("L3",)}))
    assert RationalFunction(*h.quotient()) == RationalFunction((x + y + z) ** 2, x + 2 * y)


def test_missing_equation_is_reported():
    sc = load_fixture("three-points")
    cert = solve_scenario(sc)
    bad = Bindings(primary="C3p", secondary="missing", bundles=sc.bindings.bundles, specials=sc.bindings.specials)
    with pytest.raises(ScenarioError):
        build_last(cert, sc.equations, bad)


def test_pencil_of_hyperplanes():
    from dicriticals.charts import BlowupStep, ChartTower, LineClassSpec, dicritical_degree
    from dicriticals.solver import solve_last_dicritical

    x, y, z = xyz()
    cert = solve_last_dicritical(make_descriptor(3, [[]]), 1, 1)
    h = build_last(cert, {"P": x + y + z, "Q": x + 2 * y + 5 * z}, Bindings(primary="P", secondary="Q"))
    assert RationalFunction(*h.quotient()) == RationalFunction(x + y + z, x + 2 * y + 5 * z)
    tower = ChartTower(RING, (BlowupStep(("x", "y", "z"), "x"),))
    line = LineClassSpec({"x": "zero", "y": "const", "z": "param"})
    assert dicritical_degree(h, tower, 1, line) == 1


def test_mobius_requires_distinct_constants():
    x, y, _ = xyz()
    h = RationalFunction(x, y)
    with pytest.raises(SolverError):
        mobius(h, Fraction(1), Fraction(1))
    g = mobius(h, Fraction(0), Fraction(1))
    assert RationalFunction(*g.quotient()) == RationalFunction(x, x - y)


def test_build_profile_is_seeded():
    sc = load_fixture("two-dicriticals")
    cert = solve_scenario(sc)
    h1, twists1 = build_profile(cert, sc.equations, sc.bindings, random.Random(5))
    h2, twists2 = build_profile(cert, sc.equations, sc.bindings, random.Random(5))
    h3, _ = build_profile(cert, sc.equations, sc.bindings, random.Random(6))
    assert h1 == h2 and twists1 == twists2
    assert [t.target for t in twists1] == [1, 3]
    assert all(t.a != t.b for t in twists1)
    assert not (h1 == h3)
    # one twisted single-target candidate per part, never their product,
    # over one tuple of leaves
    assert len({id(part.leaves) for part in h1}) == 1
    for part, twist in zip(h1, twists1):
        base = build_single(cert.parts[twist.target], sc.equations, sc.bindings.parts[twist.target])
        assert part.quotient() == mobius(base, twist.a, twist.b).quotient()


def test_an_equation_named_like_a_base_leaf_keeps_its_own_leaf():
    """``build_single`` names the base numerator's leaf f3 at s = 3; an
    equation of that name, bound as a later hypercurvette and a row, gets a
    leaf of its own, so the scenario verifies as before."""
    sc = load_fixture("three-points-line")
    data = scenario_to_json(sc)
    data["name"] = "three-points-line-f3"
    data["equations"]["f3"] = data["equations"].pop("C4")
    data["bindings"]["later"]["4"] = data["bindings"]["rows"]["4"] = "f3"
    renamed = scenario_from_json(data)
    report, want = run_verify(renamed), run_verify(sc)
    assert report.overall
    assert render_report(report) == render_report(want)
    assert {**report.to_json(), "scenario": sc.name} == want.to_json()

"""The exact generic degree against the seeded double draw it replaced.

The double draw is kept here as a test-only oracle: it substitutes random
constants for the template's ``const`` variables, computes the degree of the
resulting map of one variable, and accepts it when two draws agree.  A draw
can only err low (at special constants leading coefficients vanish and the
gcd grows), so the comparisons use the largest of three seeded oracle runs.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicriticals import charts, verify
from dicriticals.candidates import build_last, mobius
from dicriticals.charts import (
    CONST,
    PARAM,
    ZERO,
    BlowupStep,
    ChartTower,
    LineClassSpec,
    Restriction,
    draw_fraction,
    restrict,
    restriction_degree,
    status_of,
)
from dicriticals.errors import ChartError, GenericityError
from dicriticals.fixtures import FIXTURES, RING, conic_center, load_fixture
from dicriticals.poly import Polynomial, univariate_int_gcd
from dicriticals.ratfunc import RationalFunction
from dicriticals.verify import explicit_function, run_verify, solve_scenario


def _drawn_degree(restriction: Restriction, line: LineClassSpec, rng: random.Random) -> int | None:
    """Degree along one concrete draw of the template, or None when degenerate."""
    mapping = {}
    target = ("t",)
    for name in restriction.num.variables:
        role = line.assign.get(name, ZERO if name == restriction.chart_var else CONST)
        if role == PARAM:
            mapping[name] = Polynomial.variable(target, "t")
        elif role == ZERO:
            mapping[name] = 0
        else:
            mapping[name] = draw_fraction(rng)
    num_t = restriction.num.substitute(mapping, target)
    den_t = restriction.den.substitute(mapping, target)
    if den_t.is_zero():
        return None
    if num_t.is_zero():
        return 0
    coeffs_n, coeffs_d = (_integer_coefficients(p) for p in (num_t, den_t))
    gdeg = len(univariate_int_gcd(coeffs_n, coeffs_d)) - 1
    return max(len(coeffs_n) - 1 - gdeg, len(coeffs_d) - 1 - gdeg)


def _integer_coefficients(p: Polynomial) -> list[int]:
    """The coefficients of a nonzero p in t (index = degree), scaled to integers."""
    coeffs = [p.coefficient((k,)) for k in range(p.degree_in("t") + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def double_draw_degree(restriction: Restriction, line: LineClassSpec, rng: random.Random, retries=4) -> int:
    """The replaced check: two independent draws must agree, redrawn up to ``retries`` times."""
    for _ in range(retries):
        first = _drawn_degree(restriction, line, rng)
        second = _drawn_degree(restriction, line, rng)
        if first is not None and first == second:
            return first
    raise GenericityError("draws kept disagreeing")


def oracle_degree(restriction: Restriction, line: LineClassSpec) -> int:
    return max(double_draw_degree(restriction, line, random.Random(seed)) for seed in range(3))


def fixture_degree_checks():
    """Every (restriction, template) pair whose degree ``run_verify`` checks on the fixtures."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "restriction_degree", lambda *check: seen.append(check) or restriction_degree(*check))
        for name in sorted(FIXTURES):
            run_verify(load_fixture(name))
    return seen


def test_fixture_degrees_match_the_double_draw():
    checks = fixture_degree_checks()
    # three-points E_3, three-points-line E_3, conic-center E_1, two-dicriticals E_1 and E_3
    assert len(checks) == 5
    for restriction, line in checks:
        assert restriction_degree(restriction, line) == oracle_degree(restriction, line)


def _three_points_functions():
    sc = load_fixture("three-points")
    h = build_last(solve_scenario(sc), sc.equations, sc.bindings)
    twists = [(Fraction(3, 2), Fraction(-5, 7)), (Fraction(29, 3), Fraction(-1, 4))]
    for g in [h] + [mobius(h, a, b) for a, b in twists]:
        yield restrict(g, sc.tower, 3), sc.lines[3]


def _product_functions():
    x, y, z = (Polynomial.variable(RING, v) for v in RING)
    tower = ChartTower(RING, (BlowupStep(("x", "y", "z"), "x"),))
    line = LineClassSpec({"x": "zero", "y": "const", "z": "param"})
    h1 = RationalFunction(x + y + z, x + 2 * y + 3 * z)
    h2 = RationalFunction(x**2 + 2 * y**2 + 3 * z**2 + x * y, x**2 + 5 * y**2 + z**2 + y * z)
    h3 = RationalFunction(x + 5 * y + 2 * z, x + 7 * y + 4 * z)
    for h in (h1, h2, h3, h1 * h2, h1 * h3):
        yield restrict(h, tower, 1), line
    sc = conic_center(1, 4)
    fiber = LineClassSpec({"x": "param", "y": "const", "z": "zero"})
    ha = RationalFunction(x, y)
    hb = explicit_function(sc)
    for h in (ha, hb, ha * hb):
        yield restrict(h, sc.tower, 2), fiber


def test_twist_and_product_degrees_match_the_double_draw():
    pairs = list(_three_points_functions()) + list(_product_functions())
    assert len(pairs) == 11
    for restriction, line in pairs:
        assert restriction_degree(restriction, line) == oracle_degree(restriction, line)


# -- generated restrictions whose zero roles create a common factor in t ------

W = ("x", "y", "z", "w")  # x: zero (the chart variable), y: const, z: param, w: const by default
TEMPLATE = LineClassSpec({"x": "zero", "y": "const", "z": "param"})
_small = st.integers(-3, 3)


def _polys(variables, max_exp=2, max_size=4):
    exps = st.tuples(*[st.integers(0, max_exp) if v in variables else st.just(0) for v in W])
    return st.dictionaries(exps, _small, max_size=max_size).map(lambda t: Polynomial(W, t))


base_polys = _polys(("y", "z", "w"))
x_polys = _polys(W).map(lambda p: p * Polynomial.variable(W, "x"))


@settings(max_examples=60, deadline=None)
@given(_small, _small, base_polys, base_polys, base_polys, x_polys, x_polys)
def test_generated_degrees_match_the_double_draw(a, b, extra, p, q, r, s):
    y, z, w = (Polynomial.variable(W, v) for v in "yzw")
    common = (z - a * y - b * w + 1) * (extra if extra.degree_in("z") > 0 else 1)
    restriction = Restriction(1, common * p + r, common * q + s, "x")
    assume(not q.is_zero() and status_of(restriction).kind == "dicritical")
    assert restriction_degree(restriction, TEMPLATE) == oracle_degree(restriction, TEMPLATE)


def test_common_factor_from_zero_roles_is_cancelled():
    x, y, z, w = (Polynomial.variable(W, v) for v in W)
    factor = z - y
    restriction = Restriction(1, factor * z + x, factor * (z + w) + x * y, "x")
    assert restriction_degree(restriction, TEMPLATE) == 1


def test_template_outside_the_ring_is_rejected():
    x, y, z, w = (Polynomial.variable(W, v) for v in W)
    restriction = Restriction(1, z + y, z - w, "x")
    with pytest.raises(ChartError):
        restriction_degree(restriction, LineClassSpec({"x": "zero", "v": "param"}))


def test_verify_draws_nothing_for_its_degree_checks(monkeypatch):
    def no_draws(*_args, **_kwargs):
        raise AssertionError("the degree check drew a constant")

    monkeypatch.setattr(charts, "draw_fraction", no_draws)
    for name in sorted(FIXTURES):
        assert run_verify(load_fixture(name)).overall, name

"""Acceptance gate: every shipped guarantee, one pass/fail line per item.

All comparisons are bit-exact (integers and rationals only).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-item lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dicriticals.candidates import build_last, mobius
from dicriticals.charts import (
    BlowupStep,
    ChartTower,
    LineClassSpec,
    dicritical_degree,
    dicritical_status,
    restrict,
)
from dicriticals.descriptor import leading_principal_minors, special_matrix, valuation_matrix
from dicriticals.fixtures import FIXTURES, RING, conic_center, load_fixture
from dicriticals.poly import Polynomial
from dicriticals.ratfunc import RationalFunction
from dicriticals.solver import LinearForm, solve_last_dicritical, solve_support
from dicriticals.verify import explicit_function, run_verify, solve_scenario
from helpers import random_descriptor


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {name}: PASS")


def xyz():
    return (
        Polynomial.variable(RING, "x"),
        Polynomial.variable(RING, "y"),
        Polynomial.variable(RING, "z"),
    )


def test_01_fixture_valuation_matrices():
    with criterion("fixture-valuation-matrices"):
        start = time.monotonic()
        a = valuation_matrix(load_fixture("point-point-line").descriptor)
        assert a.rows == ((1, 1, 1), (1, 2, 1), (1, 2, 2))
        abar = valuation_matrix(load_fixture("point-line-fiber").descriptor)
        assert abar.rows == ((1, 1, 1), (1, 2, 2), (2, 3, 4))
        stacked = special_matrix(load_fixture("three-points").descriptor, 3, {1: 1, 2: 1})
        assert stacked.rows + stacked.special_rows == (
            (1, 1, 2),
            (1, 2, 3),
            (1, 2, 4),
            (2, 4, 7),
            (3, 5, 9),
        )
        assert time.monotonic() - start < 1.0


def test_02_random_unimodularity():
    with criterion("random-unimodularity"):
        start = time.monotonic()
        rng = random.Random(2024)
        for _ in range(100):
            d = random_descriptor(rng, max_m=8)
            minors = leading_principal_minors(valuation_matrix(d))
            assert set(minors) == {1}
        assert time.monotonic() - start < 5.0


def test_03_support_solve_roundtrip():
    with criterion("support-solve-roundtrip"):
        start = time.monotonic()
        rng = random.Random(4096)
        for _ in range(100):
            d = random_descriptor(rng, max_m=8)
            matrix = valuation_matrix(d)
            targets = set(rng.sample(range(1, d.m + 1), rng.randint(1, d.m)))
            offsets = {}
            for j in range(1, d.m + 1):
                if j not in targets:
                    value = rng.randint(-5, 5)
                    offsets[j] = value if value != 0 else 1
            cert = solve_support(matrix, targets, offsets)
            for i in range(1, d.m + 1):
                produced = sum(
                    cert.exponents[j - 1] * matrix.entry(j, i) for j in range(1, d.m + 1)
                )
                assert produced == cert.orders[i - 1]
                assert (cert.orders[i - 1] == 0) == (i in targets)
        assert time.monotonic() - start < 5.0


def test_04_controlled_last_divisor_relations():
    with criterion("controlled-last-divisor-relations"):
        d = load_fixture("three-points").descriptor
        unit = solve_last_dicritical(d, 3, 1, contact_orders={1: 1, 2: 1})
        assert unit.bundle_exponents == (2, 4)
        general = solve_last_dicritical(
            d, 3, 1, special_exponents={1: 2, 2: 3}, contact_orders={1: 1, 2: 1}
        )
        assert general.bundle_exponents == (4, 11)
        # substitute into the full stacked system, eliminated equation included
        stacked = special_matrix(d, 3, {1: 1, 2: 1})
        rows = list(stacked.rows) + list(stacked.special_rows)
        coefficients = [4, 11, 0, -2, -3]
        produced = [sum(c * row[t] for c, row in zip(coefficients, rows)) for t in range(3)]
        assert produced == [2 * 1, 3 * 1, 0]


def test_05_window_and_exponent_choice():
    with criterion("window-and-exponent-choice"):
        cert = solve_scenario(load_fixture("three-points-line"))
        assert cert.threshold_form == LinearForm.make(5, {4: Fraction(3, 2)})
        lower, upper = cert.window(4)
        assert upper == LinearForm.make(5, {4: Fraction(7, 4)})
        assert cert.later_exponents == {4: 5}
        assert cert.pole_power == 13
        assert lower.evaluate({4: 5}) < 13 < upper.evaluate({4: 5})
        assert cert.orders == (4, 1, 0, 3)
        assert cert.orders[2] == 0
        assert all(v > 0 for i, v in enumerate(cert.orders, start=1) if i != 3)


def test_06_restriction_oracle():
    with criterion("restriction-oracle"):
        sc = load_fixture("three-points")
        cert = solve_scenario(sc)
        h = build_last(cert, sc.equations, sc.bindings)
        x, y, z = xyz()
        r = restrict(h, sc.tower, 3)
        assert r.num == 1 + z and r.den == 1 - z
        degree = dicritical_degree(h, sc.tower, 3, sc.lines[3])
        assert degree == 1


def test_07_conic_center_window():
    """Known red at (1, 4): for k = 1 the admissible window 2k+1 < power < 3k+1
    contains no integer, so the second divisor cannot be constant there; the
    exact engine reports it dominant of fiber degree 1 (see the sibling test).
    The assertion is kept as stated rather than weakened."""
    with criterion("conic-center-window"):
        for k, power in ((1, 4), (2, 6)):
            sc = conic_center(k, power)
            h = explicit_function(sc)
            first = dicritical_status(h, sc.tower, 1)
            assert first.kind == "dicritical", f"(k={k}, power={power}): first divisor"
            degree = dicritical_degree(h, sc.tower, 1, sc.lines[1])
            assert degree == 1, f"(k={k}, power={power}): first divisor degree"
            second = dicritical_status(h, sc.tower, 2)
            assert second.kind == "constant", f"(k={k}, power={power}): second divisor"


def test_07b_conic_center_true_boundary_behavior():
    """What the strict window conditions actually give, pair by pair."""
    with criterion("conic-center-window-strict-conditions"):
        for k, power in ((1, 4), (1, 5), (2, 6)):
            sc = conic_center(k, power)
            h = explicit_function(sc)
            if 2 * k + 1 < power:
                assert dicritical_status(h, sc.tower, 1).kind == "dicritical"
                assert dicritical_degree(h, sc.tower, 1, sc.lines[1]) == 1
            if power < 3 * k + 1:
                assert dicritical_status(h, sc.tower, 2).kind == "constant"
        # at the empty-window boundary (k=1, power=3k+1) the second divisor is
        # genuinely dominant, of degree one along the ruling
        sc = conic_center(1, 4)
        h = explicit_function(sc)
        assert dicritical_status(h, sc.tower, 2).kind == "dicritical"
        assert dicritical_degree(h, sc.tower, 2, sc.lines[2]) == 1


def test_08_cross_tier_order_agreement():
    with criterion("cross-tier-order-agreement"):
        for name in FIXTURES:
            report = run_verify(load_fixture(name))
            assert report.overall, f"fixture {name}"
            for row in report.rows:
                if row.predicted_order is not None:
                    assert row.predicted_order == row.symbolic_order, f"{name} E_{row.divisor}"


def _profile(h, sc, divisors):
    out = {}
    for i in divisors:
        charts, blowups = sc.chart_path(i)
        st = dicritical_status(h, sc.tower, i, charts=charts, blowups=blowups)
        degree = None
        if st.kind == "dicritical" and i in sc.lines:
            degree = dicritical_degree(h, sc.tower, i, sc.lines[i], charts=charts, blowups=blowups)
        out[i] = (st.kind, degree, st.value, st.infinite)
    return out


def test_09_twist_invariance_and_product_degrees():
    with criterion("twist-invariance-and-product-degrees"):
        # fraction twists preserve the whole profile
        sc = load_fixture("three-points")
        h = build_last(solve_scenario(sc), sc.equations, sc.bindings)
        rng = random.Random(31337)
        base = _profile(h, sc, (1, 2, 3))
        assert base[3][:2] == ("dicritical", 1)
        for _ in range(2):  # two independent seeded draws
            a = Fraction(rng.randint(1, 30), rng.randint(1, 7))
            b = -Fraction(rng.randint(1, 30), rng.randint(1, 7))
            twisted = _profile(mobius(h, a, b), sc, (1, 2, 3))
            for i in (1, 2, 3):
                assert twisted[i][:2] == base[i][:2]
                if base[i][0] == "constant":
                    _, _, value, infinite = twisted[i]
                    assert not infinite and value != 0  # lands in the punctured line

        # product degree bounds on one point blow-up
        x, y, z = xyz()
        tower = ChartTower(RING, (BlowupStep(("x", "y", "z"), "x"),))
        line = LineClassSpec({"x": "zero", "y": "const", "z": "param"})
        h1 = RationalFunction(x + y + z, x + 2 * y + 3 * z)
        h2 = RationalFunction(
            x**2 + 2 * y**2 + 3 * z**2 + x * y, x**2 + 5 * y**2 + z**2 + y * z
        )
        h3 = RationalFunction(x + 5 * y + 2 * z, x + 7 * y + 4 * z)
        def degree_on_first(h):
            return dicritical_degree(h, tower, 1, line)

        d1, d2, d3 = degree_on_first(h1), degree_on_first(h2), degree_on_first(h3)
        assert (d1, d2, d3) == (1, 2, 1)
        assert d2 - d1 <= degree_on_first(h1 * h2) <= d1 + d2
        assert 0 <= degree_on_first(h1 * h3) <= d1 + d3

        # degree exactly d2 when d1 = 0 < d2, on the ruled divisor
        sc_ruled = conic_center(1, 4)
        fiber = LineClassSpec({"x": "param", "y": "const", "z": "zero"})
        ha = RationalFunction(x, y)
        hb = explicit_function(sc_ruled)
        assert dicritical_degree(ha, sc_ruled.tower, 2, fiber) == 0
        assert dicritical_degree(hb, sc_ruled.tower, 2, fiber) == 1
        assert dicritical_degree(ha * hb, sc_ruled.tower, 2, fiber) == 1


def test_10_two_target_profile_end_to_end():
    with criterion("two-target-profile-end-to-end"):
        start = time.monotonic()
        report = run_verify(load_fixture("two-dicriticals"))
        assert report.overall
        by_divisor = {row.divisor: row for row in report.rows}
        assert by_divisor[1].status == "dicritical" and by_divisor[1].degree == 1
        assert by_divisor[3].status == "dicritical" and by_divisor[3].degree == 1
        assert by_divisor[2].status == "constant"
        assert time.monotonic() - start < 30.0

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals.charts import (
    BlowupStep,
    ChartTower,
    LineClassSpec,
    ShearStep,
    StageLeaves,
    _apply_blowup,
    check_tower,
    dicritical_degree,
    dicritical_status,
    divisor_order,
    read_divisor,
    restrict,
    restriction_degree,
    status_of,
    vanishes_on_center,
    walk_tower,
)
from dicriticals.descriptor import valuation_matrix
from dicriticals.errors import ChartError, GenericityError, PolynomialError
from dicriticals.fixtures import (
    RING,
    conic_center,
    point_line_fiber,
    point_point_line,
    three_points,
    three_points_line,
)
from dicriticals.poly import Polynomial
from dicriticals.ratfunc import LeafQuotient, Quotient, RationalFunction, as_leaf_quotient
from dicriticals.verify import explicit_function
from dicriticals.candidates import build_last, build_single


def xyz():
    return (
        Polynomial.variable(RING, "x"),
        Polynomial.variable(RING, "y"),
        Polynomial.variable(RING, "z"),
    )


def single_blowup():
    return ChartTower(RING, (BlowupStep(("x", "y", "z"), "z"),))


def two_blowups():
    return ChartTower(RING, (BlowupStep(RING, "z"), BlowupStep(RING, "z")))


def test_pullback_identity_tower():
    x, y, _ = xyz()
    tower = ChartTower(RING, ())
    h = RationalFunction(x + y, x - y)
    assert walk_tower(tower, [h.num, h.den]).polys == [h.num, h.den]


def test_pullback_one_step_reduces():
    x, y, _ = xyz()
    h = RationalFunction(x, y)
    pulled = walk_tower(single_blowup(), [h.num, h.den]).polys
    assert RationalFunction(*pulled) == h  # the shared exceptional factor cancels
    assert divisor_order(h, single_blowup(), 1) == 0


def test_pullback_keeps_exceptional_order():
    x, y, z = xyz()
    g = RationalFunction(x * y, z)  # orders 2 and 1 along the first divisor
    assert divisor_order(g, single_blowup(), 1) == 1


def test_divisor_orders_match_valuation_rows():
    for fixture in (point_point_line(), point_line_fiber()):
        matrix = valuation_matrix(fixture.descriptor)
        for j, name in fixture.bindings.rows.items():
            h = RationalFunction(fixture.equations[name])
            for i in range(1, fixture.descriptor.m + 1):
                assert divisor_order(h, fixture.tower, i) == matrix.entry(j, i)


def test_special_hypersurface_orders():
    sc = three_points()
    h1 = RationalFunction(sc.equations["H1"])
    h2 = RationalFunction(sc.equations["H2"])
    assert [divisor_order(h1, sc.tower, i) for i in (1, 2, 3)] == [2, 4, 7]
    assert [divisor_order(h2, sc.tower, i) for i in (1, 2, 3)] == [3, 5, 9]


def test_numerator_order_of_twisted_candidate():
    sc = three_points()
    f = sc.equations["C3p"] * sc.equations["C1"] ** 2 * sc.equations["C2"] ** 4
    assert divisor_order(RationalFunction(f), sc.tower, 3) == 20


def test_chart_independence_of_orders():
    sc = three_points()
    h1 = RationalFunction(sc.equations["H1"])
    assert divisor_order(h1, sc.tower, 2, charts=("z", "y")) == 4
    assert divisor_order(h1, sc.tower, 2, charts=("z", "x")) == 4
    assert divisor_order(h1, sc.tower, 1, charts=("x",)) == 2


def test_restriction_of_last_candidate():
    sc = three_points()
    from dicriticals.verify import solve_scenario

    cert = solve_scenario(sc)
    h = build_last(cert, sc.equations, sc.bindings)
    x, y, z = xyz()
    r = restrict(h, sc.tower, 3)
    assert r.num == 1 + z and r.den == 1 - z
    assert status_of(r).kind == "dicritical"
    # positive order means the restriction collapses to the constant zero
    r1 = restrict(h, sc.tower, 1)
    assert r1.is_zero() and status_of(r1).value == 0


def test_restriction_constant_value():
    x, y, z = xyz()
    h = RationalFunction(3 * x, 2 * x + 0 * y)
    r = restrict(h, single_blowup(), 1)
    st = status_of(r)
    assert st.kind == "constant" and st.value == Fraction(3, 2)


def test_restriction_infinite():
    x, y, _ = xyz()
    r = restrict(RationalFunction(x, y * y), single_blowup(), 1)
    assert r.is_infinite()
    assert status_of(r).infinite


@pytest.mark.parametrize(
    "h", [RationalFunction(Polynomial.zero(RING)), Quotient(Polynomial.zero(RING), Polynomial.one(RING))]
)
def test_the_zero_function_restricts_to_zero_and_has_no_order(h):
    """h = 0 restricts to (0, 1) along every divisor, and has no order."""
    r = restrict(h, single_blowup(), 1)
    assert (r.num, r.den) == (Polynomial.zero(RING), Polynomial.one(RING))
    assert status_of(r).value == 0
    with pytest.raises(ChartError, match="^cannot take the order of the zero function$"):
        divisor_order(h, single_blowup(), 1)


def test_a_zero_denominator_is_named_at_its_divisor():
    """A denominator that multiplies out to 0 over the walked leaves stops
    the order and the restriction alike, naming the divisor."""
    x, _, _ = xyz()
    ring = ("L0", "L1")
    l0, l1 = (Polynomial.variable(ring, v) for v in ring)
    h = LeafQuotient(l0, l0 - l1, (x + 1, x + 1), RING)  # (x + 1) / ((x + 1) - (x + 1))
    message = "^a denominator of h multiplies out to 0 at divisor 1$"
    with pytest.raises(ChartError, match=message):
        divisor_order(h, single_blowup(), 1)
    with pytest.raises(ChartError, match=message):
        restrict(h, single_blowup(), 1)


def test_degree_identity_line():
    x, y, _ = xyz()
    h = RationalFunction(x, y)
    line = LineClassSpec({"x": "param", "y": "const", "z": "zero"})
    assert dicritical_degree(h, single_blowup(), 1, line, charts=("z",)) == 1


def test_degree_zero_on_ruling():
    sc = conic_center(1, 5)
    x, y, _ = xyz()
    h = RationalFunction(x, y)
    # depends only on the base coordinate of the ruled divisor
    line = LineClassSpec({"x": "param", "y": "const", "z": "zero"})
    assert dicritical_degree(h, sc.tower, 2, line) == 0
    assert dicritical_status(h, sc.tower, 2).kind == "dicritical"


def test_conic_window_statuses():
    sc = conic_center(2, 6)
    h = explicit_function(sc)
    assert divisor_order(h, sc.tower, 1) == 0
    assert divisor_order(h, sc.tower, 2) == 1
    assert dicritical_status(h, sc.tower, 1).kind == "dicritical"
    st2 = dicritical_status(h, sc.tower, 2)
    assert st2.kind == "constant" and st2.value == 0
    deg = dicritical_degree(h, sc.tower, 1, sc.lines[1])
    assert deg == 1


def test_status_agrees_across_charts():
    sc = three_points()
    from dicriticals.verify import solve_scenario

    cert = solve_scenario(sc)
    h = build_last(cert, sc.equations, sc.bindings)
    for path in (("z", "y", "x"), ("z", "y", "y"), ("z", "y", "z")):
        assert dicritical_status(h, sc.tower, 3, charts=path).kind == "dicritical"
    st_a = dicritical_status(h, sc.tower, 2, charts=("z", "y"), blowups=2)
    st_b = dicritical_status(h, sc.tower, 2, charts=("z", "x"), blowups=2)
    assert st_a == st_b


def test_nonzero_order_means_constant_zero_or_infinite():
    sc = three_points()
    h1 = RationalFunction(sc.equations["H1"])
    st = dicritical_status(h1, sc.tower, 1)
    assert st.kind == "constant" and st.value == 0
    inv = RationalFunction(Polynomial.one(RING), sc.equations["H1"])
    assert divisor_order(inv, sc.tower, 1) == -2
    st_inv = dicritical_status(inv, sc.tower, 1)
    assert st_inv.kind == "constant" and st_inv.infinite


def test_shear_invariance():
    x, y, z = xyz()
    h = RationalFunction(x + y + z, x - y)
    plain = single_blowup()
    sheared = ChartTower(RING, (ShearStep("z", 3 * x**2 + y**2), BlowupStep(("x", "y", "z"), "z")))
    assert divisor_order(h, plain, 1) == divisor_order(h, sheared, 1)
    assert restrict(h, plain, 1) == restrict(h, sheared, 1)


def test_restrict_needs_coordinate_equation():
    sc = three_points_line()
    h = RationalFunction(sc.equations["C1"])
    # after the shear the second divisor's local equation is no longer a variable
    with pytest.raises(ChartError):
        restrict(h, sc.tower, 2)
    # but it still works at the depth where the equation is a coordinate
    assert restrict(h, sc.tower, 2, blowups=3) is not None


def test_nongeneric_line_template_errors():
    x, y, _ = xyz()
    h = RationalFunction(x, y)
    # the template collapses the denominator to zero for every constant
    bad = LineClassSpec({"x": "param", "y": "zero", "z": "zero"})
    with pytest.raises(GenericityError):
        dicritical_degree(h, single_blowup(), 1, bad, charts=("z",))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda x: ShearStep("x", x), ChartError, "^a shear must be triangular"),
        (
            lambda x: walk_tower(ChartTower(RING, (BlowupStep(("x", "y"), "y"),)), [x], charts=("z",)),
            ChartError,
            r"^chart variable 'z' is not in the center \('x', 'y'\)$",
        ),
        # a path is checked whole, also past the blow-up where a read stops
        (
            lambda x: walk_tower(two_blowups(), [x], charts=("z", "q"), blowups=1),
            ChartError,
            r"^chart variable 'q' is not in the center \('x', 'y', 'z'\)$",
        ),
        (
            lambda x: divisor_order(RationalFunction(x), two_blowups(), 1, charts=("z", "z", "x")),
            ChartError,
            r"^3 charts given for 2 blow-ups$",
        ),
        (
            lambda x: restrict(RationalFunction(x), two_blowups(), 1, charts=("z", "q"), blowups=1),
            ChartError,
            r"^chart variable 'q' is not in the center \('x', 'y', 'z'\)$",
        ),
        (
            lambda x: walk_tower(single_blowup(), [Polynomial.variable(("x", "y"), "x")]),
            PolynomialError,
            "^polynomial does not live in the tower's coordinate ring$",
        ),
        (
            lambda x: divisor_order(RationalFunction(x), single_blowup(), 2),
            ChartError,
            r"^divisor 2 out of range 1\.\.1$",
        ),
        (
            lambda x: restriction_degree(
                restrict(RationalFunction(3 * x, 2 * x), single_blowup(), 1),
                LineClassSpec({"x": "param", "y": "const", "z": "zero"}),
            ),
            ChartError,
            "^degree is only defined for dicritical restrictions$",
        ),
    ],
    ids=[
        "shear-of-its-target",
        "chart-outside-center",
        "walk-stops-before-a-chart-outside-center",
        "order-of-a-path-beyond-the-tower",
        "restriction-stops-before-a-chart-outside-center",
        "foreign-ring",
        "divisor-out-of-range",
        "degree-of-a-constant",
    ],
)
def test_the_chart_tier_rejects_bad_arguments(call, error, message):
    x, _, _ = xyz()
    with pytest.raises(error, match=message):
        call(x)


def test_check_tower_rejects_wrong_parents():
    sc_pts = three_points()
    wrong = point_point_line().tower  # third center only inside the first divisor
    with pytest.raises(ChartError):
        check_tower(sc_pts.descriptor, wrong)


def test_a_sheared_divisor_through_the_next_center_loses_the_charts_power():
    """After the shear, E_1's equation y + x**2 is no coordinate and passes
    through the next center, the origin: blowing it up in chart x gives
    x * (y + x), and the strict transform y + x keeps E_1 in the chart."""
    from dicriticals.descriptor import make_descriptor

    plane = ("x", "y")
    x, y = (Polynomial.variable(plane, v) for v in plane)
    tower = ChartTower(plane, (BlowupStep(plane, "y"), ShearStep("y", x**2), BlowupStep(plane, "x")))
    assert tower.divisor_eqs()[-1] == {1: y + x, 2: x}
    d = make_descriptor(2, [[], [1]])
    check_tower(d, tower)
    walked = tuple(tuple(divisor_order(RationalFunction(f), tower, i) for i in (1, 2)) for f in (y, x))
    assert walked == ((1, 1), (1, 2)) == valuation_matrix(d).rows


def walked_order(state, divisor):
    """The order along a divisor of polys[0] / polys[1] of a walk, read at
    the divisor's stage."""
    return read_divisor((as_leaf_quotient(Quotient(*state.polys)),), StageLeaves(state.stages[divisor], divisor))[0]


def first_mismatch(predicted, symbolic):
    """The first divisor whose predicted order is not the symbolic one, or None."""
    return next((i for i, (p, q) in enumerate(zip(predicted, symbolic, strict=True), start=1) if p != q), None)


def test_cross_check_flags_corruption():
    """The orders read off one walk agree with the true prediction and flag a
    corrupted one at its divisor."""
    sc = three_points()
    h = RationalFunction(sc.equations["H1"])
    state = walk_tower(sc.tower, [h.num, h.den])
    symbolic = [walked_order(state, i) for i in (1, 2, 3)]
    assert first_mismatch((2, 4, 7), symbolic) is None
    assert first_mismatch((2, 5, 7), symbolic) == 2


def test_cross_check_flags_corrupted_multiplicity_table():
    from dicriticals.descriptor import make_descriptor, valuation_matrix

    sc = three_points()
    corrupted = make_descriptor(
        3, [[], [1], [1, 2]], curvette_mults=[(1,), (0, 1), (1, 1, 1)]
    )
    check_tower(corrupted, sc.tower)  # the centers agree; only the table is wrong
    h = RationalFunction(sc.equations["C2"])  # true orders are (1, 2, 3)
    predicted = valuation_matrix(corrupted).rows[1]
    symbolic = [divisor_order(h, sc.tower, i) for i in (1, 2, 3)]
    assert symbolic == [1, 2, 3]
    assert first_mismatch(predicted, symbolic) == 1  # the first affected index is reported


def test_plane_satellite_tower_walks_the_rows_of_its_valuation_matrix():
    """Three point blow-ups of the plane at the origin, in charts x, y, x: the
    second center is free on E_1, the third a satellite on E_1 and E_2.  The
    curvette rows come from the proximity equalities (e_j = 1, and e_i is
    the sum of e_k over the k <= j proximate to i)."""
    from dicriticals.descriptor import make_descriptor

    plane = ("x", "y")
    tower = ChartTower(plane, tuple(BlowupStep(plane, chart) for chart in ("x", "y", "x")))
    d = make_descriptor(2, [[], [1], [1, 2]], curvette_mults=[(1,), (1, 1), (2, 1, 1)])
    check_tower(d, tower)
    matrix = valuation_matrix(d)
    assert matrix.rows == ((1, 1, 2), (1, 2, 3), (2, 3, 6))
    x, y = (Polynomial.variable(plane, v) for v in plane)
    for curve, row in zip((y - 3 * x, x**2 - 3 * y, y**2 - 3 * x**3), matrix.rows):
        state = walk_tower(tower, [curve, Polynomial.one(plane)])
        assert [walked_order(state, i) for i in (1, 2, 3)] == list(row), curve.render()


def test_single_candidate_orders_match_certificate():
    sc = three_points_line()
    from dicriticals.verify import solve_scenario

    cert = solve_scenario(sc)
    h = build_single(cert, sc.equations, sc.bindings)
    for i in range(1, 5):
        assert divisor_order(h, sc.tower, i) == cert.orders[i - 1]
    r4 = restrict(h, sc.tower, 4)
    assert status_of(r4).kind == "constant"


_exps = st.tuples(*[st.integers(0, 2)] * len(RING))


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(_exps, st.integers(-3, 3), max_size=5).map(lambda t: Polynomial(RING, t)),
    st.lists(st.sampled_from(RING), min_size=1, unique=True),
)
def test_center_containment_scan_agrees_with_substituting_zero(eq, center):
    assert vanishes_on_center(eq, center) == eq.substitute({c: 0 for c in center}).is_zero()


_centers = st.lists(st.sampled_from(RING), min_size=2, unique=True).flatmap(
    lambda center: st.tuples(st.just(tuple(center)), st.sampled_from(center))
)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(_exps, st.integers(-3, 3) | st.just(Fraction(1, 2)), max_size=6).map(lambda t: Polynomial(RING, t)),
    _centers,
)
def test_blowup_kernel_agrees_with_substituting_the_chart_map(p, center_chart):
    """The chart map u -> chart * u for the other center variables u, by
    ``Polynomial.substitute``; the kernel's terms are in stored form."""
    center, chart = center_chart
    var = Polynomial.variable(RING, chart)
    moved = _apply_blowup(p, center, chart)
    assert moved == p.substitute({u: var * Polynomial.variable(RING, u) for u in center if u != chart})
    assert moved._terms == Polynomial(RING, moved._terms)._terms
    assert all(type(c) is int or c.denominator != 1 for c in moved._terms.values())

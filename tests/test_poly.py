from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dicriticals.errors import PolynomialError
from dicriticals.poly import Polynomial, polynomial_gcd, primitive_part
from dicriticals.ratfunc import RationalFunction
from helpers import univariate_int_gcd

V = ("x", "y", "z")


def xyz():
    return (
        Polynomial.variable(V, "x"),
        Polynomial.variable(V, "y"),
        Polynomial.variable(V, "z"),
    )


def test_arithmetic_and_identities():
    x, y, z = xyz()
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + y + z) ** 2 == x**2 + y**2 + z**2 + 2 * x * y + 2 * x * z + 2 * y * z
    assert (p - p).is_zero()
    assert (3 * x) * Fraction(1, 3) == x


@pytest.mark.parametrize(
    "variables, terms",
    [
        (("x",), {(1.5,): 1}),
        (("x",), {(1.0,): 1}),
        (("x",), {(True,): 1}),
        ((1, 2), {(1, 0): 1}),
        (("x",), {(1,): True}),
        (("x",), {(1,): 0.5}),
        (("x", "x"), {}),
        (("x",), {(-1,): 1}),
        (("x",), {(1, 0): 1}),
    ],
)
def test_constructor_rejects_invalid_input(variables, terms):
    with pytest.raises(PolynomialError):
        Polynomial(variables, terms)


def test_coefficients_are_int_or_fraction_never_float():
    x, y, _ = xyz()
    half = (2 * x + 1).exact_div(Polynomial.constant(V, 2))
    three_halves = (3 * x * y).exact_div(2 * x)
    assert half == x + Fraction(1, 2)
    assert three_halves == Fraction(3, 2) * y
    for p in (half, three_halves, Fraction(1, 2) * x * 2, (x + Fraction(1, 3)) * 3, (2 * x * y).exact_div(x)):
        assert all(type(c) in (int, Fraction) for c in p._terms.values())
        assert all(type(c) is int for c in p._terms.values() if c.denominator == 1)
    value = Polynomial.constant(V, 3).constant_value()
    assert type(value) is Fraction and value == 3
    ratio = RationalFunction(Polynomial.constant(V, 3), Polynomial.constant(V, 2)).constant_value()
    assert type(ratio) is Fraction and ratio == Fraction(3, 2)


def test_a_boolean_compares_unequal_and_does_not_raise():
    """A bool is an int but no coefficient: comparing with one reads False."""
    one = Polynomial.one(V)
    h = RationalFunction(one)
    assert one == 1 and h == 1
    for p in (one, Polynomial.zero(V), h):
        assert not p == True and p != True and not p == False and p != False
        assert not True == p and True != p
    assert True not in [one, h]


def test_a_scalar_operand_of_plus_and_minus_is_its_constant_polynomial():
    x, _, _ = xyz()
    half = Fraction(1, 2)
    assert x + 1 == x + Polynomial.constant(V, 1)
    assert 1 - x == Polynomial.constant(V, 1) - x
    assert x - half == x - Polynomial.constant(V, half)
    assert (x + half) - half == x and type((x + half + half).coefficient((0, 0, 0))) is int


@pytest.mark.parametrize(
    "operation",
    [lambda x: x + True, lambda x: x + 0.5, lambda x: 0.5 + x, lambda x: x - True],
    ids=["x + True", "x + 0.5", "0.5 + x", "x - True"],
)
def test_a_bool_or_float_operand_of_plus_and_minus_is_rejected(operation):
    x, _, _ = xyz()
    with pytest.raises(PolynomialError):
        operation(x)


def test_zero_coefficients_are_dropped():
    x, y, _ = xyz()
    p = x + y - y
    assert p == x
    assert len(p.terms()) == 1


def total_degree(p: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(exps) for exps, _ in p.terms()), default=-1)


def test_degrees_and_orders():
    x, y, z = xyz()
    p = x**2 * z + y**3
    assert total_degree(p) == 3 and total_degree(Polynomial.zero(V)) == -1
    assert p.degree_in("x") == 2
    assert p.order_in("x") == 0
    assert (x**2 * y + x**3).order_in("x") == 2
    with pytest.raises(PolynomialError):
        Polynomial.zero(V).order_in("x")


def test_substitute_blowup_chart():
    x, y, z = xyz()
    p = x**2 + z**2 * y
    image = p.substitute({"x": x * z, "y": y * z})
    assert image == x**2 * z**2 + z**3 * y


def test_substitute_to_new_ring():
    x, y, z = xyz()
    t = Polynomial.variable(("t",), "t")
    p = x + y**2
    image = p.substitute({"x": Fraction(1, 2), "y": t, "z": 0}, variables=("t",))
    assert image == t**2 + Fraction(1, 2)
    with pytest.raises(PolynomialError):
        p.substitute({"x": 1}, variables=("t",))


def test_exact_div():
    x, y, _ = xyz()
    p = (x + y) ** 3 * (x - 2 * y)
    assert p.exact_div((x + y) ** 2) == (x + y) * (x - 2 * y)
    assert p.exact_div(x + 3 * y) is None


def test_render_order_is_ascending():
    x, y, z = xyz()
    assert (1 + z).render() == "1 + z"
    assert (1 - z).render() == "1 - z"
    assert (2 * x * z**2 - y).render() == "-y + 2*x*z**2"


def test_json_roundtrip():
    x, y, z = xyz()
    p = Fraction(2, 3) * x**2 - z * y + 5
    assert Polynomial.from_json(p.to_json()) == p


def test_univariate_int_gcd():
    # (t^2 - 1) and (t^2 + 2t + 1) share (t + 1)
    assert univariate_int_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]
    assert univariate_int_gcd([2, 4], [3, 0, 9]) == [1]  # coprime up to content
    assert univariate_int_gcd([], [1, 2]) == [1, 2]


def test_polynomial_gcd_monomial_and_core():
    x, y, z = xyz()
    p = x**2 * z * (x + y) ** 2 * (1 + z)
    q = x * z**3 * (x + y) * (1 - z)
    g = polynomial_gcd(p, q)
    assert g == x * z * (x + y)
    assert polynomial_gcd(x + y, x - y).is_constant()
    assert polynomial_gcd(Polynomial.zero(V), p) == primitive_part(p)


def test_polynomial_gcd_hidden_factor():
    # A factor constant in one variable must still be found through the others.
    x, y, _ = xyz()
    common = x * y - 1
    g = polynomial_gcd(common * x, common * (x + 1))
    assert g in (common, -common)


def test_one_unlucky_point_does_not_reach_the_prs_gcd(monkeypatch):
    # At the first point (y, z) = (2, 3) both specialize to x + 2; the pair is coprime.
    from dicriticals import poly

    x, y, z = xyz()
    calls = []
    original = poly._prs_gcd

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poly, "_prs_gcd", counting)
    assert polynomial_gcd(x + y, x + z - 1).is_constant()
    assert calls == []
    # a genuine common factor is found by the heuristic gcd, without the PRS gcd
    assert polynomial_gcd((x + y) * (x + z), (x + y) * (x - z)) in (x + y, -(x + y))
    assert calls == []


def test_rejected_heuristic_candidates_fall_back_to_the_prs_gcd(monkeypatch):
    from dicriticals import poly

    x, y, z = xyz()
    a = (x + y) * (x * z - 2) * (y - 2)
    b = (x + y) * (x * z - 2) * (z + 3 * x)
    expected = polynomial_gcd(a, b)
    assert expected == primitive_part((x + y) * (x * z - 2))
    calls = []
    original = poly._prs_gcd

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poly, "_prs_gcd", counting)
    # Every candidate is 1: it divides both inputs, so only the coprimality
    # certificate of the cofactors can reject it.
    monkeypatch.setattr(poly, "_interpolate", lambda h, idx, xi: Polynomial.one(h.variables))
    assert polynomial_gcd(a, b) == expected
    assert calls


def test_rational_function_reduces():
    x, y, z = xyz()
    h = RationalFunction((1 + z) * (1 + y) ** 5 * y**3, (1 - z) * (1 + y) ** 5 * y**3)
    assert h.num == 1 + z
    assert h.den == 1 - z


def test_rational_function_canonical_scaling():
    x, y, z = xyz()
    h = RationalFunction(Fraction(1, 2) * x, Fraction(-1, 4) * (1 - z))
    # integer coefficients, overall gcd one, positive trailing denominator term
    assert h.num == -2 * x
    assert h.den == 1 - z


def test_rational_function_equality_cross_multiplies():
    x, y, z = xyz()
    a = RationalFunction._coprime(x * (1 + z), y * (1 + z))
    b = RationalFunction(x, y)
    assert a == b


def test_zero_denominator_rejected():
    x, _, _ = xyz()
    with pytest.raises(PolynomialError):
        RationalFunction(x, Polynomial.zero(V))


def test_internal_results_skip_validation(monkeypatch):
    x, y, z = xyz()
    p = (x + 2 * y) ** 2 * z - 3
    q = y - x * z
    image = y + x
    calls = []
    original = Polynomial.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    assert p + q == q + p
    assert p * q == q * p
    assert p.substitute({"y": image}).substitute({"y": y - x}) == p
    assert calls == []
    Polynomial(V, {(1, 0, 0): 1})
    assert len(calls) == 1


# -- generated polynomials ---------------------------------------------------

T = ("t",)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_fractions = small_fractions.filter(bool)


def _polys(variables, max_exp=3, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return st.dictionaries(exps, small_fractions, max_size=max_size).map(lambda t: Polynomial(variables, t))


polys = _polys(V)
t_polys = _polys(T, max_size=3)
points = st.fixed_dictionaries({v: small_fractions for v in V})


def assert_canonical(r: Polynomial) -> None:
    assert all(c != 0 for c in r._terms.values())
    assert all(len(e) == len(r.variables) and all(type(v) is int and v >= 0 for v in e) for e in r._terms)
    ref = Polynomial(r.variables, dict(r.terms()))
    assert r == ref and hash(r) == hash(ref)


def naive_substitute(p: Polynomial, images: dict, variables) -> Polynomial:
    """Reference: sum of coeff * prod(image ** e), by ring operations alone."""
    result = Polynomial.zero(variables)
    for exps, coeff in p.terms():
        term = Polynomial.constant(variables, coeff)
        for name, e in zip(p.variables, exps):
            if e:
                term = term * images[name] ** e
        result = result + term
    return result


def _as_poly(image, variables) -> Polynomial:
    return image if isinstance(image, Polynomial) else Polynomial.constant(variables, image)


def _value(image, point):
    return image.evaluate(point) if isinstance(image, Polynomial) else Fraction(image)


@settings(max_examples=80, deadline=None)
@given(polys, st.dictionaries(st.sampled_from(V), st.one_of(polys, small_fractions)), points)
def test_substitute_agrees_with_evaluate_in_same_ring(p, mapping, point):
    result = p.substitute(mapping)
    assert_canonical(result)
    images = {v: mapping.get(v, Polynomial.variable(V, v)) for v in V}
    assert result == naive_substitute(p, {v: _as_poly(i, V) for v, i in images.items()}, V)
    assert result.evaluate(point) == p.evaluate({v: _value(images[v], point) for v in V})


@settings(max_examples=80, deadline=None)
@given(polys, st.fixed_dictionaries({v: st.one_of(t_polys, small_fractions) for v in V}), small_fractions)
def test_substitute_agrees_with_evaluate_into_new_ring(p, mapping, t0):
    result = p.substitute(mapping, variables=T)
    assert_canonical(result)
    assert result.variables == T
    assert result == naive_substitute(p, {v: _as_poly(i, T) for v, i in mapping.items()}, T)
    point = {"t": t0}
    assert result.evaluate(point) == p.evaluate({v: _value(i, point) for v, i in mapping.items()})


@settings(max_examples=80, deadline=None)
@given(polys, polys, st.sampled_from(V))
def test_shear_and_inverse_shear_give_back_p(p, q, target):
    shift = q.set_to_zero(target)
    var = Polynomial.variable(V, target)
    sheared = p.substitute({target: var + shift})
    assert_canonical(sheared)
    assert sheared.substitute({target: var - shift}) == p


shift_constants = st.one_of(st.integers(-5, 5), small_fractions, st.just(0))


@settings(max_examples=80, deadline=None)
@given(polys, st.sampled_from(V), shift_constants)
def test_translation_by_a_constant_agrees_with_naive_substitute(p, target, c):
    # ``polys`` often leaves out the target, and the constants cover int,
    # negative, Fraction and zero.
    images = {v: Polynomial.variable(V, v) for v in V}
    images[target] = images[target] + c
    sheared = p.substitute({target: images[target]})
    assert_canonical(sheared)
    assert sheared == naive_substitute(p, images, V)
    assert sheared.substitute({target: Polynomial.variable(V, target) - c}) == p


def test_three_points_line_stage_3_numerator_shears_like_naive_substitute():
    from dicriticals.candidates import build_single
    from dicriticals.charts import walk_tower
    from dicriticals.fixtures import load_fixture
    from dicriticals.verify import solve_scenario

    sc = load_fixture("three-points-line")
    h = build_single(solve_scenario(sc), sc.equations, sc.bindings).quotient()
    (num, _), _ = walk_tower(sc.tower, [h.num, h.den], blowups=3).stages[3]
    assert (len(num.terms()), num.degree_in("y")) == (126, 34)
    images = {v: Polynomial.variable(num.variables, v) for v in num.variables}
    images["y"] = images["y"] - 1
    sheared = num.substitute({"y": images["y"]})
    assert sheared == naive_substitute(num, images, num.variables)
    assert len(sheared.terms()) == 532


def test_only_a_translation_by_a_constant_takes_the_binomial_path(monkeypatch):
    x, y, z = xyz()
    p = (x + 2 * y) ** 3 * z - 3 * y**2 + Fraction(1, 2)
    calls = []
    original = Polynomial._translate

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Polynomial, "_translate", counting)
    generic = {
        "polynomial shift": ({"z": z + y**2}, None),
        "scaled variable": ({"y": 2 * y - 1}, None),
        "constant image": ({"y": Polynomial.constant(V, 3)}, None),
        "two variables": ({"x": x + 1, "y": y - 1}, None),
        "given ring": ({"x": x, "y": y - 1, "z": z}, V),
    }
    for name, (mapping, ring) in generic.items():
        images = {v: mapping.get(v, Polynomial.variable(V, v)) for v in V}
        assert p.substitute(mapping, ring) == naive_substitute(p, images, V), name
        assert calls == [], name
    assert p.substitute({"y": y - 1}) == naive_substitute(p, {"x": x, "y": y - 1, "z": z}, V)
    assert calls == [(1, -1)]


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    zero, one = Polynomial.zero(V), Polynomial.one(V)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - a).is_zero() and a + (-a) == zero and a - b == a + (-b)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_results_are_canonical(a, b):
    for r in (a + b, a - b, -a, a * b, Fraction(2, 3) * a, a * 0, a.set_to_zero("y")):
        assert_canonical(r)
    assert_canonical(a.divide_by_monomial(a.monomial_content()))
    if not b.is_zero():
        quotient = (a * b).exact_div(b)
        assert_canonical(quotient)
        assert quotient == a


def _equal_forms(p: Polynomial, q: Polynomial, k: Fraction) -> list:
    """``p`` as every type that holds it: polynomial, rational functions with a
    constant and with a nonconstant denominator, and, when it is a constant,
    ``Fraction`` and, when integral, ``int``."""
    forms = [p, RationalFunction(p), RationalFunction(p * k, Polynomial.constant(V, k))]
    if not q.is_zero():
        forms.append(RationalFunction(p * q, q))
    if p.is_constant():
        value = p.constant_value()
        forms.append(value)
        if value.denominator == 1:
            forms.append(value.numerator)
    return forms


small_or_constant = st.one_of(small_fractions.map(lambda c: Polynomial.constant(V, c)), _polys(V, 1, 2))


@settings(max_examples=60, deadline=None)
@given(small_or_constant, small_or_constant, polys, nonzero_fractions)
def test_equal_values_hash_alike(p, other, q, k):
    """``a == b`` implies ``hash(a) == hash(b)`` over ints, Fractions,
    polynomials and rational functions."""
    values = _equal_forms(p, q, k) + _equal_forms(other, q, k)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert all(a == b for a in _equal_forms(p, q, k) for b in _equal_forms(p, q, k))
    assert Polynomial.one(V) in {1: "int"} and RationalFunction(Polynomial.one(V)) in {Fraction(1): "one"}


# -- gcd properties ------------------------------------------------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_gcd_divides_keeps_planted_factor_and_leaves_coprime_cofactors(f, p, q):
    a, b = f * p, f * q
    assume(not (a.is_zero() and b.is_zero()))
    g = polynomial_gcd(a, b)
    cofactor_a, cofactor_b = a.exact_div(g), b.exact_div(g)
    assert cofactor_a is not None and cofactor_b is not None
    assert polynomial_gcd(cofactor_a, cofactor_b).is_constant()
    assert g.exact_div(f) is not None


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys, nonzero_fractions)
def test_gcd_is_symmetric_and_scale_invariant(f, p, q, c):
    a, b = f * p, f * q
    g = polynomial_gcd(a, b)
    assert_canonical(g)
    assert polynomial_gcd(b, a) == g
    assert polynomial_gcd(c * a, b) == g == polynomial_gcd(a, c * b)


_X, _Y, _Z = xyz()


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
@example(f=1 + _Z, p=1 + _Y, q=_Y - 1)
def test_gcd_agrees_with_sympy(sympy, f, p, q):
    a, b = f * p, f * q
    assume(not (a.is_zero() and b.is_zero()))
    gens = sympy.symbols(V)

    def to_sympy(r: Polynomial):
        rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in r.terms()}
        return sympy.Poly.from_dict(rep, gens, domain="QQ")

    assert to_sympy(polynomial_gcd(a, b)).monic() == sympy.gcd(to_sympy(a), to_sympy(b)).monic()


def _sympy_poly(sympy, r: Polynomial):
    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in r.terms()}
    return sympy.Poly.from_dict(rep, sympy.symbols(r.variables), domain="QQ")


def test_a_lone_term_in_a_variable_does_not_certify_the_gcd():
    """Both cofactors have the one term y in their y-slice of degree 1, but
    that slice is y + y*z, not a constant: the gcd 1 + z is still found."""
    x, y, z = xyz()
    assert polynomial_gcd((1 + z) * (1 + y), (1 + z) * (y - 1)) == 1 + z


def test_the_certificate_prime_is_the_largest_prime_below_2_to_the_30(sympy):
    from dicriticals import poly

    assert sympy.isprime(poly._P) and poly._P < 2**30 < sympy.nextprime(poly._P)


def test_a_point_where_the_prime_divides_the_leading_coefficient_is_skipped(monkeypatch):
    """At the first point (y, z) = (2, 3) the leading x-coefficient y + p - 2
    is p, which vanishes mod p: that point is skipped, and the next one,
    (4, 6), certifies the pair without the heuristic or the PRS gcd."""
    from dicriticals import poly

    x, y, _ = xyz()
    a, b = (y + poly._P - 2) * x + 1, x + y
    points, calls = [], []
    image = poly._image_mod_p

    def spy(p, idx, values):
        points.append(tuple(values))
        return image(p, idx, values)

    monkeypatch.setattr(poly, "_image_mod_p", spy)
    for name in ("_heu_gcd", "_prs_gcd"):
        monkeypatch.setattr(poly, name, lambda *args, name=name: calls.append(name))
    assert polynomial_gcd(a, b) == 1
    assert points == [(1, 2, 3), (1, 2, 3), (1, 4, 6), (1, 4, 6)] and calls == []


def test_a_denominator_the_prime_divides_leaves_the_gcd_to_the_exact_routes():
    from dicriticals import poly

    x, y, _ = xyz()
    a, b = x * y + Fraction(1, poly._P), x + y
    assert not poly._certified_coprime(a, b, ["x", "y"])
    assert polynomial_gcd(a, b) == 1
    assert polynomial_gcd(a * (x - y), b * (x - y)) == primitive_part(x - y)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("x", "y"), V]).flatmap(lambda ring: st.tuples(*[_polys(ring)] * 3)))
def test_a_certified_pair_has_gcd_one_and_a_planted_factor_is_never_certified(sympy, fpq):
    """Whenever the certificate over GF(p) certifies a pair, in two or three
    variables, sympy's gcd of the pair is 1; a pair that shares a planted
    nonconstant factor is never certified."""
    from dicriticals import poly

    f, p, q = fpq
    assume(p and q)
    if poly._certified_coprime(p, q, poly._shared_variables(p, q)):
        assert sympy.gcd(_sympy_poly(sympy, p), _sympy_poly(sympy, q)).is_ground
    if not f.is_constant():
        a, b = f * p, f * q
        assert not poly._certified_coprime(a, b, poly._shared_variables(a, b))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(V), polys, polys, polys, nonzero_fractions, nonzero_fractions)
def test_a_factor_free_of_a_variable_with_unit_cofactor_slices_agrees_with_sympy(sympy, v, f, p, q, c, d):
    """A planted factor free of v, times cofactors whose top v-coefficient is
    a nonzero constant: the case where one certified variable is enough."""
    f = f.set_to_zero(v)
    assume(f)
    var = Polynomial.variable(V, v)
    a = f * (p + c * var ** (max(p.degree_in(v), 0) + 1))
    b = f * (q + d * var ** (max(q.degree_in(v), 0) + 1))
    g = polynomial_gcd(a, b)
    assert g.exact_div(f) is not None
    assert _sympy_poly(sympy, g).monic() == sympy.gcd(_sympy_poly(sympy, a), _sympy_poly(sympy, b)).monic()


@settings(max_examples=25, deadline=None)
@given(polys, polys, polys, st.data())
def test_prs_gcd_agrees_with_sympy(sympy, f, p, q, data):
    """The PRS fallback alone, in a variable of positive degree in both inputs."""
    from dicriticals import poly

    a, b = f * p, f * q
    shared = [v for v in V if a and b and a.degree_in(v) > 0 and b.degree_in(v) > 0]
    assume(shared)
    main = data.draw(st.sampled_from(shared))
    g = poly._prs_gcd(a, b, main)
    assert_canonical(g)
    assert _sympy_poly(sympy, g).monic() == sympy.gcd(_sympy_poly(sympy, a), _sympy_poly(sympy, b)).monic()


int_lists = st.lists(st.integers(-9, 9), max_size=5)


@settings(max_examples=60, deadline=None)
@given(int_lists, int_lists, int_lists)
def test_univariate_int_gcd_agrees_with_sympy(sympy, f, p, q):
    """Coefficient lists (index = degree) with a planted factor; the gcd is
    sympy's up to content and sign."""
    t = sympy.Symbol("t")

    def as_poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)) or [0], t, domain="ZZ")

    def as_list(r):
        return [int(c) for c in reversed(r.all_coeffs())] if r else []

    a, b = as_poly(f) * as_poly(p), as_poly(f) * as_poly(q)
    expected = sympy.gcd(a, b).primitive()[1]
    if expected and expected.LC() < 0:
        expected = -expected
    assert univariate_int_gcd(as_list(a), as_list(b)) == as_list(expected)
    assert univariate_int_gcd(as_list(a) + [0], as_list(b)) == as_list(expected)


# -- the one-pass JSON reader ------------------------------------------------


def _corruptions(data: dict, k: int) -> dict:
    """Single corruptions of the canonical form ``data``, by name; each breaks
    one rule of ``Polynomial.from_json``.  Term corruptions hit term ``k``."""
    variables, terms = data["vars"], data["terms"]

    def with_term(**changes):
        term = {key: value for key, value in {**terms[k], **changes}.items() if value is not None}
        return {"vars": variables, "terms": terms[:k] + [term] + terms[k + 1 :]}

    out = {
        "extra top-level key": {**data, "extra": 1},
        "missing vars": {"terms": terms},
        "missing terms": {"vars": variables},
        "repeated variable": {**data, "vars": [variables[0], *variables[:-1]]},
        "non-string variable": {**data, "vars": [1, *variables[1:]]},
        "terms not a list": {**data, "terms": {"0": terms}},
    }
    if not terms:
        return out
    exps, num, den = terms[k]["exps"], terms[k]["num"], terms[k]["den"]
    out |= {
        "zero num": with_term(num=0),
        "unreduced pair": with_term(num=2 * num, den=2 * den),
        "zero den": with_term(den=0),
        "negative den": with_term(num=-num, den=-den),
        "float exponent": with_term(exps=[float(exps[0]), *exps[1:]]),
        "bool exponent": with_term(exps=[exps[0] == 1, *exps[1:]]),
        "negative exponent": with_term(exps=[-1, *exps[1:]]),
        "float num": with_term(num=float(num)),
        "bool num": with_term(num=num > 0),
        "bool den": with_term(den=True),
        "exps too long": with_term(exps=[*exps, 0]),
        "exps too short": with_term(exps=exps[:-1]),
        "extra term key": with_term(extra=1),
        "missing term key": with_term(den=None),
        "term not an object": {**data, "terms": terms[:k] + [[exps, num, den]] + terms[k + 1 :]},
        "repeated term": {**data, "terms": terms[: k + 1] + terms[k:]},
    }
    if k + 1 < len(terms):
        out["swapped terms"] = {**data, "terms": terms[:k] + [terms[k + 1], terms[k]] + terms[k + 2 :]}
    return out


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(min_value=0))
def test_from_json_reads_exactly_what_to_json_writes(p, pick):
    data = p.to_json()
    again = Polynomial.from_json(data)
    assert again == p and again.to_json() == data
    for name, bad in _corruptions(data, pick % max(len(data["terms"]), 1)).items():
        with pytest.raises(PolynomialError):
            Polynomial.from_json(bad)
            pytest.fail(f"{name}: {bad!r} was read")


def test_from_json_names_the_first_bad_term_and_its_rule():
    x, y, z = xyz()
    data = (x + 2 * y + 3 * z).to_json()
    data["terms"][1]["num"] = 0
    data["terms"][2]["den"] = -1
    with pytest.raises(PolynomialError, match="term 1 .*num != 0"):
        Polynomial.from_json(data)
    data = (x + y).to_json()
    data["terms"].reverse()
    with pytest.raises(PolynomialError, match="term 1 .*strictly after"):
        Polynomial.from_json(data)


# -- rational function products ------------------------------------------------


def _reduced_pair(f, g):
    assume(not g.is_zero())
    return RationalFunction(f, g)


def assert_same_quotient(r: RationalFunction, ref: RationalFunction) -> None:
    """The same canonical pair, not merely cross-multiplied equality."""
    assert (r.num, r.den) == (ref.num, ref.den)
    assert polynomial_gcd(r.num, r.den).is_constant()


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys, polys)
def test_products_and_quotients_equal_the_fully_reduced_construction(f, g, p, q):
    a, b = _reduced_pair(f, g), _reduced_pair(p, q)
    assert_same_quotient(a * b, RationalFunction(a.num * b.num, a.den * b.den))
    if not b.is_zero():
        assert_same_quotient(a / b, RationalFunction(a.num * b.den, a.den * b.num))


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_products_cancel_factors_shared_across(f, g, h):
    # f/g * g/h and f/g / (f/h) share g, respectively f, across the bar.
    assume(not g.is_zero() and not h.is_zero())
    fg, gh = RationalFunction(f, g), RationalFunction(g, h)
    assert_same_quotient(fg * gh, RationalFunction(fg.num * gh.num, fg.den * gh.den))
    if not f.is_zero():
        fh = RationalFunction(f, h)
        assert_same_quotient(fg / fh, RationalFunction(fg.num * fh.den, fg.den * fh.num))
        assert_same_quotient(fg / fh, RationalFunction(h, g))


@settings(max_examples=40, deadline=None)
@given(polys, polys, small_fractions, small_fractions)
def test_mobius_shift_stays_reduced(f, g, a, b):
    from dicriticals.candidates import mobius

    x, y, z = xyz()
    h = RationalFunction(x + z**2, x - z**2)
    twisted = (h - Fraction(1, 3)) / (h - 2)
    assert polynomial_gcd(twisted.num, twisted.den).is_constant()
    # For a generated reduced h, the twist built without a gcd is coprime
    # and is the function of the gcd-reduced construction.
    h = _reduced_pair(f, g)
    assume(a != b and not (h.num - b * h.den).is_zero())
    shifted = mobius(h, a, b).quotient()
    assert polynomial_gcd(*shifted).is_constant()
    assert_same_quotient(RationalFunction(*shifted), RationalFunction(h.num - a * h.den, h.num - b * h.den))

"""Assemble concrete rational functions from certificates and named equations.

A certificate fixes exponents; this module writes the function it names in
its *leaves*, once every referenced hypersurface has a concrete equation: a
``LeafQuotient`` whose numerator and denominator are polynomials in the
bound equations, and, for a ``single`` construction, in the reduced base f
and g.  Nothing is multiplied out and no gcd of the full candidate is
taken: ``verify`` reads only orders and restrictions, and it reads them off
the walked leaves, since ord_E is a valuation: the order of a product is
the sum of the factors' orders, and its lowest slice along E is the
product of theirs.  ``LeafQuotient.quotient()`` multiplies a form out, and
``RationalFunction(*form.quotient())`` gives the reduced function.  A
profile's parts share one ring of leaf names and one tuple of leaves.
Bundles with exponent zero on a target divisor become nonconstant ratios of
two distinct equations of the same class, which is why bindings may list more
than one equation per divisor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .charts import draw_fraction
from .errors import ScenarioError, SolverError
from .jsonio import FieldCodec, json_field
from .poly import Polynomial
from .ratfunc import LeafQuotient, Quotient, RationalFunction, as_leaf_quotient, over_common_leaves
from .solver import (
    LastDicriticalCertificate,
    ProfileCertificate,
    SingleDicriticalCertificate,
    SupportCertificate,
)


@dataclass(frozen=True)
class Bindings(FieldCodec):
    """Names of the concrete equations backing each certificate ingredient;
    the JSON form leaves out the unset ones."""

    primary: str | None = json_field(omit=True, default=None)  # numerator hypercurvette of the target divisor
    secondary: str | None = json_field(omit=True, default=None)  # denominator hypercurvette of the target divisor
    bundles: Mapping[int, tuple[str, ...]] = json_field(omit=True, default_factory=dict)
    specials: Mapping[int, str] = json_field(omit=True, default_factory=dict)
    pole: str | None = json_field(omit=True, default=None)  # extra hypercurvette carrying the pole power
    later: Mapping[int, str] = json_field(omit=True, default_factory=dict)
    rows: Mapping[int, str] = json_field(omit=True, default_factory=dict)  # valuation-row equations
    parts: Mapping[int, Bindings] = json_field(omit=True, default_factory=dict)


def lookup_equation(equations: Mapping[str, Polynomial], name: str | None, what: str) -> Polynomial:
    """The equation a scenario binds to ``what`` under ``name``; a missing
    binding or equation is an input error."""
    if not name:
        raise ScenarioError(f"missing binding for {what}")
    if name not in equations:
        raise ScenarioError(f"missing equation {name!r} for {what}")
    return equations[name]


class LeafBuilder:
    """The leaves of a function as it is built, each under one name, and
    its two sides as sums of monomials in them: ``{name: exponent}`` with a
    coefficient."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.polys: dict[str, Polynomial] = {}

    def power(self, name: str, poly: Polynomial, exponent: int) -> dict[str, int]:
        """``poly ** exponent`` as a monomial in the leaf ``name``; a zeroth
        power adds no leaf."""
        if not exponent:
            return {}
        self.polys[name] = poly
        return {name: exponent}

    def form(self, num: list[tuple[dict[str, int], int]], den: list[tuple[dict[str, int], int]]) -> LeafQuotient:
        """The leaf form whose sides are the given sums of (monomial, integer coefficient)."""
        ring = tuple(self.polys)

        def side(terms):
            out: dict[tuple[int, ...], int] = {}
            for powers, coeff in terms:
                exps = tuple(powers.get(name, 0) for name in ring)
                out[exps] = out.get(exps, 0) + coeff
            return Polynomial._trusted(ring, out)

        return LeafQuotient(side(num), side(den), tuple(self.polys.values()), self.variables)


def _times(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    """The product of two monomials in named leaves."""
    out = dict(a)
    for name, e in b.items():
        out[name] = out.get(name, 0) + e
    return out


def _bundle_factor(
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
    index: int,
    exponent: int,
    force_nonconstant: bool,
    leaves: LeafBuilder,
    num: dict[str, int],
    den: dict[str, int],
) -> tuple[dict[str, int], dict[str, int]]:
    names = bindings.bundles.get(index, ())
    if exponent == 0 and not force_nonconstant:
        return num, den
    if exponent == 0:
        if len(names) < 2:
            raise ScenarioError(
                f"divisor {index} needs a nonconstant bundle with total exponent zero; "
                "bind two distinct equations"
            )
        first = lookup_equation(equations, names[0], f"bundle {index}")
        second = lookup_equation(equations, names[1], f"bundle {index}")
        if first == second:
            raise ScenarioError(f"bundle {index} needs two distinct equations")
        return _times(num, leaves.power(names[0], first, 1)), _times(den, leaves.power(names[1], second, 1))
    name = names[0] if names else None
    poly = lookup_equation(equations, name, f"bundle {index}")
    if exponent > 0:
        return _times(num, leaves.power(name, poly, exponent)), den
    return num, _times(den, leaves.power(name, poly, -exponent))


def build_support(
    cert: SupportCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> LeafQuotient:
    """Product of hypercurvette bundles realizing a support certificate."""
    leaves = LeafBuilder(_ring(equations))
    num: dict[str, int] = {}
    den: dict[str, int] = {}
    for index, exponent in enumerate(cert.exponents, start=1):
        force = index in cert.needs_split
        num, den = _bundle_factor(equations, bindings, index, exponent, force, leaves, num, den)
    return leaves.form([(num, 1)], [(den, 1)])


def build_last(
    cert: LastDicriticalCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> LeafQuotient:
    """Numerator and denominator of the controlled-last-divisor candidate."""
    leaves = LeafBuilder(_ring(equations))
    primary = lookup_equation(equations, bindings.primary, "primary hypercurvette")
    secondary = lookup_equation(equations, bindings.secondary, "secondary hypercurvette")
    if primary == secondary:
        raise ScenarioError("primary and secondary hypercurvettes must be distinct")
    num = leaves.power(bindings.primary, primary, cert.degree)
    den = leaves.power(bindings.secondary, secondary, cert.degree)
    for index, exponent in enumerate(cert.bundle_exponents, start=1):
        num, den = _bundle_factor(equations, bindings, index, exponent, False, leaves, num, den)
    for j in cert.special_owners:
        name = bindings.specials.get(j)
        poly = lookup_equation(equations, name, f"special hypersurface {j}")
        den = _times(den, leaves.power(name, poly, cert.special_exponents[j]))
    return leaves.form([(num, 1)], [(den, 1)])


def _fresh_name(stem: str, equations: Mapping[str, Polynomial]) -> str:
    """``stem``, prefixed with underscores until no equation has that name."""
    while stem in equations:
        stem = "_" + stem
    return stem


def build_single(
    cert: SingleDicriticalCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> LeafQuotient:
    """Twist the base candidate by later hypercurvette powers plus a pole power.

    The base f/g is reduced first: the pole term is added at the scale of the
    reduced, canonical g, so a common factor of f and g, or another scale of
    the pair, would change the function itself.  The reduced f and g are
    two leaves, named after s so that the parts of a profile keep theirs
    apart, and never after an equation.
    """
    base = RationalFunction(*build_last(cert.base, equations, bindings).quotient())
    leaves = LeafBuilder(base.num.variables)
    f = leaves.power(_fresh_name(f"f{cert.s}", equations), base.num, 1)
    g = leaves.power(_fresh_name(f"g{cert.s}", equations), base.den, 1)
    twist: dict[str, int] = {}
    for j, k in sorted(cert.later_exponents.items()):
        name = bindings.later.get(j)
        twist = _times(twist, leaves.power(name, lookup_equation(equations, name, f"later hypercurvette {j}"), k))
    pole = leaves.power(bindings.pole, lookup_equation(equations, bindings.pole, "pole hypercurvette"), cert.pole_power)
    return leaves.form([(_times(f, twist), 1)], [(_times(g, twist), 1), (pole, 1)])


def build_explicit(
    num_factors: Sequence[tuple[str, int]],
    den_terms: Sequence[Sequence[tuple[str, int]]],
    equations: Mapping[str, Polynomial],
    variables: tuple[str, ...],
) -> LeafQuotient:
    """A hand-given function in the ring ``variables``: the product of the
    named equations to the given powers over a sum of such products."""
    leaves = LeafBuilder(variables)

    def monomial(factors, what: str) -> dict[str, int]:
        powers: dict[str, int] = {}
        for name, exp in factors:
            powers = _times(powers, leaves.power(name, lookup_equation(equations, name, what), exp))
        return powers

    num = monomial(num_factors, "the explicit numerator")
    den = [(monomial(term, "the explicit denominator"), 1) for term in den_terms]
    return leaves.form([(num, 1)], den)


@dataclass(frozen=True)
class MobiusTwist:
    target: int
    a: Fraction
    b: Fraction


def mobius(h: RationalFunction | Quotient | LeafQuotient, a: Fraction, b: Fraction) -> LeafQuotient:
    """(h - a)/(h - b); generic constants keep statuses and degrees intact.

    For h = N/D it is (LN - (La)D)/(LN - (Lb)D) with L the lcm of the
    denominators of a and b: both sides are scaled by the same L, so the
    function is (h - a)/(h - b) and integer coefficients stay integers.
    With N/D reduced the pair is coprime too: a common factor divides the
    difference L(b - a)D, hence D, hence N, so it is a unit.  The arithmetic
    is done in the leaf ring of h, a pair being read as its two-leaf form,
    and the twist keeps the leaves of h.
    """
    if a == b:
        raise SolverError("the two twist constants must be distinct")
    h = as_leaf_quotient(h)
    scale = math.lcm(a.denominator, b.denominator)
    num = scale * h.num
    return LeafQuotient(num - (scale * a) * h.den, num - (scale * b) * h.den, h.leaves, h.variables)


def build_profile(
    cert: ProfileCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
    rng: random.Random,
) -> tuple[tuple[LeafQuotient, ...], list[MobiusTwist]]:
    """The twisted single-target candidates, one per prescribed divisor, and
    their twists.  The profile's h is the product of the parts; it is never
    multiplied out (see the module docstring).  The parts share one ring of
    leaf names and one tuple of leaves: the scenario's equations they use,
    and the base f and g of each part."""
    parts: list[LeafQuotient] = []
    twists: list[MobiusTwist] = []
    for j in sorted(cert.parts):
        part_bindings = bindings.parts.get(j)
        if part_bindings is None:
            raise ScenarioError(f"missing bindings for profile part {j}")
        h = build_single(cert.parts[j], equations, part_bindings)
        a = draw_fraction(rng)
        b = draw_fraction(rng)
        while b == a:
            b = draw_fraction(rng)
        twists.append(MobiusTwist(j, a, b))
        parts.append(mobius(h, a, b))
    return over_common_leaves(parts), twists


def _ring(equations: Mapping[str, Polynomial]) -> tuple[str, ...]:
    rings = {p.variables for p in equations.values()}
    if len(rings) != 1:
        raise SolverError("equations must all live in one coordinate ring")
    return rings.pop()

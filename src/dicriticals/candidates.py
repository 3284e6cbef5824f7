"""Assemble concrete rational functions from certificates and named equations.

A certificate fixes exponents; this module multiplies them out into a
``Quotient``, the numerator and denominator of the function as built, once
every referenced hypersurface has a concrete equation.  The quotient is not
reduced: ``verify`` reads only orders and restrictions, which a common factor
of numerator and denominator does not change, so no gcd of the full
candidate is taken.  ``RationalFunction(*q)`` gives the reduced function.
A profile is not multiplied out at all: ``build_profile`` returns its
twisted parts, and ``verify`` walks them side by side.  That is exact
because ord_E is a valuation, so the order of a product is the sum of the
parts' orders, and the lowest slice along E of a product is the product of
the parts' lowest slices.
Bundles with exponent zero on a target divisor become nonconstant ratios of
two distinct equations of the same class, which is why bindings may list more
than one equation per divisor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .charts import draw_fraction
from .errors import ScenarioError, SolverError
from .jsonio import FieldCodec, json_field
from .poly import Polynomial
from .ratfunc import Quotient, RationalFunction
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


def _bundle_factor(
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
    index: int,
    exponent: int,
    force_nonconstant: bool,
    num: Polynomial,
    den: Polynomial,
) -> tuple[Polynomial, Polynomial]:
    names = bindings.bundles.get(index, ())
    if exponent == 0 and not force_nonconstant:
        return num, den
    if exponent == 0:
        if len(names) < 2:
            raise SolverError(
                f"divisor {index} needs a nonconstant bundle with total exponent zero; "
                "bind two distinct equations"
            )
        first = lookup_equation(equations, names[0], f"bundle {index}")
        second = lookup_equation(equations, names[1], f"bundle {index}")
        if first == second:
            raise SolverError(f"bundle {index} needs two distinct equations")
        return num * first, den * second
    poly = lookup_equation(equations, names[0] if names else None, f"bundle {index}")
    if exponent > 0:
        return num * poly**exponent, den
    return num, den * poly ** (-exponent)


def build_support(
    cert: SupportCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> Quotient:
    """Product of hypercurvette bundles realizing a support certificate."""
    variables = _ring(equations)
    num = Polynomial.one(variables)
    den = Polynomial.one(variables)
    for index, exponent in enumerate(cert.exponents, start=1):
        force = index in cert.needs_split
        num, den = _bundle_factor(equations, bindings, index, exponent, force, num, den)
    return Quotient(num, den)


def build_last(
    cert: LastDicriticalCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> Quotient:
    """Numerator and denominator of the controlled-last-divisor candidate."""
    variables = _ring(equations)
    primary = lookup_equation(equations, bindings.primary, "primary hypercurvette")
    secondary = lookup_equation(equations, bindings.secondary, "secondary hypercurvette")
    if primary == secondary:
        raise SolverError("primary and secondary hypercurvettes must be distinct")
    num = primary**cert.degree
    den = secondary**cert.degree
    for index, exponent in enumerate(cert.bundle_exponents, start=1):
        num, den = _bundle_factor(equations, bindings, index, exponent, False, num, den)
    for j in cert.special_owners:
        exponent = cert.special_exponents[j]
        if exponent < 0:
            raise SolverError("special hypersurfaces carry honest positive powers")
        poly = lookup_equation(equations, bindings.specials.get(j), f"special hypersurface {j}")
        den = den * poly**exponent
    return Quotient(num, den)


def build_single(
    cert: SingleDicriticalCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
) -> Quotient:
    """Twist the base candidate by later hypercurvette powers plus a pole power.

    The base f/g is reduced first: the pole term is added at the scale of the
    reduced, canonical g, so a common factor of f and g, or another scale of
    the pair, would change the function itself.
    """
    base = RationalFunction(*build_last(cert.base, equations, bindings))
    f, g = base.num, base.den
    twist = Polynomial.one(f.variables)
    for j in sorted(cert.later_exponents):
        k = cert.later_exponents[j]
        if k < 1:
            raise SolverError("later hypercurvette powers must be positive")
        twist = twist * lookup_equation(equations, bindings.later.get(j), f"later hypercurvette {j}") ** k
    if cert.pole_power < 1:
        raise SolverError("the pole power must be a positive honest power")
    pole = lookup_equation(equations, bindings.pole, "pole hypercurvette")
    return Quotient(f * twist, g * twist + pole**cert.pole_power)


@dataclass(frozen=True)
class MobiusTwist:
    target: int
    a: Fraction
    b: Fraction


def mobius(h: RationalFunction | Quotient, a: Fraction, b: Fraction) -> Quotient:
    """(h - a)/(h - b); generic constants keep statuses and degrees intact.

    For h = N/D it is (LN - (La)D)/(LN - (Lb)D) with L the lcm of the
    denominators of a and b: both sides are scaled by the same L, so the
    function is (h - a)/(h - b) and integer coefficients stay integers.
    With N/D reduced the pair is coprime too: a common factor divides the
    difference L(b - a)D, hence D, hence N, so it is a unit.
    """
    if a == b:
        raise SolverError("the two twist constants must be distinct")
    scale = math.lcm(a.denominator, b.denominator)
    num = scale * h.num
    return Quotient(num - (scale * a) * h.den, num - (scale * b) * h.den)


def build_profile(
    cert: ProfileCertificate,
    equations: Mapping[str, Polynomial],
    bindings: Bindings,
    rng: random.Random,
) -> tuple[tuple[Quotient, ...], list[MobiusTwist]]:
    """The twisted single-target candidates, one per prescribed divisor, and
    their twists.  The profile's h is the product of the parts; it is never
    multiplied out (see the module docstring)."""
    parts: list[Quotient] = []
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
    return tuple(parts), twists


def _ring(equations: Mapping[str, Polynomial]) -> tuple[str, ...]:
    rings = {p.variables for p in equations.values()}
    if len(rings) != 1:
        raise SolverError("equations must all live in one coordinate ring")
    return rings.pop()

"""Exact rational functions: reduced quotients of sparse polynomials.

Every ``RationalFunction`` is reduced: its numerator and denominator are
coprime.  A ``Quotient`` is a numerator and denominator as built, neither
reduced nor scaled; it names a function for code that reads only properties
of the function that a common factor does not change (the orders and
restrictions ``verify`` reads), and it has no arithmetic.  A
``LeafQuotient`` is a function written in its *leaves*, the polynomials it
is built from: a numerator and a denominator over a ring of leaf names,
plus the polynomial each name stands for.  Substituting the leaves, one
``substitute`` per side, multiplies it out into a ``Quotient``; a reader of
orders and lowest slices reads it off the leaves instead (``charts``).

The ``RationalFunction`` constructor reduces through ``polynomial_gcd``;
the private ``_coprime`` is for pairs already known to be coprime.  A
product of reduced operands a/b and c/d cancels crosswise instead: with
g = gcd(a, d) and k = gcd(c, b), the product (a/g)(c/k) / ((b/k)(d/g)) is
reduced, because a/g is coprime to d/g, c/k to b/k, a to b and c to d; so
no gcd of the full products is taken.
The canonical scaling, ``poly.canonical_scale`` of the pair, makes all
coefficients integers with overall gcd 1 and gives the denominator a
positive trailing (grlex-minimal) coefficient, which keeps serialized output
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import PolynomialError
from .poly import Polynomial, canonical_scale, polynomial_gcd


class Quotient(NamedTuple):
    """``num / den`` as built: no gcd is taken and no scale is chosen, so it
    equals no ``RationalFunction``; ``RationalFunction(*q)`` reduces it."""

    num: Polynomial
    den: Polynomial


@dataclass(frozen=True)
class LeafQuotient:
    """``num / den`` written in its leaves: ``num`` and ``den`` are
    polynomials over a ring of leaf names, and ``leaves`` holds, in the order
    of that ring, the polynomial of the ring ``variables`` each name stands
    for.  Like a ``Quotient`` it is neither reduced nor scaled."""

    num: Polynomial
    den: Polynomial
    leaves: tuple[Polynomial, ...]
    variables: tuple[str, ...]

    def quotient(self) -> Quotient:
        """The multiplied-out view: the leaves substituted, one ``substitute`` per side."""
        images = dict(zip(self.num.variables, self.leaves))
        return Quotient(self.num.substitute(images, self.variables), self.den.substitute(images, self.variables))


_PAIR_RING = ("0", "1")
_PAIR_SIDES = tuple(Polynomial.variable(_PAIR_RING, name) for name in _PAIR_RING)


def as_leaf_quotient(h: "RationalFunction | Quotient | LeafQuotient") -> LeafQuotient:
    """``h`` itself when it is written in leaves, else its two-leaf form,
    whose numerator and denominator are one leaf each."""
    if isinstance(h, LeafQuotient):
        return h
    if h.num.variables != h.den.variables:
        raise PolynomialError("numerator and denominator live in different rings")
    return LeafQuotient(*_PAIR_SIDES, (h.num, h.den), h.num.variables)


def over_common_leaves(forms: Iterable[LeafQuotient]) -> tuple[LeafQuotient, ...]:
    """The ``forms`` over one ring of leaf names, the union of theirs in
    order of first use, all sharing one tuple of leaves.  A name must stand
    for the same polynomial in every form."""
    forms = tuple(forms)
    leaves: dict[str, Polynomial] = {}
    for form in forms:
        for name, leaf in zip(form.num.variables, form.leaves):
            if leaves.setdefault(name, leaf) != leaf:
                raise PolynomialError(f"leaf {name!r} stands for two different polynomials")
    ring = tuple(leaves)
    shared = tuple(leaves.values())

    def embed(side: Polynomial) -> Polynomial:
        slots = [ring.index(name) for name in side.variables]
        terms = {}
        for exps, coeff in side._terms.items():
            moved = [0] * len(ring)
            for slot, e in zip(slots, exps):
                moved[slot] = e
            terms[tuple(moved)] = coeff
        return Polynomial._wrap(ring, terms)

    return tuple(LeafQuotient(embed(f.num), embed(f.den), shared, f.variables) for f in forms)


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.variables)
        _check_pair(num, den)
        if not num.is_zero():
            num, den = _cancel(num, den)
        self._store(num, den)

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """``num / den`` for a pair already known to be coprime: it is scaled
        canonically, and no gcd is taken."""
        _check_pair(num, den)
        obj = object.__new__(cls)
        obj._store(num, den)
        return obj

    def _store(self, num: Polynomial, den: Polynomial) -> None:
        if num.is_zero():
            num = Polynomial.zero(num.variables)
            den = Polynomial.one(num.variables)
        num, den = canonical_scale((num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "RationalFunction":
        return cls(Polynomial.constant(variables, value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.variables != self.variables:
                raise PolynomialError("rational functions live in different rings")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction.constant(self.variables, other)

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        a, b = _cancel(self.num, other.den)
        c, d = _cancel(other.num, self.den)
        return RationalFunction._coprime(a * c, d * b)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other.num.is_zero():
            raise PolynomialError("division by zero rational function")
        return self * RationalFunction._coprime(other.den, other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFunction, Polynomial, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # with a constant denominator h equals the polynomial num / den
        if self.den.is_constant():
            return hash(self.num * (1 / self.den.constant_value()))
        return hash((self.num, self.den))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        return render_pair(self.num, self.den)

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()!r})"


def render_pair(num: Polynomial, den: Polynomial) -> str:
    """``num``, or ``(num)/(den)`` unless ``den`` is 1; the pair as given."""
    if len(den._terms) == 1 and den._terms.get((0,) * len(den.variables)) == 1:
        return num.render()
    return f"({num.render()})/({den.render()})"


def _check_pair(num: Polynomial, den: Polynomial) -> None:
    if num.variables != den.variables:
        raise PolynomialError("numerator and denominator live in different rings")
    if den.is_zero():
        raise PolynomialError("zero denominator")


def _cancel(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """``p`` and ``q`` divided by their gcd."""
    g = polynomial_gcd(p, q)
    if len(g._terms) == 1:
        (exps,) = g._terms  # a primitive monomial, coefficient 1; the constant 1 too
        return p.divide_by_monomial(exps), q.divide_by_monomial(exps)
    qp = p.exact_div(g)
    qq = q.exact_div(g)
    if qp is None or qq is None:
        raise PolynomialError("gcd failed to divide; internal error")
    return qp, qq

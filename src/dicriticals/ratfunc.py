"""Exact rational functions: reduced quotients of sparse polynomials.

Every ``RationalFunction`` is reduced: its numerator and denominator are
coprime.  A ``Quotient`` is a numerator and denominator as built, neither
reduced nor scaled; it names a function for code that reads only properties
of the function that a common factor does not change (the orders and
restrictions ``verify`` reads), and it has no arithmetic.

The ``RationalFunction`` constructor reduces through ``polynomial_gcd``;
the private ``_coprime`` is for pairs already known to be coprime.  A
product of reduced operands a/b and c/d cancels crosswise instead: with
g = gcd(a, d) and k = gcd(c, b), the product (a/g)(c/k) / ((b/k)(d/g)) is
reduced, because a/g is coprime to d/g, c/k to b/k, a to b and c to d; so
no gcd of the full products is taken.
The canonical scaling makes all coefficients integers with overall gcd 1
and gives the denominator a positive trailing (grlex-minimal) coefficient,
which keeps serialized output byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import PolynomialError
from .poly import Polynomial, polynomial_gcd, rational_content


class Quotient(NamedTuple):
    """``num / den`` as built: no gcd is taken and no scale is chosen, so it
    equals no ``RationalFunction``; ``RationalFunction(*q)`` reduces it."""

    num: Polynomial
    den: Polynomial


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
        num, den = _canonical_pair(num, den)
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

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

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

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + self._coerce(other)

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

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, power: int) -> "RationalFunction":
        if not isinstance(power, int):
            raise PolynomialError("powers must be integers")
        if power >= 0:
            return RationalFunction._coprime(self.num**power, self.den**power)
        if self.num.is_zero():
            raise PolynomialError("negative power of zero")
        return RationalFunction._coprime(self.den ** (-power), self.num ** (-power))

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

    # -- structure -----------------------------------------------------------

    def substitute(
        self,
        mapping: Mapping[str, Polynomial | Fraction | int],
        variables: Sequence[str] | None = None,
    ) -> "RationalFunction":
        num = self.num.substitute(mapping, variables)
        den = self.den.substitute(mapping, variables)
        if den.is_zero():
            raise PolynomialError("substitution sent the denominator to zero")
        return RationalFunction(num, den)

    def render(self) -> str:
        return render_pair(self.num, self.den)

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()!r})"


def render_pair(num: Polynomial, den: Polynomial) -> str:
    """``num``, or ``(num)/(den)`` unless ``den`` is 1; the pair as given."""
    if den == Polynomial.one(num.variables):
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
    if g.is_constant():
        return p, q
    qp = p.exact_div(g)
    qq = q.exact_div(g)
    if qp is None or qq is None:
        raise PolynomialError("gcd failed to divide; internal error")
    return qp, qq


def _canonical_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    content = rational_content([num, den])
    if content != 1:
        num = num * (1 / content)
        den = den * (1 / content)
    trailing = den.terms()[0][1]
    if trailing < 0:
        num, den = -num, -den
    return num, den

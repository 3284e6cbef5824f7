"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in variables ``(x, y, z, ...)`` is stored as a map from exponent
tuples to nonzero coefficients.  A coefficient is an ``int`` when it is
integral and a ``Fraction`` otherwise; every result is normalized that way,
so integer-only inputs stay on Python integers.  Everything is exact; no
floating point is used anywhere (``constant_value`` returns a ``Fraction``).

GCD routes, cheapest first.  (1) Monomial content is split off directly.
(2) The remaining parts are checked for coprimality by specializing all but
one variable at integer points where the leading coefficient survives modulo
one fixed prime: the degree of the univariate gcd of the images, found by
Euclid's algorithm over GF(p), bounds the degree of the true gcd in that
variable from above, so an all-zero certificate proves coprimality.
One variable v is certified alone when a v-coefficient of either part (a
polynomial in the other variables) is a nonzero constant, since a gcd free
of v divides it; otherwise every shared variable is certified.  (3) A
genuine common factor is found by the heuristic gcd over ZZ (Char, Geddes
and Gonnet 1989): one variable is evaluated at an integer xi, the gcd of the
images is found by recursion, and its symmetric xi-adic digits give a
candidate.  A candidate is accepted only when it divides both inputs exactly
and the certificates of (2) prove the two cofactors coprime, so the result
never rests on the size of xi.  (4) Only when no candidate is accepted does
the gcd fall back to the primitive pseudo-remainder sequence (PRS) over the
ring of the other variables.  Nothing is drawn at random.

Construction policy: validated at the boundary, trusted inside.  The public
constructor ``Polynomial(variables, terms)`` checks every variable name,
exponent and coefficient; it is how data from outside becomes a polynomial.
``zero``, ``constant``, ``one`` and ``variable`` check exactly what they are
given (distinct string names, a name of the ring, an ``int`` or ``Fraction``
value) and build their one term without a second check; a scalar operand of
``+`` and ``-`` becomes a polynomial through ``constant``.  ``from_json`` checks
the canonical term list ``to_json`` writes in one pass, term by term, and
keeps the term dict it builds as it is.  Results computed from polynomials
that are already valid (sums, products, substitutions, quotients,
coefficients in one variable) are wrapped by the private
``Polynomial._trusted`` without re-validation, which only drops zero
coefficients and stores integral fractions as ``int``.  One canonical
scaling, ``canonical_scale``, serves ``primitive_part`` and every reduced
rational function: integer coefficients with overall gcd 1 and a positive
trailing (grlex-minimal) coefficient.
``substitute`` expands a translation ``y -> y + c`` by a constant c (in the
same ring) with the binomial theorem: each ``y**k`` contributes its cached
row ``C(k, j) * c**(k - j)``, and the coefficients of each monomial in the
other variables are summed in one list.  Every other substitution (a
polynomial shift such as ``z -> z + y**2``, several variables, a change of
ring) expands each term in one pass: unmapped variables stay exponent
shifts, and only mapped variables are expanded, against cached powers of
their images.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from math import gcd as int_gcd
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import PolynomialError

Exponents = tuple[int, ...]
Coeff = int | Fraction

# Deterministic evaluation points for coprimality certificates.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The prime the certificates reduce by: the largest below 2**30, so a
# residue stays one digit of a Python int.
_P = 1073741789

# Evaluation points the heuristic gcd tries before the PRS gcd takes over.
_HEU_TRIES = 6


def _normal(c: Coeff) -> Coeff:
    """A coefficient in stored form: ``int`` when integral, else ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _as_coeff(value) -> Coeff:
    if isinstance(value, bool):
        raise PolynomialError("boolean is not a valid coefficient")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _normal(value)
    raise PolynomialError(f"coefficient must be int or Fraction, got {type(value).__name__}")


def _ring(variables: Sequence[str]) -> tuple[str, ...]:
    """The variable names as a tuple, checked to be distinct strings."""
    vs = tuple(variables)
    if not all(isinstance(v, str) for v in vs):
        raise PolynomialError("variable names must be strings")
    if len(set(vs)) != len(vs):
        raise PolynomialError("duplicate variable names")
    return vs


def _div(a, b) -> Coeff:
    """Exact quotient of two coefficients, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _normal(Fraction(a, b))


def _term_key(item):
    exps = item[0]
    return (sum(exps), exps)


_TERM_KEYS = {"exps", "num", "den"}


def _broken_term_rule(item, n: int) -> str | None:
    """The rule of the JSON term form that ``item`` breaks, in a ring of
    ``n`` variables, or None; the order of the terms is the caller's."""
    if type(item) is not dict or item.keys() != _TERM_KEYS:
        return "is not an object with the keys exps, num and den only"
    exps, num, den = item["exps"], item["num"], item["den"]
    if type(exps) is not list or len(exps) != n or not all(type(v) is int and v >= 0 for v in exps):
        return f"does not have exps a list of {n} nonnegative integers"
    if type(num) is not int or type(den) is not int or not num or den <= 0 or int_gcd(num, den) != 1:
        return "does not have num/den a reduced pair of integers with num != 0 and den > 0"
    return None


def _mul_terms(
    a: Mapping[Exponents, Coeff],
    b: Mapping[Exponents, Coeff],
    terms: dict[Exponents, Coeff] | None = None,
) -> dict[Exponents, Coeff]:
    """Add the product of two term dicts into ``terms`` (a new dict by
    default) and return it; zero coefficients may remain."""
    if terms is None:
        terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            if e in terms:
                terms[e] += c1 * c2
            else:
                terms[e] = c1 * c2
    return terms


def _translation_constant(image: Mapping[Exponents, Coeff], idx: int, zero: Exponents) -> Coeff | None:
    """The constant c when the term dict ``image`` is ``v + c`` for the
    variable at ``idx``, else None."""
    unit = zero[:idx] + (1,) + zero[idx + 1 :]
    if image.get(unit) != 1 or len(image) - (zero in image) != 1:
        return None
    return image.get(zero, 0)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Coeff] | None = None):
        vs = _ring(variables)
        clean: dict[Exponents, int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(exps)
            if len(e) != len(vs):
                raise PolynomialError("exponent tuple length does not match variable count")
            if not all(type(v) is int for v in e):
                raise PolynomialError("exponents must be integers")
            if any(v < 0 for v in e):
                raise PolynomialError("negative exponent")
            c = _as_coeff(coeff)
            if e in clean:
                c += clean[e]
            if c:
                clean[e] = c
            else:
                clean.pop(e, None)
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: Mapping[Exponents, Coeff]) -> "Polynomial":
        """Wrap a term dict computed from valid polynomials, without checks.

        Zero coefficients are dropped and integral fractions become ``int``;
        nothing else is looked at, so outside data must be checked first, by
        ``Polynomial(...)`` or by ``from_json``.
        """
        return cls._wrap(variables, {e: c if type(c) is int else _normal(c) for e, c in terms.items() if c})

    @classmethod
    def _wrap(cls, variables: tuple[str, ...], terms: dict[Exponents, Coeff]) -> "Polynomial":
        """A polynomial holding ``terms`` as they are: nonzero and in stored form."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls._wrap(_ring(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        c = _as_coeff(value)
        vs = _ring(variables)
        return cls._wrap(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise PolynomialError(f"unknown variable {name!r}")
        vs = _ring(vs)
        return cls._wrap(vs, {tuple(1 if v == name else 0 for v in vs): 1})

    # -- basic queries -------------------------------------------------------

    def terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms sorted by (total degree, exponent tuple); canonical order."""
        return sorted(self._terms.items(), key=_term_key)

    def coefficient(self, exps: Exponents) -> Coeff:
        return self._terms.get(tuple(exps), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError("polynomial is not constant")
        zero_exps = (0,) * len(self.variables)
        return Fraction(self._terms.get(zero_exps, 0))

    def _var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PolynomialError(f"unknown variable {name!r}") from None

    def degree_in(self, name: str) -> int:
        idx = self._var_index(name)
        if not self._terms:
            return -1
        return max(e[idx] for e in self._terms)

    def order_in(self, name: str) -> int:
        """Smallest exponent of ``name`` over all terms (the vanishing order)."""
        idx = self._var_index(name)
        if not self._terms:
            raise PolynomialError("vanishing order of the zero polynomial is undefined")
        return min(e[idx] for e in self._terms)

    def monomial_content(self) -> Exponents:
        """Componentwise minimum exponent vector (all zero for the zero polynomial)."""
        if not self._terms:
            return (0,) * len(self.variables)
        return tuple(map(min, zip(*self._terms)))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise PolynomialError("polynomials live in different variable rings")
            return other
        return Polynomial.constant(self.variables, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return Polynomial._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _as_coeff(other)
            return Polynomial._trusted(self.variables, {e: k * c for e, k in self._terms.items()})
        other = self._coerce(other)
        return Polynomial._trusted(self.variables, _mul_terms(self._terms, other._terms))

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise PolynomialError("polynomial powers must be nonnegative integers")
        if not power:
            return Polynomial.one(self.variables)
        # square-and-multiply; the lowest set bit takes its power as it is, not times 1
        result = None
        base = self
        while True:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            # a bool is an int but no coefficient, so it compares unequal
            if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
                return self == Polynomial.constant(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self):
        # a constant equals its value, so it hashes as its value
        if self.is_constant():
            return hash(self._terms.get((0,) * len(self.variables), 0))
        return hash((self.variables, frozenset(self._terms.items())))

    # -- substitution --------------------------------------------------------

    def substitute(
        self,
        mapping: Mapping[str, "Polynomial | Fraction | int"],
        variables: Sequence[str] | None = None,
    ) -> "Polynomial":
        """Substitute polynomials or constants for variables.

        With ``variables=None`` the result lives in the same ring and any
        unmapped variable is substituted by itself.  Otherwise the result
        lives in the given ring and every variable that actually occurs must
        be covered by the mapping.
        """
        if variables is None:
            target = self.variables
        else:
            target = tuple(variables)
            if len(set(target)) != len(target):
                raise PolynomialError("duplicate variable names")
        zero = (0,) * len(target)
        images: dict[int, dict[Exponents, Coeff]] = {}
        for name, value in mapping.items():
            idx = self._var_index(name)
            if isinstance(value, Polynomial):
                if value.variables != target:
                    raise PolynomialError("substitution image lives in the wrong ring")
                images[idx] = value._terms
            else:
                c = _as_coeff(value)
                images[idx] = {zero: c} if c else {}
        if variables is not None:
            for idx, name in enumerate(self.variables):
                if idx not in images and any(e[idx] for e in self._terms):
                    raise PolynomialError(f"variable {name!r} occurs but has no image")
        elif len(images) == 1:
            ((idx, image),) = images.items()
            shift = _translation_constant(image, idx, zero)
            if shift is not None:
                return self._translate(idx, shift)

        mapped = sorted(images)
        powers = {idx: [{zero: 1}] for idx in mapped}

        def power(idx: int, k: int) -> dict[Exponents, Coeff]:
            cache = powers[idx]
            while len(cache) <= k:
                cache.append(_mul_terms(cache[-1], images[idx]))
            return cache[k]

        out: dict[Exponents, Coeff] = {}
        for exps, coeff in self._terms.items():
            if variables is None:
                # Unmapped variables keep their exponents in the same ring.
                base = list(exps)
                for idx in mapped:
                    base[idx] = 0
                base = tuple(base)
            else:
                base = zero
            factors = [power(idx, exps[idx]) for idx in mapped if exps[idx]]
            if not factors:
                out[base] = out[base] + coeff if base in out else coeff
                continue
            acc = {base: coeff}
            for factor in factors[:-1]:
                acc = _mul_terms(acc, factor)
            _mul_terms(acc, factors[-1], out)
        return Polynomial._trusted(target, out)

    def _translate(self, idx: int, c: Coeff) -> "Polynomial":
        """``self`` under ``v -> v + c`` for the variable at ``idx``.

        The terms are grouped by their monomial in the other variables.  In a
        group, each ``a * v**k`` adds ``a * C(k, j) * c**(k - j)`` to the
        coefficient of ``v**j``, summed in one list; a group of one term is
        written out directly.
        """
        if not any(e[idx] for e in self._terms):
            return self
        columns: dict[Exponents, list[tuple[int, Coeff]]] = {}
        for exps, a in self._terms.items():
            rest = exps[:idx] + exps[idx + 1 :]
            column = columns.get(rest)
            if column is None:
                columns[rest] = [(exps[idx], a)]
            else:
                column.append((exps[idx], a))
        rows: dict[int, list[Coeff]] = {}

        def row(k: int) -> list[Coeff]:
            if k not in rows:
                rows[k] = [comb(k, j) * c ** (k - j) for j in range(k + 1)]
            return rows[k]

        out: dict[Exponents, Coeff] = {}
        for rest, column in columns.items():
            pre, post = rest[:idx], rest[idx:]
            if len(column) == 1:
                ((k, a),) = column
                for j, r in enumerate(row(k)):
                    out[pre + (j,) + post] = a * r
                continue
            acc = [0] * (max(k for k, _ in column) + 1)
            for k, a in column:
                for j, r in enumerate(row(k)):
                    acc[j] += a * r
            for j, value in enumerate(acc):
                out[pre + (j,) + post] = value
        return Polynomial._trusted(self.variables, out)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            value = coeff
            for idx, e in enumerate(exps):
                if e:
                    value *= _as_coeff(point[self.variables[idx]]) ** e
            total += value
        return total

    def set_to_zero(self, name: str) -> "Polynomial":
        """Substitute 0 for one variable (keeps the ring)."""
        return self.slice(self._var_index(name), 0)

    def slice(self, idx: int, k: int) -> "Polynomial":
        """The terms of exponent ``k`` in the variable at ``idx``, with that
        exponent set to 0: ``(self / v**k)`` at ``v = 0`` when v**k divides
        ``self``.  Setting one exponent keeps distinct terms distinct."""
        return Polynomial._wrap(
            self.variables, {e[:idx] + (0,) + e[idx + 1 :]: c for e, c in self._terms.items() if e[idx] == k}
        )

    def divide_by_monomial(self, exps: Exponents) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise PolynomialError("exponent tuple length does not match variable count")
        if not any(exps):
            return self
        terms = {}
        for e, c in self._terms.items():
            shifted = tuple(map(sub, e, exps))
            if min(shifted) < 0:
                raise PolynomialError("monomial does not divide every term")
            terms[shifted] = c
        return Polynomial._trusted(self.variables, terms)

    # -- division ------------------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial | None":
        """Exact quotient self/divisor, or None when it does not divide."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise PolynomialError("division by the zero polynomial")
        if self.is_zero():
            return self
        lead_d, lc_d = max(divisor._terms.items(), key=_term_key)
        rem = dict(self._terms)
        quot: dict[Exponents, Coeff] = {}
        while rem:
            lead_r, lc_r = max(rem.items(), key=_term_key)
            q_exp = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(v < 0 for v in q_exp):
                return None
            q_coeff = _div(lc_r, lc_d)
            quot[q_exp] = quot.get(q_exp, 0) + q_coeff
            for e, c in divisor._terms.items():
                t = tuple(a + b for a, b in zip(e, q_exp))
                nv = rem.get(t, 0) - c * q_coeff
                if nv:
                    rem[t] = nv
                else:
                    rem.pop(t, None)
        return Polynomial._trusted(self.variables, quot)

    # -- rendering and serialization ------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}**{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    def to_json(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exps": list(e), "num": c.numerator, "den": c.denominator}
                for e, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        """Read the canonical form ``to_json`` writes, and nothing else, in one
        pass over the term list.

        Every term has the keys ``exps``, ``num`` and ``den`` only, one exact
        nonnegative exponent per variable and a reduced nonzero ``num/den``
        with ``den > 0``; the terms strictly increase under the writer's sort
        key, so a repeated term fails as a non-increase.
        """
        if type(data) is not dict or data.keys() != {"vars", "terms"}:
            raise PolynomialError(f"a polynomial must be an object with the keys vars and terms only, got {data!r}")
        variables, items = data["vars"], data["terms"]
        if (
            type(variables) is not list
            or not all(type(v) is str for v in variables)
            or len(set(variables)) != len(variables)
        ):
            raise PolynomialError(f"polynomial vars must be a list of distinct strings, got {variables!r}")
        if type(items) is not list:
            raise PolynomialError(f"polynomial terms in {variables!r} must be a list, got {items!r}")
        n = len(variables)
        terms: dict[Exponents, Coeff] = {}
        last = (-1,)  # below every (total degree, exponents) key
        for item in items:
            # the rules of ``_broken_term_rule``, inline; it names the one broken
            if (
                type(item) is dict
                and len(item) == 3
                and type(exps := item.get("exps")) is list
                and type(num := item.get("num")) is int
                and type(den := item.get("den")) is int
                and len(exps) == n
                and all(type(v) is int and v >= 0 for v in exps)
                and num
                and den > 0
                and (den == 1 or int_gcd(num, den) == 1)
            ):
                e = tuple(exps)
                key = (sum(e), e)  # the order of ``_term_key``, which ``to_json`` sorts by
                if key > last:
                    last = key
                    terms[e] = num if den == 1 else Fraction(num, den)
                    continue
                rule = "does not come strictly after the term before it in (total degree, exponents) order"
            else:
                rule = _broken_term_rule(item, n)
            # every term before this one was read, none twice
            raise PolynomialError(f"polynomial in {variables!r}: term {len(terms)} {rule}, got {item!r}")
        return cls._wrap(tuple(variables), terms)


# -- rational normalization -------------------------------------------------


def rational_content(polys: Iterable[Polynomial]) -> Fraction:
    """Positive rational c such that dividing by c makes all coefficients
    integers with overall gcd 1.  Zero polynomials are ignored."""
    coeffs = [c for p in polys for c in p._terms.values()]
    num_gcd = int_gcd(*(c.numerator for c in coeffs))
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, lcm(*(c.denominator for c in coeffs)))


def canonical_scale(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """``polys`` divided by one rational: all their coefficients become
    integers with overall gcd 1, and the last of them, which must be
    nonzero, gets a positive trailing (grlex-minimal) coefficient."""
    content = rational_content(polys)
    if min(polys[-1]._terms.items(), key=_term_key)[1] < 0:
        content = -content
    if content.denominator == 1:
        return [_div_ground(p, content.numerator) for p in polys]
    scale = 1 / content
    return [p * scale for p in polys]


def primitive_part(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with gcd 1 and positive trailing term."""
    return canonical_scale([p])[0] if p else p


def _div_ground(p: Polynomial, k: int) -> Polynomial:
    """p / k for a nonzero integer k that divides every coefficient of p."""
    if k == 1:
        return p
    return Polynomial._trusted(p.variables, {e: c // k for e, c in p._terms.items()})


# -- multivariate gcd --------------------------------------------------------


def _image_mod_p(p: Polynomial, idx: int, values: Sequence[int]) -> list[int] | None:
    """Residues mod ``_P`` (index = degree in the variable at ``idx``) of p with
    each other variable at its entry of ``values``, whose entry at ``idx`` is 1;
    trailing zeros dropped.  None when ``_P`` divides a denominator of p."""
    out = [0] * (max(e[idx] for e in p._terms) + 1)
    for exps, c in p._terms.items():
        if type(c) is int:
            r = c
        elif c.denominator % _P:
            r = c.numerator * pow(c.denominator, -1, _P)
        else:
            return None
        for value, e in zip(values, exps):
            if e:
                r = r * pow(value, e, _P) % _P
        out[exps[idx]] += r
    out = [r % _P for r in out]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    """The degree of gcd(a, b) over GF(``_P``) by Euclid's algorithm, for
    residue lists (index = degree) with nonzero last entries; a is consumed."""
    while b:
        inv = pow(b[-1], -1, _P)
        b = [c * inv % _P for c in b]  # monic
        low = b[:-1]
        for shift in range(len(a) - len(b), -1, -1):
            lead = a.pop()
            if lead:
                for i, c in enumerate(low, shift):
                    a[i] = (a[i] - lead * c) % _P
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _has_unit_slice(p: Polynomial, idx: int) -> bool:
    """True when some power v**k of the variable at ``idx`` has a nonzero
    constant coefficient in p: the term ``c * v**k`` is p's only term of
    v-degree k."""
    pure, mixed = set(), set()
    for e in p._terms:
        (pure if sum(e) == e[idx] else mixed).add(e[idx])
    return not pure <= mixed


def _certified_coprime(p: Polynomial, q: Polynomial, common: list[str]) -> bool:
    """True only when specialization certificates prove gcd(p, q) constant.

    Soundness: set every variable but v to integers where the leading
    coefficient of p in v survives mod ``_P``.  The degree in v of any common
    factor is then at most the degree of the images' gcd over Q, and that is
    at most the degree of their gcd over GF(``_P``) (W. S. Brown, J. ACM 18,
    1971): with the rational gcd G made primitive over the integers localized
    at ``_P``, G divides both images there, and ``_P`` keeps the leading
    coefficient of G because it keeps that of p's image, so G mod ``_P`` keeps
    its degree and divides both residue images.  So any one such point with a
    constant gcd mod ``_P`` certifies v; a positive degree may be bad luck and
    earns one more point, and a second positive degree leaves the pair to the
    exact gcd, as does a denominator that ``_P`` divides.

    One certified v is enough when p or q has a v-coefficient (a polynomial
    in the other variables) that is a nonzero constant: the gcd, of degree 0
    in v, divides every v-coefficient, so it divides a unit.  Such a v is
    certified alone; otherwise every shared variable is.
    """
    for v in common:
        idx = p.variables.index(v)
        if _has_unit_slice(p, idx) or _has_unit_slice(q, idx):
            common = [v]
            break
    for v in common:
        idx = p.variables.index(v)
        deg_v = p.degree_in(v)
        unlucky = 0
        for attempt in range(8):
            values = [_PRIMES[(k + attempt) % len(_PRIMES)] + attempt for k in range(len(p.variables) - 1)]
            values.insert(idx, 1)
            pl, ql = (_image_mod_p(f, idx, values) for f in (p, q))
            if pl is None or ql is None:
                return False
            if len(pl) - 1 != deg_v or not ql:
                continue  # leading coefficient vanished mod _P; try another point
            if not _gcd_degree_mod_p(pl, ql):
                break  # v is certified
            unlucky += 1
            if unlucky == 2:
                return False
        else:
            return False
    return True


def _content(coeffs: list[Polynomial]) -> Polynomial:
    """The primitive gcd of polynomial coefficients, the last one nonzero."""
    g = coeffs[-1]
    for c in coeffs:
        g = polynomial_gcd(g, c)
        if g.is_constant():
            break
    return g


def _poly_list_primitive(coeffs: list[Polynomial]) -> list[Polynomial]:
    if not coeffs:
        return coeffs
    g = _content(coeffs)
    if g.is_constant():
        scale = 1 / rational_content(coeffs)
        return [c * scale for c in coeffs]
    return [c.exact_div(g) for c in coeffs]


def _prs(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
    """The gcd of two coefficient lists (index = degree, last entries
    nonzero) over a ring of polynomials, up to a unit: the last nonzero
    member of their primitive pseudo-remainder sequence."""
    a, b = _poly_list_primitive(a), _poly_list_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = a
        lc_b = b[-1]
        while len(r) >= len(b):
            lc_r = r[-1]
            shift = len(r) - len(b)
            r = [c * lc_b for c in r]
            for i, c in enumerate(b):
                r[shift + i] -= lc_r * c
            while r and not r[-1]:
                r.pop()
        a, b = b, _poly_list_primitive(r)
    return a


def _prs_gcd(p: Polynomial, q: Polynomial, main: str) -> Polynomial:
    """gcd(p, q) for nonzero p and q: the PRS over the ring of the variables
    other than ``main``, times the gcd of the two contents."""
    idx = p._var_index(main)
    pl, ql = ([f.slice(idx, k) for k in range(f.degree_in(main) + 1)] for f in (p, q))
    cont = polynomial_gcd(_content(pl), _content(ql))
    core = {
        e[:idx] + (d,) + e[idx + 1 :]: c
        for d, coeff in enumerate(_prs(pl, ql))
        for e, c in coeff._terms.items()
    }
    return primitive_part(cont * Polynomial._wrap(p.variables, core))


# -- heuristic gcd over ZZ (Char, Geddes and Gonnet 1989) ------------------


def _shared_variables(p: Polynomial, q: Polynomial) -> list[str]:
    """Variables of positive degree in both; a common factor lives in these."""
    return [v for v, a, b in zip(p.variables, zip(*p._terms), zip(*q._terms)) if max(a) and max(b)]


def _interpolate(h: Polynomial, idx: int, xi: int) -> Polynomial:
    """Read each coefficient of h back as its symmetric xi-adic digits: the
    k-th digit is the coefficient of variable ``idx`` to the power k."""
    half = xi // 2
    terms: dict[Exponents, int] = {}
    for e, c in h._terms.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            terms[e[:idx] + (k,) + e[idx + 1 :]] = d
            c = (c - d) // xi
            k += 1
    return Polynomial._trusted(h.variables, terms)


def _heu_gcd(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """gcd(f, g) over ZZ for nonzero integer polynomials, or None when no
    candidate passes the acceptance test.

    One shared variable is evaluated at xi, the images' gcd is found by
    recursion, and its xi-adic digits give a candidate h.  A candidate is
    accepted only when h divides f and g exactly and the certificates of
    ``_certified_coprime`` prove the cofactors coprime, which makes h the gcd
    whatever the size of xi.  On a miss xi grows; nothing is drawn at random.
    """
    cont = rational_content((f, g)).numerator
    shared = _shared_variables(f, g)
    if not shared:
        return Polynomial._trusted(f.variables, {(0,) * len(f.variables): cont})
    f, g = _div_ground(f, cont), _div_ground(g, cont)
    v = shared[0]
    idx = f.variables.index(v)
    xi = 2 * min(max(map(abs, f._terms.values())), max(map(abs, g._terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = f.substitute({v: xi}), g.substitute({v: xi})
        image = _heu_gcd(ff, gg) if ff and gg else None
        if image is not None:
            h = primitive_part(_interpolate(image, idx, xi))
            cf, cg = f.exact_div(h), g.exact_div(h)
            if cf is not None and cg is not None and _certified_coprime(cf, cg, _shared_variables(cf, cg)):
                return h * cont
        xi = xi * 73794 // 27011
    return None


def polynomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Greatest common divisor, normalized to a primitive integer polynomial.

    Routes, cheapest first: monomial content, the coprimality certificate,
    the heuristic gcd with its exact acceptance test, and the PRS gcd.
    """
    if p.variables != q.variables:
        raise PolynomialError("polynomials live in different variable rings")
    if p.is_zero():
        return primitive_part(q)
    if q.is_zero():
        return primitive_part(p)
    mono_p = p.monomial_content()
    mono_q = q.monomial_content()
    shared = tuple(min(a, b) for a, b in zip(mono_p, mono_q))
    ps = p.divide_by_monomial(mono_p)
    qs = q.divide_by_monomial(mono_q)
    mono = Polynomial._wrap(p.variables, {shared: 1})
    common = _shared_variables(ps, qs)
    if not common or _certified_coprime(ps, qs, common):
        return mono
    core = _heu_gcd(primitive_part(ps), primitive_part(qs))
    if core is None:
        main = min(common, key=lambda v: min(ps.degree_in(v), qs.degree_in(v)))
        core = _prs_gcd(ps, qs, main)
    return primitive_part(mono * core)

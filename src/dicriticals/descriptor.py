"""Combinatorial model of a tower of admissible blow-ups over a smooth point.

A descriptor records, for each blow-up, the dimension of its center, the set
of earlier exceptional divisors containing the center, and the multiplicity
of each hypercurvette's strict transform along each center.  Every order
computation in the package reduces to one recursion: the order of a pullback
along a new divisor is the multiplicity of the strict transform at the center
plus the orders along the divisors containing the center.

All values are exact integers and all structures are immutable, so the
functions here are pure and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DescriptorError
from .jsonio import SCHEMA_VERSION, FieldCodec, json_field
from .linalg import leading_minors


@dataclass(frozen=True)
class Center:
    """One blow-up center: its dimension and the divisors containing it."""

    dim: int
    parents: frozenset[int]


@dataclass(frozen=True)
class TailData(FieldCodec):
    """Multiplicity data for centers beyond a distinguished index ``s``.

    ``mu_curvettes[i][j]`` is the multiplicity along the i-th center of the
    strict transform of the hypercurvette attached to divisor j (j >= i), and
    ``mu_specials[i][j]`` the analogue for the special hypersurface owned by
    j.  Membership in these maps is explicit input, not derived geometry.
    """

    s: int
    mu_curvettes: Mapping[int, Mapping[int, int]] = json_field(key="muZ", default_factory=dict)
    mu_specials: Mapping[int, Mapping[int, int]] = json_field(key="muH", default_factory=dict)


@dataclass(frozen=True)
class ModificationDescriptor:
    n: int
    m: int
    centers: tuple[Center, ...]
    curvette_mults: tuple[tuple[int, ...], ...]  # row j has exactly j entries
    special_mults: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    tail: TailData | None = None

    def parents(self, j: int) -> frozenset[int]:
        return self.centers[j - 1].parents

    def curvette_mult(self, j: int, t: int) -> int:
        """Multiplicity of hypercurvette j's strict transform along center t."""
        row = self.curvette_mults[j - 1]
        return row[t - 1] if t <= j else 0


@dataclass(frozen=True)
class Violation:
    code: str
    index: object
    message: str


@dataclass(frozen=True)
class ValuationMatrix:
    """Rows are order vectors of the hypercurvettes along every divisor."""

    rows: tuple[tuple[int, ...], ...]
    special_rows: tuple[tuple[int, ...], ...] = ()
    special_owners: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, j: int, i: int) -> int:
        """a(j, i): order of hypercurvette j along divisor i (1-based)."""
        return self.rows[j - 1][i - 1]


def validate_descriptor(d: ModificationDescriptor) -> list[Violation]:
    """Collect every violated structural invariant; an empty list means valid."""
    out: list[Violation] = []

    def bad(code, index, message):
        out.append(Violation(code, index, message))

    if d.n < 2:
        bad("ambient-dimension", None, f"ambient dimension must be >= 2, got {d.n}")
    if d.m < 1:
        bad("length", None, f"at least one blow-up is required, got {d.m}")
    if len(d.centers) != d.m:
        bad("centers-count", None, f"expected {d.m} centers, got {len(d.centers)}")
        return out
    if len(d.curvette_mults) != d.m:
        bad("mult-rows", None, f"expected {d.m} multiplicity rows, got {len(d.curvette_mults)}")
        return out

    for j, center in enumerate(d.centers, start=1):
        if not (0 <= center.dim <= d.n - 2):
            bad("center-dim", j, f"center {j} has dimension {center.dim}, outside [0, {d.n - 2}]")
        if j == 1:
            if center.parents:
                bad("first-center", j, "the first center lies in the base point, not in any divisor")
        elif not center.parents:
            bad("empty-parents", j, f"center {j} must lie in at least one earlier divisor")
        if any(not (1 <= q < j) for q in center.parents):
            bad("parent-range", j, f"center {j} lists a divisor outside 1..{j - 1}")

    for j, row in enumerate(d.curvette_mults, start=1):
        if len(row) != j:
            bad("mult-row-length", j, f"multiplicity row {j} must have {j} entries")
            continue
        if row[j - 1] != 1:
            bad("unit-self-mult", j, f"hypercurvette {j} must meet its own center with multiplicity 1")
        if any(v < 0 for v in row):
            bad("negative-mult", j, f"multiplicity row {j} has a negative entry")

    for owner, row in d.special_mults.items():
        if not (1 <= owner <= d.m):
            bad("special-owner", owner, f"special hypersurface owner {owner} out of range")
        if any(v < 0 for v in row):
            bad("special-negative", owner, f"special multiplicity row for {owner} has a negative entry")

    if d.tail is not None and not out:
        out.extend(_validate_tail(d))
    return out


def _validate_tail(d: ModificationDescriptor) -> list[Violation]:
    out: list[Violation] = []
    tail = d.tail
    s = tail.s
    if not (1 <= s <= d.m):
        out.append(Violation("tail-index", s, f"distinguished index {s} out of range"))
        return out
    parents_s = d.parents(s)
    lows = low_sets(d, s)
    for i in range(s + 1, d.m + 1):
        row = dict(tail.mu_curvettes.get(i, {}))
        if row.get(i, 0) < 1:
            out.append(
                Violation("tail-self", i, f"center {i} must lie on its own hypercurvette with multiplicity >= 1")
            )
        for j, v in row.items():
            if not (i <= j <= d.m):
                out.append(Violation("tail-range", (i, j), f"curvette multiplicity index {j} outside {i}..{d.m}"))
            if v < 1:
                out.append(Violation("tail-positive", (i, j), "listed curvette multiplicities must be >= 1"))
        hrow = dict(tail.mu_specials.get(i, {}))
        for j, v in hrow.items():
            if j not in parents_s:
                out.append(
                    Violation("tail-special-owner", (i, j), f"special multiplicity owner {j} is not a parent of {s}")
                )
            if v < 1:
                out.append(Violation("tail-special-positive", (i, j), "listed special multiplicities must be >= 1"))
        if hrow and not (lows[i] & set(range(1, s))):
            out.append(
                Violation(
                    "tail-low",
                    i,
                    f"center {i} meets a special hypersurface but its image avoids every divisor below {s}",
                )
            )
    return out


def require_valid(d: ModificationDescriptor) -> None:
    violations = validate_descriptor(d)
    if violations:
        summary = "; ".join(v.message for v in violations[:4])
        raise DescriptorError(f"invalid descriptor: {summary}", violations)


def pullback_orders(d: ModificationDescriptor, mult: Sequence[int]) -> tuple[int, ...]:
    """Orders along every divisor of a hypersurface with the given strict
    multiplicities at the centers.

    The recursion is the single source of truth for every order computed in
    this package: order at a divisor = multiplicity at its center plus the
    orders along the divisors containing that center.
    """
    if len(mult) > d.m:
        raise DescriptorError(f"multiplicity table has {len(mult)} entries but only {d.m} blow-ups exist")
    if any(v < 0 for v in mult):
        raise DescriptorError("strict-transform multiplicities must be nonnegative")
    padded = list(mult) + [0] * (d.m - len(mult))
    orders = [0] * (d.m + 1)
    for i in range(1, d.m + 1):
        orders[i] = padded[i - 1] + sum(orders[q] for q in d.parents(i))
    return tuple(orders[1:])


def valuation_matrix(d: ModificationDescriptor) -> ValuationMatrix:
    """Matrix whose row j gives the orders of hypercurvette j along every divisor."""
    require_valid(d)
    rows = tuple(pullback_orders(d, d.curvette_mults[j - 1]) for j in range(1, d.m + 1))
    return ValuationMatrix(rows=rows)


def column_recurrence_holds(d: ModificationDescriptor, v: ValuationMatrix) -> bool:
    """Recompute the defining recurrence of the upper-triangular part."""
    for k in range(1, v.size + 1):
        for i in range(1, v.size + 1):
            expected = sum(v.entry(i, q) for q in d.parents(k))
            if i < k and v.entry(i, k) != expected:
                return False
            if i == k and v.entry(k, k) != expected + 1:
                return False
    return True


def leading_principal_minors(v: ValuationMatrix) -> tuple[int, ...]:
    """Exact determinants of the nested leading submatrices."""
    return leading_minors([list(row) for row in v.rows])


def special_mults_row(
    d: ModificationDescriptor, s: int, owner: int, contact: int, tail: TailData | None
) -> list[int]:
    """Strict multiplicities at the centers of the special hypersurface owned by
    the parent ``owner`` of s: its given row below s, the contact order at s,
    and, when ``tail`` is for s, the tail's multiplicities at the later centers
    (zero where the tail lists none)."""
    if owner not in d.special_mults:
        raise DescriptorError(f"missing special multiplicity row for owner {owner}")
    below = d.special_mults[owner]
    if len(below) != s - 1:
        raise DescriptorError(
            f"special multiplicity row for owner {owner} must have {s - 1} entries, got {len(below)}"
        )
    row = [*below, contact]
    if tail is not None and tail.s == s:
        row += [tail.mu_specials.get(i, {}).get(owner, 0) for i in range(s + 1, d.m + 1)]
    return row


def special_rows(
    d: ModificationDescriptor,
    s: int,
    contact: Mapping[int, int],
    tail: TailData | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Order rows for the special hypersurfaces attached to the parents of s,
    in increasing owner order; ``d`` must be valid.

    Each parent j of divisor s owns one special hypersurface; its multiplicity
    along center s is forced to the prescribed contact order, and multiplicities
    along later centers come from the tail data (``d.tail`` when not given).
    """
    if not (1 <= s <= d.m):
        raise DescriptorError(f"index {s} out of range 1..{d.m}")
    owners = sorted(d.parents(s))
    if not owners:
        raise DescriptorError(f"no special hypersurfaces at {s}: its center lies in no earlier divisor")
    if set(contact) != set(owners):
        raise DescriptorError("contact orders must be given exactly for the parents of s")
    if any(contact[j] < 1 for j in owners):
        raise DescriptorError("contact orders must be positive")
    tail = tail if tail is not None else d.tail
    rows = []
    for j in owners:
        row = pullback_orders(d, special_mults_row(d, s, j, contact[j], tail))
        expected = sum(row[q - 1] for q in owners) + contact[j]
        if row[s - 1] != expected:
            raise DescriptorError(
                f"special row for owner {j} violates the order identity at {s}: {row[s - 1]} != {expected}"
            )
        rows.append(row)
    return tuple(rows)


def special_matrix(
    d: ModificationDescriptor,
    s: int,
    contact: Mapping[int, int],
    tail: TailData | None = None,
) -> ValuationMatrix:
    """The valuation matrix stacked with the ``special_rows`` of s."""
    a = valuation_matrix(d)
    rows = special_rows(d, s, contact, tail)
    return ValuationMatrix(rows=a.rows, special_rows=rows, special_owners=tuple(sorted(d.parents(s))))


def low_sets(d: ModificationDescriptor, s: int) -> dict[int, frozenset[int]]:
    """For each later center, the divisors at or below s that its image lies in.

    Computed by descending through parent sets: a parent at or below s
    contributes itself, a later parent contributes its own set.
    """
    if not (1 <= s <= d.m):
        raise DescriptorError(f"index {s} out of range 1..{d.m}")
    lows: dict[int, frozenset[int]] = {}
    for i in range(s + 1, d.m + 1):
        acc: set[int] = set()
        for q in d.parents(i):
            if q <= s:
                acc.add(q)
            else:
                acc |= lows[q]
        lows[i] = frozenset(acc)
        if not lows[i]:
            raise DescriptorError(f"center {i} has an empty descent set; parent data is inconsistent")
    return lows


def default_curvette_mults(parent_sets: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Default multiplicity table for a fully nested tower.

    Every later center is assumed to sit over the images of all earlier ones,
    so each hypercurvette's strict transform passes through every earlier
    center with multiplicity one.  Non-nested geometry overrides entries.
    """
    return tuple((1,) * (j + 1) for j in range(len(parent_sets)))


def make_descriptor(
    n: int,
    parent_sets: Sequence[Sequence[int]],
    dims: Sequence[int] | None = None,
    curvette_mults: Sequence[Sequence[int]] | None = None,
    special_mults: Mapping[int, Sequence[int]] | None = None,
    tail: TailData | None = None,
) -> ModificationDescriptor:
    """Convenience constructor filling in defaults (point centers, nested table)."""
    m = len(parent_sets)
    dims = list(dims) if dims is not None else [0] * m
    mults = (
        tuple(tuple(row) for row in curvette_mults)
        if curvette_mults is not None
        else default_curvette_mults(parent_sets)
    )
    centers = tuple(Center(dim=dims[j], parents=frozenset(parent_sets[j])) for j in range(m))
    specials = {int(k): tuple(v) for k, v in (special_mults or {}).items()}
    return ModificationDescriptor(
        n=n, m=m, centers=centers, curvette_mults=mults, special_mults=specials, tail=tail
    )


# -- serialization -----------------------------------------------------------


@dataclass(frozen=True)
class DescriptorCenter(FieldCodec):
    """The JSON form of one center with its hypercurvette's multiplicity row."""

    dim: int
    D: tuple[int, ...]
    T_row: tuple[int, ...]


@dataclass(frozen=True)
class DescriptorSpecial(FieldCodec):
    """The JSON form of one special hypersurface's multiplicity row."""

    owner: int
    mu_row: tuple[int, ...]


@dataclass(frozen=True)
class Descriptor(FieldCodec):
    """The JSON form of a descriptor, with a schema version."""

    n: int
    m: int
    centers: tuple[DescriptorCenter, ...]
    special: tuple[DescriptorSpecial, ...] = json_field(omit=True, default=())
    tail: TailData | None = json_field(omit=True, default=None)

    def envelope(self) -> dict:
        return {"schema_version": SCHEMA_VERSION}


def descriptor_to_json(d: ModificationDescriptor) -> dict:
    centers = tuple(
        DescriptorCenter(c.dim, tuple(sorted(c.parents)), row) for c, row in zip(d.centers, d.curvette_mults)
    )
    specials = tuple(DescriptorSpecial(owner, row) for owner, row in sorted(d.special_mults.items()))
    return Descriptor(d.n, d.m, centers, specials, d.tail).to_json()


def descriptor_from_json(data) -> ModificationDescriptor:
    form = Descriptor.from_json(data)
    specials = {}
    for entry in form.special:
        if entry.owner in specials:
            raise DescriptorError(f"special multiplicity row for owner {entry.owner} is given twice")
        specials[entry.owner] = entry.mu_row
    return ModificationDescriptor(
        n=form.n,
        m=form.m,
        centers=tuple(Center(dim=c.dim, parents=frozenset(c.D)) for c in form.centers),
        curvette_mults=tuple(c.T_row for c in form.centers),
        special_mults=specials,
        tail=form.tail,
    )

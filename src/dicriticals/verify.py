"""Symbolic verification of solver certificates against chart towers.

For every divisor in scope the report compares the certificate's predicted
order with the order computed by exact pullback, then checks the restriction
status (constant or dominant) and, where a line template is available, the
restriction degree.  The combinatorial solver and the symbolic engine share
no code path for these numbers, so agreement is a real cross-check.  The
divisor equations of every chart path are the tower's, pushed through once
per tower object (``charts.ChartTower.divisor_eqs``), so the walk of each
function pushes only its leaves.  A stored
certificate must answer the scenario's request, with every order and
exponent vector of the length the descriptor gives and, in each
last-dicritical certificate, the parents of its s as special owners, each
with a special exponent.

A solved request's function is walked as its construction builds it, as a
tuple of ``ratfunc.LeafQuotient`` parts over one tuple of leaves: the bound
equations and the base f and g of each ``single`` construction.  h is the
product of the parts, and only a ``profile`` has more than one (its twisted
single-target candidates).  An explicit request's function is walked in
the equations it names, and the row equations of a matrix-only scenario
together.  The distinct leaves are walked once per chart path, and neither
h, nor a part, nor its reduction is ever formed; ``charts.read_divisor``
reads each row's order and restriction together off the walked leaves at
one stage, and this is exact.  A row that checks a status is read at the
blow-up count of its divisor's chart path, where the scenario check makes
E_i a coordinate, and any other row at E_i's creating stage: ord_E_i is a
divisorial valuation, the same in every chart where E_i is a coordinate.
As a valuation, it makes a leaf monomial's order and lowest slice the sum
and product of its leaves', and a common factor F of a numerator and a
denominator adds ord F to both and puts the same nonzero slice on both
sides.  The reduced restriction is unique, and so are its
status, value, degree and rendered string.  The only gcds on the path of a
solved request are those whose result verify reads: the reduced
restriction at each divisor of total order 0 whose sides, after what
cancels is taken out, are both nonconstant, the degree check, and the base
f/g of a ``single`` construction (see ``candidates.build_single``).  Where
h vanishes along a divisor, its restriction is (0, 1) by the orders alone,
and at a pole it is the numerators' slices over zero; neither builds a
``RationalFunction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .candidates import (
    LeafBuilder,
    build_explicit,
    build_last,
    build_profile,
    build_single,
    build_support,
    lookup_equation,
)
from .charts import StageLeaves, path_walks, read_divisor, restriction_degree, status_of
from .descriptor import ModificationDescriptor, valuation_matrix
from .errors import ChartError, DicriticalError, ScenarioError
from .jsonio import SCHEMA_VERSION, FieldCodec
from .ratfunc import LeafQuotient, RationalFunction
from .scenario import (
    ExpectedStatus,
    ExplicitRequest,
    LastRequest,
    ProfileRequest,
    Scenario,
    SingleRequest,
    SupportRequest,
    TargetRequest,
    restricted_divisors,
    validate_scenario,
)
from .solver import (
    LastDicriticalCertificate,
    SingleDicriticalCertificate,
    SupportCertificate,
    combine_profile,
    solve_last_dicritical,
    solve_single_dicritical,
    solve_support,
)

CONSTANT = "constant"
DICRITICAL = "dicritical"


@dataclass(frozen=True)
class VerifyRow(FieldCodec):
    item: str
    divisor: int
    predicted_order: int | None
    symbolic_order: int
    status: str | None
    value: str | None
    degree: int | None
    expected: str
    ok: bool
    restriction: str | None = None


@dataclass
class VerifyReport(FieldCodec):
    scenario: str
    seed: int
    rows: list[VerifyRow]
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(row.ok for row in self.rows)

    def envelope(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "command": "verify", "overall": "PASS" if self.overall else "FAIL"}


def solve_scenario(sc: Scenario):
    """Dispatch the scenario's request to the matching solver."""
    req = sc.request
    if isinstance(req, SupportRequest):
        return solve_support(valuation_matrix(sc.descriptor), req.targets, req.offsets or None)
    if isinstance(req, TargetRequest):
        return _solve_target(sc.descriptor, req)
    if isinstance(req, ProfileRequest):
        parts = [_solve_target(sc.descriptor, part) for part in req.parts.values()]
        return combine_profile(parts)
    raise ScenarioError("scenario carries no solver request")


def _solve_target(descriptor, req: TargetRequest):
    shared = {
        "special_exponents": req.special_exponents,
        "contact_orders": req.contact_orders,
        "target_orders": req.target_orders,
    }
    if isinstance(req, SingleRequest):
        return solve_single_dicritical(descriptor, req.s, req.degree, tail=req.tail, **shared)
    return solve_last_dicritical(descriptor, req.s, req.degree, **shared)


def explicit_form(sc: Scenario) -> LeafQuotient:
    """The explicit request's function in its leaves, the equations it names."""
    req = sc.request
    assert isinstance(req, ExplicitRequest)
    if sc.tower is None:
        raise ScenarioError("an explicit scenario needs a chart tower")
    return build_explicit(req.num_factors, req.den_terms, sc.equations, sc.tower.variables)


def explicit_function(sc: Scenario) -> RationalFunction:
    """The explicit request's function, reduced, from its multiplied-out view."""
    return RationalFunction(*explicit_form(sc).quotient())


def run_verify(
    sc: Scenario,
    seed: int | None = None,
    certificate=None,
) -> VerifyReport:
    """Full symbolic verification; figures out scope from the request kind.

    With ``certificate`` given, that stored certificate is verified instead
    of solving again (the two agree for deterministic solves, but a tampered
    or stale artifact will be caught here).
    """
    validate_scenario(sc)  # a no-op on a scenario read from JSON, which is checked already
    if sc.tower is None:
        raise ScenarioError("verification needs a chart tower")
    report = VerifyReport(scenario=sc.name, seed=sc.seed if seed is None else seed, rows=[])
    req = sc.request

    if req is None:
        if certificate is not None:
            raise ScenarioError("matrix-only scenarios take no certificate")
        _verify_matrix_rows(sc, report)
        return report

    if isinstance(req, ExplicitRequest):
        if sc.expect is None:
            raise ScenarioError("an explicit scenario needs expected outcomes")
        scope = range(1, sc.descriptor.m + 1)
        _verify_function(sc, report, [("h", (explicit_form(sc),), sc.expect.orders)], scope, sc.expect.statuses)
        return report

    cert = certificate if certificate is not None else solve_scenario(sc)
    _check_certificate_matches(req, cert, sc.descriptor)
    parts, predicted, dicritical = _prescription(sc, req, cert, report)
    scope = restricted_divisors(sc)
    expected = {
        i: ExpectedStatus(DICRITICAL, dicritical[i]) if i in dicritical else ExpectedStatus(CONSTANT) for i in scope
    }
    _verify_function(sc, report, [("h", parts, predicted)], scope, expected)
    return report


def _prescription(sc: Scenario, req, cert, report: VerifyReport):
    """``(parts, predicted orders, {dicritical divisor: degree or None})``
    for a solved request, with h the product of the ``LeafQuotient`` parts
    its construction builds (one part unless it is a profile): h must be
    dicritical exactly at the listed divisors (with the listed degree where
    one is given) and constant on every other divisor whose restriction
    verify reads."""
    if isinstance(req, SupportRequest):
        return (build_support(cert, sc.equations, sc.bindings),), cert.orders, dict.fromkeys(cert.targets)
    if isinstance(req, LastRequest):
        return (build_last(cert, sc.equations, sc.bindings),), cert.orders, {req.s: cert.degree}
    if isinstance(req, SingleRequest):
        return (build_single(cert, sc.equations, sc.bindings),), cert.orders, {req.s: cert.degree}
    parts, twists = build_profile(cert, sc.equations, sc.bindings, random.Random(report.seed))
    report.notes.append("twists: " + ", ".join(f"{t.target}: a={t.a}, b={t.b}" for t in twists))
    return parts, (0,) * sc.descriptor.m, dict(cert.degrees)


def _vector_lengths(cert, m: int) -> dict[str, int]:
    """The length of each order and exponent vector of a certificate on m
    divisors: m, or s and s - 1 for a last-dicritical certificate at s (the
    answer to a ``last`` request, or the base of a ``single`` one)."""
    if isinstance(cert, SupportCertificate):
        return {"exponents": m, "orders": m}
    if isinstance(cert, LastDicriticalCertificate):
        return {"bundle_exponents": cert.s - 1, "orders": cert.s}
    return dict.fromkeys(("numer_orders", "denom_orders", "aux_orders", "orders"), m)


def _check_certificate_matches(req, cert, d: ModificationDescriptor) -> None:
    """The certificate answers the request on the descriptor ``d``: the same
    kind, targets and degrees, every off-target order the request gives,
    every order and exponent vector of the length the descriptor gives, and
    every last-dicritical certificate's special owners the parents of its s,
    each with a special exponent."""
    if cert.kind != req.kind:
        raise ScenarioError(f"a {cert.kind} certificate does not match the {req.kind} request")
    if isinstance(req, SupportRequest):
        given = set(req.targets), dict(req.offsets)
        stored = set(cert.targets), {j: cert.offsets.get(j) for j in req.offsets}
    elif isinstance(req, TargetRequest):
        given, stored = (req.s, req.degree), (cert.s, cert.degree)
    else:
        given = req.degrees, {j: (part.s, part.degree) for j, part in req.parts.items()}
        stored = dict(cert.degrees), {j: (part.s, part.degree) for j, part in cert.parts.items()}
    if given != stored:
        raise ScenarioError(f"the certificate answers {stored}, the request asks for {given}")
    parts = cert.parts.values() if isinstance(req, ProfileRequest) else [cert]
    nested = [*parts, *(part.base for part in parts if isinstance(part, SingleDicriticalCertificate))]
    for part in nested:
        for name, length in _vector_lengths(part, d.m).items():
            if len(getattr(part, name)) != length:
                raise ScenarioError(
                    f"the {part.kind} certificate's {name} has {len(getattr(part, name))} entries, "
                    f"the descriptor gives {length}"
                )
        if isinstance(part, LastDicriticalCertificate):
            _check_special_owners(part, d)


def _check_special_owners(cert: LastDicriticalCertificate, d: ModificationDescriptor) -> None:
    """``candidates.build_last`` reads a special exponent for each special
    owner, and the owners of a last-dicritical certificate at s are the
    parents of s."""
    parents = tuple(sorted(d.parents(cert.s))) if 1 <= cert.s <= d.m else ()
    if tuple(cert.special_owners) != parents:
        raise ScenarioError(
            f"the last certificate at {cert.s} has special owners {list(cert.special_owners)}, "
            f"the parents of {cert.s} are {list(parents)}"
        )
    missing = [j for j in parents if j not in cert.special_exponents]
    if missing:
        raise ScenarioError(f"the last certificate at {cert.s} has no special exponent for owners {missing}")


def _verify_matrix_rows(sc: Scenario, report: VerifyReport) -> None:
    """Matrix-only scenarios: check every bound hypercurvette row symbolically.
    Each row's equation is a leaf, and all of them are walked together."""
    matrix = valuation_matrix(sc.descriptor)
    if not sc.bindings.rows:
        raise ScenarioError("matrix verification needs row bindings")
    leaves = LeafBuilder(sc.tower.variables)
    rows = {
        j: leaves.power(name, lookup_equation(sc.equations, name, f"curvette row {j}"), 1)
        for j, name in sorted(sc.bindings.rows.items())
    }
    items = [(f"curvette {j}", (leaves.form([(row, 1)], [({}, 1)]),), matrix.rows[j - 1]) for j, row in rows.items()]
    _verify_function(sc, report, items, range(1, sc.descriptor.m + 1), {})


def _verify_function(sc, report, items, scope, expected) -> None:
    """Append a row per divisor in ``scope`` for each ``(item, parts,
    predicted orders)`` of ``items``, whose parts all share one tuple of
    leaves: the leaves are walked once per chart path, and each row is read
    once, at its chart path's blow-up count if ``expected`` gives its
    divisor a status and at the divisor's creating stage otherwise."""
    paths = {i: sc.chart_path(i) for i in scope}
    reads = {i: (charts, k if i in expected else i) for i, (charts, k) in paths.items()}
    walks = path_walks(sc.tower, items[0][1][0].leaves, reads)
    leaves = {i: StageLeaves(walks[charts].stages[k], i) for i, (charts, k) in reads.items()}
    for item, parts, predicted in items:
        for i in scope:
            symbolic, restriction = read_divisor(parts, leaves[i])
            if symbolic is None:
                raise ChartError("cannot take the order of the zero function")
            want = None if predicted is None else predicted[i - 1]
            ok = want is None or symbolic == want

            wanted = expected.get(i)  # the ExpectedStatus of the divisor; None checks the order only
            status = value = degree = restriction_str = None
            expected_str = "order"
            if wanted is not None:
                expected_str = wanted.kind if wanted.degree is None else f"{wanted.kind}:{wanted.degree}"
                st = status_of(restriction)
                status = st.kind
                if st.kind == CONSTANT:
                    value = "inf" if st.infinite else str(st.value)
                else:
                    restriction_str = restriction.render()
                ok = ok and st.kind == wanted.kind
                if st.kind == DICRITICAL and wanted.degree is not None:
                    line = sc.lines.get(i)
                    if line is None:
                        raise ScenarioError(f"divisor {i} needs a line template for its degree check")
                    try:
                        degree = restriction_degree(restriction, line)
                    except DicriticalError as exc:
                        report.notes.append(f"degree check failed at divisor {i}: {exc}")
                        ok = False
                    else:
                        ok = ok and degree == wanted.degree
            report.rows.append(
                VerifyRow(
                    item=item,
                    divisor=i,
                    predicted_order=want,
                    symbolic_order=symbolic,
                    status=status,
                    value=value,
                    degree=degree,
                    expected=expected_str,
                    ok=ok,
                    restriction=restriction_str,
                )
            )


def render_report(report: VerifyReport) -> str:
    """Fixed-width text table; stable for golden comparisons."""
    headers = ("item", "divisor", "predicted", "symbolic", "status", "degree", "expected", "ok")
    lines = []
    rows = []
    for row in report.rows:
        status = row.status or "-"
        if row.status == CONSTANT and row.value is not None:
            status = f"constant({row.value})"
        rows.append(
            (
                row.item,
                f"E_{row.divisor}",
                "-" if row.predicted_order is None else str(row.predicted_order),
                str(row.symbolic_order),
                status,
                "-" if row.degree is None else str(row.degree),
                row.expected,
                "ok" if row.ok else "MISMATCH",
            )
        )
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h) for k, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    for r in rows:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in range(len(headers))))
    for note in report.notes:
        lines.append(f"note: {note}")
    restrictions = [
        f"restriction at E_{row.divisor}: {row.restriction}" for row in report.rows if row.restriction
    ]
    lines.extend(restrictions)
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines) + "\n"

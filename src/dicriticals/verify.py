"""Symbolic verification of solver certificates against chart towers.

For every divisor in scope the report compares the certificate's predicted
order with the order computed by exact pullback, then checks the restriction
status (constant or dominant) and, where a line template is available, the
restriction degree.  The combinatorial solver and the symbolic engine share
no code path for these numbers, so agreement is a real cross-check.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .candidates import build_last, build_profile, build_single, build_support, lookup_equation
from .charts import restriction_degree, status_of, walk_order, walk_restriction, walk_tower
from .descriptor import valuation_matrix
from .errors import DicriticalError, ScenarioError
from .jsonio import SCHEMA_VERSION, FieldCodec
from .poly import Polynomial
from .ratfunc import RationalFunction
from .scenario import (
    ExpectedStatus,
    ExplicitRequest,
    LastRequest,
    ProfileRequest,
    Scenario,
    SingleRequest,
    SupportRequest,
    TargetRequest,
    validate_scenario,
)
from .solver import (
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
        return combine_profile(parts, req.degrees)
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


def explicit_function(sc: Scenario) -> RationalFunction:
    req = sc.request
    assert isinstance(req, ExplicitRequest)
    if sc.tower is None:
        raise ScenarioError("an explicit scenario needs a chart tower")
    variables = sc.tower.variables
    num = Polynomial.one(variables)
    for name, exp in req.num_factors:
        num = num * lookup_equation(sc.equations, name, "the explicit numerator") ** exp
    den = Polynomial.zero(variables)
    for term in req.den_terms:
        part = Polynomial.one(variables)
        for name, exp in term:
            part = part * lookup_equation(sc.equations, name, "the explicit denominator") ** exp
        den = den + part
    return RationalFunction(num, den)


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
    validate_scenario(sc)
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
        _verify_function(sc, report, "h", explicit_function(sc), scope, sc.expect.orders, sc.expect.statuses)
        return report

    cert = certificate if certificate is not None else solve_scenario(sc)
    _check_certificate_matches(req, cert)
    h, top, predicted, dicritical = _prescription(sc, req, cert, report)
    expected = {
        i: ExpectedStatus(DICRITICAL, dicritical[i]) if i in dicritical else ExpectedStatus(CONSTANT)
        for i in range(1, top + 1)
    }
    _verify_function(sc, report, "h", h, range(1, top + 1), predicted, expected)
    return report


def _prescription(sc: Scenario, req, cert, report: VerifyReport):
    """``(h, top, predicted orders, {dicritical divisor: degree or None})``
    for a solved request: h must be dicritical exactly at the listed divisors
    (with the listed degree where one is given) and constant on every other
    divisor of 1..top."""
    m = sc.descriptor.m
    if isinstance(req, SupportRequest):
        return build_support(cert, sc.equations, sc.bindings), m, cert.orders, dict.fromkeys(cert.targets)
    if isinstance(req, LastRequest):
        return build_last(cert, sc.equations, sc.bindings), req.s, cert.orders, {req.s: cert.degree}
    if isinstance(req, SingleRequest):
        return build_single(cert, sc.equations, sc.bindings), m, cert.orders, {req.s: cert.degree}
    h, twists = build_profile(cert, sc.equations, sc.bindings, random.Random(report.seed))
    report.notes.append("twists: " + ", ".join(f"{t.target}: a={t.a}, b={t.b}" for t in twists))
    return h, m, (0,) * m, dict(cert.degrees)


def _check_certificate_matches(req, cert) -> None:
    if cert.kind != req.kind:
        raise ScenarioError(f"a {cert.kind} certificate does not match the {req.kind} request")
    if isinstance(req, TargetRequest) and (cert.s, cert.degree) != (req.s, req.degree):
        raise ScenarioError("certificate target or degree disagrees with the request")
    if isinstance(req, ProfileRequest) and set(cert.parts) != set(req.parts):
        raise ScenarioError("certificate target set disagrees with the request")


def _path_walks(sc: Scenario, h: RationalFunction):
    """Walk h at most once per (charts, blowups) chart path of the scenario."""
    return functools.cache(lambda charts, blowups: walk_tower(sc.tower, [h.num, h.den], charts, blowups))


def _order(walks, sc: Scenario, divisor: int) -> int:
    charts, blowups = sc.chart_path(divisor)
    # a path that stops before the divisor exists is walked on to its creating step
    return walk_order(walks(charts, None if blowups is None else max(blowups, divisor)), divisor)


def _verify_matrix_rows(sc: Scenario, report: VerifyReport) -> None:
    """Matrix-only scenarios: check every bound hypercurvette row symbolically."""
    matrix = valuation_matrix(sc.descriptor)
    if not sc.bindings.rows:
        raise ScenarioError("matrix verification needs row bindings")
    for j in sorted(sc.bindings.rows):
        h = RationalFunction(lookup_equation(sc.equations, sc.bindings.rows[j], f"curvette row {j}"))
        _verify_function(sc, report, f"curvette {j}", h, range(1, sc.descriptor.m + 1), matrix.rows[j - 1], {})


def _verify_function(sc, report, item, h, scope, predicted, expected) -> None:
    walks = _path_walks(sc, h)
    for i in scope:
        symbolic = _order(walks, sc, i)
        want = None if predicted is None else predicted[i - 1]
        ok = want is None or symbolic == want

        wanted = expected.get(i)  # the ExpectedStatus of the divisor; None checks the order only
        status = None
        value = None
        degree = None
        restriction_str = None
        expected_str = "order"
        if wanted is not None:
            expected_str = wanted.kind if wanted.degree is None else f"{wanted.kind}:{wanted.degree}"
            restriction = walk_restriction(walks(*sc.chart_path(i)), i)
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

"""Batch command line: matrices, certificates, symbolic verification, reports.

Artifacts land under ``--out`` as ``<scenario>.<command>.json`` and are
append-only: rewriting an artifact with different bytes is reported as drift
and fails the run.  Exit codes: 0 pass, 1 invariant violation or drift,
2 input error.

A call pays only for its answer.  ``main`` parses the arguments once, with
the parser of the subcommand that ``argv`` names; only an ``argv`` that
names none goes through the top-level parser.  Files are handled with plain
``os`` calls: an input file is checked with one ``os.path.exists`` and
opened once, and an artifact is created exclusively, with ``--out`` made
only when it is missing.  A ``Path`` is built only to print a path in an
error message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .descriptor import leading_principal_minors, special_rows, valuation_matrix
from .errors import DicriticalError, ScenarioError
from .fixtures import FIXTURES, load_fixture
from .jsonio import canonical_dumps
from .scenario import Scenario, SingleRequest, TargetRequest, scenario_from_json
from .solver import certificate_from_json, request_maps, tail_descriptor
from .verify import VerifyReport, render_report, run_verify, solve_scenario

PASS, VIOLATION, INPUT_ERROR = 0, 1, 2


def _shown(path: str) -> str:
    """``path`` as error messages print it: normalised by ``pathlib``, quoted."""
    return repr(str(Path(path)))


def _read_json_file(path: str, what: str, parse):
    """Parse the JSON file at ``path`` with ``parse``.

    A path that cannot be read, data that is not JSON or nests too deeply,
    lacks a key, holds a field of the wrong type or fails a check while it
    is parsed becomes a ``ScenarioError``, that is, an input error.
    """
    try:
        with open(path) as f:
            text = f.read()
        return parse(json.loads(text))
    except ScenarioError:
        raise
    except DicriticalError as exc:
        raise ScenarioError(f"{what} {_shown(path)} is invalid: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"{what} {_shown(path)} cannot be read: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{what} {_shown(path)} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{what} {_shown(path)} nests too deeply to be read") from None
    except KeyError as exc:
        raise ScenarioError(f"{what} {_shown(path)} lacks the key {exc}") from None
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{what} {_shown(path)} holds a malformed field: {exc}") from None


def load_scenario(ref: str) -> Scenario:
    if ref in FIXTURES:
        return load_fixture(ref)
    if not os.path.exists(ref):
        raise ScenarioError(f"scenario {ref!r} is neither a fixture name nor a file")
    return _read_json_file(ref, "scenario file", scenario_from_json)


def write_artifact(out_dir: str, name: str, payload: str) -> bool:
    """Write an append-only artifact; returns False on drift.

    The artifact is created exclusively (``open(target, "x")``).  If it
    exists, its stored text is compared with ``payload``; if ``out_dir`` is
    missing, it is created and the artifact created again.  An artifact that
    cannot be written or read back (``out_dir`` is a file, or the artifact a
    directory, say) is an input error."""
    target = os.path.join(out_dir, name)
    try:
        try:
            f = open(target, "x")
        except FileNotFoundError:
            os.makedirs(out_dir, exist_ok=True)
            f = open(target, "x")
        with f:
            f.write(payload)
        return True
    except FileExistsError:
        pass
    except OSError as exc:
        raise _unwritable(target, exc) from None
    try:
        with open(target) as f:
            same = f.read() == payload
    except OSError as exc:
        raise _unwritable(target, exc) from None
    if not same:
        print(f"drift: {Path(target)} already exists with different content", file=sys.stderr)
    return same


def _unwritable(target: str, exc: OSError) -> ScenarioError:
    return ScenarioError(f"cannot write the artifact {_shown(target)}: {exc}")


def _format_matrix(rows) -> str:
    cells = [[str(v) for v in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def cmd_matrix(args) -> int:
    scenario = load_scenario(args.scenario)
    matrix = valuation_matrix(scenario.descriptor)
    minors = leading_principal_minors(matrix)
    print(f"valuation matrix of {scenario.name}:")
    print(_format_matrix(matrix.rows))
    specials = ()
    request, d = scenario.request, scenario.descriptor
    if isinstance(request, TargetRequest) and d.parents(request.s):
        if isinstance(request, SingleRequest):
            d = tail_descriptor(d, request.s, request.tail)
        maps = request.special_exponents, request.contact_orders, request.target_orders
        _, contacts, _ = request_maps(d, request.s, request.degree, *maps)
        specials = special_rows(d, request.s, contacts)
        print("special hypersurface rows:")
        print(_format_matrix(specials))
    print(f"leading principal minors: {list(minors)}")
    payload = canonical_dumps(
        {
            "command": "matrix",
            "scenario": scenario.name,
            "rows": [list(r) for r in matrix.rows],
            "special_rows": [list(r) for r in specials],
            "minors": list(minors),
        }
    )
    if args.out and not write_artifact(args.out, f"{scenario.name}.matrix.json", payload):
        return VIOLATION
    return PASS


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    data = solve_scenario(scenario).to_json()
    payload = canonical_dumps(data)
    print(f"certificate for {scenario.name}:")
    _print_profile(data)
    if not write_artifact(args.out, f"{scenario.name}.solve.json", payload):
        return VIOLATION
    return PASS


def _print_profile(data: dict) -> None:
    kind = data["kind"]
    if kind == "support":
        print(f"  exponents: {data['exponents']}")
        print(f"  orders:    {data['orders']}")
        if data["needs_split"]:
            print(f"  nonconstant bundles required at: {data['needs_split']}")
    elif kind == "last":
        print(f"  bundle exponents: {data['bundle_exponents']}")
        print(f"  orders:           {data['orders']}")
    elif kind == "single":
        print(f"  later exponents: {data['later_exponents']}")
        print(f"  pole power:      {data['pole_power']}")
        print(f"  orders:          {data['orders']}")
    elif kind == "profile":
        print(f"  degrees: {data['degrees']}")
        for j, part in sorted(data["parts"].items(), key=lambda kv: int(kv[0])):
            print(f"  part {j}: pole power {part['pole_power']}, orders {part['orders']}")


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    certificate = None
    if args.certificate:
        if not os.path.exists(args.certificate):
            raise ScenarioError(f"no certificate at {Path(args.certificate)}")
        certificate = _read_json_file(args.certificate, "certificate file", certificate_from_json)
    report = run_verify(scenario, seed=args.seed, certificate=certificate)
    text = render_report(report)
    print(text, end="")
    payload = canonical_dumps(report.to_json())
    ok = True
    if args.out:
        ok = write_artifact(args.out, f"{scenario.name}.verify.json", payload)
    if not report.overall or not ok:
        return VIOLATION
    return PASS


def cmd_report(args) -> int:
    scenario = load_scenario(args.scenario)
    path = os.path.join(args.out, f"{scenario.name}.verify.json")
    if not os.path.exists(path):
        raise ScenarioError(f"no verification artifact at {Path(path)}; run verify first")
    report = _read_json_file(path, "verification artifact", VerifyReport.from_json)
    if report.scenario != scenario.name:
        raise ScenarioError(f"the verification artifact {_shown(path)} is of scenario {report.scenario!r}")
    text = render_report(report)
    print(text, end="")
    if not write_artifact(args.out, f"{scenario.name}.report.txt", text):
        return VIOLATION
    return PASS if report.overall else VIOLATION


def cmd_list(_args) -> int:
    for name in sorted(FIXTURES):
        print(name)
    return PASS


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are input errors, not exits.

    ``build_parser`` sets ``commands`` on the top-level parser: each
    subcommand's name mapped to that subcommand's parser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise ScenarioError(message)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process, with its
    ``commands`` mapping (see ``_Parser``)."""
    parser = _Parser(
        prog="dicriticals",
        description="exact construction and verification of prescribed dicritical profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="fixture name or scenario JSON path")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")

    p_matrix = sub.add_parser("matrix", help="print the valuation matrix and its minors")
    common(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_solve = sub.add_parser("solve", help="run the requested solver and store the certificate")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify the certificate symbolically on charts")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_verify.add_argument(
        "--certificate", default=None, help="verify this stored certificate instead of re-solving"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="render a stored verification as a text table")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.set_defaults(func=cmd_list)
    parser.commands = {"matrix": p_matrix, "solve": p_solve, "verify": p_verify, "report": p_report, "list": p_list}
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except DicriticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 = success/certified, 1 = rejected, 2 = invalid input,
3 = table verification mismatch.  Payload goes to stdout, diagnostics to
stderr; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .certify import (
    ENUMERATION_GUARD,
    Certificate,
    CicyType,
    certify,
    enumerate_region,
    node_table,
    verify_node_table,
)
from .chern import ExcessProblem, excess_count, rigid_count

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3

_FORMATS = ("json", "csv", "markdown")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:  # markdown
        print("| " + " | ".join(header) + " |")
        print("| " + " | ".join("---" for _ in header) + " |")
        for row in rows:
            print("| " + " | ".join(row) + " |")


def _dashed(degrees: Sequence[int]) -> str:
    return "-".join(str(x) for x in degrees)


def run_certify(args: argparse.Namespace) -> int:
    try:
        cicy = CicyType.from_string(args.type)
    except ValueError as exc:
        return _fail(str(exc))
    if args.d < 0 or args.g < 0:
        return _fail(f"d and g must be nonnegative, got d={args.d}, g={args.g}")
    if max(args.d, args.g) > ENUMERATION_GUARD:
        return _fail(
            f"d and g must be at most {ENUMERATION_GUARD}, "
            f"got d={args.d}, g={args.g}"
        )
    certificate = certify(cicy, args.d, args.g)
    _emit_json(certificate.to_dict())
    return EXIT_OK if certificate.derived.accept else EXIT_REJECTED


def _certificate_row(certificate: Certificate) -> list[str]:
    chosen = certificate.derived.chosen
    return [
        str(certificate.d),
        str(certificate.g),
        "accept" if certificate.stated.accept else "reject",
        "accept" if certificate.derived.accept else "reject",
        _dashed(chosen.row.k3_degrees) if chosen else "",
        str(chosen.row.nodes) if chosen else "",
        str(certificate.count) if certificate.count is not None else "",
        ";".join(certificate.warnings),
    ]


def run_enumerate(args: argparse.Namespace) -> int:
    try:
        cicy = CicyType.from_string(args.type)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        certificates = enumerate_region(cicy, args.d_max, args.g_max)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "json":
        _emit_json(
            {
                "input": {
                    "type": cicy.type_string(),
                    "d_max": args.d_max,
                    "g_max": args.g_max,
                },
                "certificates": [c.to_dict() for c in certificates],
            }
        )
    else:
        header = ["d", "g", "stated", "derived", "embedding", "n", "count",
                  "warnings"]
        _emit_rows(header, [_certificate_row(c) for c in certificates],
                   args.format)
    return EXIT_OK


def run_table(args: argparse.Namespace) -> int:
    if args.verify:
        checks = verify_node_table()
        all_agree = all(check.agree for check in checks)
        if args.format == "json":
            _emit_json(
                {
                    "rows": [check.to_dict() for check in checks],
                    "all_agree": all_agree,
                }
            )
        else:
            header = ["cicy", "k3", "n", "computed_n", "agree"]
            rows = [
                [
                    _dashed(check.row.cicy.degrees),
                    _dashed(check.row.k3_degrees),
                    str(check.row.nodes),
                    str(check.computed),
                    "yes" if check.agree else "no",
                ]
                for check in checks
            ]
            _emit_rows(header, rows, args.format)
        return EXIT_OK if all_agree else EXIT_MISMATCH
    rows = node_table()
    if args.format == "json":
        _emit_json({"rows": [row.to_dict() for row in rows]})
    else:
        header = ["cicy", "k3", "n"]
        _emit_rows(
            header,
            [
                [_dashed(r.cicy.degrees), _dashed(r.k3_degrees), str(r.nodes)]
                for r in rows
            ],
            args.format,
        )
    return EXIT_OK


def run_count(args: argparse.Namespace) -> int:
    try:
        problem = ExcessProblem(args.n, args.ell)
    except ValueError as exc:  # HypothesisError included
        return _fail(str(exc))
    if args.n > ENUMERATION_GUARD:
        return _fail(f"n must be at most {ENUMERATION_GUARD}, got n={args.n}")
    series_value = excess_count(problem)
    binomial_value = rigid_count(args.n, args.ell)
    _emit_json(
        {
            "n": args.n,
            "ell": args.ell,
            "excess_count": str(series_value),
            "binomial_count": str(binomial_value),
            "agree": series_value == binomial_value,
        }
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidcurves",
        description=(
            "Certify rigid-curve existence on complete intersection "
            "Calabi-Yau threefolds and count the rigid curves exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify one (family, degree, genus)")
    p.add_argument("--type", required=True,
                   help="family multidegree: 5 | 4,2 | 3,3 | 3,2,2 | 2,2,2,2")
    p.add_argument("--d", type=int, required=True, help="curve degree")
    p.add_argument("--g", type=int, required=True, help="curve genus")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=run_certify)

    p = sub.add_parser("enumerate", help="sweep a (d, g) region")
    p.add_argument("--type", required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.set_defaults(func=run_enumerate)

    p = sub.add_parser("table", help="print (and optionally verify) the node table")
    p.add_argument("--verify", action="store_true",
                   help="recompute each node count and compare")
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.set_defaults(func=run_table)

    p = sub.add_parser("count", help="rigid-curve count for given n and ell")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--ell", type=int, required=True,
                   help="dimension of the linear system")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=run_count)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 = success/certified, 1 = rejected, 2 = invalid input,
3 = table verification mismatch, 74 = stdout cannot be written (a full disk,
a closed descriptor; one line on stderr), 141 = stdout closed by its reader
(as if killed by SIGPIPE, with nothing on stderr).  Payload goes to stdout,
diagnostics to stderr; stdout carries only payload even with fd 2 closed.  An
error line that cannot be written is dropped, and the exit code alone reports
the failure.  Identical invocations produce byte-identical output.
JSON is exactly ``json.dumps(document, indent=2)``, and every command writes
it through one writer, ``_member``, from its records' ``members()``; no
command builds a dict or calls ``to_dict()``.  ``enumerate`` streams
every format one certificate at a time; memory does not grow with the region.
It reuses the text of records and cells it holds from the last certificate.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .certify import (
    ENUMERATION_GUARD,
    Certificate,
    CicyType,
    certify,
    enumerate_region,
    verify_node_table,
)
from .chern import ExcessProblem, excess_count, rigid_count
from .k3 import _Object

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_IO_ERROR = 74  # EX_IOERR
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_FORMATS = ("json", "csv", "markdown")


def _fail(message: str, code: int) -> int:
    try:  # as in argparse 3.11+, a line that cannot be written is dropped
        sys.stderr.write(f"error: {message}\n")
    except OSError:
        pass
    return code


def _family(text: str) -> CicyType:
    try:
        return CicyType.from_string(text)
    except ValueError as exc:  # argparse would replace the message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bounded_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name this function
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if not 0 <= value <= ENUMERATION_GUARD:
        raise argparse.ArgumentTypeError(
            f"must be nonnegative and at most {ENUMERATION_GUARD}, got {text}")
    return value


# the JSON text of a scalar, by exact type (a str or int subclass is none)
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {False: "false", True: "true"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


# '"key": ' for each member key that _member has written, encoded once; the
# keys the CLI writes are the fixed set its records' members() name
_LABELS: dict[str, str] = {}


def _member(slots: dict, at: object, value: object, newline: str) -> str:
    """``json.dumps(_document(value), indent=2)`` for a record or a tuple,
    byte for byte, with each line break replaced by ``newline``.  The text
    is kept in slot ``at`` with ``value`` and the slots under it, and reused
    while ``value`` is the very object held there (``is``): records are
    immutable and the slot keeps its object alive, so reused text is always
    that of ``value``, and the output is the same whether or not records are
    shared.  Equality would not do: ``True == 1``, and a record equals one of
    another type with equal fields, yet each encodes differently.  A scalar
    member or item is encoded in place; any other has a slot of its own, so
    only the records not held are encoded.
    Any other type raises ``TypeError``: floats, non-``str`` keys, subclasses
    of ``str`` or ``int``, and tuples with no ``members()``."""
    held = slots.get(at)
    if held is not None and held[0] is value:
        return held[1]
    if type(value) is tuple:
        pairs, labelled, start, end = enumerate(value), False, "[", "]"
    elif isinstance(value, tuple):
        try:  # looked up apart from the call, whose own errors pass through
            members = value.members
        except AttributeError:
            raise TypeError(f"cannot encode {type(value).__name__} as JSON: "
                            "it has no members()") from None
        pairs, labelled, start, end = members(), True, "{", "}"
    else:  # a float, a dict, a str or int subclass...
        raise TypeError(f"cannot encode {type(value).__name__} as JSON")
    nested, inner, parts = {} if held is None else held[2], newline + "  ", []
    for key, item in pairs:
        # a key that is no str raises here, before its item fills a slot
        label = (_LABELS.get(key) or _LABELS.setdefault(
            key, encode_basestring_ascii(key) + ": ")) if labelled else ""
        scalar = _SCALARS.get(type(item))
        parts.append(label + (scalar(item) if scalar
                              else _member(nested, key, item, inner)))
    # one f-string copies the joined parts once; before Python 3.12 its
    # expressions may hold no backslash
    text = (f"{start}{inner}{(',' + inner).join(parts)}{newline}{end}"
            if parts else start + end)
    slots[at] = (value, text, nested)
    return text


# format -> the text before a row's first cell, between cells, and after
_ROW_TEXT = {"csv": ("", ",", "\n"), "markdown": ("| ", " | ", " |\n")}


def _emit_rows(header: list[str], rows: Iterable[list[str]], fmt: str) -> None:
    write, (start, sep, end) = sys.stdout.write, _ROW_TEXT[fmt]
    write(start + sep.join(header) + end)
    if fmt == "markdown":
        write(start + sep.join(["---"] * len(header)) + end)
    for row in rows:
        write(start + sep.join(row) + end)


def _dashed(degrees: tuple[int, ...]) -> str:
    return "-".join(map(str, degrees))


def run_certify(args: argparse.Namespace) -> int:
    certificate = certify(args.type, args.d, args.g)
    print(_member({}, None, certificate, "\n"))
    return EXIT_OK if certificate.derived.accept else EXIT_REJECTED


def _certificate_row(certificate: Certificate) -> list[str]:
    chosen, count = certificate.derived.chosen, certificate.count
    return [
        str(certificate.d),
        str(certificate.g),
        "accept" if certificate.stated.accept else "reject",
        "accept" if certificate.derived.accept else "reject",
        _dashed(chosen.row.k3_degrees) if chosen else "",
        str(chosen.row.nodes) if chosen else "",
        str(count) if count is not None else "",
        ";".join(certificate.warnings),
    ]


def run_enumerate(args: argparse.Namespace) -> int:
    try:
        certificates = enumerate_region(args.type, args.d_max, args.g_max)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    if args.format == "json":
        # the document {"input": ..., "certificates": [...]}, written one
        # certificate at a time
        write = sys.stdout.write
        region = _Object((("type", args.type.type_string()),
                          ("d_max", args.d_max), ("g_max", args.g_max)))
        write('{\n  "input": ' + _member({}, None, region, "\n  ")
              + ',\n  "certificates": [')
        # one slot per document path, for this call only (see _member), so
        # their number is bounded by the document's shape, not the region:
        # consecutive certificates mostly share their records
        separator, slots = "\n    ", {}
        for certificate in certificates:
            write(separator + _member(slots, None, certificate, "\n    "))
            separator = ",\n    "
        write("]\n}\n" if separator == "\n    " else "\n  ]\n}\n")
    else:
        _emit_rows(["d", "g", "stated", "derived", "embedding", "n", "count",
                    "warnings"], (), args.format)
        # the cells after d and g, reused while stated.accept and derived are
        # the ones held (``is``); a column shares its derived verdicts.  Any
        # other row rebuilds them from _certificate_row, the one definition of
        # a row, so an equal verdict that is another object costs only time
        write, (start, sep, end) = sys.stdout.write, _ROW_TEXT[args.format]
        accept = derived = None
        for c in certificates:
            if c.derived is not derived or c.stated.accept is not accept:
                accept, derived = c.stated.accept, c.derived
                tail = sep + sep.join(_certificate_row(c)[2:]) + end
            write(f"{start}{c.d}{sep}{c.g}{tail}")
    return EXIT_OK


def run_table(args: argparse.Namespace) -> int:
    checks = verify_node_table()
    all_agree = all(check.agree for check in checks)
    if args.format == "json":
        rows = tuple(checks) if args.verify else tuple(c.row for c in checks)
        pairs = (("rows", rows), ("all_agree", all_agree))
        print(_member({}, None, _Object(pairs if args.verify else pairs[:1]),
                      "\n"))
    else:
        width = None if args.verify else 3
        header = ["cicy", "k3", "n", "computed_n", "agree"][:width]
        rows = [
            [
                _dashed(check.row.cicy.degrees),
                _dashed(check.row.k3_degrees),
                str(check.row.nodes),
                str(check.computed),
                "yes" if check.agree else "no",
            ][:width]
            for check in checks
        ]
        _emit_rows(header, rows, args.format)
    return EXIT_MISMATCH if args.verify and not all_agree else EXIT_OK


def run_count(args: argparse.Namespace) -> int:
    try:
        problem = ExcessProblem(args.n, args.ell)
    except ValueError as exc:  # HypothesisError included
        return _fail(str(exc), EXIT_INVALID)
    series_value = excess_count(problem)
    binomial_value = rigid_count(args.n, args.ell)
    print(_member({}, None, _Object((
        ("n", args.n),
        ("ell", args.ell),
        ("excess_count", str(series_value)),
        ("binomial_count", str(binomial_value)),
        ("agree", series_value == binomial_value),
    )), "\n"))
    return EXIT_OK


@functools.cache  # built once, at the first main() call rather than at import
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
    p.add_argument("--type", type=_family, required=True,
                   help="family multidegree: 5 | 4,2 | 3,3 | 3,2,2 | 2,2,2,2")
    p.add_argument("--d", type=_bounded_int, required=True, help="curve degree")
    p.add_argument("--g", type=_bounded_int, required=True, help="curve genus")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=run_certify)

    p = sub.add_parser("enumerate", help="sweep a (d, g) region")
    p.add_argument("--type", type=_family, required=True)
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
    p.add_argument("--n", type=_bounded_int, required=True, help="number of nodes")
    p.add_argument("--ell", type=int, required=True,
                   help="dimension of the linear system")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=run_count)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stderr is None:  # fd 2 closed; print and argparse would use stdout
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # fd 1 was closed before the start
        return _fail("cannot write output: stdout is closed", EXIT_IO_ERROR)
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # 0 after --help, 2 for an argument error
            code = exc.code
        else:
            code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # writing stdout: no command reads or opens files
        return _fail(f"cannot write output: {exc}", EXIT_IO_ERROR)
    return code


if __name__ == "__main__":
    sys.exit(main())

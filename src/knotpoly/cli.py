"""Command-line front end: print invariant tables, compute single
polynomials, derive skein coefficients and run the verification suites.

Exit status: 0 on success, 1 when a verify suite reports failures, 2 on
usage errors, among them an index whose request is estimated past
``MAX_DIGITS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import islice

from . import identities
from .bivar import BiPoly
from .chebyshev import _CHEB_FIRST_REC, _CHEB_SECOND_REC, cheb_first, cheb_second
from .invariants import (
    _HOMFLY_REC,
    _KNOT_REC,
    _RX_REC,
    _UNIFIED_REC,
    alexander_closed,
    compose_skein,
    derive_skein,
    homfly_closed,
)
from .qnumbers import qnum_closed, qpnum_closed


# -- the two tables --------------------------------------------------------
# Builders and recurrence declarations are named inside the lambdas, so every
# call looks them up in this module's globals, where a patched one takes
# effect.  Each table family yields its rows, so a table holds one member at
# a time (a recurrence two), never the whole table.


def _rows(label, polys, start=0):
    """Rows ``("<label>=<i>", poly)`` of ``polys``, i counting from ``start``."""
    return ((f"{label}={i}", poly) for i, poly in enumerate(polys, start))


# each family: its (label, polynomial) rows for ``--max k``, and the text
# order of a bivariate family (None for a univariate one)
_TABLE_FAMILIES = {
    "alexander-knots": (
        lambda k: _rows("m", (alexander_closed(2 * m + 1) for m in range(k + 1))), None),
    "alexander-links": (
        lambda k: ((f"m={2 * j + 1}/2", alexander_closed(2 * j + 2)) for j in range(k)), None),
    "unified": (lambda k: _rows("s", islice(_UNIFIED_REC.members(), k), 1), None),
    "homfly": (lambda k: _rows("m", islice(_HOMFLY_REC.members(), k + 1)), True),
    "qnum": (lambda k: _rows("n", map(qnum_closed, range(1, k + 1)), 1), None),
    "qpnum": (lambda k: _rows("n", map(qpnum_closed, range(1, k + 1)), 1), False),
    "chebyshev-first": (lambda k: _rows("n", islice(_CHEB_FIRST_REC.members(), k + 1)), None),
    "chebyshev-second": (lambda k: _rows("n", islice(_CHEB_SECOND_REC.members(), k + 1)), None),
}

# each single-polynomial command: its help, its index option with that
# option's least value and help, its member as a function of the parsed
# arguments, and the text order as for a table family
_MEMBER_COMMANDS = {
    "alexander": ("Alexander polynomial of the s-crossing member", "s", 1,
                  "crossing number, s >= 1", lambda a: alexander_closed(a.s), None),
    "homfly": ("HOMFLY polynomial of the degree-m knot member", "m", 0,
               "degree index, m >= 0", lambda a: homfly_closed(a.m), True),
    "qnum": ("q-number of the integer n", "n", 0, None, lambda a: qnum_closed(a.n), None),
    "qpnum": ("q,p-number of the integer n", "n", 0, None, lambda a: qpnum_closed(a.n), False),
    "chebyshev": ("Chebyshev polynomial of the first or second kind", "n", 0, None,
                  lambda a: cheb_first(a.n) if a.kind == "first" else cheb_second(a.n), None),
}


def _text(poly, ascending):
    """The text form, in the order ``ascending`` when it is a bivariate one."""
    return poly.render() if ascending is None else poly.render(ascending=ascending)


# -- subcommand handlers -----------------------------------------------


def _cmd_member(args):
    *_, build, ascending = _MEMBER_COMMANDS[args.command]
    poly = build(args)
    print(poly.render("json") if args.format == "json" else _text(poly, ascending))
    return 0


# each family: the (c1, c2) of a builder's recurrence, as BiPoly values,
# and the text order; the knot members' pair is lifted into (t, u)
_SKEIN_FAMILIES = {
    "classical": (BiPoly._make(("t", "u"), {(k, 0): c for k, c in _KNOT_REC.c1.terms.items()}),
                  BiPoly.constant(_KNOT_REC.c2, ("t", "u")), False),
    "rx": (_RX_REC.c1, _RX_REC.c2, True),
    "az": (_HOMFLY_REC.c1, _HOMFLY_REC.c2, True),
}


def _cmd_skein_derive(args):
    c1, c2, ascending = _SKEIN_FAMILIES[args.family]
    coeffs = derive_skein(c1, c2)
    back = compose_skein(coeffs.b1, coeffs.b2)
    roundtrip_ok = back == (c1, c2)
    named = (("c1", c1), ("c2", c2), ("b1", coeffs.b1), ("b2", coeffs.b2))
    if args.format == "json":
        values = {name: value.to_json_dict() for name, value in named}
        print(json.dumps({"family": args.family, **values, "roundtrip_ok": roundtrip_ok}))
    else:
        for name, value in named:
            print(f"{name} = {value.render(ascending=ascending)}")
    if roundtrip_ok:
        return 0
    back_c1, back_c2 = (c.render(ascending=ascending) for c in back)
    print(f"FAIL round trip: compose_skein(b1, b2) gives c1 = {back_c1}, c2 = {back_c2}",
          file=sys.stderr)
    return 1


def _cmd_verify(args):
    try:
        identities.check(args.suite, args.max_n)
    except ValueError as exc:
        # refused before any sequence is built, as a usage error
        print(f"knotpoly verify: error: {exc}", file=sys.stderr)
        return 2
    passed, total, failures = identities.run(args.suite, args.max_n)
    if args.format == "json":
        report = {"suite": args.suite, "max_n": args.max_n, "passed": passed,
                  "total": total, "failures": failures}
        print(json.dumps(report))
    else:
        print(f"{passed}/{total} identities hold")
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
    return 0 if passed == total else 1


def _cmd_table(args):
    rows_for, ascending = _TABLE_FAMILIES[args.family]
    write = sys.stdout.write
    if args.format == "json":
        # json.dumps of the schema, written row by row as each is built: only
        # the family and the labels need escaping, and each polynomial writes
        # its own
        write(f'{{"family": {json.dumps(args.family)}, "rows": [')
        sep = ""
        for label, poly in rows_for(args.max):
            write(f'{sep}{{"label": {json.dumps(label)}, "poly": {poly.render("json")}}}')
            sep = ", "
        write("]}\n")
    else:
        for label, poly in rows_for(args.max):
            write(f"{label}: {_text(poly, ascending)}\n")
    return 0


# -- parser -----------------------------------------------------------------


# The largest request accepted, as an estimate of the coefficient digits it
# builds: a member of index n has at most about n terms of at most about n
# digits, n^2 in all, and a table or a verify sweep to n builds n members,
# n^3 in time.  A table streams its rows, so its memory is one member's; a
# verify sweep holds its members.  10^12 = (10^6)^2 = (10^4)^3, so those are
# the largest indices.
MAX_DIGITS = 10**12


# an integer as int() reads one: its sign and its digits, in any script, with
# the whitespace int() strips (Unicode whitespace but the separators \x1c-\x1f)
_INTEGER = re.compile(r"[^\S\x1c-\x1f]*([+-]?)(\d+(?:_\d+)*)[^\S\x1c-\x1f]*")


def _index(lower, power):
    """An argparse type: an integer n no smaller than ``lower`` whose request,
    estimated at n^``power`` digits, is at most ``MAX_DIGITS``.  Text that is
    no integer is echoed cut to 40 characters."""

    def parse(text):
        match = _INTEGER.fullmatch(text)
        if match is None:
            shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
            raise argparse.ArgumentTypeError(f"{shown} is not an integer")
        # with 20 significant digits or more an index is past every cap, so
        # int() reads at most 19 and never meets the interpreter's
        # int-from-str digit limit, which counts leading zeros
        digits = match[2].replace("_", "")
        value = MAX_DIGITS if any(map(int, digits[:-19])) else int(digits[-19:])
        if match[1] == "-":
            value = -value
        if value < lower:
            raise argparse.ArgumentTypeError(
                "value must be nonnegative" if lower == 0 else f"value must be at least {lower}"
            )
        if value ** power > MAX_DIGITS:
            raise argparse.ArgumentTypeError(
                f"value must be at most {round(MAX_DIGITS ** (1 / power))}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotpoly",
        description="Exact polynomial invariants of (s,2) torus knots and links.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (text, option, least, option_help, _, _) in _MEMBER_COMMANDS.items():
        p = sub.add_parser(name, parents=[fmt], help=text)
        if name == "chebyshev":
            p.add_argument("--kind", choices=("first", "second"), required=True)
        p.add_argument(f"--{option}", type=_index(least, 2), required=True, help=option_help)
        p.set_defaults(func=_cmd_member)

    p = sub.add_parser(
        "skein-derive",
        parents=[fmt],
        help="derive stepwise skein coefficients from recurrence coefficients",
    )
    p.add_argument("--family", choices=tuple(_SKEIN_FAMILIES), required=True)
    p.set_defaults(func=_cmd_skein_derive)

    p = sub.add_parser("verify", parents=[fmt], help="run an identity suite")
    p.add_argument("suite", choices=identities.SUITES)
    p.add_argument("--max-n", type=_index(1, 3), default=50, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", parents=[fmt], help="print a family table")
    p.add_argument("family", choices=tuple(_TABLE_FAMILIES))
    p.add_argument("--max", type=_index(0, 3), required=True)
    p.set_defaults(func=_cmd_table)

    return parser


# run() may be called any number of times in one process and builds its
# parser on the first call: the parser is a pure function of this module's
# tables, and building it costs more than most commands.  build_parser()
# returns a new parser on each call.  The _cmd_* handlers are bound into the
# cached parser once; the builders they call are still looked up per call.
@functools.cache
def _parser():
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # a printed coefficient can be longer than the interpreter's int-to-str
    # digit limit, so the command runs with it lifted; Python before 3.10.7
    # has no limit
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return args.func(args)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run())

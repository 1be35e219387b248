"""Command-line front end: print invariant tables, compute single
polynomials, derive skein coefficients and run the verification suites.

Exit status: 0 on success, 1 when a verify suite reports failures, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import identities
from .bivar import BiPoly
from .chebyshev import cheb_first, cheb_first_seq, cheb_second, cheb_second_seq
from .invariants import (
    _HOMFLY_REC,
    _KNOT_REC,
    _RX_REC,
    alexander_closed,
    alexander_unified_rec,
    compose_skein,
    derive_skein,
    homfly_closed,
    homfly_rec,
)
from .qnumbers import qnum_closed, qpnum_closed


# -- the two tables --------------------------------------------------------
# Builders are named inside the lambdas, so every call looks them up in this
# module's globals, where a patched builder takes effect.


def _rows(label, polys, start=0):
    """Rows ``("<label>=<i>", poly)`` of ``polys``, i counting from ``start``."""
    return [(f"{label}={i}", poly) for i, poly in enumerate(polys, start)]


# each family: its (label, polynomial) rows for ``--max k``, and the text
# order of a bivariate family (None for a univariate one)
_TABLE_FAMILIES = {
    "alexander-knots": (
        lambda k: _rows("m", (alexander_closed(2 * m + 1) for m in range(k + 1))), None),
    "alexander-links": (
        lambda k: [(f"m={2 * j + 1}/2", alexander_closed(2 * j + 2)) for j in range(k)], None),
    "unified": (lambda k: _rows("s", alexander_unified_rec(max(k, 1))[:k], 1), None),
    "homfly": (lambda k: _rows("m", homfly_rec(k)), True),
    "qnum": (lambda k: _rows("n", map(qnum_closed, range(1, k + 1)), 1), None),
    "qpnum": (lambda k: _rows("n", map(qpnum_closed, range(1, k + 1)), 1), False),
    "chebyshev-first": (lambda k: _rows("n", cheb_first_seq(k)), None),
    "chebyshev-second": (lambda k: _rows("n", cheb_second_seq(k)), None),
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
    "classical": (
        BiPoly._make(("t", "u"), {(num, 0): c for num, c in _KNOT_REC[0].terms.items()}),
        BiPoly.constant(_KNOT_REC[1], ("t", "u")),
        False,
    ),
    "rx": (*_RX_REC, True),
    "az": (*_HOMFLY_REC, True),
}


def _cmd_skein_derive(args):
    c1, c2, ascending = _SKEIN_FAMILIES[args.family]
    coeffs = derive_skein(c1, c2)
    back = compose_skein(coeffs.b1, coeffs.b2)
    roundtrip_ok = back == (c1, c2)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "c1": c1.to_json_dict(),
                    "c2": c2.to_json_dict(),
                    "b1": coeffs.b1.to_json_dict(),
                    "b2": coeffs.b2.to_json_dict(),
                    "roundtrip_ok": roundtrip_ok,
                }
            )
        )
    else:
        print(f"c1 = {c1.render(ascending=ascending)}")
        print(f"c2 = {c2.render(ascending=ascending)}")
        print(f"b1 = {coeffs.b1.render(ascending=ascending)}")
        print(f"b2 = {coeffs.b2.render(ascending=ascending)}")
    if roundtrip_ok:
        return 0
    back_c1, back_c2 = (c.render(ascending=ascending) for c in back)
    print(f"FAIL round trip: compose_skein(b1, b2) gives c1 = {back_c1}, c2 = {back_c2}",
          file=sys.stderr)
    return 1


def _cmd_verify(args):
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
    rows = rows_for(args.max)
    if args.format == "json":
        # json.dumps of the schema, joined as one string: only the family and
        # the labels need escaping, and each polynomial writes its own
        json_rows = ", ".join([f'{{"label": {json.dumps(label)}, "poly": {poly.render("json")}}}'
                               for label, poly in rows])
        print(f'{{"family": {json.dumps(args.family)}, "rows": [{json_rows}]}}')
    else:
        for label, poly in rows:
            print(f"{label}: {_text(poly, ascending)}")
    return 0


# -- parser -----------------------------------------------------------------


def _int_at_least(lower):
    """An argparse type: an integer no smaller than ``lower``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lower:
            raise argparse.ArgumentTypeError(
                "value must be nonnegative" if lower == 0 else f"value must be at least {lower}"
            )
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
        p.add_argument(f"--{option}", type=_int_at_least(least), required=True, help=option_help)
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
    p.add_argument("--max-n", type=_int_at_least(1), default=50, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", parents=[fmt], help="print a family table")
    p.add_argument("family", choices=tuple(_TABLE_FAMILIES))
    p.add_argument("--max", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_table)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


def main() -> None:
    sys.exit(run())

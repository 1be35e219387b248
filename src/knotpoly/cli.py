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
    homfly_rec,
)
from .qnumbers import qnum_closed, qpnum_closed


# -- tables ----------------------------------------------------------------


def _rows_alexander_knots(max_index):
    return [(f"m={m}", alexander_closed(2 * m + 1), False) for m in range(max_index + 1)]


def _rows_alexander_links(max_index):
    return [(f"m={2 * k + 1}/2", alexander_closed(2 * k + 2), False) for k in range(max_index)]


def _rows_unified(max_index):
    seq = alexander_unified_rec(max(max_index, 1))
    return [(f"s={i + 1}", seq[i], False) for i in range(max_index)]


def _rows_homfly(max_index):
    return [(f"m={m}", poly, True) for m, poly in enumerate(homfly_rec(max_index))]


def _rows_qnum(max_index):
    return [(f"n={n}", qnum_closed(n), False) for n in range(1, max_index + 1)]


def _rows_qpnum(max_index):
    return [(f"n={n}", qpnum_closed(n), False) for n in range(1, max_index + 1)]


def _rows_cheb_first(max_index):
    return [(f"n={n}", poly, False) for n, poly in enumerate(cheb_first_seq(max_index))]


def _rows_cheb_second(max_index):
    return [(f"n={n}", poly, False) for n, poly in enumerate(cheb_second_seq(max_index))]


_TABLE_FAMILIES = {
    "alexander-knots": _rows_alexander_knots,
    "alexander-links": _rows_alexander_links,
    "unified": _rows_unified,
    "homfly": _rows_homfly,
    "qnum": _rows_qnum,
    "qpnum": _rows_qpnum,
    "chebyshev-first": _rows_cheb_first,
    "chebyshev-second": _rows_cheb_second,
}


def _render_poly(poly, ascending):
    if isinstance(poly, BiPoly):
        return poly.render(ascending=ascending)
    return poly.render()


# -- subcommand handlers -----------------------------------------------


def _emit_poly(args, poly, ascending=True):
    if args.format == "json":
        print(poly.render("json"))
    else:
        print(_render_poly(poly, ascending))
    return 0


def _cmd_alexander(args):
    return _emit_poly(args, alexander_closed(args.s))


def _cmd_homfly(args):
    return _emit_poly(args, homfly_rec(args.m)[args.m], ascending=True)


def _cmd_qnum(args):
    return _emit_poly(args, qnum_closed(args.n))


def _cmd_qpnum(args):
    return _emit_poly(args, qpnum_closed(args.n), ascending=False)


def _cmd_chebyshev(args):
    poly = cheb_first(args.n) if args.kind == "first" else cheb_second(args.n)
    return _emit_poly(args, poly)


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
    rows = _TABLE_FAMILIES[args.family](args.max)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "rows": [
                        {"label": label, "poly": poly.to_json_dict()}
                        for label, poly, _ in rows
                    ],
                }
            )
        )
    else:
        for label, poly, ascending in rows:
            print(f"{label}: {_render_poly(poly, ascending)}")
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

    p = sub.add_parser(
        "alexander", parents=[fmt], help="Alexander polynomial of the s-crossing member"
    )
    p.add_argument("--s", type=_int_at_least(1), required=True, help="crossing number, s >= 1")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser(
        "homfly", parents=[fmt], help="HOMFLY polynomial of the degree-m knot member"
    )
    p.add_argument("--m", type=_int_at_least(0), required=True, help="degree index, m >= 0")
    p.set_defaults(func=_cmd_homfly)

    p = sub.add_parser("qnum", parents=[fmt], help="q-number of the integer n")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_qnum)

    p = sub.add_parser("qpnum", parents=[fmt], help="q,p-number of the integer n")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_qpnum)

    p = sub.add_parser(
        "chebyshev", parents=[fmt], help="Chebyshev polynomial of the first or second kind"
    )
    p.add_argument("--kind", choices=("first", "second"), required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_chebyshev)

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

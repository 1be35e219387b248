"""The identity registry: every identity that ``knotpoly verify`` and the
acceptance criteria check, written out once, and the runner for a suite.

A side is a function of ``(seq, n)``, where ``seq(builder)`` is
``builder(max_n)``, built once per run.  Sides name their builders, and
the ``_Recurrence`` declarations they step by, in their bodies, so each
call looks them up in this module's globals.  Two modes: ``exact``
compares the sides at every n from ``start`` to ``max_n``; the skein
triples are exact entries on the closed forms.
``numeric`` evaluates ``lhs`` at every ``(label, point, want)`` sample of
``rhs`` and needs an error within ``TOL``: absolute, or relative to
``max(1, |want|)`` for a ``relative`` entry.  Only the trigonometric
values, which have no exact algebra, use it, and a suite with such an
entry runs only up to ``NUMERIC_MAX_N``.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple

from .bivar import BiPoly
from .chebyshev import cheb_first, cheb_first_seq, cheb_second, cheb_second_qp, cheb_second_seq
from .invariants import (
    _HOMFLY_IMAGES,
    _UNIFIED_REC,
    alexander_closed,
    alexander_from_qnum,
    alexander_knot_rec,
    alexander_qp,
    alexander_rx,
    alexander_rx_seq,
    alexander_unified_rec,
    compose_skein,
    homfly_closed,
    homfly_rec,
)
from .laurent import LaurentPoly
from .qnumbers import _QPNUM_REC, qnum_closed, qnum_rec_seq, qpnum_closed, qpnum_rec_seq

__all__ = ["IDENTITIES", "NUMERIC_MAX_N", "SUITES", "TOL", "Identity", "check", "run"]

TOL = 1e-9
_THETAS = (0.3, 0.7, 1.1, 2.0)
_RADII = (0.5, 1.0, 2.0)
# The largest n whose float samples are finite: the q,p-number entry expects
# r^(n-1)·sin(nθ)/sin(θ), which at r = 2 passes the largest float, just under
# 2^1024, from n = 1024 on, and r^(n-1) itself overflows from n = 1025.
NUMERIC_MAX_N = 1023
_T = LaurentPoly.gen("t")
_T_INV = LaurentPoly._make("t", {-2: 1})
_T_PLUS_INV = LaurentPoly._make("t", {2: 1, -2: 1})
# (c1, c2) composed from the HOMFLY knots' skein pair b1 = az, b2 = a^2, not
# read from _HOMFLY_REC, so that the triple checks the declared pair apart
_C1, _C2 = compose_skein(BiPoly._make(("a", "z"), {(2, 2): 1}),
                         BiPoly._make(("a", "z"), {(4, 0): 1}))


def _rx_lift(v, k):
    """r^k·v(x) for a polynomial v in x."""
    return BiPoly._make(("r", "x"), {(2 * k, e): c for e, c in v.terms.items()})


# the closed-form members of the skein triples, built once per run through
# ``seq``: alexander_closed(s) at entry s - 1, homfly_closed(m) at entry m
def _unified_members(max_n):
    return [alexander_closed(s) for s in range(1, max_n + 1)]


def _homfly_members(max_n):
    return [homfly_closed(m) for m in range(max_n + 1)]


class Identity(NamedTuple):
    name: str
    suite: str
    start: int
    lhs: Callable
    rhs: Callable
    mode: str = "exact"
    relative: bool = False


IDENTITIES = (
    Identity("unified skein triple", "unified-skein", 3,
             lambda seq, n: seq(_unified_members)[n - 1],
             lambda seq, n: _UNIFIED_REC.step(seq(_unified_members)[n - 2],
                                              seq(_unified_members)[n - 3])),
    Identity("knot recurrence vs closed form", "knot-recurrence", 0,
             lambda seq, n: seq(alexander_knot_rec)[n],
             lambda seq, n: alexander_closed(2 * n + 1)),
    Identity("q-number recurrence vs closed form", "qnum-oracle", 0,
             lambda seq, n: seq(qnum_rec_seq)[n], lambda seq, n: qnum_closed(n)),
    Identity("q,p-number recurrence vs closed form", "qnum-oracle", 0,
             lambda seq, n: seq(qpnum_rec_seq)[n], lambda seq, n: qpnum_closed(n)),
    Identity("first kind as V_n - V_(n-2)", "chebyshev-identity", 2,
             lambda seq, n: seq(cheb_first_seq)[n],
             lambda seq, n: seq(cheb_second_seq)[n] - seq(cheb_second_seq)[n - 2]),
    Identity("Chebyshev route to the knot member", "alexander-chebyshev", 1,
             lambda seq, n: (seq(cheb_second_seq)[n] - seq(cheb_second_seq)[n - 1])
             .compose(_T_PLUS_INV),
             lambda seq, n: alexander_closed(2 * n + 1)),
    Identity("q,p specialisation to the knot member", "qp-specialization", 0,
             lambda seq, n: alexander_qp(n).substitute(_T, _T_INV),
             lambda seq, n: alexander_closed(2 * n + 1)),
    Identity("HOMFLY substitution route vs recurrence", "homfly-bridge", 1,
             lambda seq, n: seq(alexander_rx_seq)[n].substitute(*_HOMFLY_IMAGES),
             lambda seq, n: seq(homfly_rec)[n]),
    Identity("first-kind", "trig", 1, lambda seq, n: seq(cheb_first_seq)[n],
             lambda seq, n: [(f"theta={th}", 2.0 * math.cos(th), 2.0 * math.cos(n * th))
                             for th in _THETAS], "numeric"),
    Identity("second-kind", "trig", 1, lambda seq, n: seq(cheb_second_seq)[n],
             lambda seq, n: [(f"theta={th}", 2.0 * math.cos(th),
                              math.sin((n + 1) * th) / math.sin(th)) for th in _THETAS],
             "numeric", relative=True),
    Identity("q-number", "trig", 1, lambda seq, n: qnum_closed(n),
             lambda seq, n: [(f"theta={th}", cmath.exp(1j * th), math.sin(n * th) / math.sin(th))
                             for th in _THETAS], "numeric"),
    Identity("q,p-number", "trig", 1, lambda seq, n: qpnum_closed(n),
             lambda seq, n: [(f"theta={th} r={r}",
                              (r * cmath.exp(1j * th), r * cmath.exp(-1j * th)),
                              r ** (n - 1) * (math.sin(n * th) / math.sin(th)))
                             for th in _THETAS for r in _RADII], "numeric", relative=True),
    Identity("unified recurrence vs closed form", "identity-lattice", 1,
             lambda seq, n: seq(alexander_unified_rec)[n - 1],
             lambda seq, n: alexander_closed(n)),
    Identity("knot member via q-numbers", "identity-lattice", 0,
             lambda seq, n: alexander_from_qnum(n),
             lambda seq, n: alexander_closed(2 * n + 1)),
    Identity("second kind at t + 1/t as q-number", "identity-lattice", 0,
             lambda seq, n: seq(cheb_second_seq)[n].compose(_T_PLUS_INV),
             lambda seq, n: qnum_closed(n + 1)),
    Identity("q,p second kind at (t, 1/t) as q-number", "identity-lattice", 0,
             lambda seq, n: cheb_second_qp(n).substitute(_T, _T_INV),
             lambda seq, n: qnum_closed(n + 1)),
    Identity("q,p knot member recurrence", "identity-lattice", 2,
             lambda seq, n: alexander_qp(n),
             lambda seq, n: _QPNUM_REC.step(alexander_qp(n - 1), alexander_qp(n - 2))),
    Identity("r,x knot member as r^n(V_n - r V_(n-1))", "identity-lattice", 1,
             lambda seq, n: seq(alexander_rx_seq)[n],
             lambda seq, n: _rx_lift(seq(cheb_second_seq)[n], n)
             - _rx_lift(seq(cheb_second_seq)[n - 1], n + 1)),
    Identity("HOMFLY knot skein triple", "identity-lattice", 2,
             lambda seq, n: seq(_homfly_members)[n],
             lambda seq, n: _C1 * seq(_homfly_members)[n - 1]
             + _C2 * seq(_homfly_members)[n - 2]),
    Identity("first kind recurrence vs binomial form", "closed-forms", 0,
             lambda seq, n: seq(cheb_first_seq)[n], lambda seq, n: cheb_first(n)),
    Identity("second kind recurrence vs binomial form", "closed-forms", 0,
             lambda seq, n: seq(cheb_second_seq)[n], lambda seq, n: cheb_second(n)),
    Identity("r,x knot member recurrence vs binomial form", "closed-forms", 0,
             lambda seq, n: seq(alexander_rx_seq)[n], lambda seq, n: alexander_rx(n)),
    Identity("HOMFLY recurrence vs binomial form", "closed-forms", 0,
             lambda seq, n: seq(homfly_rec)[n], lambda seq, n: homfly_closed(n)),
)

SUITES = tuple(dict.fromkeys(ident.suite for ident in IDENTITIES))


# -- checking: each mode yields (index, failure detail or None) -------------


def _exact(ident, seq, max_n):
    for n in range(ident.start, max_n + 1):
        yield n, None if ident.lhs(seq, n) == ident.rhs(seq, n) else "sides differ"


def _numeric(ident, seq, max_n):
    for n in range(ident.start, max_n + 1):
        poly = ident.lhs(seq, n)
        for label, point, want in ident.rhs(seq, n):
            err = abs(poly.eval_complex(point) - want)
            if ident.relative:
                err /= max(1.0, abs(want))
            yield n, None if err <= TOL else f"{label} error {err:.2e}"


_MODES = {"exact": _exact, "numeric": _numeric}


def check(suite: str, max_n: int) -> None:
    """Raise ValueError for a request ``run`` refuses: an unknown suite, or
    ``max_n`` past ``NUMERIC_MAX_N`` in a suite with a numeric entry."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n > NUMERIC_MAX_N and any(i.mode == "numeric" for i in IDENTITIES if i.suite == suite):
        raise ValueError(f"suite {suite!r} samples floats, which support n up to {NUMERIC_MAX_N}")


def run(suite: str, max_n: int):
    """Check every identity of ``suite`` up to index ``max_n``: returns
    ``(passed, total, failures)``, one ``"<identity> n=<index>: <detail>"``
    line per failure.  ``check`` refuses the request first."""
    check(suite, max_n)
    seq = functools.cache(lambda builder: builder(max_n))
    total = 0
    failures = []
    for ident in IDENTITIES:
        if ident.suite == suite:
            for n, detail in _MODES[ident.mode](ident, seq, max_n):
                total += 1
                if detail is not None:
                    failures.append(f"{ident.name} n={n}: {detail}")
    return total - len(failures), total, failures

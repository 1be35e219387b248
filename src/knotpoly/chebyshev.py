"""Chebyshev polynomials of both kinds and their two-variable extensions.

The first kind is normalised so that T_0 = 2 (the trace normalisation
2cos(n*theta) at x = 2cos(theta)); the second kind V_n has
V_n(2cos(theta)) = sin((n+1)theta)/sin(theta).  Both are monic of degree
n for n >= 1, which is exactly what the identity T_n = V_n - V_{n-2}
requires.
"""

from __future__ import annotations

from .bivar import BiPoly
from .laurent import LaurentPoly
from .qnumbers import _check_index, _three_term, qpnum_closed

__all__ = [
    "cheb_first",
    "cheb_first_seq",
    "cheb_second",
    "cheb_second_seq",
    "cheb_second_qp",
    "cheb_second_rx",
]


def cheb_first_seq(n_max: int) -> list[LaurentPoly]:
    """T_0..T_n from T_0 = 2, T_1 = x, T_{k+1} = x T_k - T_{k-1}."""
    _check_index(n_max)
    x = LaurentPoly.gen("x")
    return _three_term((LaurentPoly.constant(2, "x"), x), x, -1, n_max + 1)


def cheb_first(n: int) -> LaurentPoly:
    return cheb_first_seq(n)[n]


def cheb_second_seq(n_max: int) -> list[LaurentPoly]:
    """V_0..V_n from V_0 = 1, V_1 = x, V_{k+1} = x V_k - V_{k-1}."""
    _check_index(n_max)
    x = LaurentPoly.gen("x")
    return _three_term((LaurentPoly.one("x"), x), x, -1, n_max + 1)


def cheb_second(n: int) -> LaurentPoly:
    return cheb_second_seq(n)[n]


def cheb_second_qp(n: int) -> BiPoly:
    """Two-variable second kind: equal to the (n+1)-st q,p-number."""
    return qpnum_closed(_check_index(n) + 1)


def cheb_second_rx(n: int) -> BiPoly:
    """Second kind with the scale variable factored out: r^n V_n(x)."""
    _check_index(n)
    vn = cheb_second(n)
    return BiPoly._make(("r", "x"), {(2 * n, num): c for num, c in vn.terms.items()})

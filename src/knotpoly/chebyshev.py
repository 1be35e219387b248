"""Chebyshev polynomials of both kinds and their two-variable extensions.

The first kind is normalised so that T_0 = 2 (the trace normalisation
2cos(n*theta) at x = 2cos(theta)); the second kind V_n has
V_n(2cos(theta)) = sin((n+1)theta)/sin(theta).  Both are monic of degree
n for n >= 1, which is exactly what the identity T_n = V_n - V_{n-2}
requires.
"""

from __future__ import annotations

from itertools import islice

from .bivar import BiPoly
from .laurent import LaurentPoly
from .qnumbers import _check_index, _Recurrence, qpnum_closed

__all__ = [
    "cheb_first",
    "cheb_first_seq",
    "cheb_second",
    "cheb_second_seq",
    "cheb_second_qp",
    "cheb_second_rx",
]


# both kinds step by (x, -1) and differ in their first seed
_X = LaurentPoly.gen("x")
_CHEB_FIRST_REC = _Recurrence(_X, -1, (LaurentPoly.constant(2, "x"), _X))


def cheb_first_seq(n_max: int) -> list[LaurentPoly]:
    """T_0..T_n from T_0 = 2, T_1 = x, T_{k+1} = x T_k - T_{k-1}."""
    return list(islice(_CHEB_FIRST_REC.members(), _check_index(n_max) + 1))


def _second_kind(n: int):
    """The terms c·x^d of V_n as pairs (d, c), top degree first:
    c = (-1)^k C(n-k, k) at d = n - 2k, each coefficient found from the one
    before (Mason and Handscomb, *Chebyshev Polynomials*, 2003).  None for
    n < 0."""
    if n < 0:
        return
    coeff = 1
    yield n, coeff
    for k in range(1, n // 2 + 1):
        coeff = -coeff * (n - 2 * k + 2) * (n - 2 * k + 1) // (k * (n - k + 1))
        yield n - 2 * k, coeff


def cheb_first(n: int) -> LaurentPoly:
    """T_n = V_n - V_(n-2) from the binomial form of the second kind, with
    T_0 = 2; it equals ``cheb_first_seq(n)[n]``."""
    if _check_index(n) == 0:
        return LaurentPoly._make("x", {0: 2})
    terms = {2 * d: c for d, c in _second_kind(n)}
    for d, c in _second_kind(n - 2):
        terms[2 * d] -= c  # never zero: the two terms have opposite signs
    return LaurentPoly._make("x", terms)


_CHEB_SECOND_REC = _Recurrence(_X, -1, (LaurentPoly.one("x"), _X))


def cheb_second_seq(n_max: int) -> list[LaurentPoly]:
    """V_0..V_n from V_0 = 1, V_1 = x, V_{k+1} = x V_k - V_{k-1}."""
    return list(islice(_CHEB_SECOND_REC.members(), _check_index(n_max) + 1))


def cheb_second(n: int) -> LaurentPoly:
    """V_n from its binomial form; it equals ``cheb_second_seq(n)[n]``."""
    return LaurentPoly._make("x", {2 * d: c for d, c in _second_kind(_check_index(n))})


def cheb_second_qp(n: int) -> BiPoly:
    """Two-variable second kind: equal to the (n+1)-st q,p-number."""
    return qpnum_closed(_check_index(n) + 1)


def cheb_second_rx(n: int) -> BiPoly:
    """Second kind with the scale variable factored out: r^n V_n(x)."""
    return BiPoly._make(("r", "x"), {(2 * n, 2 * d): c for d, c in _second_kind(_check_index(n))})

"""Quantum integers: one-parameter q-numbers and two-parameter q,p-numbers.

Each family comes in two independent constructions, a closed-form sum and
a three-term recurrence, so either can serve as an oracle for the other.
Both families take the value 0 at index 0 (the closed forms are empty
sums there).
"""

from __future__ import annotations

import operator

from .bivar import BiPoly
from .laurent import LaurentPoly

__all__ = [
    "qnum_closed",
    "qnum_rec",
    "qnum_rec_seq",
    "qpnum_closed",
    "qpnum_rec",
    "qpnum_rec_seq",
]


def _check_index(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"index must be a nonnegative integer, got {n!r}")
    return n


def _three_term(seeds, c1, c2, length):
    """The first ``length`` members of P_(k+1) = c1·P_k + c2·P_(k-1) from
    the two ``seeds`` P_0, P_1.  A tail c2 of 1 or -1 adds or subtracts
    P_(k-1) without a product, so each step costs one product and one
    addition; any other c2 costs a second product."""
    if c2 == 1:
        combine = operator.add
    elif c2 == -1:
        combine = operator.sub
    else:
        def combine(head, prev):
            return head + c2 * prev
    seq = list(seeds[:length])
    while len(seq) < length:
        seq.append(combine(c1 * seq[-1], seq[-2]))
    return seq


def qnum_closed(n: int) -> LaurentPoly:
    """The symmetric sum q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    _check_index(n)
    return LaurentPoly._make("q", {2 * (n - 1) - 4 * i: 1 for i in range(n)})


def qnum_rec_seq(n_max: int) -> list[LaurentPoly]:
    """Indices 0..n_max via [k+1] = (q + 1/q)[k] - [k-1] from [0]=0, [1]=1."""
    _check_index(n_max)
    seeds = (LaurentPoly.zero("q"), LaurentPoly.one("q"))
    return _three_term(seeds, LaurentPoly._make("q", {2: 1, -2: 1}), -1, n_max + 1)


def qnum_rec(n: int) -> LaurentPoly:
    """Recurrence-built q-number; equals qnum_closed(n)."""
    return qnum_rec_seq(n)[n]


def qpnum_closed(n: int) -> BiPoly:
    """The homogeneous sum of q^(n-1-i) p^i over i = 0..n-1."""
    _check_index(n)
    return BiPoly._make(("q", "p"), {(2 * (n - 1 - i), 2 * i): 1 for i in range(n)})


def qpnum_rec_seq(n_max: int) -> list[BiPoly]:
    """Indices 0..n_max via [k+1] = (q+p)[k] - qp[k-1] from [0]=0, [1]=1."""
    _check_index(n_max)
    seeds = (BiPoly.zero(("q", "p")), BiPoly.one(("q", "p")))
    q_plus_p = BiPoly._make(("q", "p"), {(2, 0): 1, (0, 2): 1})
    return _three_term(seeds, q_plus_p, BiPoly._make(("q", "p"), {(2, 2): -1}), n_max + 1)


def qpnum_rec(n: int) -> BiPoly:
    """Recurrence-built q,p-number; equals qpnum_closed(n)."""
    return qpnum_rec_seq(n)[n]

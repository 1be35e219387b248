"""Quantum integers: one-parameter q-numbers and two-parameter q,p-numbers.

Each family comes in two independent constructions, a closed-form sum and
a three-term recurrence, so either can serve as an oracle for the other.
Both families take the value 0 at index 0 (the closed forms are empty
sums there).
"""

from __future__ import annotations

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


def qnum_closed(n: int, variable: str = "q") -> LaurentPoly:
    """The symmetric sum q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    _check_index(n)
    return LaurentPoly._make(variable, {2 * (n - 1) - 4 * i: 1 for i in range(n)})


def qnum_rec_seq(n_max: int, variable: str = "q") -> list[LaurentPoly]:
    """Indices 0..n_max via [k+1] = (q + 1/q)[k] - [k-1] from [0]=0, [1]=1."""
    _check_index(n_max)
    seq = [LaurentPoly.zero(variable), LaurentPoly.one(variable)]
    step = LaurentPoly._make(variable, {2: 1, -2: 1})
    while len(seq) <= n_max:
        seq.append(step * seq[-1] - seq[-2])
    return seq[: n_max + 1]


def qnum_rec(n: int, variable: str = "q") -> LaurentPoly:
    """Recurrence-built q-number; equals qnum_closed(n)."""
    return qnum_rec_seq(n, variable)[n]


def qpnum_closed(n: int, variables=("q", "p")) -> BiPoly:
    """The homogeneous sum of q^(n-1-i) p^i over i = 0..n-1."""
    _check_index(n)
    return BiPoly._make(
        tuple(variables), {(2 * (n - 1 - i), 2 * i): 1 for i in range(n)}
    )


def qpnum_rec_seq(n_max: int, variables=("q", "p")) -> list[BiPoly]:
    """Indices 0..n_max via [k+1] = (q+p)[k] - qp[k-1] from [0]=0, [1]=1."""
    _check_index(n_max)
    variables = tuple(variables)
    seq = [BiPoly.zero(variables), BiPoly.one(variables)]
    q_plus_p = BiPoly._make(variables, {(2, 0): 1, (0, 2): 1})
    qp = BiPoly._make(variables, {(2, 2): 1})
    while len(seq) <= n_max:
        seq.append(q_plus_p * seq[-1] - qp * seq[-2])
    return seq[: n_max + 1]


def qpnum_rec(n: int, variables=("q", "p")) -> BiPoly:
    """Recurrence-built q,p-number; equals qpnum_closed(n)."""
    return qpnum_rec_seq(n, variables)[n]

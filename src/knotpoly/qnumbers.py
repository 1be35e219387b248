"""Quantum integers: one-parameter q-numbers and two-parameter q,p-numbers.

Each family comes in two independent constructions, a closed-form sum and
a three-term ``_Recurrence`` (c1, c2, seeds), so either can serve as an
oracle for the other.  Both families take the value 0 at index 0 (the
closed forms are empty sums there).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice

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


@dataclass(frozen=True)
class _Recurrence:
    """P_(k+1) = c1·P_k + c2·P_(k-1) from ``seeds`` (P_0, P_1), under every
    sequence builder.  The tail rule is chosen once: a c2 of 1 or -1 adds or
    subtracts P_(k-1) with no product, and any other c2 costs a second one."""

    c1: object
    c2: object
    seeds: tuple

    def __post_init__(self):
        c2 = self.c2
        object.__setattr__(self, "_tail", operator.add if c2 == 1 else operator.sub if c2 == -1
                           else lambda head, prev: head + c2 * prev)

    def step(self, head, prev):
        """P_(k+1) from ``head`` = P_k and ``prev`` = P_(k-1)."""
        return self._tail(self.c1 * head, prev)

    def members(self):
        """P_0, P_1, ... without end, each step run when its member is asked for."""
        prev, head = self.seeds
        yield prev
        while True:
            yield head
            prev, head = head, self.step(head, prev)


def qnum_closed(n: int) -> LaurentPoly:
    """The symmetric sum q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    _check_index(n)
    return LaurentPoly._make("q", {2 * (n - 1) - 4 * i: 1 for i in range(n)})


_QNUM_REC = _Recurrence(LaurentPoly._make("q", {2: 1, -2: 1}), -1,
                        (LaurentPoly.zero("q"), LaurentPoly.one("q")))


def qnum_rec_seq(n_max: int) -> list[LaurentPoly]:
    """Indices 0..n_max via [k+1] = (q + 1/q)[k] - [k-1] from [0]=0, [1]=1."""
    return list(islice(_QNUM_REC.members(), _check_index(n_max) + 1))


def qnum_rec(n: int) -> LaurentPoly:
    """Recurrence-built q-number; equals qnum_closed(n)."""
    return qnum_rec_seq(n)[n]


def qpnum_closed(n: int) -> BiPoly:
    """The homogeneous sum of q^(n-1-i) p^i over i = 0..n-1."""
    _check_index(n)
    return BiPoly._make(("q", "p"), {(2 * (n - 1 - i), 2 * i): 1 for i in range(n)})


_QPNUM_REC = _Recurrence(BiPoly._make(("q", "p"), {(2, 0): 1, (0, 2): 1}),
                         BiPoly._make(("q", "p"), {(2, 2): -1}),
                         (BiPoly.zero(("q", "p")), BiPoly.one(("q", "p"))))


def qpnum_rec_seq(n_max: int) -> list[BiPoly]:
    """Indices 0..n_max via [k+1] = (q+p)[k] - qp[k-1] from [0]=0, [1]=1."""
    return list(islice(_QPNUM_REC.members(), _check_index(n_max) + 1))


def qpnum_rec(n: int) -> BiPoly:
    """Recurrence-built q,p-number; equals qpnum_closed(n)."""
    return qpnum_rec_seq(n)[n]

"""Polynomial invariants of (s,2) torus knots and links.

The family is indexed by the winding number s >= 1 (s odd: knot, s even:
two-component link; s = 1 unknot, s = 2 Hopf link, s = 3 trefoil).  The
classical Alexander polynomial of the s-th member is the alternating sum
of s powers of t centred on degree m = (s-1)/2, and the whole sequence
obeys the three-term skein recursion with coefficients
(t^(1/2) - t^(-1/2), 1).

A two-variable generalisation, written either in (q,p) through the
q,p-numbers or in (r,x) through scaled Chebyshev polynomials, carries the
same structure; substituting r = a^2, x = z^2 + 2 turns the (r,x) form
into the HOMFLY polynomials of the odd-s (knot) members.

The skein-coefficient tools convert between the coefficients (c1, c2) of
the second-order recurrence that skips a member and the coefficients
(b1, b2) of the stepwise skein relation: c1 = b1^2 + 2 b2, c2 = -b2^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, islice

from .bivar import BiPoly, RadicalExpr
from .chebyshev import _second_kind
from .errors import NonPolynomialB2
from .laurent import LaurentPoly
from .qnumbers import _check_index, _Recurrence, qnum_closed, qpnum_closed

__all__ = [
    "TorusIndex",
    "SkeinCoeffs",
    "TripleCheck",
    "SkeinReport",
    "alexander_closed",
    "alexander_unified_rec",
    "alexander_knot_rec",
    "alexander_from_qnum",
    "alexander_qp",
    "alexander_rx",
    "alexander_rx_seq",
    "homfly_rec",
    "homfly_closed",
    "homfly_from_alexander",
    "derive_skein",
    "compose_skein",
    "verify_skein",
]


@dataclass(frozen=True)
class TorusIndex:
    """Index of the (s,2) family member with s minimal crossings."""

    s: int

    def __post_init__(self):
        if not isinstance(self.s, int) or isinstance(self.s, bool) or self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s!r}")

    @property
    def m(self) -> Fraction:
        """Degree of the Alexander polynomial: (s-1)/2."""
        return Fraction(self.s - 1, 2)

    @property
    def is_knot(self) -> bool:
        return self.s % 2 == 1

    @property
    def is_link(self) -> bool:
        return self.s % 2 == 0


def _as_s(index) -> int:
    if isinstance(index, TorusIndex):
        return index.s
    return TorusIndex(index).s


# -- Alexander family ----------------------------------------------------


def alexander_closed(index) -> LaurentPoly:
    """Alternating sum t^m - t^(m-1) + ... with s terms, m = (s-1)/2.

    Accepts an int s or a TorusIndex.
    """
    s = _as_s(index)
    return LaurentPoly._make("t", dict(zip(range(s - 1, -s, -2), cycle((1, -1)))))


# the skein recursion's step t^(1/2) - t^(-1/2) is also the Hopf link member
_HALF_DIFF = LaurentPoly._make("t", {1: 1, -1: -1})
_UNIFIED_REC = _Recurrence(_HALF_DIFF, 1, (LaurentPoly.one("t"), _HALF_DIFF))


def alexander_unified_rec(s_max: int) -> list[LaurentPoly]:
    """Knot and link members interleaved, built by the skein recursion.

    Entry i holds the member with s = i + 1; seeds are 1 (unknot) and
    t^(1/2) - t^(-1/2) (Hopf link), and each step adds
    (t^(1/2) - t^(-1/2)) times the previous member to the one before it.
    """
    return list(islice(_UNIFIED_REC.members(), _as_s(s_max)))


# ``skein-derive`` reads its families' (c1, c2) from _KNOT_REC, _RX_REC and
# _HOMFLY_REC, the recurrences the builders run
_KNOT_REC = _Recurrence(LaurentPoly._make("t", {2: 1, -2: 1}), -1,
                        (LaurentPoly.one("t"), LaurentPoly._make("t", {2: 1, 0: -1, -2: 1})))


def alexander_knot_rec(m_max: int) -> list[LaurentPoly]:
    """Knot members only, indexed by degree m = 0..m_max, built by
    A_{m+1} = (t + 1/t) A_m - A_{m-1} from A_0 = 1, A_1 = t - 1 + 1/t."""
    return list(islice(_KNOT_REC.members(), _check_index(m_max) + 1))


def alexander_from_qnum(m: int) -> LaurentPoly:
    """Knot member of degree m as the difference [m+1] - [m] of q-numbers."""
    _check_index(m)
    return (qnum_closed(m + 1) - qnum_closed(m)).rename("t")


def alexander_qp(n: int) -> BiPoly:
    """Two-variable generalisation [n+1]_{q,p} - qp [n]_{q,p}.

    Specialises to the classical knot member of degree n under
    q -> t, p -> 1/t.
    """
    _check_index(n)
    qp = BiPoly._make(("q", "p"), {(2, 2): 1})
    return qpnum_closed(n + 1) - qp * qpnum_closed(n)


_RX_REC = _Recurrence(BiPoly._make(("r", "x"), {(2, 2): 1}),  # rx
                      BiPoly._make(("r", "x"), {(4, 0): -1}),  # -r^2
                      (BiPoly.one(("r", "x")), BiPoly._make(("r", "x"), {(2, 2): 1, (4, 0): -1})))


def alexander_rx_seq(n_max: int) -> list[BiPoly]:
    """Two-variable generalisation in scale/trace form, A_0..A_n, built by
    the recursion A_{k+1} = rx A_k - r^2 A_{k-1} from A_0 = 1,
    A_1 = rx - r^2."""
    return list(islice(_RX_REC.members(), _check_index(n_max) + 1))


def alexander_rx(n: int) -> BiPoly:
    """The member A_n of :func:`alexander_rx_seq`, written directly as
    A_n = r^n·V_n(x) - r^(n+1)·V_(n-1)(x) from the binomial form of V."""
    terms = {(2 * n, 2 * d): c for d, c in _second_kind(_check_index(n))}
    terms.update({(2 * n + 2, 2 * d): -c for d, c in _second_kind(n - 1)})
    return BiPoly._make(("r", "x"), terms)


# -- HOMFLY family -------------------------------------------------------


_HOMFLY_REC = _Recurrence(BiPoly._make(("a", "z"), {(4, 4): 1, (4, 0): 2}),  # a^2 z^2 + 2a^2
                          BiPoly._make(("a", "z"), {(8, 0): -1}),  # -a^4
                          (BiPoly.one(("a", "z")),
                           BiPoly._make(("a", "z"), {(4, 0): 2, (4, 4): 1, (8, 0): -1})))


def homfly_rec(m_max: int) -> list[BiPoly]:
    """HOMFLY polynomials of the knot members T(2m+1, 2) for m = 0..m_max,
    built by H_{m+1} = a^2 (z^2 + 2) H_m - a^4 H_{m-1} from H_0 = 1,
    H_1 = 2a^2 + a^2 z^2 - a^4."""
    return list(islice(_HOMFLY_REC.members(), _check_index(m_max) + 1))


def _second_kind_at_z2_plus_2(n: int):
    """The terms c·z^d of W_n = V_n(z^2 + 2) as pairs (d, c), lowest degree
    first: c = C(n+k+1, 2k+1) at d = 2k, each coefficient found from the one
    before.  None for n < 0."""
    coeff = n + 1
    for k in range(n + 1):
        yield 2 * k, coeff
        coeff = coeff * (n + k + 2) * (n - k) // ((2 * k + 2) * (2 * k + 3))


def homfly_closed(m: int) -> BiPoly:
    """The member H_m of :func:`homfly_rec`, written directly as
    H_m = a^(2m)·W_m - a^(2m+2)·W_(m-1) with W_n = V_n(z^2 + 2), the image
    of :func:`alexander_rx` under r = a^2, x = z^2 + 2 (Jones, Ann. Math.
    126, 1987)."""
    terms = {(4 * m, 2 * d): c for d, c in _second_kind_at_z2_plus_2(_check_index(m))}
    terms.update({(4 * m + 4, 2 * d): -c for d, c in _second_kind_at_z2_plus_2(m - 1)})
    return BiPoly._make(("a", "z"), terms)


# the substitution r = a^2, x = z^2 + 2 from the (r,x) form to HOMFLY
_HOMFLY_IMAGES = (
    BiPoly._make(("a", "z"), {(4, 0): 1}),
    BiPoly._make(("a", "z"), {(0, 4): 1, (0, 0): 2}),
)


def homfly_from_alexander(n: int) -> BiPoly:
    """HOMFLY polynomial via the substitution r = a^2, x = z^2 + 2 applied
    to the (r,x)-form generalised Alexander polynomial."""
    return alexander_rx(n).substitute(*_HOMFLY_IMAGES)


# -- skein coefficients ----------------------------------------------------


@dataclass(frozen=True)
class SkeinCoeffs:
    """Stepwise skein coefficients: P_{n+1} = b1 P_n + b2 P_{n-1}."""

    b1: RadicalExpr
    b2: BiPoly


def derive_skein(c1: BiPoly, c2: BiPoly) -> SkeinCoeffs:
    """Recover (b1, b2) from the member-skipping recurrence coefficients:
    b2 = sqrt(-c2), b1 = sqrt(c1 - 2 b2), both normalised to positive
    leading coefficients.

    b2 must come out as a plain polynomial (the stepwise relation closes
    only then); otherwise NonPolynomialB2 is raised.  b1 may keep one
    formal root.
    """
    minus_c2 = -c2
    root = minus_c2.sqrt()
    if root.radicand is not None:
        raise NonPolynomialB2(f"-c2, {minus_c2._brief()}, is not a perfect square")
    b2 = root.prefactor
    b1 = (c1 - 2 * b2).sqrt()
    return SkeinCoeffs(b1, b2)


def compose_skein(b1, b2: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Inverse of derive_skein: c1 = b1^2 + 2 b2, c2 = -b2^2.

    ``b1`` may be a RadicalExpr or a plain polynomial; its square is
    always polynomial.
    """
    b1_sq = b1.square() if isinstance(b1, RadicalExpr) else b1 * b1
    return (b1_sq + 2 * b2, -(b2 * b2))


# -- skein verification ----------------------------------------------------


@dataclass(frozen=True)
class TripleCheck:
    """Outcome for one consecutive triple; ``index`` is the position of
    the produced element in the sequence."""

    index: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SkeinReport:
    checks: list[TripleCheck] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[TripleCheck]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        good = sum(1 for c in self.checks if c.ok)
        return f"{good}/{len(self.checks)} triples satisfy the skein relation"


def verify_skein(sequence, b1, b2) -> SkeinReport:
    """Check P_{n+1} - b1 P_n - b2 P_{n-1} = 0 exactly over every
    consecutive triple.

    ``b1`` may be a polynomial (LaurentPoly or BiPoly, matching the
    sequence) or a RadicalExpr; ``b2`` a polynomial or int.  A radical b1
    is c·sqrt(D): its ``prefactor`` c and its ``radicand`` D, which is
    None when b1 is a polynomial and otherwise no square (``BiPoly.sqrt``
    split it).  The sequence's ring is integrally closed, so a D
    that is no square there is none in its fraction field either, and 1
    and sqrt(D) are independent over that field.  The residue
    (P_{n+1} - b2 P_{n-1}) - c P_n sqrt(D) therefore vanishes exactly
    when both of its parts do; a polynomial b1 folds the second part into
    the first, leaving one.  Failures are recorded in the report, never
    raised: a part whose text would pass the interpreter's int-to-str
    digit limit is described by its ``_brief()``.
    """
    sequence = list(sequence)
    if len(sequence) < 3:
        raise ValueError("need at least three sequence entries")
    b1, radicand = (b1.prefactor, b1.radicand) if isinstance(b1, RadicalExpr) else (b1, None)
    checks = []
    for i in range(2, len(sequence)):
        rational, radical = sequence[i] - b2 * sequence[i - 2], b1 * sequence[i - 1]
        if radicand is None:
            rational, radical = rational - radical, None
        ok = rational.is_zero and not radical
        detail = "" if ok else f"residue {_text(rational)}"
        if radical is not None and not ok:
            detail += f" - ({_text(radical)}) * sqrt({_text(radicand, ascending=False)})"
        checks.append(TripleCheck(index=i, ok=ok, detail=detail))
    return SkeinReport(checks)


def _text(poly, **style) -> str:
    """``poly.render(**style)``, or ``poly._brief()`` past the int-to-str digit limit."""
    try:
        return poly.render(**style)
    except ValueError:
        return poly._brief()

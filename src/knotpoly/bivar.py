"""Exact sparse bivariate polynomials and formal square-root expressions.

Terms map pairs of exponent numerators (each exponent times two) to
integer coefficients.  Variable names are display metadata only, so the
same machinery serves every variable pair in play; operations match
positionally.
"""

from __future__ import annotations

import cmath
import json
import math
from operator import add

from ._kernels import bi_mul_terms, bi_sqrt_terms, scale_terms
from .errors import UnresolvedRadical
from .laurent import (_check_names, _evaluate, _powers, _spans, _substitute, _TermPoly,
                      _to_numerator)

__all__ = ["BiPoly", "RadicalExpr"]


class BiPoly(_TermPoly):
    """Sparse polynomial in an ordered pair of variables, with exact
    integer coefficients and half-integer exponents per variable."""

    __slots__ = ()
    _UNIT = (0, 0)
    _NAMES_FIELD = "variables"
    _KEY_FIELDS = ("numA", "numB")
    _DEFAULT_NAMES = ("q", "p")

    def __init__(self, terms=(), variables=_DEFAULT_NAMES):
        self._names = _check_names(variables, 2)
        self.terms = self._canonical(terms)

    @property
    def variables(self) -> tuple[str, str]:
        return self._names

    @staticmethod
    def _check_key(key):
        if isinstance(key, (tuple, list)) and len(key) == 2 and type(key[0]) is type(key[1]) is int:
            return tuple(key)
        raise TypeError(f"exponent key {key!r} is not a pair of int numerators")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_terms(cls, pairs, variables=_DEFAULT_NAMES) -> "BiPoly":
        """Build from ((expA, expB), coefficient) pairs with integer or
        half-integer exponents."""
        return cls(
            (((_to_numerator(ea), _to_numerator(eb)), c) for (ea, eb), c in pairs),
            variables,
        )

    @classmethod
    def gens(cls, variables=_DEFAULT_NAMES) -> tuple["BiPoly", "BiPoly"]:
        """The two coordinate polynomials."""
        variables = _check_names(variables, 2)
        return (
            cls._make(variables, {(2, 0): 1}),
            cls._make(variables, {(0, 2): 1}),
        )

    # -- ring structure ----------------------------------------------

    # named here as well, as ``perfbench/spans.py`` wraps the class __dict__
    __add__ = __radd__ = _TermPoly.__add__
    __sub__ = _TermPoly.__sub__
    __rsub__ = _TermPoly.__rsub__
    __neg__ = _TermPoly.__neg__
    __pow__ = _TermPoly.__pow__
    to_json_dict = _TermPoly.to_json_dict

    def __mul__(self, other):
        if type(other) is int:
            return self._like(scale_terms(self.terms, other))
        return self._combine(other, bi_mul_terms)

    __rmul__ = __mul__

    # -- transforms --------------------------------------------------

    def substitute(self, image_a, image_b):
        """Replace the first/second variable by the given images.

        Both images must live in the same ring and support arithmetic
        with ints; the result has their type (a pair of BiPoly images
        gives a BiPoly, a pair of LaurentPoly images collapses to a
        univariate result).  This polynomial must have nonnegative
        integer exponents in both variables.
        """
        return _substitute(self.terms, (image_a, image_b))

    def sqrt(self) -> "RadicalExpr":
        """Split into a square part and a residual radicand.

        The result squares back to this polynomial exactly.  When the
        polynomial is a perfect square the radicand is None;
        otherwise the largest extractable monomial square (including a
        perfect-square integer content) moves into the prefactor and
        the remainder stays under a single formal root.  Zero is its own
        root.
        """
        whole = bi_sqrt_terms(self.terms)
        if whole is not None:
            return RadicalExpr._raw(self._like(whole))
        content = math.gcd(*self.terms.values())
        root_c = math.isqrt(content)
        if root_c * root_c != content:
            root_c = 1
        square = root_c * root_c
        # each variable's lowest numerator, rounded down to an even one
        even_a, even_b = (low - low % 2 for _, low, _ in _spans(self.terms))
        pre = self._like({(even_a // 2, even_b // 2): root_c})
        residual = self._like(
            {(na - even_a, nb - even_b): c // square for (na, nb), c in self.terms.items()}
        )
        return RadicalExpr._raw(pre, residual)

    def eval_complex(self, point) -> complex:
        """The value at ``point``, a tuple or list of two numbers: exact where
        ``LaurentPoly.eval_complex`` is on both, else a complex-float sum."""
        if not (isinstance(point, (tuple, list)) and len(point) == 2):
            raise TypeError(f"cannot evaluate at {point!r}: not a tuple or list of two numbers")
        return _evaluate(self.terms, point)

    # -- rendering ---------------------------------------------------

    def render(self, style: str = "text", *, ascending: bool = True) -> str:
        """Text terms ordered by the first variable's exponent (ascending by
        default, descending with ``ascending=False``), ties broken by the
        second exponent in the same direction; or the canonical JSON form."""
        va, vb = self._names
        return self._render(style, not ascending, lambda keys: map(
            add, _powers(va, [na for na, _ in keys]), _powers(vb, [nb for _, nb in keys])))


class RadicalExpr:
    """A polynomial prefactor times the formal square root of a polynomial.

    ``radicand`` is None or a polynomial that is no perfect square: the
    constructor splits the given radicand once with ``BiPoly.sqrt`` and
    moves its square part into the prefactor.  That split finds no square
    polynomial factor, so equal values may keep different forms
    (``sqrt(2x^2 + 4x + 2)`` and ``(1 + x) * sqrt(2)``); equality and
    hashing go by the value.  ``square()`` always lands back in BiPoly.
    """

    __slots__ = ("prefactor", "radicand")

    def __init__(self, prefactor: BiPoly, radicand: BiPoly | None = None):
        if not (isinstance(prefactor, BiPoly) and isinstance(radicand, (BiPoly, type(None)))):
            raise TypeError("the prefactor must be a BiPoly, and the radicand a BiPoly or None")
        if radicand is not None:
            part = radicand.sqrt()
            prefactor, radicand = prefactor * part.prefactor, part.radicand
        self.prefactor = prefactor
        self.radicand = None if prefactor.is_zero else radicand

    @classmethod
    def _raw(cls, prefactor: BiPoly, radicand: BiPoly | None = None) -> "RadicalExpr":
        self = object.__new__(cls)
        self.prefactor = prefactor
        self.radicand = radicand
        return self

    @property
    def radicands(self) -> list[BiPoly]:
        # ``[]`` or ``[radicand]``: the benchmark harness, perfbench/workloads.py,
        # reads this view until ROADMAP item 1 switches it to ``is_polynomial``
        return [] if self.radicand is None else [self.radicand]

    @property
    def is_polynomial(self) -> bool:
        return self.radicand is None

    def as_polynomial(self) -> BiPoly:
        """The underlying polynomial; raises UnresolvedRadical when a formal
        root remains."""
        if self.radicand is not None:
            raise UnresolvedRadical(
                f"the value still carries the square root of {self.radicand._brief()}")
        return self.prefactor

    def square(self) -> BiPoly:
        out = self.prefactor * self.prefactor
        return out if self.radicand is None else out * self.radicand

    def eval_complex(self, point) -> complex:
        total = self.prefactor.eval_complex(point)
        if self.radicand is not None:
            total *= cmath.sqrt(self.radicand.eval_complex(point))
            if not cmath.isfinite(total):
                raise OverflowError("the value is past the float range")
        return total

    def __eq__(self, other):
        # a radical-free value equals its prefactor, as BiPoly or as int
        if isinstance(other, (BiPoly, int)):
            return self.radicand is None and self.prefactor == other
        if not isinstance(other, RadicalExpr):
            return NotImplemented
        d, e = self.radicand, other.radicand
        if d is None or e is None:
            return d is e and self.prefactor == other.prefactor
        # p·sqrt(D) == q·sqrt(E) when the squares agree and the signs do:
        # sqrt(D)·sqrt(E) is s·r, with r the root of D·E normalised to a
        # positive lead and s the sign of D's lead
        if self.square() != other.square():
            return False
        s = 1 if d.terms[max(d.terms)] > 0 else -1
        return self.prefactor * s * (d * e).sqrt().prefactor == other.prefactor * e

    def __hash__(self):
        return hash(self.prefactor if self.radicand is None else self.square())

    def to_json_dict(self) -> dict:
        return json.loads(self._json_text())

    def _json_text(self) -> str:
        # the canonical JSON form, as ``json.dumps`` spaces it, written from
        # each part's JSON text; the list holds the radicand, if any
        radicands = "" if self.radicand is None else self.radicand._json_text()
        return f'{{"prefactor": {self.prefactor._json_text()}, "radicands": [{radicands}]}}'

    def render(self, style: str = "text", *, ascending: bool = True) -> str:
        if style == "json":
            return self._json_text()
        if style != "text":
            raise ValueError(f"unknown style {style!r}")
        if self.radicand is None:
            return self.prefactor.render(ascending=ascending)
        # the radicand reads best in plain descending-power order
        root = f"sqrt({self.radicand.render(ascending=False)})"
        if self.prefactor == 1:
            return root
        text = self.prefactor.render(ascending=ascending)
        return f"({text}) * {root}" if len(self.prefactor.terms) > 1 else f"{text} * {root}"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RadicalExpr({self.prefactor!r}, {self.radicand!r})"

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

from ._kernels import add_terms, bi_mul_terms, neg_terms, scale_terms, sub_terms
from .errors import NonIntegralOuter, UnresolvedRadical, ZeroBase
from .laurent import (_check_names, _json_terms, _pow_str, _sqrt_terms, _substitute, _TermPoly,
                      _to_numerator)

__all__ = ["BiPoly", "RadicalExpr"]


def _bi_sqrt_terms(terms):
    """Exact square root of a bivariate numerator-keyed dict, normalised
    to a positive coefficient at its largest key; None when there is
    none.  ``BiPoly.sqrt`` gives the packing and its bound."""
    if not terms:
        return {}
    min_a = min(na for na, _ in terms)
    min_b = min(nb for _, nb in terms)
    if min_a % 2 or min_b % 2:
        return None
    width = max(nb for _, nb in terms) - min_b + 1
    root = _sqrt_terms({(na - min_a) * width + nb - min_b: c for (na, nb), c in terms.items()})
    if root is None:
        return None
    out = {}
    for key, c in root.items():
        ra, rb = divmod(key, width)
        if 2 * rb >= width:
            return None
        out[(ra + min_a // 2, rb + min_b // 2)] = c
    return out


class BiPoly(_TermPoly):
    """Sparse polynomial in an ordered pair of variables, with exact
    integer coefficients and half-integer exponents per variable."""

    __slots__ = ("variables", "terms")
    _UNIT = (0, 0)

    def __init__(self, terms=(), variables=("q", "p")):
        self.variables = _check_names(variables, 2)
        self.terms = self._canonical(terms)

    @staticmethod
    def _check_key(key):
        na, nb = key
        if type(na) is not int or type(nb) is not int:
            raise TypeError(f"exponent numerators {key!r} are not ints")
        return (na, nb)

    # -- constructors ------------------------------------------------

    @classmethod
    def _make(cls, variables, terms: dict) -> "BiPoly":
        self = object.__new__(cls)
        self.variables = variables
        self.terms = terms
        return self

    def _like(self, terms: dict) -> "BiPoly":
        return BiPoly._make(self.variables, terms)

    @classmethod
    def from_terms(cls, pairs, variables=("q", "p")) -> "BiPoly":
        """Build from ((expA, expB), coefficient) pairs with integer or
        half-integer exponents."""
        return cls(
            (((_to_numerator(ea), _to_numerator(eb)), c) for (ea, eb), c in pairs),
            variables,
        )

    @classmethod
    def zero(cls, variables=("q", "p")) -> "BiPoly":
        return cls._make(_check_names(variables, 2), {})

    @classmethod
    def constant(cls, value: int, variables=("q", "p")) -> "BiPoly":
        if type(value) is not int:
            raise TypeError(f"coefficient {value!r} is not an int")
        return cls._make(_check_names(variables, 2), {(0, 0): value} if value else {})

    @classmethod
    def one(cls, variables=("q", "p")) -> "BiPoly":
        return cls.constant(1, variables)

    @classmethod
    def gens(cls, variables=("q", "p")) -> tuple["BiPoly", "BiPoly"]:
        """The two coordinate polynomials."""
        variables = _check_names(variables, 2)
        return (
            cls._make(variables, {(2, 0): 1}),
            cls._make(variables, {(0, 2): 1}),
        )

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        return self._combine(other, add_terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub_terms)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: sub_terms(b, a))

    def __neg__(self):
        return self._like(neg_terms(self.terms))

    def __mul__(self, other):
        if type(other) is int:
            return self._like(scale_terms(self.terms, other))
        return self._combine(other, bi_mul_terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        return self._power(k, bi_mul_terms)

    # -- transforms --------------------------------------------------

    def rename(self, variables) -> "BiPoly":
        return BiPoly._make(_check_names(variables, 2), dict(self.terms))

    def substitute(self, image_a, image_b):
        """Replace the first/second variable by the given images.

        Both images must live in the same ring and support arithmetic
        with ints; the result has their type (a pair of BiPoly images
        gives a BiPoly, a pair of LaurentPoly images collapses to a
        univariate result).  This polynomial must have nonnegative
        integer exponents in both variables.
        """
        source = {}
        for (na, nb), coeff in self.terms.items():
            if na < 0 or nb < 0 or na % 2 or nb % 2:
                raise NonIntegralOuter(
                    "substitution source must have nonnegative integer exponents"
                )
            source[(na // 2, nb // 2)] = coeff
        return _substitute(source, (image_a, image_b))

    def sqrt(self) -> "RadicalExpr":
        """Split into a square part and a residual radicand.

        The result squares back to this polynomial exactly.  When the
        polynomial is a perfect square the radicand list is empty;
        otherwise the largest extractable monomial square (including a
        perfect-square integer content) moves into the prefactor and
        the remainder stays under a single formal root.

        Perfect squares are found by the univariate root on keys packed
        as (a, b) -> a·W + b, W one more than the largest b.  Packing is
        one-to-one below b-degree W, so a root with 2·b < W on every term
        squares to the input, and a true root has 2·b <= W - 1.  Zero is
        its own root.
        """
        whole = _bi_sqrt_terms(self.terms)
        if whole is not None:
            return RadicalExpr._raw(self._like(whole), [])
        content = 0
        for c in self.terms.values():
            content = math.gcd(content, c)
        root_c = math.isqrt(content)
        if root_c * root_c != content:
            root_c = 1
        square = root_c * root_c
        min_a = min(na for na, _ in self.terms)
        min_b = min(nb for _, nb in self.terms)
        even_a = min_a - (min_a % 2)
        even_b = min_b - (min_b % 2)
        pre = self._like({(even_a // 2, even_b // 2): root_c})
        residual = self._like(
            {(na - even_a, nb - even_b): c // square for (na, nb), c in self.terms.items()}
        )
        return RadicalExpr._raw(pre, [residual])

    def eval_complex(self, point) -> complex:
        """Numeric evaluation at ``(value_a, value_b)``; half exponents use
        principal square roots."""
        za, zb = point
        za = complex(za)
        zb = complex(zb)
        if za == 0 and any(na < 0 for na, _ in self.terms):
            raise ZeroBase("negative exponents cannot be evaluated at zero")
        if zb == 0 and any(nb < 0 for _, nb in self.terms):
            raise ZeroBase("negative exponents cannot be evaluated at zero")
        half_a = any(na % 2 for na, _ in self.terms)
        half_b = any(nb % 2 for _, nb in self.terms)
        wa = cmath.sqrt(za) if half_a else za
        wb = cmath.sqrt(zb) if half_b else zb
        total = 0j
        for (na, nb), coeff in self.terms.items():
            fa = wa ** (na if half_a else na // 2)
            fb = wb ** (nb if half_b else nb // 2)
            total += coeff * fa * fb
        return total

    # -- rendering ---------------------------------------------------

    def to_json_dict(self) -> dict:
        va, vb = self.variables
        return {
            "variables": [va, vb],
            "den": 2,
            "terms": [
                {"numA": na, "numB": nb, "coeff": str(self.terms[(na, nb)])}
                for na, nb in sorted(self.terms, reverse=True)
            ],
        }

    def _json_text(self) -> str:
        # ``json.dumps(self.to_json_dict())``, written from the terms: the
        # numerators and the digit strings need no escaping, the names do
        body = ", ".join([f'{{"numA": {na}, "numB": {nb}, "coeff": "{coeff}"}}'
                          for (na, nb), coeff in sorted(self.terms.items(), reverse=True)])
        names = json.dumps(list(self.variables))
        return f'{{"variables": {names}, "den": 2, "terms": [{body}]}}'

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BiPoly":
        rows = _json_terms(obj, ("numA", "numB"))
        names = obj.get("variables", ("q", "p"))
        return cls((((na, nb), c) for na, nb, c in rows), variables=names)

    def render(self, style: str = "text", *, ascending: bool = True) -> str:
        """Text terms ordered by the first variable's exponent (ascending by
        default, descending with ``ascending=False``), ties broken by the
        second exponent in the same direction; or the canonical JSON form."""
        va, vb = self.variables
        return self._render(
            style, not ascending, lambda key: _pow_str(va, key[0]) + _pow_str(vb, key[1])
        )

    def __repr__(self):
        return f"BiPoly({self.terms!r}, variables={self.variables!r})"


class RadicalExpr:
    """A polynomial prefactor times the formal square root of a polynomial.

    ``radicands`` holds at most one entry, and never a perfect square: the
    constructor multiplies the given radicands into one product, splits
    it once with ``BiPoly.sqrt`` and moves its square part into the
    prefactor.  That split finds no square polynomial factor, so equal
    values may keep different forms (``sqrt(2x^2 + 4x + 2)`` and
    ``(1 + x) * sqrt(2)``); equality and hashing go by the value.
    ``square()`` always lands back in BiPoly.
    """

    __slots__ = ("prefactor", "radicands")

    def __init__(self, prefactor: BiPoly, radicands=()):
        if not isinstance(prefactor, BiPoly):
            raise TypeError("prefactor must be a BiPoly")
        radicands = list(radicands)
        if not all(isinstance(rad, BiPoly) for rad in radicands):
            raise TypeError("radicands must be BiPoly values")
        rest: list[BiPoly] = []
        if radicands:
            part = math.prod(radicands[1:], start=radicands[0]).sqrt()
            prefactor, rest = prefactor * part.prefactor, part.radicands
        self.prefactor = prefactor
        self.radicands = [] if prefactor.is_zero else rest

    @classmethod
    def _raw(cls, prefactor: BiPoly, radicands) -> "RadicalExpr":
        self = object.__new__(cls)
        self.prefactor = prefactor
        self.radicands = list(radicands)
        return self

    @property
    def is_polynomial(self) -> bool:
        return not self.radicands

    def as_polynomial(self) -> BiPoly:
        """The underlying polynomial; raises UnresolvedRadical when formal
        roots remain."""
        if self.radicands:
            raise UnresolvedRadical(f"{self} still carries radical factors")
        return self.prefactor

    def square(self) -> BiPoly:
        out = self.prefactor * self.prefactor
        for rad in self.radicands:
            out = out * rad
        return out

    def eval_complex(self, point) -> complex:
        total = self.prefactor.eval_complex(point)
        for rad in self.radicands:
            total *= cmath.sqrt(rad.eval_complex(point))
        return total

    def __eq__(self, other):
        # a radical-free value equals its prefactor, as BiPoly or as int
        if isinstance(other, (BiPoly, int)):
            return not self.radicands and self.prefactor == other
        if not isinstance(other, RadicalExpr):
            return NotImplemented
        if not (self.radicands and other.radicands):
            return self.radicands == other.radicands and self.prefactor == other.prefactor
        # p·sqrt(D) == q·sqrt(E) when the squares agree and the signs do:
        # sqrt(D)·sqrt(E) is s·r, with r the root of D·E normalised to a
        # positive lead and s the sign of D's lead
        if self.square() != other.square():
            return False
        (d,), (e,) = self.radicands, other.radicands
        s = 1 if d.terms[max(d.terms)] > 0 else -1
        return self.prefactor * s * (d * e).sqrt().prefactor == other.prefactor * e

    def __hash__(self):
        return hash(self.square() if self.radicands else self.prefactor)

    def to_json_dict(self) -> dict:
        return {
            "prefactor": self.prefactor.to_json_dict(),
            "radicands": [r.to_json_dict() for r in self.radicands],
        }

    def render(self, style: str = "text", *, ascending: bool = True) -> str:
        if style == "json":
            return json.dumps(self.to_json_dict())
        if style != "text":
            raise ValueError(f"unknown style {style!r}")
        if not self.radicands:
            return self.prefactor.render(ascending=ascending)
        parts = []
        if self.prefactor != 1:
            text = self.prefactor.render(ascending=ascending)
            parts.append(f"({text})" if len(self.prefactor.terms) > 1 else text)
        for rad in self.radicands:
            # radicands read best in plain descending-power order
            parts.append(f"sqrt({rad.render(ascending=False)})")
        return " * ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RadicalExpr({self.prefactor!r}, {self.radicands!r})"

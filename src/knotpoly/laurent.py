"""Exact sparse Laurent polynomials with half-integer exponents.

Every exponent lives on the lattice of halves: a term is stored under its
exponent *numerator* (the exponent times two) with an exact ``int``
coefficient, so knot polynomials with integer powers and link polynomials
with half powers share one representation.  No zero coefficient is ever
stored, the zero polynomial has an empty term map, and equality compares
term maps only; the variable name is display metadata.

Values are immutable by convention: every operation returns a fresh
object, so instances can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush

from ._kernels import add_terms, mul_terms, neg_terms, scale_terms, sub_terms
from .errors import NonIntegralOuter, NotAPerfectSquare, ZeroBase

__all__ = ["LaurentPoly"]

# Top degree below which a block of a substitution runs Horner rather than
# splitting again.  Measured on the compositions of alexander-chebyshev and
# homfly-bridge: below it, the squarings a split adds cost more than the
# Horner products by the image that it saves.
_HORNER_BELOW = 24


def _to_numerator(exponent) -> int:
    """Exponent (int, or Fraction with denominator 1 or 2) -> numerator in half-steps."""
    if isinstance(exponent, bool):
        raise TypeError(f"exponent {exponent!r} is a bool, not a number")
    if isinstance(exponent, int):
        return 2 * exponent
    frac = Fraction(exponent)
    if frac.denominator == 1:
        return 2 * frac.numerator
    if frac.denominator == 2:
        return frac.numerator
    raise ValueError(f"exponent {exponent!r} is not on the half-integer lattice")


def _check_names(names, arity: int):
    """Variable names given by a caller: one str for ``arity`` 1, or a
    list or tuple of two strs for ``arity`` 2, returned as a tuple."""
    if arity == 1:
        if not isinstance(names, str):
            raise ValueError(f'field "variable" is not a string: {names!r}')
        return names
    if not (isinstance(names, (list, tuple)) and len(names) == 2
            and all(isinstance(v, str) for v in names)):
        raise ValueError(f'field "variables" is not a pair of strings: {names!r}')
    return tuple(names)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _json_coeff(coeff):
    # the canonical JSON form writes a coefficient as a decimal string:
    # an optional sign, then ASCII digits; anything else must already be
    # an int
    if not isinstance(coeff, str):
        return coeff
    if not _DECIMAL.fullmatch(coeff):
        raise ValueError(f"coefficient {coeff!r} is not a decimal integer")
    return int(coeff)


def _json_terms(obj, fields):
    """The terms of a canonical JSON object, each as the tuple of its
    ``fields`` and its coefficient.  A malformed object raises ValueError
    naming the field; the constructor still checks the values' types."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    if type(obj.get("den")) is not int or obj["den"] != 2:
        raise ValueError('field "den" is not the int 2')
    if not isinstance(obj.get("terms"), list):
        raise ValueError('field "terms" is missing or not a list')
    rows = []
    for term in obj["terms"]:
        if not isinstance(term, dict):
            raise ValueError(f'an entry of "terms" is not an object: {term!r}')
        for field in (*fields, "coeff"):
            if field not in term:
                raise ValueError(f'an entry of "terms" has no field "{field}": {term!r}')
        rows.append((*(term[f] for f in fields), _json_coeff(term["coeff"])))
    return rows


def _pow_str(variable: str, num: int) -> str:
    """Render variable**(num/2); bare name for exponent one, parens for
    negative or fractional exponents."""
    if num == 0:
        return ""
    if num == 2:
        return variable
    if num % 2 == 0:
        k = num // 2
        return f"{variable}^{k}" if k > 0 else f"{variable}^({k})"
    return f"{variable}^({num}/2)"


def _sqrt_terms(terms):
    """Square root of a univariate numerator-keyed dict, normalised to a
    positive leading coefficient; None when no root with integer
    coefficients exists on the half-exponent lattice.

    Long division from the top down, on a dict remainder with a heap of
    its keys and a list of the nonzero root terms: a step costs one update
    per root term, whatever the gaps between exponents.  ``BiPoly.sqrt``
    calls it on packed keys and bounds the unpacked root's degree, as a
    root whose square carries between the packed fields is no root.
    """
    if not terms:
        return {}
    lo, hi = min(terms), max(terms)
    lead = terms[hi]
    root_lead = math.isqrt(max(lead, 0))
    if lo % 2 or hi % 2 or root_lead * root_lead != lead:
        return None
    half, twice = hi // 2, 2 * root_lead
    rem = dict(terms)
    heap = [-k for k in rem if k != hi]
    heapify(heap)
    root = [(half, root_lead)]
    while heap:
        top = -heappop(heap)
        if not rem[top]:
            continue
        exp = top - half
        q, leftover = divmod(rem[top], twice)
        if leftover or 2 * exp < lo:
            return None
        # rem -= q*s^exp * (2*root + q*s^exp): with (exp, q) appended, the
        # loop takes 2*q^2 at 2*exp and one q^2 goes back; the root's lead
        # clears rem[top], and every other key lies below top
        root.append((exp, q))
        tq = 2 * q
        for j, c in root:
            k = exp + j
            v = rem.get(k)
            if v is None:
                heappush(heap, -k)
                v = 0
            rem[k] = v - tq * c
        rem[2 * exp] += q * q
    return dict(root)


def _substitute(source, images):
    """``sum(c * prod(images[i] ** k[i]))`` over the items ``(k, c)`` of
    ``source``, whose keys are tuples of nonnegative int degrees, one per
    image.  The result lies in the images' common ring, with the variable
    names of the first polynomial image.

    An image that is a monomial ``c X^e`` of that ring is an exponent remap,
    sending degree k to key k·e with coefficient c^k, so with every image a
    monomial the substitution is one pass over the terms.  Any other image
    g splits the degrees present, p(g) = p_lo(g) + g^m·p_hi(g) with m the
    largest power of two up to the top degree, so both halves stay below
    degree m (Brent and Kung, J. ACM 25, 1978).  The squares g^m are built
    only as a split needs them, a lone term at degree d takes g^d whole,
    and a block whose top degree is below ``_HORNER_BELOW`` runs Horner
    over its degrees, jumping each gap with a power of g.  The O(log n)
    levels of balanced products that replace Horner's n products by g
    are what the packed multiplication kernel serves.
    """
    zero = images[0] * 0
    for img in images[1:]:
        zero = zero + img * 0  # the images' common ring; TypeError if none
    monos = tuple(
        next(iter(img.terms.items()))
        if type(img) is type(zero) and isinstance(img, _TermPoly) and len(img.terms) == 1
        else None
        for img in images
    )
    return _substitute_rows(source, images, monos, zero)


def _substitute_rows(source, images, monos, zero):
    """``_substitute`` with its ring's ``zero`` and each image's monomial
    ``(e, c)``, or None for an image that is not one."""
    if None not in monos:
        return zero._like(_remap(source, monos, zero._UNIT))
    g = monos.index(None)
    image = images[g]
    rest, rest_monos = images[:g] + images[g + 1:], monos[:g] + monos[g + 1:]
    rows = {}
    for degrees, coeff in source.items():
        rows.setdefault(degrees[g], {})[degrees[:g] + degrees[g + 1:]] = coeff
    if not rows:
        return zero
    items = [(d, _substitute_rows(row, rest, rest_monos, zero) if rest else row[()])
             for d, row in sorted(rows.items())]
    result = _split(items, _Powers(image))
    if type(result) is type(zero) and isinstance(zero, _TermPoly):
        return zero._like(result.terms)  # in the ring's names, with no pass
    return zero + result


class _Powers:
    """The powers of one image g, cached by degree: ``power(d)`` by ``**``,
    and ``square(m)``, for m a power of two, by squaring g^(m/2)."""

    def __init__(self, image):
        self.cache = {1: image}

    def power(self, d):
        if d not in self.cache:
            self.cache[d] = self.cache[1] ** d
        return self.cache[d]

    def square(self, m):
        if m not in self.cache:
            half = self.square(m // 2)
            self.cache[m] = half * half
        return self.cache[m]


def _horner(items, powers):
    """sum(v * g^d) over the pairs (d, v) of ``items``, in ascending order of
    d, by Horner from the top down, jumping each gap with a cached power."""
    d, result = items[-1]
    for below, value in reversed(items[:-1]):
        result = result * powers.power(d - below) + value
        d = below
    return result * powers.power(d) if d else result


def _split(items, powers):
    """``_horner``'s sum as p_lo + g^m·p_hi, with m the largest power of two
    up to the top degree, so both halves have degree below m."""
    top = items[-1][0]
    if top < _HORNER_BELOW:
        return _horner(items, powers)
    m = 1 << (top.bit_length() - 1)
    cut = bisect_left(items, (m,))
    low, high = items[:cut], [(d - m, v) for d, v in items[cut:]]
    if len(high) == 1:
        d, value = items[-1]
        high_part = value * powers.power(d)
    else:
        high_part = powers.square(m) * _split(high, powers)
    return high_part + _split(low, powers) if low else high_part


def _remap(source, monos, unit):
    """Term dict of the substitution of monomials ``c X^e``, given as
    ``(e, c)`` pairs: each term goes to one key, colliding ones summed."""
    out = {}
    for degrees, coeff in source.items():
        key = unit
        for k, (e, c) in zip(degrees, monos):
            if k:
                coeff *= c**k
                key = key + k * e if type(key) is int else (key[0] + k * e[0], key[1] + k * e[1])
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def _exact_real_sum(terms, x: float) -> float:
    """The sum of ``c x^(num/2)`` over integer-exponent ``terms`` at a
    nonzero float x, computed exactly and rounded once.

    x is exactly m / 2^e, so integer Horner gives
    acc = sum(c_k m^(k - lo) 2^(e (hi - k))); the sum is acc m^lo / 2^(e hi),
    and the int division rounds it correctly.
    """
    m, d = x.as_integer_ratio()  # raises on inf and nan
    if not terms:
        return 0.0
    e = d.bit_length() - 1
    nums = sorted(terms, reverse=True)
    hi, lo = nums[0] // 2, nums[-1] // 2
    acc = 0
    prev = hi
    for num in nums:
        k = num // 2
        acc = acc * m ** (prev - k) + (terms[num] << e * (hi - k))
        prev = k
    top, bottom = (acc * m**lo, 1) if lo >= 0 else (acc, m**-lo)
    if hi >= 0:
        bottom <<= e * hi
    else:
        top <<= -e * hi
    if bottom < 0:  # a negative divisor would turn a zero sum into -0.0
        top, bottom = -top, -bottom
    return top / bottom


class _TermPoly:
    """What ``LaurentPoly`` and ``BiPoly`` share: a canonical ``terms``
    dict (no zero coefficient) keyed by exponent numerators, with
    ``_UNIT`` the key of the constant term.

    Equality compares term maps only, and a constant polynomial equals
    (and hashes like) its int.
    """

    __slots__ = ()
    _UNIT: object  # set by each subclass

    @classmethod
    def _canonical(cls, terms) -> dict:
        """Validated term dict from a mapping or iterable of (key, coeff)
        pairs: duplicates summed, zero coefficients dropped.  Exponent
        numerators and coefficients must be plain ints, so a bool or a
        float is refused rather than read as a number."""
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            key = cls._check_key(key)
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            c = clean.get(key, 0) + coeff
            if c:
                clean[key] = c
            elif key in clean:
                del clean[key]
        return clean

    def _combine(self, other, kernel):
        """The operand rule of every binary ring operator: an int is the
        constant term dict and a value of the receiver's own type gives its
        terms; anything else, bools included, is NotImplemented.  Returns
        ``kernel(self.terms, other_terms)`` in the receiver's variables.

        Each operator names its kernel, a module global, in its body, so the
        kernel is looked up per call and a tracer that patches the module
        sees every call."""
        if type(other) is int:
            other_terms = {self._UNIT: other} if other else {}
        elif isinstance(other, type(self)):
            other_terms = other.terms
        else:
            return NotImplemented
        return self._like(kernel(self.terms, other_terms))

    def _power(self, k, mul):
        """``self ** k`` by square-and-multiply with the arity's
        multiplication kernel ``mul``; NotImplemented unless k is an int."""
        if type(k) is not int:
            return NotImplemented
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = None   # the unit, until the first factor is taken as it is
        base = self.terms
        while k:
            if k & 1:
                result = base if result is None else mul(result, base)
            k >>= 1
            if k:
                base = mul(base, base)
        return self._like({self._UNIT: 1} if result is None else result)

    def _render(self, style: str, descending: bool, body) -> str:
        """``render`` for either arity: the JSON form, or the terms in key
        order with explicit signs, ``body(key)`` giving a term's powers."""
        if style == "json":
            return self._json_text()
        if style != "text":
            raise ValueError(f"unknown style {style!r}")
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=descending):
            coeff = self.terms[key]
            powers = body(key)
            mag = abs(coeff)
            if not powers:
                text = str(mag)
            elif mag == 1:
                text = powers
            else:
                text = f"{mag}{powers}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({self._UNIT: other} if other else {})
        if not isinstance(other, _TermPoly) or other._UNIT != self._UNIT:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and self._UNIT in terms:
            return hash(terms[self._UNIT])
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return self.render()


class LaurentPoly(_TermPoly):
    """Sparse Laurent polynomial over the integers.

    ``terms`` maps exponent numerators (exponent * 2) to nonzero integer
    coefficients.  Construct with a mapping or iterable of
    ``(numerator, coeff)`` pairs, or use :meth:`from_terms` to pass real
    exponents.
    """

    __slots__ = ("variable", "terms")
    _UNIT = 0

    def __init__(self, terms=(), variable: str = "t"):
        self.variable = _check_names(variable, 1)
        self.terms = self._canonical(terms)

    @staticmethod
    def _check_key(num):
        if type(num) is not int:
            raise TypeError(f"exponent numerator {num!r} is not an int")
        return num

    # -- constructors ------------------------------------------------

    @classmethod
    def _make(cls, variable: str, terms: dict) -> "LaurentPoly":
        # trusted path: terms already canonical
        self = object.__new__(cls)
        self.variable = variable
        self.terms = terms
        return self

    def _like(self, terms: dict) -> "LaurentPoly":
        return LaurentPoly._make(self.variable, terms)

    @classmethod
    def from_terms(cls, pairs, variable: str = "t") -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs; duplicates are summed
        and zero coefficients dropped."""
        return cls(((_to_numerator(e), c) for e, c in pairs), variable)

    @classmethod
    def zero(cls, variable: str = "t") -> "LaurentPoly":
        return cls._make(_check_names(variable, 1), {})

    @classmethod
    def constant(cls, value: int, variable: str = "t") -> "LaurentPoly":
        if type(value) is not int:
            raise TypeError(f"coefficient {value!r} is not an int")
        return cls._make(_check_names(variable, 1), {0: value} if value else {})

    @classmethod
    def one(cls, variable: str = "t") -> "LaurentPoly":
        return cls.constant(1, variable)

    @classmethod
    def gen(cls, variable: str = "t") -> "LaurentPoly":
        """The variable itself."""
        return cls._make(_check_names(variable, 1), {2: 1})

    @classmethod
    def gen_sqrt(cls, variable: str = "t") -> "LaurentPoly":
        """The square root of the variable (exponent one half)."""
        return cls._make(_check_names(variable, 1), {1: 1})

    @classmethod
    def monomial(cls, coeff: int, exponent, variable: str = "t") -> "LaurentPoly":
        if type(coeff) is not int:
            raise TypeError(f"coefficient {coeff!r} is not an int")
        terms = {_to_numerator(exponent): coeff} if coeff else {}
        return cls._make(_check_names(variable, 1), terms)

    # -- ring structure ----------------------------------------------
    # Each class defines its own operators (``perfbench/spans.py`` wraps
    # them in the class ``__dict__``); the operand rule is ``_combine``.

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
        return self._combine(other, mul_terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        return self._power(k, mul_terms)

    # -- queries -----------------------------------------------------

    def degree(self) -> Fraction:
        """Highest exponent; raises ValueError on the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return Fraction(max(self.terms), 2)

    def min_degree(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return Fraction(min(self.terms), 2)

    def leading_coefficient(self) -> int:
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def coefficient(self, exponent) -> int:
        return self.terms.get(_to_numerator(exponent), 0)

    # -- transforms --------------------------------------------------

    def rename(self, variable: str) -> "LaurentPoly":
        return LaurentPoly._make(_check_names(variable, 1), dict(self.terms))

    def invert_variable(self) -> "LaurentPoly":
        """Substitute the variable by its reciprocal."""
        return self._like({-n: c for n, c in self.terms.items()})

    def compose(self, inner):
        """Substitute ``inner`` for the variable.

        Requires this polynomial to be an ordinary polynomial (all
        exponents nonnegative integers); raises NonIntegralOuter
        otherwise.  ``inner`` may be any value supporting ring
        arithmetic with ints; the result has inner's type.
        """
        source = {}
        for num, coeff in self.terms.items():
            if num < 0 or num % 2:
                raise NonIntegralOuter(
                    "composition source must have nonnegative integer exponents"
                )
            source[(num // 2,)] = coeff
        return _substitute(source, (inner,))

    def sqrt_perfect(self) -> "LaurentPoly":
        """Exact square root, normalised to a positive leading coefficient.

        Raises NotAPerfectSquare when no root with integer coefficients
        exists on the half-exponent lattice.  Zero is its own root.
        """
        root = _sqrt_terms(self.terms)
        if root is None:
            raise NotAPerfectSquare(f"{self} is not a perfect square")
        return self._like(root)

    def eval_complex(self, value) -> complex:
        """Numeric evaluation; half exponents use the principal square root
        of the argument.  Raises ZeroBase at zero with negative exponents.

        Real arguments with integer exponents are summed in exact rational
        arithmetic before the final rounding; high-degree alternating
        polynomials would otherwise lose everything to cancellation.
        """
        z = complex(value)
        if z == 0:
            if self.terms and min(self.terms) < 0:
                raise ZeroBase("negative exponents cannot be evaluated at zero")
            return complex(self.terms.get(0, 0))
        integral = all(num % 2 == 0 for num in self.terms)
        if integral and z.imag == 0:
            return complex(_exact_real_sum(self.terms, z.real))
        base, step = (z, 2) if integral else (cmath.sqrt(z), 1)
        total = 0j
        for num, coeff in self.terms.items():
            total += coeff * base ** (num // step)
        return total

    # -- rendering ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variable": self.variable,
            "den": 2,
            "terms": [
                {"num": num, "coeff": str(self.terms[num])}
                for num in sorted(self.terms, reverse=True)
            ],
        }

    def _json_text(self) -> str:
        # ``json.dumps(self.to_json_dict())``, written from the terms: the
        # numerators and the digit strings need no escaping, the name does
        body = ", ".join([f'{{"num": {num}, "coeff": "{coeff}"}}'
                          for num, coeff in sorted(self.terms.items(), reverse=True)])
        return f'{{"variable": {json.dumps(self.variable)}, "den": 2, "terms": [{body}]}}'

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LaurentPoly":
        return cls(_json_terms(obj, ("num",)), variable=obj.get("variable", "t"))

    def render(self, style: str = "text") -> str:
        """Terms in descending exponent order with explicit signs, or the
        canonical JSON form."""
        return self._render(style, True, partial(_pow_str, self.variable))

    def __repr__(self):
        return f"LaurentPoly({self.terms!r}, variable={self.variable!r})"

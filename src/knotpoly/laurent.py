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
import re
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import chain
from math import frexp, ldexp

from ._kernels import (add_terms, compose_terms, mul_terms, neg_terms, scale_terms, sqrt_terms,
                       sub_terms)
from ._kernels.pure import _horner
from .errors import NonIntegralOuter, NotAPerfectSquare, ZeroBase

__all__ = ["LaurentPoly"]


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
    list or tuple of two distinct strs for ``arity`` 2, returned as a
    tuple.  A name may not be empty, as its powers would then print as
    nothing, and the two may not be equal, as two different terms would
    then print as the same monomial."""
    if arity == 1:
        if not (isinstance(names, str) and names):
            raise ValueError(f'field "variable" is not a string, or is empty: {names!r}')
        return names
    if not (isinstance(names, (list, tuple)) and len(names) == 2
            and all(isinstance(v, str) and v for v in names) and names[0] != names[1]):
        raise ValueError(f'field "variables" is not a pair of strings, or one is empty, '
                         f'or the two are equal: {names!r}')
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
    """The terms of a canonical JSON object as ``(key, coeff)`` rows, a key
    an int for one of ``fields`` and a tuple for two.  A malformed object
    raises ValueError naming the field; the constructor checks the types."""
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
        key = term[fields[0]] if len(fields) == 1 else tuple(term[f] for f in fields)
        rows.append((key, _json_coeff(term["coeff"])))
    return rows


def _powers(variable: str, nums) -> list:
    """The text of variable**(num/2) for each numerator in ``nums``: nothing
    at 0, the bare name at 2, parens for a negative or half exponent."""
    return [f"{variable}^({n}/2)" if n & 1 else f"{variable}^{n >> 1}" if n > 2
            else variable if n == 2 else f"{variable}^({n >> 1})" if n else "" for n in nums]


def _substitute(terms, images):
    """``sum(c * prod(images[i] ** k[i]))`` over the terms ``c X^k`` of
    ``terms``, keyed by exponent numerators (an int or a pair), one image per
    variable; a negative or half exponent raises NonIntegralOuter.  The
    result lies in the images' common ring, with the variable names of the
    first polynomial image.

    An image that is a monomial ``c X^e`` of that ring is an exponent remap,
    sending degree k to key k·e with coefficient c^k, so with every image a
    monomial the substitution is one pass over the terms.  When exactly one
    image g is a polynomial of the ring with two or more terms, every other
    image a monomial and the source longer than one term, the source is
    grouped by its degrees in the monomial images; the kernel
    ``compose_terms`` evaluates each group, a polynomial in g alone, at the
    packed g as one big int, places it at its group's monomial, as a key and
    a scale, and sums the groups.  The kernel refuses a source below its
    crossover, an image whose powers are sparse (t^1000000 + t + 1) and a
    result past its size guard.  Those, ``**`` (a one-term source),
    non-polynomial images and a second polynomial image take the split: the
    first non-monomial image g splits the degrees present, p(g) = p_lo(g) +
    g^m·p_hi(g) with m the largest power of two up to the top degree, so
    both halves stay below degree m (Brent and Kung, J. ACM 25, 1978), and
    splits each half again down to degree 0.  The squares g^(2^i) are built
    once, up front, by repeated squaring, so a lone term at degree d costs
    the products of square-and-multiply, and ``g ** d`` is this substitution
    of x^d.  The O(log n) levels of balanced products that replace Horner's n
    products by g are what the packed multiplication kernel serves.  A bool
    image raises TypeError, as a bool operand of the ring operators does.
    """
    # the terms keyed by their tuples of degrees, less any with a negative or half exponent
    if type(next(iter(terms), 0)) is int:
        source = {(n >> 1,): c for n, c in terms.items() if n >= 0 and not n & 1}
    else:
        source = {(a >> 1, b >> 1): c for (a, b), c in terms.items()
                  if a >= 0 <= b and not (a | b) & 1}
    if len(source) < len(terms):
        raise NonIntegralOuter("a substituted polynomial must have nonnegative integer exponents")
    if any(isinstance(img, bool) for img in images):
        raise TypeError("cannot substitute a bool: it is not a ring value")
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
    ``(e, c)``, or None for an image that is not one.  A composition that
    packs is the kernel's one term dict, each group placed at the
    ``_remap`` of its degrees in the monomials; any other takes the split,
    each row's value being the substitution of the remaining images."""
    if None not in monos:
        return zero._like(_remap(source, monos, zero._UNIT))
    g = monos.index(None)
    rest, rest_monos = images[:g] + images[g + 1:], monos[:g] + monos[g + 1:]
    if len(source) > 1 and None not in rest_monos and isinstance(images[g], _TermPoly) \
            and images[g].terms:
        groups = {}
        for degrees, coeff in source.items():
            groups.setdefault(degrees[:g] + degrees[g + 1:], {})[degrees[g]] = coeff
        places = [_remap({degrees: 1}, rest_monos, zero._UNIT).popitem() for degrees in groups]
        composed = compose_terms(list(groups.values()), images[g].terms, places)
        if composed is not None:
            return zero._like(composed)
    rows = {}
    for degrees, coeff in source.items():
        rows.setdefault(degrees[g], {})[degrees[:g] + degrees[g + 1:]] = coeff
    if not rows:
        return zero
    items = [(d, _substitute_rows(row, rest, rest_monos, zero) if rest else row[()])
             for d, row in sorted(rows.items())]
    squares = [images[g]]
    for _ in range(items[-1][0].bit_length() - 1):
        squares.append(squares[-1] * squares[-1])
    result = _split(items, squares)
    if type(result) is type(zero) and isinstance(zero, _TermPoly):
        return zero._like(result.terms)  # in the ring's names, with no pass
    return zero + result


def _split(items, squares):
    """sum(v * g^d) over the pairs (d, v) of ``items``, in ascending order of
    d, by ``_substitute``'s split down to degree 0, with ``squares[i]`` =
    g^(2^i).  A high half that is the int 1 is the square itself, with no
    product by 1."""
    top = items[-1][0]
    if not top:
        return items[0][1]
    i = top.bit_length() - 1
    m = 1 << i
    cut = bisect_left(items, (m,))
    high = _split([(d - m, v) for d, v in items[cut:]], squares)
    high = squares[i] if type(high) is int and high == 1 else high * squares[i]
    return high + _split(items[:cut], squares) if cut else high


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


def _spans(terms):
    """Each variable's (bits, lo, hi) over the keys of the nonempty term
    dict ``terms``: the OR of its exponent numerators, odd when one is, and
    the least and the greatest of them, all in one pass over the keys."""
    keys = iter(terms)
    first = next(keys)
    if type(first) is int:
        bits = lo = hi = first
        for k in keys:
            bits |= k
            if k < lo:
                lo = k
            elif k > hi:
                hi = k
        return ((bits, lo, hi),)
    (bits_a, bits_b) = (lo_a, lo_b) = (hi_a, hi_b) = first
    for a, b in keys:
        bits_a |= a
        bits_b |= b
        if a < lo_a:
            lo_a = a
        elif a > hi_a:
            hi_a = a
        if b < lo_b:
            lo_b = b
        elif b > hi_b:
            hi_b = b
    return (bits_a, lo_a, hi_a), (bits_b, lo_b, hi_b)


def _evaluate(terms, points) -> complex:
    """The value of ``terms`` at ``points``, one coordinate per variable,
    each variable's parity and exponent range taken by ``_spans``.  A str, bytes
    or bool coordinate raises TypeError, NaN ValueError, an infinite one
    OverflowError (as ``Fraction`` does) and a zero one ZeroBase if its
    variable has a negative exponent.  A variable's base is its coordinate,
    or the principal square root of it when the variable has a half
    exponent.  A base on an axis is i^q·r, r a float and so m/2^e: each
    term's power of i goes into its coefficient, which splits the terms into
    a real part and an imaginary one.  With every base on an axis each part
    is exact, rounded once: ``_horner`` over each variable's full exponent
    range (for two, one per row, then one over the rows) and one int
    division give it.  Elsewhere ``_float_sum`` sums each part in complex
    floats, a base on an axis raised by float pow of r, not complex pow's
    exp/log from exponent 100, and the imaginary part's sum times i is
    added.  A value past the float range raises one OverflowError on every
    path, for the int division, a float or complex power, or a float sum
    left at inf or nan."""
    zs = []
    for value in points:
        if isinstance(value, (str, bytes, bytearray, bool)):
            raise TypeError(f"cannot evaluate at {value!r}: not a number")
        z = complex(value)
        if not cmath.isfinite(z):
            if cmath.isnan(z):
                raise ValueError(f"cannot evaluate at {value!r}: not a number")
            raise OverflowError(f"cannot evaluate at {value!r}: not finite")
        zs.append(z)
    if not terms:
        return 0j
    # per variable: (base, numerator step), with a base i^q·r on an axis as r;
    # q; and (m, e, lo, hi, step) for r = m/2^e, the range in powers of the base
    bases, turns, dyadic, spans = [], [], [], _spans(terms)
    for z, (bits, lo, hi) in zip(zs, spans):
        if z == 0 and lo < 0:
            raise ZeroBase("negative exponents cannot be evaluated at zero")
        step = 2 - (bits & 1)
        base = cmath.sqrt(z) if step == 1 else z
        turns.append(1 if base.imag and not base.real else 0)
        if not (base.real and base.imag):
            base = base.imag or base.real
            m, d = base.as_integer_ratio()
            dyadic.append((m, d.bit_length() - 1, lo // step, hi // step, step))
        bases.append((base, step))
    parts = (terms,)
    if any(turns):  # i^q·c: the real part's terms, then the imaginary part's
        parts = ({}, {})
        for key, coeff in terms.items():
            q = sum(t * (k // step)
                    for t, k, (_, step) in zip(turns, (key,) if type(key) is int else key, bases))
            parts[q & 1][key] = -coeff if q & 2 else coeff
    try:
        if len(dyadic) == len(zs):
            return complex(*[_exact_sum(part, dyadic) for part in parts])
        re, *im = [_float_sum(part, bases, spans) for part in parts]
        total = complex(re.real - im[0].imag, re.imag + im[0].real) if im else re
        if cmath.isfinite(total):  # else a product past the float range, or inf - inf
            return total
    except (OverflowError, ZeroDivisionError):
        # from a power, a scaled term or the int division; complex pow divides
        # by 0 at a negative power whose positive one underflows
        pass
    raise OverflowError("the value is past the float range")


def _exact_sum(terms, dyadic):
    """``_evaluate``'s exact sum of ``terms``, rounded once to a float, each
    variable's base m/2^e given with its range by ``dyadic``."""
    if not terms:
        return 0.0
    (m, e, lo, hi, step), *rest = dyadic
    if rest:  # one Horner along each row of the first exponent, then one over the rows
        ((mb, eb, lob, hib, stepb),) = rest
        rows = {}
        for (na, nb), c in terms.items():
            rows.setdefault(na, {})[nb] = c
        terms = {na: _horner(((b // stepb - lob, row[b]) for b in sorted(row, reverse=True)),
                             mb, eb, hib - lob) for na, row in rows.items()}
    top = _horner(((k // step - lo, terms[k]) for k in sorted(terms, reverse=True)), m, e, hi - lo)
    bottom = 1  # the sum is top / bottom: top carries m^lo or 2^-(e·hi) if an int
    for m, e, lo, hi, _ in dyadic:
        top, bottom = (top * m**lo, bottom) if lo >= 0 else (top, bottom * m**-lo)
        top, bottom = (top, bottom << e * hi) if hi >= 0 else (top << -e * hi, bottom)
    return top / bottom if top else 0.0  # 0 / a negative divisor would be -0.0


def _float_sum(terms, bases, spans):
    """``_evaluate``'s complex-float sum.  A scaled pass writes each
    coefficient as m·2^s, m below 2^64 and rounded once, and each base as
    u·2^E, |u| near 1, and sums m·u^k scaled by 2^(s + E·k): a coefficient
    or a power past the float range whose term is not is summed.  It runs
    when Σ|E| times the largest power in ``spans``, in size, reaches 1000,
    and after an overflow."""
    # the largest power in size, and E for each base.  Past a power of 900
    # no base is scaled: below it each u^k is within 2^±450, so m·u^k for
    # two variables is in range
    top, scales = 0, []
    for (base, step), (_, lo, hi) in zip(bases, spans):
        m, e = frexp(abs(base))
        top = max(top, hi // step, -lo // step)
        scales.append(e - (m < 0.7071067811865476))
    total = 0j
    if top > 900 or top * sum(map(abs, scales)) < 1000:
        try:
            if len(bases) == 1:
                ((base, step),) = bases
                for num, coeff in terms.items():
                    total += coeff * base ** (num // step)
            else:
                (wa, sa), (wb, sb) = bases
                for (na, nb), coeff in terms.items():
                    total += coeff * wa ** (na // sa) * wb ** (nb // sb)
            return total
        except OverflowError:  # a coefficient past the float range, or a power
            total = 0j
    units = [(ldexp(base, -e) if type(base) is float
              else complex(ldexp(base.real, -e), ldexp(base.imag, -e)), step, e)
             for (base, step), e in zip(bases, scales if top <= 900 else (0, 0))]
    for key, coeff in terms.items():
        s = max(coeff.bit_length() - 64, 0)
        value = coeff / (1 << s)
        for k, (unit, step, e) in zip((key,) if type(key) is int else key, units):
            value *= unit ** (k // step)
            s += e * (k // step)
        total += complex(ldexp(value.real, s), ldexp(value.imag, s))
    return total


class _TermPoly:
    """What ``LaurentPoly`` and ``BiPoly`` share: a canonical ``terms``
    dict (no zero coefficient) keyed by exponent numerators, the names in
    ``_names``, the constructors, every ring operator but ``*``, JSON and ``repr``.
    A subclass declares its arity as class attributes: ``_UNIT`` (the
    constant term's key), ``_NAMES_FIELD`` and ``_KEY_FIELDS`` (the JSON
    fields of its names and of a key) and ``_DEFAULT_NAMES``.

    Equality compares term maps only, and a constant polynomial equals
    (and hashes like) its int.
    """

    __slots__ = ("_names", "terms")

    @classmethod
    def _make(cls, names, terms: dict):
        # trusted path: names checked and terms already canonical
        self = object.__new__(cls)
        self._names = names
        self.terms = terms
        return self

    def _like(self, terms: dict):
        # every ring operation comes through here: the slot is copied
        # directly, as a call to ``_make`` would cost a frame per operation
        new = object.__new__(type(self))
        new._names = self._names
        new.terms = terms
        return new

    @classmethod
    def constant(cls, value: int, names=None):
        """``value`` as a polynomial; ``names`` None gives the default names."""
        if type(value) is not int:
            raise TypeError(f"coefficient {value!r} is not an int")
        names = cls._DEFAULT_NAMES if names is None else _check_names(names, len(cls._KEY_FIELDS))
        return cls._make(names, {cls._UNIT: value} if value else {})

    @classmethod
    def zero(cls, names=None):
        return cls.constant(0, names)

    @classmethod
    def one(cls, names=None):
        return cls.constant(1, names)

    def rename(self, names):
        return self._make(_check_names(names, len(self._KEY_FIELDS)), dict(self.terms))

    @classmethod
    def from_json_dict(cls, obj: dict):
        return cls(_json_terms(obj, cls._KEY_FIELDS), obj.get(cls._NAMES_FIELD, cls._DEFAULT_NAMES))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r}, {self._NAMES_FIELD}={self._names!r})"

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

    # -- ring structure ----------------------------------------------
    # Every operator but ``*``, whose kernel depends on the arity.

    def __add__(self, other):
        return self._combine(other, add_terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub_terms)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: sub_terms(b, a))

    def __neg__(self):
        return self._like(neg_terms(self.terms))

    def __pow__(self, k):
        """``self ** k``, x^k with ``self`` substituted by ``_substitute``,
        whose squares and split it shares; NotImplemented unless k is an int."""
        if type(k) is not int:
            return NotImplemented
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return _substitute({2 * k: 1}, (self,))

    def to_json_dict(self) -> dict:
        return json.loads(self._json_text())

    def _render(self, style: str, descending: bool, body) -> str:
        """``render`` for either arity: the JSON form, or the terms in key
        order, ``body(keys)`` giving the powers of every sorted key at once:
        each term is its sign, its magnitude (left out when 1 before powers)
        and its powers, written by one f-string per case with no call per
        term, and the first term's "+ x" is then rewritten "x", its "- x" "-x"."""
        if style == "json":
            return self._json_text()
        if style != "text":
            raise ValueError(f"unknown style {style!r}")
        terms = self.terms
        if not terms:
            return "0"
        keys = sorted(terms, reverse=descending)
        parts = [f"+ {p}" if c == 1 and p else f"- {p}" if c == -1 and p
                 else f"+ {c}{p}" if c > 0 else f"- {-c}{p}"
                 for c, p in zip([terms[k] for k in keys], body(keys))]
        head = parts[0]
        parts[0] = head[2:] if head[0] == "+" else f"-{head[2:]}"
        return " ".join(parts)

    def _json_text(self) -> str:
        # the canonical JSON form, as ``json.dumps`` spaces it: one template
        # per term, filled by ``%s`` (``str``, and so its digit limit) from
        # the flat run of each sorted key's numerators and its coefficient,
        # with no Python call and no tuple per term; the numerators and the
        # digit strings need no escaping, the names do
        terms, arity = self.terms, len(self._KEY_FIELDS)
        keys = sorted(terms, reverse=True)
        fields = "".join([f'"{field}": %s, ' for field in self._KEY_FIELDS])
        # one iterator zipped once per key field hands zip a key's numerators in turn
        nums = chain.from_iterable(keys) if arity > 1 else iter(keys)
        flat = chain.from_iterable(zip(*[nums] * arity, map(terms.__getitem__, keys)))
        body = ", ".join([f'{{{fields}"coeff": "%s"}}'] * len(keys)) % tuple(flat)
        return f'{{"{self._NAMES_FIELD}": {json.dumps(self._names)}, "den": 2, "terms": [{body}]}}'

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

    def _brief(self) -> str:
        """A description of bounded length for error messages: the term
        count and each variable's exponent range.  The terms themselves
        are left out, as their text grows with the coefficients and can
        pass the interpreter's int-to-str digit limit."""
        if not self.terms:
            return "the zero polynomial"
        names = self._names if isinstance(self._UNIT, tuple) else (self._names,)
        ranges = ", ".join(f"{name} from {Fraction(lo, 2)} to {Fraction(hi, 2)}"
                           for name, (_, lo, hi) in zip(names, _spans(self.terms)))
        return f"a {len(self.terms)}-term polynomial with exponents of {ranges}"

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

    __slots__ = ()
    _UNIT = 0
    _NAMES_FIELD = "variable"
    _KEY_FIELDS = ("num",)
    _DEFAULT_NAMES = "t"

    def __init__(self, terms=(), variable: str = _DEFAULT_NAMES):
        self._names = _check_names(variable, 1)
        self.terms = self._canonical(terms)

    @property
    def variable(self) -> str:
        return self._names

    @staticmethod
    def _check_key(num):
        if type(num) is not int:
            raise TypeError(f"exponent numerator {num!r} is not an int")
        return num

    # -- constructors ------------------------------------------------

    @classmethod
    def from_terms(cls, pairs, variable: str = _DEFAULT_NAMES) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs; duplicates are summed
        and zero coefficients dropped."""
        return cls(((_to_numerator(e), c) for e, c in pairs), variable)

    @classmethod
    def gen(cls, variable: str = _DEFAULT_NAMES) -> "LaurentPoly":
        """The variable itself."""
        return cls._make(_check_names(variable, 1), {2: 1})

    @classmethod
    def gen_sqrt(cls, variable: str = _DEFAULT_NAMES) -> "LaurentPoly":
        """The square root of the variable (exponent one half)."""
        return cls._make(_check_names(variable, 1), {1: 1})

    @classmethod
    def monomial(cls, coeff: int, exponent, variable: str = _DEFAULT_NAMES) -> "LaurentPoly":
        if type(coeff) is not int:
            raise TypeError(f"coefficient {coeff!r} is not an int")
        num = _to_numerator(exponent)
        return cls._make(_check_names(variable, 1), {num: coeff} if coeff else {})

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
        return self._combine(other, mul_terms)

    __rmul__ = __mul__

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
        return _substitute(self.terms, (inner,))

    def sqrt_perfect(self) -> "LaurentPoly":
        """Exact square root, normalised to a positive leading coefficient.

        Raises NotAPerfectSquare when no root with integer coefficients
        exists on the half-exponent lattice.  Zero is its own root.
        """
        root = sqrt_terms(self.terms)
        if root is None:
            raise NotAPerfectSquare(f"{self._brief()} is not a perfect square")
        return self._like(root)

    def eval_complex(self, value) -> complex:
        """The value at a number: exact at a real one, and at an imaginary one
        with integer exponents, else a complex-float sum (see ``_evaluate``)."""
        return _evaluate(self.terms, (value,))

    # -- rendering ---------------------------------------------------

    def render(self, style: str = "text") -> str:
        """Terms in descending exponent order with explicit signs, or the
        canonical JSON form."""
        return self._render(style, True, partial(_powers, self._names))

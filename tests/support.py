"""Shared hypothesis strategies for randomised algebra tests, the naive
references the fast paths are checked against, and an independent closed
form of the Chebyshev family."""

import json
import math
from fractions import Fraction

from hypothesis import strategies as st

from knotpoly import BiPoly, LaurentPoly, RadicalExpr

coefficients = st.integers(min_value=-99, max_value=99)
half_numerators = st.integers(min_value=-20, max_value=20)
wide_coefficients = st.integers(min_value=-(2**64), max_value=2**64)
small_coefficients = st.integers(min_value=-2, max_value=2)


def laurent_polys(max_terms=12, nonzero=False, strides=(1,), coeffs=coefficients):
    """Numerators on one lattice k·stride + offset, with k in -20..20, the
    stride drawn from ``strides`` and the offset below it.  For the default
    stride 1 the term list is drawn directly: the same distribution, at
    about half the drawing cost."""
    size = {"min_size": 1 if nonzero else 0, "max_size": max_terms}
    if strides == (1,):
        base = st.lists(st.tuples(half_numerators, coeffs), **size)
    else:
        lattices = st.sampled_from(strides).flatmap(
            lambda stride: st.tuples(st.just(stride), st.integers(min_value=0, max_value=stride - 1))
        )
        base = lattices.flatmap(
            lambda lattice: st.lists(
                st.tuples(half_numerators.map(lambda k: k * lattice[0] + lattice[1]), coeffs), **size
            )
        )
    base = base.map(LaurentPoly)
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


def laurent_polys_integral(max_degree=5, max_terms=6):
    """Ordinary polynomials: nonnegative integer exponents only."""
    nums = st.integers(min_value=0, max_value=max_degree).map(lambda k: 2 * k)
    return st.lists(
        st.tuples(nums, coefficients), min_size=0, max_size=max_terms
    ).map(LaurentPoly)


def bi_polys(max_terms=10, nonzero=False, coeffs=coefficients):
    keys = st.tuples(
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=-10, max_value=10),
    )
    base = st.lists(
        st.tuples(keys, coeffs),
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    ).map(BiPoly)
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


def bi_polys_integral(max_degree=3, max_terms=6, max_coeff=9):
    """Bivariate polynomials with nonnegative integer exponents."""
    nums = st.integers(min_value=0, max_value=max_degree).map(lambda k: 2 * k)
    keys = st.tuples(nums, nums)
    small = st.integers(min_value=-max_coeff, max_value=max_coeff)
    return st.lists(st.tuples(keys, small), min_size=0, max_size=max_terms).map(BiPoly)


# -- naive references for the fast paths ------------------------------------


def naive_mul_terms(a, b):
    """The product of two univariate term dicts by the schoolbook loop over
    every pair of terms."""
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            acc[ka + kb] = acc.get(ka + kb, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def naive_bi_mul_terms(a, b):
    """The product of two bivariate term dicts by the schoolbook loop over
    every pair of terms."""
    acc = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            k = (xa + xb, ya + yb)
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def naive_compose(poly, inner):
    """``poly.compose(inner)`` by dense Horner over every degree from the
    top down to 0, zero coefficients included."""
    by_degree = {num // 2: c for num, c in poly.terms.items()}
    result = inner * 0
    for k in range(max(by_degree, default=0), -1, -1):
        result = result * inner + by_degree.get(k, 0)
    return result


def naive_substitute(poly, image_a, image_b):
    """``poly.substitute(image_a, image_b)`` by dense Horner across the
    whole degree grid, zero rows and columns included."""
    rows = {}
    for (na, nb), c in poly.terms.items():
        rows.setdefault(na // 2, {})[nb // 2] = c
    zero = image_a * 0
    result = zero
    for i in range(max(rows, default=0), -1, -1):
        row = rows.get(i, {})
        inner = zero
        for j in range(max(row, default=0), -1, -1):
            inner = inner * image_b + row.get(j, 0)
        result = result * image_a + inner
    return result


def _naive_powers(name, num):
    # name^e for the exponent e = num/2 as a Fraction: nothing at 0, the
    # bare name at 1, a positive integer bare, anything else in parentheses
    e = Fraction(num, 2)
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}" if e > 0 and e.denominator == 1 else f"{name}^({e})"


def naive_render(poly, ascending=True):
    """``poly.render()``'s text, term by term from its definition: terms in
    descending order for a LaurentPoly and in ``ascending`` order of the key
    for a BiPoly, each its coefficient then its powers, a coefficient of 1
    or -1 written as its sign alone before powers; the first term signed
    like a number, every later one joined by " + " or " - "."""
    if not poly.terms:
        return "0"
    bivariate = isinstance(poly, BiPoly)
    names = poly.variables if bivariate else (poly.variable,)
    text = ""
    for key in sorted(poly.terms, reverse=not (bivariate and ascending)):
        coeff = poly.terms[key]
        powers = "".join(_naive_powers(name, num)
                         for name, num in zip(names, key if bivariate else (key,)))
        word = powers if powers and abs(coeff) == 1 else f"{abs(coeff)}{powers}"
        if not text:
            text = word if coeff > 0 else f"-{word}"
        else:
            text += f" + {word}" if coeff > 0 else f" - {word}"
    return text


def _naive_schema(poly):
    # the JSON schema as a dict, a term at a time in descending key order
    if isinstance(poly, RadicalExpr):
        return {"prefactor": _naive_schema(poly.prefactor),
                "radicands": [] if poly.radicand is None else [_naive_schema(poly.radicand)]}
    bivariate = isinstance(poly, BiPoly)
    terms = []
    for key in sorted(poly.terms, reverse=True):
        term = {"numA": key[0], "numB": key[1]} if bivariate else {"num": key}
        term["coeff"] = str(poly.terms[key])
        terms.append(term)
    names = {"variables": list(poly.variables)} if bivariate else {"variable": poly.variable}
    return {**names, "den": 2, "terms": terms}


def naive_json(poly):
    """``poly.render("json")`` from the schema: ``json.dumps`` of the dict
    of a LaurentPoly, a BiPoly or a RadicalExpr's two parts, built term by
    term in descending key order, each coefficient its decimal string."""
    return json.dumps(_naive_schema(poly))


def fraction_sum(poly, point):
    """The value of an integer-exponent ``poly`` at ``point``, a number for
    a LaurentPoly and a pair for a BiPoly, each coordinate real or purely
    imaginary, rounded once from the exact sum.  A coordinate is i^q·m/d,
    q 0 or 1 and d a power of two: over the denominator d^H·m^M, with H and
    M the largest positive and negative exponents of its variable, the term
    c·x^k has the numerator i^(qk)·c·m^(k+M)·d^(H-k), so the term's power
    of i puts its int numerator in the real or the imaginary part, and each
    part is one int over one int."""
    if isinstance(poly, LaurentPoly):
        point, terms = (point,), [((num,), c) for num, c in poly.terms.items()]
    else:
        terms = poly.terms.items()
    numerators, turns, bottom = [c for _, c in terms], [0] * len(terms), 1
    for i, value in enumerate(point):
        value = complex(value)
        q = 1 if value.imag and not value.real else 0
        m, d = (value.imag if q else value.real).as_integer_ratio()
        ks = [key[i] // 2 for key, _ in terms]
        high, low = max([0, *ks]), -min([0, *ks])
        numerators = [c * m ** (k + low) * d ** (high - k) for c, k in zip(numerators, ks)]
        turns = [t + q * k for t, k in zip(turns, ks)]
        bottom *= d**high * m**low
    parts = [0, 0]
    for c, t in zip(numerators, turns):
        parts[t % 2] += -c if t % 4 >= 2 else c
    return complex(*(top / bottom if bottom > 0 else -top / -bottom for top in parts))


def cheb_second_closed(n):
    """V_n(x) = sum((-1)^k C(n-k, k) x^(n-2k)) as ``{degree: coeff}`` in
    plain ints; V_(-1) = 0 is the empty dict."""
    return {n - 2 * k: (-1) ** k * math.comb(n - k, k) for k in range(n // 2 + 1)}

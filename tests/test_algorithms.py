"""The algorithm layer against naive references and closed forms: sparse
substitution against dense Horner, integer-Horner evaluation against the
exact Fraction sum, the recurrence-built families against the binomial
closed form of the Chebyshev polynomials, and the square roots' memory
against their term counts."""

import cmath
import gc
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoly import (
    BiPoly,
    LaurentPoly,
    RadicalExpr,
    alexander_rx,
    alexander_rx_seq,
    bivar,
    cheb_first_seq,
    cheb_second_seq,
    homfly_rec,
    identities,
    invariants,
    laurent,
    qnum_closed,
    qpnum_closed,
)
from knotpoly._kernels import pure

from support import (
    bi_polys_integral,
    cheb_second_closed,
    coefficients,
    fraction_sum,
    laurent_polys_integral,
    naive_compose,
    naive_substitute,
)

# -- square roots -----------------------------------------------------------


@pytest.mark.parametrize("root", [
    pytest.param(LaurentPoly({0: 1, 10**6: 3}), id="laurent"),
    pytest.param(BiPoly({(0, 0): 1, (1000, 1000): 3}), id="bivar-packed"),
    pytest.param(LaurentPoly({**{k: k + 1 for k in range(pure._SQRT_FROM - 1)}, 10**6: 3}),
                 id="laurent-past-the-packing-length"),
])
def test_sqrt_memory_follows_the_terms_not_the_exponent_gaps(root):
    # a dense remainder holds a slot per exponent from the lowest to the
    # highest: 2·10^6 of them here, and 4·10^6 for the packed bivariate keys.
    # The third square is long enough to pack: only the density guard keeps
    # the packed root from allocating every slot
    square = root * root
    tracemalloc.start()
    try:
        result = (square.sqrt_perfect() if isinstance(square, LaurentPoly)
                  else square.sqrt().as_polynomial())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == root
    assert peak < 1 << 20


# -- sparse substitution ----------------------------------------------------

# Image exponent numerators: negative and half exponents included.  Each
# ring x image-kind combination is its own test case, 50 examples each.
_nums = st.integers(min_value=-6, max_value=6)
_small = st.integers(min_value=-3, max_value=3).filter(bool)
_keys = {"laurent": _nums, "bivar": st.tuples(_nums, _nums)}


def _image(ring, kind):
    """A LaurentPoly in u or a BiPoly in (a, z): one term for "monomial",
    anything else (zero included) for "general"."""
    def build(pairs):
        return LaurentPoly(pairs, "u") if ring == "laurent" else BiPoly(pairs, ("a", "z"))

    terms = st.tuples(_keys[ring], _small)
    if kind == "monomial":
        return st.lists(terms, min_size=1, max_size=1).map(build)
    return st.lists(terms, max_size=4).map(build).filter(lambda p: len(p.terms) != 1)


def _same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert getattr(got, "variable", None) == getattr(want, "variable", None)
    assert getattr(got, "variables", None) == getattr(want, "variables", None)


@pytest.mark.parametrize("ring", ["laurent", "bivar"])
@pytest.mark.parametrize("kind", ["monomial", "general"])
@settings(max_examples=50, deadline=None)
@given(data=st.data(), poly=laurent_polys_integral(max_degree=6))
def test_compose_matches_dense_horner(ring, kind, data, poly):
    inner = data.draw(_image(ring, kind))
    _same(poly.compose(inner), naive_compose(poly, inner))


@given(poly=laurent_polys_integral(), inner=st.integers(min_value=-3, max_value=3))
def test_compose_with_an_int(poly, inner):
    assert poly.compose(inner) == naive_compose(poly, inner)


@pytest.mark.parametrize("ring", ["laurent", "bivar"])
@pytest.mark.parametrize("kinds", [("monomial", "monomial"), ("monomial", "general"),
                                   ("general", "monomial"), ("general", "general")])
@settings(max_examples=50, deadline=None)
@given(data=st.data(), poly=bi_polys_integral(max_degree=4, max_terms=8))
def test_substitute_matches_dense_horner(ring, kinds, data, poly):
    image_a = data.draw(_image(ring, kinds[0]))
    image_b = data.draw(_image(ring, kinds[1]))
    _same(poly.substitute(image_a, image_b), naive_substitute(poly, image_a, image_b))


@pytest.mark.parametrize("images", [
    (2, BiPoly.gens()[0]), (BiPoly.gens()[0] + 1, -1), (LaurentPoly.gen("t"), 3), (3, -1),
])
@settings(max_examples=50)
@given(poly=bi_polys_integral())
def test_substitute_promotes_an_int_image_like_dense_horner(images, poly):
    _same(poly.substitute(*images), naive_substitute(poly, *images))


@pytest.mark.parametrize("images", [
    (LaurentPoly.gen("t"), BiPoly.gens()[0]), (BiPoly.gens()[0], LaurentPoly.gen("t") + 1),
])
def test_substitute_refuses_images_from_two_rings(images):
    for poly in (BiPoly.zero(), BiPoly({(2, 0): 1})):
        with pytest.raises(TypeError):
            naive_substitute(poly, *images)
        with pytest.raises(TypeError):
            poly.substitute(*images)


@pytest.mark.parametrize("images", [
    (LaurentPoly.gen("t"), LaurentPoly({-2: 1}, "t")),
    (LaurentPoly({1: 2}, "t"), LaurentPoly({2: 1, -2: 1}, "t")),
    BiPoly.gens(("a", "z")),
    (BiPoly({(4, 0): 1}, ("a", "z")), BiPoly({(0, 4): 1, (0, 0): 2}, ("a", "z"))),
])
def test_zero_polynomial_substitutes_to_a_typed_zero(images):
    _same(BiPoly.zero(("r", "x")).substitute(*images), naive_substitute(BiPoly.zero(), *images))
    _same(LaurentPoly.zero().compose(images[1]), naive_compose(LaurentPoly.zero(), images[1]))


# -- split composition at depth -----------------------------------------------

# Sources of degree 64 to 80, so the split recurses seven levels down to
# degree 0 and its upper blocks reach the packed kernel; images of 2 terms
# and of at least the packed kernel's crossover in terms.
_CROSSOVER = pure._CROSSOVER
_deep_coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def _deep_sources(draw):
    """A dense source of degree 64..80 with some zero coefficients, one
    with a low block and a lone top term past a gap of 40 or more, the
    zero polynomial, or a constant."""
    kind = draw(st.sampled_from(("dense", "gap", "dense", "gap", "dense", "zero", "constant")))
    if kind == "zero":
        return {}
    if kind == "constant":
        return {0: draw(_deep_coeffs.filter(bool))}
    if kind == "dense":
        top = draw(st.integers(min_value=64, max_value=80))
        coeffs = draw(st.lists(_deep_coeffs, min_size=top, max_size=top))
        return {**dict(enumerate(coeffs)), top: draw(_deep_coeffs.filter(bool))}
    low = draw(st.lists(_deep_coeffs, max_size=6))
    return {**dict(enumerate(low)), draw(st.integers(min_value=len(low) + 40, max_value=80)): 1}


def _deep_image(ring, terms):
    """A LaurentPoly in u or a BiPoly in (a, z) with exactly ``terms``
    terms on a band of consecutive numerators, half ones included."""
    def build(pairs):
        return LaurentPoly(pairs, "u") if ring == "laurent" else BiPoly(pairs, ("a", "z"))

    def keys(start):
        nums = range(start, start + terms)
        return list(nums) if ring == "laurent" else [(n, 2 * n) for n in nums]

    return st.builds(lambda start, coeffs: build(zip(keys(start), coeffs)),
                     st.integers(min_value=-6, max_value=2),
                     st.lists(st.integers(min_value=-3, max_value=3).filter(bool),
                              min_size=terms, max_size=terms))


_deep_images = {
    "laurent-2": _deep_image("laurent", 2),
    "bivar-2": _deep_image("bivar", 2),
    "laurent-crossover": _deep_image("laurent", _CROSSOVER),
    "int": st.integers(min_value=-3, max_value=3),
}


@pytest.mark.parametrize("image", list(_deep_images))
@settings(max_examples=20, deadline=None)
@given(data=st.data(), source=_deep_sources())
def test_compose_at_depth_matches_dense_horner(image, data, source):
    poly = LaurentPoly({2 * d: c for d, c in source.items()})
    inner = data.draw(_deep_images[image])
    _same(poly.compose(inner), naive_compose(poly, inner))


@pytest.mark.parametrize("images", [("laurent-2", "laurent-crossover"),
                                    ("laurent-crossover", "int"), ("bivar-2", "bivar-2")])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), source=_deep_sources(),
       column=st.lists(_deep_coeffs.filter(bool), min_size=1, max_size=3))
def test_substitute_at_depth_matches_dense_horner(images, data, source, column):
    # the deep source in the first variable, times a short column in the
    # second, so every row of the split is a substitution of its own
    poly = BiPoly({(2 * d, 2 * j): c * e for d, c in source.items() for j, e in enumerate(column)})
    image_a, image_b = (data.draw(_deep_images[name]) for name in images)
    _same(poly.substitute(image_a, image_b), naive_substitute(poly, image_a, image_b))


def test_compose_six_levels_deep_matches_dense_horner():
    # degree 800: splits at 512, 256, 128, 64, 32 and 16, then at 8, 4, 2
    # and 1 down to degree 0
    coeffs = [(-1) ** (k // 3) * (k % 7 + 1) for k in range(801)]
    poly = LaurentPoly({2 * k: c for k, c in enumerate(coeffs)})
    inner = LaurentPoly({1: 1, -2: 2}, "u")
    _same(poly.compose(inner), naive_compose(poly, inner))


@pytest.mark.parametrize("source", [
    pytest.param({2000: 1}, id="x^1000"),
    pytest.param({2000: 1, 0: 1}, id="x^1000+1"),
])
def test_sparse_compose_costs_no_more_products_than_a_power(monkeypatch, source):
    # a lone term at degree d is multiplied by one of the squares of g per
    # set bit of d, and ``g ** d`` is that same split of x^d
    calls = []
    kernel = laurent.mul_terms
    monkeypatch.setattr(laurent, "mul_terms", lambda a, b: calls.append(1) or kernel(a, b))
    inner = LaurentPoly({2: 1, -2: 1})
    power = inner ** 1000
    power_calls = len(calls)
    composed = LaurentPoly(source).compose(inner)
    assert composed == power + source.get(0, 0)
    assert len(calls) - power_calls <= power_calls


# -- packed composition or the split ------------------------------------------


def _spy(monkeypatch, module, name):
    """The list of results of every call to ``module.name``, as the module
    looks it up."""
    results, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: results.append(fn(*args)) or results[-1])
    return results


_T_PLUS_INV = LaurentPoly({2: 1, -2: 1})


@pytest.mark.parametrize("poly, image", [
    pytest.param(LaurentPoly({2 * k: k + 1 for k in range(pure._COMPOSE_FROM - 1)}), _T_PLUS_INV,
                 id="below-the-crossover"),
    pytest.param(LaurentPoly({2 * k: 1 for k in range(61)}),
                 LaurentPoly({2 * 10**6: 1, 2: 1, 0: 1}), id="sparse-image"),
])
def test_small_or_sparse_compositions_take_the_split(monkeypatch, poly, image):
    # the sparse image's powers up to the 60th have 1891 terms over 6·10^7
    # slots: the guard refuses it before anything is packed
    packed = _spy(monkeypatch, laurent, "compose_terms")
    products = _spy(monkeypatch, laurent, "mul_terms")
    tracemalloc.start()
    try:
        result = poly.compose(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed == [None] and products
    assert peak < 4 << 20
    monkeypatch.undo()
    _same(result, naive_compose(poly, image))


@pytest.mark.parametrize("power", [
    pytest.param(lambda: _T_PLUS_INV ** 40, id="laurent"),
    pytest.param(lambda: BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): 3}) ** 40, id="bivar"),
])
def test_powers_take_the_split(monkeypatch, power):
    # ``**`` substitutes its base into the one-term source x^k
    packed = _spy(monkeypatch, laurent, "compose_terms")
    power()
    assert packed == []


@pytest.mark.parametrize("image", [3, Fraction(1, 2), RadicalExpr(BiPoly.gens()[0])])
def test_non_polynomial_images_take_the_split(monkeypatch, image):
    packed = _spy(monkeypatch, laurent, "compose_terms")
    poly = LaurentPoly({2 * k: k + 1 for k in range(40)})
    if isinstance(image, RadicalExpr):
        # no ring arithmetic with ints: refused before any path is chosen
        with pytest.raises(TypeError):
            poly.compose(image)
    else:
        assert poly.compose(image) == naive_compose(poly, image)
    assert packed == []


@pytest.mark.parametrize("n", [32, 64, 150])
def test_suite_members_take_the_packed_path(monkeypatch, n):
    # the Chebyshev route of alexander-chebyshev and the substitution of
    # homfly-bridge, as their registry entries write them, make no product
    entries = {entry.suite: entry for entry in identities.IDENTITIES
               if entry.suite in ("alexander-chebyshev", "homfly-bridge")}
    built = {}

    def seq(builder):
        if builder not in built:
            built[builder] = builder(n)
        return built[builder]

    for suite, kernel_module, kernel in (("alexander-chebyshev", laurent, "mul_terms"),
                                         ("homfly-bridge", bivar, "bi_mul_terms")):
        entry = entries[suite]
        entry.lhs(seq, n)  # the sequences, built before the spies
        packed = _spy(monkeypatch, laurent, "compose_terms")
        products = _spy(monkeypatch, kernel_module, kernel)
        lhs = entry.lhs(seq, n)
        assert len(packed) == 1 and packed[0] is not None and products == []
        monkeypatch.undo()
        assert lhs == entry.rhs(seq, n)


def test_substitution_leaves_no_reference_cycles():
    # the split's powers are freed when it returns, not at the next
    # collection: a cycle through them would hold every power until then
    poly = LaurentPoly({2 * k: k + 1 for k in range(100)})
    source = BiPoly({(2 * i, 2 * j): i - j for i in range(30) for j in range(3)})
    gc.collect()
    gc.disable()
    try:
        poly.compose(LaurentPoly({2: 1, -2: 1}))
        source.substitute(BiPoly({(4, 0): 1}), BiPoly({(0, 4): 1, (0, 0): 2}))
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- exact real evaluation ----------------------------------------------------


def _outcome(fn):
    """The bits of a complex result, or the type of the exception raised."""
    try:
        return repr(fn())
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _integral(max_degree, max_terms=12):
    nums = st.integers(min_value=-max_degree, max_value=max_degree).map(lambda k: 2 * k)
    return st.lists(st.tuples(nums, coefficients), max_size=max_terms).map(LaurentPoly)


def _bi_integral(max_degree, max_terms=12):
    nums = st.integers(min_value=-max_degree, max_value=max_degree).map(lambda k: 2 * k)
    return st.lists(st.tuples(st.tuples(nums, nums), coefficients), max_size=max_terms).map(BiPoly)


def _cases(max_degree, coordinates):
    """A LaurentPoly at a coordinate, or a BiPoly at a pair of them."""
    return st.one_of(st.tuples(_integral(max_degree), coordinates),
                     st.tuples(_bi_integral(max_degree), st.tuples(coordinates, coordinates)))


_dyadic = st.builds(lambda a, j: a / 2**j, st.integers(-2**30, 2**30).filter(bool),
                    st.integers(min_value=0, max_value=40))


@settings(max_examples=300, deadline=None)
@given(case=_cases(40, st.one_of(_dyadic, st.floats().filter(bool))))
def test_eval_complex_is_the_rounded_exact_sum(case):
    poly, point = case
    assert _outcome(lambda: poly.eval_complex(point)) == _outcome(lambda: fraction_sum(poly, point))


@settings(max_examples=25, deadline=None)
@given(case=_cases(400, st.floats(min_value=-2.5, max_value=2.5).filter(bool)))
def test_eval_complex_exact_at_large_degree(case):
    poly, point = case
    assert _outcome(lambda: poly.eval_complex(point)) == _outcome(lambda: fraction_sum(poly, point))


def test_eval_complex_exact_on_cancellation():
    first = cheb_first_seq(300)[300]
    for theta in (0.3, 0.7, 1.1, 2.0):
        x = 2.0 * math.cos(theta)
        assert repr(first.eval_complex(x)) == repr(fraction_sum(first, x))
    # V_n(2) = n + 1, so the r,x member r^n(V_n(x) - r V_(n-1)(x)) is 1 at
    # (1, 2), where a float sum of its terms, of up to 74 bits, gives -60
    assert repr(alexander_rx(60).eval_complex((1.0, 2.0))) == repr(1 + 0j)
    # exact zeros at negative points, with negative exponents: +0.0, never -0.0
    for poly, x in [(LaurentPoly({}), 0.1), (LaurentPoly({2: 1, -2: -1}), -1.0),
                    (LaurentPoly({-2: 1, 0: 2}), -0.5), (LaurentPoly({-6: 1, 0: 8}), -0.5),
                    (BiPoly({}), (0.1, -0.3)), (BiPoly({(2, 0): 1, (0, -2): -1}), (-1.0, -1.0)),
                    (BiPoly({(-2, 2): 1, (0, 0): 2}), (-0.5, 1.0)),
                    (BiPoly({(-6, 0): 1, (0, -2): 8}), (-0.5, 1.0)),
                    (BiPoly({(0, -2): 1, (-2, 0): 1}), (-1.0, 1.0))]:
        assert repr(poly.eval_complex(x)) == repr(fraction_sum(poly, x)) == repr(0j)
    # a nonzero sum too small for a float keeps its sign: -0.0
    for poly, x in [(LaurentPoly({4: -1}), 1e-200), (BiPoly({(2, 4): 1}), (-1.0, 4.9e-287))]:
        assert repr(poly.eval_complex(x)) == repr(fraction_sum(poly, x)) == repr(complex(-0.0))
    # a real coordinate with integer exponents beside a half exponent is
    # raised by float pow: complex pow goes through exp/log from exponent 100
    assert repr(BiPoly({(1, 300): 1}).eval_complex((4.0, -1.0))) == repr(2 + 0j)
    # so is r in the principal root i·r of a negative real coordinate, which
    # a half exponent k raises as i^k times r^k
    # a base i·r on the imaginary axis: that root, or an imaginary
    # coordinate with integer exponents in either variable
    for poly, x in [(LaurentPoly({301: 1, 2: -1}), -2.25),
                    (BiPoly({(301, 0): 1, (2, 0): -1}), (-2.25, 1.0)),
                    (LaurentPoly({602: 1, 4: -1}), 1.5j),
                    (BiPoly({(602, 0): 1, (4, 0): -1}), (1.5j, 1.0)),
                    (BiPoly({(0, 602): 1, (0, 4): -1}), (2.0, 1.5j))]:
        assert repr(poly.eval_complex(x)) == repr(complex(2.25, 1.5 ** 301))


# the exact path refuses NaN, as ``as_integer_ratio`` does; every other path
# must too, not return nan+nanj
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda: LaurentPoly({1: 1}).eval_complex(math.nan), id="laurent-half-exponent"),
    pytest.param(lambda: LaurentPoly({4: 1}).eval_complex(complex(1, math.nan)),
                 id="laurent-complex-point"),
    pytest.param(lambda: BiPoly({(2, 0): 1}).eval_complex((math.nan, 1)), id="bivar"),
    pytest.param(lambda: RadicalExpr(BiPoly({(2, 0): 1}), BiPoly({(0, 2): 1, (0, 0): -2}))
                 .eval_complex((1, math.nan)), id="radical"),
])
def test_eval_complex_refuses_nan(evaluate):
    with pytest.raises(ValueError):
        evaluate()


# an infinite coordinate raises OverflowError, as ``Fraction(inf)`` does, on
# every path: not an answer such as nan+nanj, nor an error from deeper down
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda: LaurentPoly.one().eval_complex(math.inf), id="laurent-exact-real"),
    pytest.param(lambda: LaurentPoly({1: 1}).eval_complex(-math.inf), id="laurent-half-exponent"),
    pytest.param(lambda: LaurentPoly({4: 1}).eval_complex(complex(1, math.inf)),
                 id="laurent-complex-point"),
    pytest.param(lambda: BiPoly.one().eval_complex((math.inf, 1)), id="bivar-first"),
    pytest.param(lambda: BiPoly({(0, -2): 1}).eval_complex((1, math.inf)), id="bivar-second"),
    pytest.param(lambda: RadicalExpr(BiPoly({(2, 0): 1}), BiPoly({(0, 2): 1, (0, 0): -2}))
                 .eval_complex((1, math.inf)), id="radical"),
])
def test_eval_complex_refuses_an_infinite_coordinate(evaluate):
    with pytest.raises(OverflowError, match="not finite"):
        evaluate()


# a finite point whose value lies past the float range raises OverflowError
# on every path too, with one message: not inf or nan from an overflowing
# complex product, nor the int division's, float pow's or complex pow's own
# error.  t^100 is {200: 1}, at 1e300, 1e300j and complex(1e300, 1).
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda: LaurentPoly({200: 1}).eval_complex(1e300), id="laurent-exact-real"),
    pytest.param(lambda: LaurentPoly({200: 1}).eval_complex(1e300j), id="laurent-imaginary-axis"),
    pytest.param(lambda: LaurentPoly({201: 1}).eval_complex(1e300), id="laurent-half-exponent"),
    pytest.param(lambda: LaurentPoly({200: 1}).eval_complex(complex(1e300, 1)),
                 id="laurent-complex-nan"),
    pytest.param(lambda: LaurentPoly({2: 2}).eval_complex(complex(1.7e308, 1)),
                 id="laurent-complex-inf"),
    pytest.param(lambda: LaurentPoly({4: 10**400}).eval_complex(1e-10j),
                 id="laurent-coefficient-and-term"),
    pytest.param(lambda: BiPoly({(200, 0): 1}).eval_complex((1e300, 1.0)), id="bivar-exact-real"),
    pytest.param(lambda: BiPoly({(200, 0): 1}).eval_complex((complex(1e300, 1), 1)),
                 id="bivar-complex"),
    pytest.param(lambda: BiPoly({(0, 2): 10**400}).eval_complex((1j, 1e-10j)),
                 id="bivar-coefficient-and-term"),
    pytest.param(lambda: RadicalExpr(BiPoly({(2, 0): 1}), BiPoly({(0, 2): 1, (0, 0): -2}))
                 .eval_complex((1e300, 1e300)), id="radical-product"),
    # t^-3000 at 0.5 + 0.49i is about 10^465; past a power of 900 the base is
    # not scaled, where scaled by E = -1, (2(0.5 + 0.49i))^-3000 underflows to 0
    pytest.param(lambda: LaurentPoly({-6000: 1}).eval_complex(complex(0.5, 0.49)),
                 id="power-past-900"),
    # complex pow raised ZeroDivisionError: (1e-280(1 + i))^100 underflows to 0
    pytest.param(lambda: LaurentPoly({2000: 1, -200: 1}).eval_complex(complex(1e-280, 1e-280)),
                 id="negative-power-whose-positive-underflows"),
])
def test_eval_complex_refuses_a_value_past_the_float_range(evaluate):
    with pytest.raises(OverflowError, match="^the value is past the float range$"):
        evaluate()


# a coefficient past the float range is summed when its term is not: written
# as m·2^s, m·power is scaled by 2^s, where int-to-float conversion overflowed.
# Off the axes so is a power that leaves the range: a base written as u·2^E
# adds E·k to the exponent of m·u^k, where (1e-200(1 + i))^2 underflowed to 0
# before the coefficient scaled it
@pytest.mark.parametrize("poly, point, want", [
    pytest.param(LaurentPoly({4: 10**400}), 1e-150j, -1e100, id="imaginary-axis"),
    pytest.param(LaurentPoly({1: 10**400}), 1e-300, 1e250, id="half-exponent"),
    pytest.param(LaurentPoly({2: -(10**400), 0: 1}), complex(1e-300, 1e-300),
                 complex(-1e100, -1e100), id="complex-point"),
    pytest.param(LaurentPoly({2: 10**400, 4: 3}), 1e-200j, 1e200j, id="imaginary-axis-two-terms"),
    pytest.param(BiPoly({(2, 2): 10**400, (0, 0): 2}), (1e-200j, 1e-100), complex(2, 1e100),
                 id="bivar"),
    pytest.param(BiPoly({(1, 0): 3 * 10**400}), (1e-300, 1.0), 3e250, id="bivar-half-exponent"),
    pytest.param(LaurentPoly({4: 10**300}), complex(1e-200, 1e-200), 2e-100j,
                 id="off-axis-power-underflows"),
    pytest.param(LaurentPoly({4: 10**400}), complex(1e-200, 1e-200), 2j,
                 id="off-axis-power-underflows-coefficient-past-the-range"),
    pytest.param(BiPoly({(4, 0): 10**400}), (complex(1e-200, 1e-200), 1.0), 2j,
                 id="bivar-off-axis-power-underflows"),
    # past 900 no base is scaled: (1.6 + 0.8i)/2 to the 823rd times 0.5^1072
    # and m would underflow, where the unscaled powers do not
    pytest.param(BiPoly({(1646, 2144): 3 * 10**330}), (complex(1.6, 0.8), 0.5j),
                 complex(-5.318373590525483e214, -4.3547892779834456e215),
                 id="bivar-power-past-900"),
])
def test_eval_complex_sums_a_coefficient_past_the_float_range(poly, point, want):
    assert cmath.isclose(poly.eval_complex(point), want, rel_tol=1e-12)


# trig's own points stay on the plain complex-float sum, term by term in the
# order of the term dict, so their values keep every bit
def test_eval_complex_at_trig_points_is_the_plain_float_sum():
    thetas = (0.3, 0.7, 1.1, 2.0)
    for n in range(151):
        poly = qnum_closed(n)
        for base in [cmath.exp(1j * th) for th in thetas]:
            want = 0j
            for num, coeff in poly.terms.items():
                want += coeff * base ** (num // 2)
            assert repr(poly.eval_complex(base)) == repr(want)
        poly = qpnum_closed(n)
        for wa, wb in [(r * cmath.exp(1j * th), r * cmath.exp(-1j * th))
                       for th in thetas for r in (0.5, 1.0, 2.0)]:
            want = 0j
            for (na, nb), coeff in poly.terms.items():
                want += coeff * wa ** (na // 2) * wb ** (nb // 2)
            assert repr(poly.eval_complex((wa, wb))) == repr(want)


# on both axes the sum is exact, rounded once: a base i^q·r puts each term's
# power of i into its coefficient, and the real and the imaginary part each
# take the int Horner, where a float sum multiplied the coefficient into a
# power that had underflowed to 0
@pytest.mark.parametrize("poly, point, want", [
    pytest.param(LaurentPoly({4: 10**300}), 1e-200j, complex(-1e-100), id="imaginary-axis"),
    pytest.param(LaurentPoly({4: 10**400}), 1e-200j, complex(-1), id="coefficient-past-the-range"),
    pytest.param(BiPoly({(3, 0): 10**400, (0, 0): 1}), (-1e-300, 1.0), complex(1, -1e-50),
                 id="bivar-negative-real-half-exponent"),
    pytest.param(BiPoly({(2, 2): 10**400, (0, 0): 1}), (1e-200j, 1e-200j),
                 complex(float(1 - 10**400 * Fraction(1e-200) ** 2)), id="bivar-both-imaginary"),
    pytest.param(LaurentPoly({5: 10**500, 0: -1}), -1e-200,
                 complex(-1, float(10**500 * Fraction(cmath.sqrt(-1e-200).imag) ** 5)),
                 id="negative-real-half-exponent"),
])
def test_eval_complex_is_exact_on_both_axes(poly, point, want):
    assert repr(poly.eval_complex(point)) == repr(want)


_imaginary = st.one_of(_dyadic, st.floats().filter(bool)).map(lambda v: complex(0, v))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_cases(40, _imaginary),
                      st.tuples(_bi_integral(40), st.tuples(_imaginary, _dyadic)
                                | st.tuples(_dyadic, _imaginary))))
def test_eval_complex_is_the_rounded_exact_sum_on_the_imaginary_axis(case):
    poly, point = case
    assert _outcome(lambda: poly.eval_complex(point)) == _outcome(lambda: fraction_sum(poly, point))


# a str, bytes or bool is no point, on every path: not a number that
# ``complex`` parses, nor a pair of coordinates spelt by its characters
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda: LaurentPoly({2: 1}).eval_complex("3"), id="laurent-exact-real"),
    pytest.param(lambda: LaurentPoly({2: 1}).eval_complex(True), id="laurent-exact-real-bool"),
    pytest.param(lambda: LaurentPoly({1: 1}).eval_complex("4"), id="laurent-half-exponent"),
    pytest.param(lambda: LaurentPoly({4: 1}).eval_complex("1+1j"), id="laurent-complex-point"),
    pytest.param(lambda: (BiPoly({(2, 0): 1}) + 10 * BiPoly({(0, 2): 1})).eval_complex("12"),
                 id="bivar-string"),
    pytest.param(lambda: (BiPoly({(2, 0): 1}) + 10 * BiPoly({(0, 2): 1})).eval_complex(b"12"),
                 id="bivar-bytes"),
    pytest.param(lambda: BiPoly({(2, 0): 1}).eval_complex((True, 1)), id="bivar-first"),
    pytest.param(lambda: BiPoly({(0, 2): 1}).eval_complex((1, "2")), id="bivar-second"),
    pytest.param(lambda: BiPoly({(2, 2): 1, (2, 0): -2}).sqrt().eval_complex((1, "3")),
                 id="radical"),
    # a point of two coordinates is a tuple or a list: a set has no order, a
    # dict's keys are not a point, and a third coordinate is not ignored
    pytest.param(lambda: (BiPoly({(2, 0): 1}) + 10 * BiPoly({(0, 2): 1})).eval_complex({1.0, 2.0}),
                 id="bivar-set"),
    pytest.param(lambda: BiPoly({(2, 0): 1}).eval_complex({1.0: 2.0, 3.0: 4.0}), id="bivar-dict"),
    pytest.param(lambda: BiPoly({(2, 0): 1}).eval_complex((1, 2, 3)), id="bivar-three"),
    pytest.param(lambda: BiPoly({(2, 0): 1}).eval_complex((1,)), id="bivar-one"),
    pytest.param(lambda: BiPoly({(2, 2): 1, (2, 0): -2}).sqrt().eval_complex({1.0, 3.0}),
                 id="radical-set"),
])
def test_eval_complex_refuses_a_non_number(evaluate):
    with pytest.raises(TypeError):
        evaluate()


def test_eval_complex_takes_a_tuple_or_a_list():
    poly = BiPoly({(2, 0): 1, (0, 2): 10, (1, 0): 1})
    assert poly.eval_complex([4.0, 2.0]) == poly.eval_complex((4.0, 2.0)) == 26


# -- the rx sequence is built once per run ---------------------------------


def test_homfly_bridge_builds_the_rx_sequence_once(monkeypatch):
    calls = []
    original = invariants.alexander_rx_seq

    def counting(n_max, *args):
        calls.append(n_max)
        return original(n_max, *args)

    monkeypatch.setattr(identities, "alexander_rx_seq", counting)
    monkeypatch.setattr(invariants, "alexander_rx_seq", counting)
    assert identities.run("homfly-bridge", 30) == (30, 30, [])
    assert calls == [30]


# -- recurrences against the binomial closed form -----------------------------

_N = 200


def _rx_member(n, v):
    """r^n (V_n - r V_(n-1)) from closed-form coefficients ``v``."""
    terms = [((2 * n, 2 * j), c) for j, c in v[n].items()]
    terms += [((2 * n + 2, 2 * j), -c) for j, c in v[n - 1].items()]
    return BiPoly(terms, ("r", "x"))


def test_cheb_second_seq_matches_closed_form():
    for n, poly in enumerate(cheb_second_seq(_N)):
        assert poly == LaurentPoly({2 * j: c for j, c in cheb_second_closed(n).items()}, "x")


def test_alexander_rx_matches_closed_form():
    v = {n: cheb_second_closed(n) for n in range(-1, _N + 1)}
    for n, poly in enumerate(alexander_rx_seq(_N)):
        assert poly == _rx_member(n, v)
    assert alexander_rx(_N) == _rx_member(_N, v)


def test_homfly_rec_matches_closed_form():
    # (y + 2)^j expanded in y = z^2, for every power a V_n term can need
    shifted = [[1]]
    for j in range(_N):
        row = shifted[-1]
        shifted.append([2 * c + (row[i - 1] if i else 0) for i, c in enumerate(row)] + [1])

    def v_at_z2_plus_2(n):
        out = [0] * (max(n, 0) + 1)
        for j, c in cheb_second_closed(n).items():
            for i, b in enumerate(shifted[j]):
                out[i] += c * b
        return out

    below = v_at_z2_plus_2(-1)
    for m, poly in enumerate(homfly_rec(_N)):
        # H_m = A_m(a^2, z^2 + 2) = a^(2m) V_m(z^2 + 2) - a^(2m+2) V_(m-1)(z^2 + 2)
        here = v_at_z2_plus_2(m)
        terms = [((4 * m, 4 * i), c) for i, c in enumerate(here)]
        terms += [((4 * m + 4, 4 * i), -c) for i, c in enumerate(below)]
        assert poly == BiPoly(terms, ("a", "z"))
        below = here

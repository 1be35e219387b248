import tracemalloc
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knotpoly
from knotpoly import BiPoly, LaurentPoly, laurent
from knotpoly._kernels import pure
from knotpoly.errors import NotAPerfectSquare

from support import naive_bi_mul_terms, naive_mul_terms

uni_dicts = st.dictionaries(
    st.integers(-30, 30), st.integers(-999, 999).filter(bool), max_size=10
)
bi_dicts = st.dictionaries(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.integers(-999, 999).filter(bool),
    max_size=10,
)


@given(a=uni_dicts, b=uni_dicts, c=bi_dicts, d=bi_dicts)
def test_pure_results_canonical(a, b, c, d):
    for result in (
        pure.add_terms(a, b),
        pure.sub_terms(a, b),
        pure.mul_terms(a, b),
        pure.bi_mul_terms(c, d),
    ):
        assert all(v != 0 for v in result.values())
    for root_of, mul, f in ((pure.sqrt_terms, pure.mul_terms, a),
                            (pure.bi_sqrt_terms, pure.bi_mul_terms, c)):
        square = mul(f, f)
        root = root_of(square)
        assert all(v != 0 for v in root.values())
        assert not root or root[max(root)] > 0
        assert mul(root, root) == square
    for step in ((1, 1), (2, 4), (4, 2)):
        # c's keys times the strides: negative minima, holes between keys
        terms = {(step[0] * x, step[1] * y): v for (x, y), v in c.items()}
        if terms:
            xs, ys = zip(*terms)
            lo = (min(xs), min(ys))
            width = (max(ys) - lo[1]) // step[1] + 1
            folded = pure._fold(terms, lo, step, width)
            assert len(folded) == len(terms)
            assert list(pure._unfold(folded, lo, step, width).items()) == list(terms.items())


def test_backend_reported():
    assert knotpoly.kernel_backend() == "pure"


# -- the packed multiply against the pair loop --------------------------------

# The shorter operand's length straddles the crossover to the packed path,
# with zero- and one-term operands among them; operands reach 64 terms.  A
# product packs only when it is dense enough for the density guard, so
# every operand fills its lattice but for a few holes.
_CROSSOVER = pure._CROSSOVER
_short_sizes = st.one_of(st.sampled_from((0, 1, _CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1)),
                         st.integers(_CROSSOVER + 2, 64))


def _long_sizes(short):
    # 64 often: a crossover-sized operand packs only against a long one
    return st.one_of(st.just(64), st.integers(short, 64))


def _steps(draw, size):
    """``size`` distinct steps: 0 up to ``size`` plus a few holes, less
    the holes."""
    holes = draw(st.integers(0, size // 4))
    gone = draw(st.lists(st.integers(0, max(0, size + holes - 1)), min_size=holes,
                         max_size=holes, unique=True))
    return [i for i in range(size + holes) if i not in gone]


def _lattice(draw):
    """A negative or odd (half) offset and a stride of 1, 2 or 4."""
    return draw(st.integers(-40, 40)), draw(st.sampled_from((1, 2, 4)))


def _coefficients(draw, size, bits):
    """``size`` coefficients up to 2^bits in size; or all of them ±2^bits,
    so that the middle slots of a product come near the slot bound."""
    if draw(st.booleans()):
        return [draw(st.sampled_from((2**bits, -(2**bits))))] * size
    return draw(st.lists(st.integers(-(2**bits), 2**bits).filter(bool), min_size=size,
                         max_size=size))


def _mirror(a):
    """``a`` with alternating signs: times ``a`` it cancels in many slots, as
    (1 + t)(1 - t) does in its middle one."""
    return {k: (-1) ** i * a[k] for i, k in enumerate(sorted(a))}


@st.composite
def _uni_pairs(draw, short_sizes=_short_sizes, long_sizes=_long_sizes):
    short = draw(short_sizes)
    bits = draw(st.sampled_from((3, 16, 64)))
    out = []
    for n in (short, draw(long_sizes(short))):
        offset, stride = _lattice(draw)
        keys = [offset + stride * i for i in _steps(draw, n)]
        out.append(dict(zip(keys, _coefficients(draw, n, bits))))
    if draw(st.booleans()):
        out[1] = _mirror(out[0])
    return out


@st.composite
def _bi_pairs(draw, short_sizes=_short_sizes, long_sizes=_long_sizes):
    short = draw(short_sizes)
    bits = draw(st.sampled_from((3, 16, 64)))
    out = []
    for n in (short, draw(long_sizes(short))):
        # the cells of a grid row by row, a row `cols` wide: each operand
        # has its own lattices and width, y minima go down to -40, so the
        # y-spans differ and the packing width W is the sum of both
        cols = draw(st.one_of(st.sampled_from((1, max(1, n))), st.integers(1, max(1, n))))
        (ox, sx), (oy, sy) = _lattice(draw), _lattice(draw)
        keys = [(ox + sx * (i // cols), oy + sy * (i % cols)) for i in _steps(draw, n)]
        out.append(dict(zip(keys, _coefficients(draw, n, bits))))
    if draw(st.booleans()):
        out[1] = _mirror(out[0])
    return out


@settings(max_examples=200, deadline=None)
@given(pair=_uni_pairs())
def test_mul_terms_matches_the_pair_loop(pair):
    a, b = pair
    assert pure.mul_terms(a, b) == naive_mul_terms(a, b)
    assert pure.mul_terms(a, a) == naive_mul_terms(a, a)


@settings(max_examples=200, deadline=None)
@given(pair=_bi_pairs())
def test_bi_mul_terms_matches_the_pair_loop(pair):
    a, b = pair
    assert pure.bi_mul_terms(a, b) == naive_bi_mul_terms(a, b)
    assert pure.bi_mul_terms(a, a) == naive_bi_mul_terms(a, a)


# -- the row-first pair loop against the naive product ------------------------

# Most products in the recurrences and substitution splits have a shorter
# side of 2-8 terms, which ``_short_sizes`` skips: each of its terms is one
# row of the pair loop, added into the first row, and a cancelled sum must
# not leave its key behind.
@pytest.mark.parametrize("kernel, naive, pairs", [
    pytest.param(pure.mul_terms, naive_mul_terms, _uni_pairs, id="univariate"),
    pytest.param(pure.bi_mul_terms, naive_bi_mul_terms, _bi_pairs, id="bivariate"),
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_short_rows_match_the_naive_product(kernel, naive, pairs, data):
    # a 0-8-term operand against a 1-64-term one, or against its mirror
    a, b = data.draw(pairs(st.integers(0, 8), lambda short: st.integers(1, 64)))
    for left, right in ((a, b), (b, a), (a, a)):
        product = kernel(left, right)
        assert product == naive(left, right)
        assert all(product.values())


@pytest.mark.parametrize("kernel, key", [
    pytest.param(pure.mul_terms, lambda k: k, id="univariate"),
    pytest.param(pure.bi_mul_terms, lambda k: (k, -k), id="bivariate"),
])
def test_a_key_cancelled_in_one_row_comes_back_in_a_later_one(kernel, key):
    # rows t^0, t^1, t^2 of a times b: t^1 gets 1, then -1, then 5; t^2 gets
    # 1, then -1 and stays cancelled
    a = {key(0): 1, key(1): 1, key(2): 1}
    b = {key(1): 1, key(0): -1, key(-1): 5, key(10): 1}
    assert kernel(a, b) == {key(-1): 5, key(0): 4, key(1): 5, key(3): 1, key(10): 1,
                            key(11): 1, key(12): 1}
    assert kernel(b, a) == kernel(a, b)


@pytest.mark.parametrize("n", [_CROSSOVER - 1, _CROSSOVER, 40])
def test_cancelled_slots_are_dropped(n):
    # (1 + t + ... + t^(n-1)) (1 - t + ... ± t^(n-1)) = sum of ±t^(2j): every
    # odd slot of the product cancels; and (1 + t)^n (1 - t)^n = (1 - t^2)^n
    ones = {k: 1 for k in range(n)}
    signs = {k: (-1) ** k for k in range(n)}
    assert pure.mul_terms(ones, signs) == naive_mul_terms(ones, signs)
    assert all(k % 2 == 0 for k in pure.mul_terms(ones, signs))
    plus, minus = {0: 1}, {0: 1}
    for _ in range(n):
        plus, minus = naive_mul_terms(plus, {0: 1, 1: 1}), naive_mul_terms(minus, {0: 1, 1: -1})
    assert pure.mul_terms(plus, minus) == naive_mul_terms(plus, minus)
    assert len(pure.mul_terms(plus, minus)) == n + 1
    bi_plus, bi_minus = ({(k, -k): c for k, c in p.items()} for p in (plus, minus))
    assert pure.bi_mul_terms(bi_plus, bi_minus) == naive_bi_mul_terms(bi_plus, bi_minus)


def _gapped(n, gap, key):
    """n terms: n - 1 consecutive ones, then one past an exponent gap."""
    return {key(k): k + 1 for k in range(n - 1)} | {key(gap): -1}


@pytest.mark.parametrize("kernel, key", [
    pytest.param(pure.mul_terms, lambda k: k, id="univariate"),
    pytest.param(pure.bi_mul_terms, lambda k: (0, k), id="bivariate"),
])
@pytest.mark.parametrize("sizes", [(12, 12), (12, 16), (16, 12)])
def test_product_memory_follows_the_terms_not_the_exponent_gaps(kernel, key, sizes):
    # packing would spend a slot on every exponent step across the gap of
    # the first operand: 10^6 of them, in both arities
    a, b = _gapped(sizes[0], 10**6, key), {key(k): k + 1 for k in range(sizes[1])}
    tracemalloc.start()
    try:
        product = kernel(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product == (naive_mul_terms if kernel is pure.mul_terms else naive_bi_mul_terms)(a, b)
    assert peak < 1 << 20


# -- the packed composition against the split ---------------------------------

# Images of 1-4 terms with negative and odd (half) numerators, or with all
# of them negative or all positive: an all-negative image needs c·D slots
# above the lowest key, more than D times its own span.  Sources are 1-3
# dicts of degree up to 27, sparse or dense, with coefficients up to 2^64,
# times (x - g_0)^j for j up to 3, g_0 the image's constant coefficient, so
# that the constant cancels from every power of g - g_0.  A one-term source
# on a one-term image reaches its width bound exactly.  The crossover and
# the guards are lifted, so that every case is evaluated packed.
_UNGUARDED = {"_COMPOSE_FROM": 0, "_COMPOSE_FILL": 1 << 64, "_COMPOSE_BYTES": 1 << 64}


@st.composite
def _compose_cases(draw):
    bivariate = draw(st.booleans())
    reach = 3 if bivariate else 6
    nums = draw(st.sampled_from((st.integers(-reach, reach), st.integers(-reach, -1),
                                 st.integers(1, reach))))
    keys = st.tuples(nums, nums) if bivariate else nums
    image = draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    unit = (0, 0) if bivariate else 0
    bits = draw(st.sampled_from((3, 64)))
    coeffs = st.integers(-(2**bits), 2**bits).filter(bool)
    sources = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            source = draw(st.dictionaries(st.integers(0, 24), coeffs, min_size=1, max_size=6))
        else:
            source = dict(enumerate(draw(st.lists(coeffs, min_size=1, max_size=25))))
        for _ in range(draw(st.integers(0, 3))):
            source = naive_mul_terms(source, {1: 1, 0: -image.get(unit, 0)})
        sources.append(source)
    return sources, image


def _split_terms(source, image):
    """``laurent._split`` of ``source`` at ``image``, as a term dict."""
    g = (BiPoly if type(next(iter(image))) is tuple else LaurentPoly)(image)
    squares = [g]
    for _ in range(max(source).bit_length() - 1):
        squares.append(squares[-1] * squares[-1])
    return (g * 0 + laurent._split(sorted(source.items()), squares)).terms


# Rows at the width bound: sign-uniform sources at images with all-positive
# coefficients, whose result's coefficients sum to the bound
# sum(|f_d|·|g|^d); one-term images, where one coefficient is the bound
# itself, with a bit length that fills whole bytes (88 bits: 2^64 - 1 times
# 2^24); and sources of ±1 or of 64-bit coefficients whose signed sum at |g|
# cancels to 0 or to 1, in both arities, with negative and half exponents.
_FULL = 2**64 - 1
_ALTERNATING = {d: (-1) ** d for d in range(25)}


@settings(max_examples=200, deadline=None)
@given(case=_compose_cases())
@example(case=([dict.fromkeys(range(25), _FULL)], {2: 1, -2: 1}))
@example(case=([{24: _FULL, 3: 1}, dict.fromkeys(range(0, 25, 3), 1)], {1: 2, -3: 1}))
@example(case=([{24: _FULL}], {-2: 2}))
@example(case=([_ALTERNATING], {1: 1, -1: -1}))
@example(case=([{1: 1 << 63, 0: -(1 << 64)}], {1: -1, -2: 1}))
@example(case=([dict.fromkeys(range(25), _FULL)], {(2, 0): 1, (0, -1): 1}))
@example(case=([{24: _FULL}], {(-1, 2): 2}))
@example(case=([_ALTERNATING, {0: 1}], {(1, 0): 1, (0, -2): -1}))
@example(case=([{1: 1 << 63, 0: -(1 << 64)}], {(-1, 1): 1, (2, 0): -1}))
def test_compose_terms_matches_the_split(case):
    sources, image = case
    want = [_split_terms(source, image) for source in sources]
    assert pure.compose_terms(sources, image) in (None, want)
    with mock.patch.multiple(pure, **_UNGUARDED):
        assert pure.compose_terms(sources, image) == want


# -- the packed square root against the long division -------------------------

# Roots of up to 80 terms (a bivariate one fills whole rows of its grid when
# dense), on lattices of stride 1, 2 or 4 with negative and odd offsets, and
# coefficients up to 2^200.  ``_root_width`` bounds every root coefficient,
# so a true square always fits its slots: the long division runs on the
# near-squares, and on squares the guards refuse.
_PACKS_FROM = pure._SQRT_FROM // 2 + 1   # a dense root's square has 2n - 1 terms


@st.composite
def _sqrt_cases(draw):
    """(bivariate, root, its square, near-squares, must_pack): the near-squares
    add or subtract one monomial, cancel one term, or, in one variable, move
    one unit of a slot into the slot below as 2^(8s); must_pack says the
    square is long and dense enough that the packed root has to decide it."""
    bivariate = draw(st.booleans())
    size = draw(st.one_of(st.integers(1, _PACKS_FROM - 1), st.integers(_PACKS_FROM, 80)))
    bits = draw(st.sampled_from((1, 16, 64, 200)))
    dense = draw(st.booleans())
    if bivariate:
        # a dense root on a unit grid of whole rows: its square fills every
        # slot of the packed keys a·W + b
        cols = draw(st.integers(1, size))
        if dense:
            size = -(-size // cols) * cols
            (ox, sx), (oy, sy) = (draw(st.integers(-40, 40)), 1), (draw(st.integers(-40, 40)), 1)
        else:
            (ox, sx), (oy, sy) = _lattice(draw), _lattice(draw)
        keys = [(ox + sx * (i // cols), oy + sy * (i % cols))
                for i in (range(size) if dense else _steps(draw, size))]
    else:
        offset, stride = _lattice(draw)
        keys = [offset + stride * i for i in (range(size) if dense else _steps(draw, size))]
    root = dict(zip(keys, _coefficients(draw, len(keys), bits)))
    root[max(root)] = abs(root[max(root)])
    square = (naive_bi_mul_terms if bivariate else naive_mul_terms)(root, root)
    if bivariate:
        spot = st.tuples(*(st.integers(min(nums) - 4, max(nums) + 4) for nums in zip(*square)))
    else:
        spot = st.integers(min(square) - 4, max(square) + 4)
    near = []
    for _ in range(2):
        key = draw(st.one_of(st.sampled_from(sorted(square)), spot))
        near.append(pure.add_terms(square, {key: draw(st.sampled_from(
            (1, -1, -square.get(key, 1))))}))
    if not bivariate:
        # F is unchanged when 2^(8s)·t^k - t^(k + g) is added, s the slot
        # width: only squaring the candidate tells this from the square
        lo = min(square)
        step = gcd(*(k - lo for k in square)) or 1
        width = pure._root_width(square)
        k = lo + step * draw(st.integers(0, max(0, (max(square) - lo) // step - 2)))
        near.append(pure.add_terms(square, {k: 1 << 8 * width, k + step: -1}))
    must_pack = dense and size >= _PACKS_FROM and bits >= 16
    return bivariate, root, square, near, must_pack


@settings(max_examples=200, deadline=None)
@given(case=_sqrt_cases())
def test_packed_root_matches_the_long_division(case):
    bivariate, root, square, near, must_pack = case
    kernel = pure.bi_sqrt_terms if bivariate else pure.sqrt_terms
    for terms in (square, *near):
        if bivariate:
            with mock.patch.object(pure, "sqrt_terms", pure._divided_sqrt):
                want = kernel(terms)
        else:
            want = pure._divided_sqrt(terms)
            assert pure._packed_sqrt(terms) in (None, want)
        with mock.patch.object(pure, "_divided_sqrt", wraps=pure._divided_sqrt) as division:
            got = kernel(terms)
        assert got == want
        # the same key order, descending, as the long division builds its root
        assert list(got or ()) == list(want or ()) == sorted(got or (), reverse=True)
        if terms is square:
            assert got == root
            assert not (must_pack and division.called)


def test_packed_root_refuses_a_negative_packed_value():
    # the coefficient -2^300 outweighs the top slot, so F < 0: math.isqrt
    # would raise ValueError rather than leave the division to refuse
    terms = {2 * i: 1 for i in range(pure._SQRT_FROM + 1)} | {2 * pure._SQRT_FROM - 2: -(1 << 300)}
    assert pure._packed_sqrt(terms) is None
    with pytest.raises(NotAPerfectSquare):
        LaurentPoly(terms).sqrt_perfect()

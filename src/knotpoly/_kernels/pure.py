"""Pure-Python term-dict kernels.

A term dict maps exponent keys to nonzero integer coefficients.  The
add/sub/neg/scale kernels are key-agnostic; products and exact square
roots come in a univariate flavour (int keys) and a bivariate one (pairs).

Both multiplications loop over every pair of terms while the shorter
operand has fewer than ``_CROSSOVER`` terms, row by row: the shorter
operand's first term times every term of the longer one is one dict
comprehension, each further term adds its row into that dict, and only a
product in which some sum cancelled takes a pass to drop its zeros.  For
the one- and two-term factors of recurrence steps and the low squares of
a substitution's image that loop is the fastest there is.  From
``_CROSSOVER`` terms on they hand the product to one Kronecker
substitution, ``_packed_mul``: each operand becomes one Python int, with
one fixed-width byte slot per exponent step, and a single big-int
multiply (Karatsuba in CPython) forms every coefficient at once.
A bivariate key (x, y) folds to x·W + y first (``_fold``), with W wider
than any y of the product, so one packed kernel serves both arities.

Packing pays for every slot between the lowest and the highest key, empty
or not: its bytes in the multiply, and a fixed cost to unpack it.  So a
density guard keeps the pair loop when the packed product's size in
bytes, a slot counted as at least ``_SLOT_FLOOR`` bytes, exceeds the
number of term pairs, len(a)·len(b).  Past 2^_KARATSUBA_FROM pairs the
multiply's superlinear cost overtakes the loop's linear one, and the
size must also stay below the geometric mean of the pairs and that
threshold.  Sparse operands, such as a few terms spread over a wide
exponent range, therefore never allocate that range.

Exact square roots pack the same way.  ``sqrt_terms`` first tries
``_packed_sqrt``: it evaluates a square f at 2^(8s), with s-byte slots, as
one int F, takes ``math.isqrt(F)`` and reads a candidate root off the
balanced base-2^(8s) digits.  The candidate counts only once its square,
by ``mul_terms``, is f; whenever the path cannot decide, the long
division ``_divided_sqrt`` does.  A square packs only from
``_SQRT_FROM`` terms on, at most ``_SQRT_FILL`` slots per term;
``bi_sqrt_terms`` folds its square as the products do.

Compositions pack whole.  ``compose_terms`` evaluates each sum f_d·g^d of
a substitution at a packed image g as one int, by the power-of-two split
of ``laurent._split`` run on ints over the squares of g's int, and unpacks
it once.  Keys are divided by their common stride, and an image with
negative exponents is multiplied by X^c, c the depth of its lowest one,
so that every power is an int; each low half of the split is then shifted
once up to its node's degree, and leaves below degree ``_COMPOSE_LEAF`` run
a Horner.  The slot width holds the bound sum(|f_d|·|g|^d), |g| the sum
of the image's |coefficients|, so one width serves every square and partial
sum, which is why a large evaluation costs more packed than split.  It
packs only from ``_COMPOSE_FROM`` source terms, with at most
``_COMPOSE_FILL`` slots per term of g's top power and at most
``_COMPOSE_BYTES`` bytes in a result; a bivariate image is folded first,
additively, at (0, 0).

``_pack`` and ``_unpack`` are the one byte packing that all three packed
kernels share.
"""

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import comb, gcd, isqrt

# Shorter-operand length from which a product may be packed; the least
# byte cost of a slot in the density guard; and the log2 of the pair count
# past which the guard tightens.  All three were set against the pair loop
# on products of 8-2000 by 10-3000 terms, with fills from 1 to 1/100 and
# 1- to 64-bit coefficients.  Re-timed against the row-first loop at the
# margin, shorter sides of 9-12 terms by 20-200, fills 1, 1/2 and 1/4, 1-
# and 64-bit coefficients, both arities: under the guard no packed product
# ran more than 1.2x slower than the loop, and no refused one would have
# run more than 1.8x faster packed (1.4x univariate, both at 64-bit
# coefficients); packing a 9-term side would have gained at most 1.4x.
_CROSSOVER = 10
_SLOT_FLOOR = 8
_KARATSUBA_FROM = 19
# Square length from which a root may be packed, and the most slots per
# term of a square that packs.  Both were measured against the long
# division on 520 roots of 20-400 terms, 1- to 64-bit coefficients, with
# 1/4 to all of their slots filled, univariate and bivariate: dense roots
# ran 0.86-1.2x as fast packed at squares of 60-95 terms, 1.1-1.4x at
# 96-127 and up to 8x beyond; squares with more than 1.1 slots per term,
# which come from roots with holes, ran at a median 0.6x.  A root with
# holes can still have a square without any, as every bivariate root
# packed as a·W + b does: those pack, at a median 1.08x, down to 0.16x at
# 64-bit coefficients and a 1/4 fill.
_SQRT_FROM = 96
_SQRT_FILL = 1.1
# Source length, in terms over all of a substitution's sources, from which
# a composition may be packed; the most slots per term of the image's top
# power g^D; the most bytes in a packed result; and the degree below which
# the packed split runs a Horner.  All four were set against
# ``laurent._split`` (through ``compose``, ``substitute`` and this kernel)
# on the Chebyshev-route, HOMFLY-bridge and q-number members of degree
# 2-300, and on sources of degree 4-512, dense, one term in ten or of 2-4
# terms, with 1- to 64-bit coefficients, at t + 1/t, 1 + t + 1/t,
# t^(1/2) - t^(-1/2), a 4-term image, z^2 + 2 and a + z.  From 6 terms
# every member packed in under 8 KiB ran 1.07-4.4x as fast, and bridge
# members of 4-5 terms 0.88-0.96x.  Images of 3-5 slots per term
# (t^2 + 1/t to t^4 + 1/t) ran 1.5-3.0x as fast to degree 64, while a + z,
# folded to D slots per term, ran 1.3-1.7x at degree 4 and 0.01-0.53x at
# 128.  Below 8 KiB packing ran 1.4-4.1x as fast, from 8 to 16 KiB 0.92-5.4x
# (the q-number member V_200 at t + 1/t 0.92x); past 16 KiB the one slot
# width, which every square and partial sum pays for, costs more than the
# dict products it saves (0.50x for a source of one term in ten, 0.64x for
# a dense one).  A Horner below degree 8 took 19 % off the packed members'
# time against a split down to degree 0.
_COMPOSE_FROM = 6
_COMPOSE_FILL = 8
_COMPOSE_BYTES = 1 << 14
_COMPOSE_LEAF = 8


def add_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def sub_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def neg_terms(a):
    return {k: -c for k, c in a.items()}


def scale_terms(a, factor):
    if not factor:
        return {}
    return {k: factor * c for k, c in a.items()}


def mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= _CROSSOVER:
        out = _packed_mul(a, b)
        if out is not None:
            return out
    return _pair_mul(a, b)


def _pair_mul(a, b):
    """The product of two int-keyed term dicts, row by row over ``a``: the
    first row, a's first term times every term of ``b``, is one
    comprehension, and each further row adds into it.  Only a product in
    which some sum cancelled pays a pass to drop the zeros, found by one
    scan of the values; a single row has none, every coefficient being
    nonzero."""
    if not a:
        return {}
    rows = iter(a.items())
    ka, ca = next(rows)
    out = {ka + kb: ca * cb for kb, cb in b.items()}
    for ka, ca in rows:
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v} if len(a) > 1 and 0 in out.values() else out


def bi_mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= _CROSSOVER:
        # each variable shifted to its minimum in the operand and divided by
        # its stride; W is past the largest y' sum of the product, so no y'
        # carries into x'
        (xa, ya), (xb, yb) = zip(*a), zip(*b)
        lo_xa, lo_ya, lo_xb, lo_yb = min(xa), min(ya), min(xb), min(yb)
        step = (gcd(*(x - lo_xa for x in xa), *(x - lo_xb for x in xb)) or 1,
                gcd(*(y - lo_ya for y in ya), *(y - lo_yb for y in yb)) or 1)
        width = (max(ya) - lo_ya + max(yb) - lo_yb) // step[1] + 1
        packed_a = _fold(a, (lo_xa, lo_ya), step, width)
        packed = _packed_mul(packed_a,
                             packed_a if a is b else _fold(b, (lo_xb, lo_yb), step, width))
        if packed is not None:
            return _unfold(packed, (lo_xa + lo_xb, lo_ya + lo_yb), step, width)
    # ``_pair_mul``'s loop on pair keys
    if not a:
        return {}
    rows = iter(a.items())
    (xa, ya), ca = next(rows)
    out = {(xa + xb, ya + yb): ca * cb for (xb, yb), cb in b.items()}
    for (xa, ya), ca in rows:
        for (xb, yb), cb in b.items():
            k = (xa + xb, ya + yb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v} if len(a) > 1 and 0 in out.values() else out


def _fold(terms, lo, step, width):
    """A bivariate term dict on the int keys x'·W + y', W = ``width``,
    x' = (x - lo_x) / step_x and y' likewise; one-to-one while y' < W."""
    (lo_x, lo_y), (step_x, step_y) = lo, step
    return {(x - lo_x) // step_x * width + (y - lo_y) // step_y: c
            for (x, y), c in terms.items()}


def _unfold(terms, lo, step, width):
    """The inverse of ``_fold``, in the key order of ``terms``."""
    (lo_x, lo_y), (step_x, step_y) = lo, step
    return {(lo_x + step_x * (key // width), lo_y + step_y * (key % width)): c
            for key, c in terms.items()}


def _packed_mul(a, b):
    """The product of two nonempty int-keyed term dicts by one big-int
    multiply, or None when its length breaks the density guard.

    Keys are shifted to start at 0 and divided by their common stride g,
    so a key k of ``a`` sits in slot (k - min a) / g.  A slot is s bytes
    wide, enough for max|a|·max|b|·min(len a, len b) plus a sign bit, so
    no product coefficient can overflow into its neighbour.
    """
    lo_a, lo_b = min(a), min(b)
    step = gcd(*(k - lo_a for k in a), *(k - lo_b for k in b)) or 1
    len_a, len_b = (max(a) - lo_a) // step + 1, (max(b) - lo_b) // step + 1
    slots = len_a + len_b - 1
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    size, pairs = slots * max(width, _SLOT_FLOOR), len(a) * len(b)
    if size > pairs or size * size > pairs << _KARATSUBA_FROM:
        return None
    packed_a = _pack(a, lo_a, step, len_a, width)
    product = packed_a * packed_a if a is b else packed_a * _pack(b, lo_b, step, len_b, width)
    lo = lo_a + lo_b
    return _unpack(product, range(lo, lo + step * slots, step), width)


def compose_terms(sources, image):
    """[f(g) for each source f], f(g) = sum(f_d·g^d) over the items
    (d, f_d) of f and g the term dict ``image`` (int keys, or pairs, folded
    as the products fold them), by one big-int evaluation per source; or
    None when the crossover, the density guard or the size guard refuses
    them.  Every source is a nonempty dict of nonnegative int degrees to
    int coefficients; they share the image's squares and one slot width.

    Keys are divided by their common stride, the gcd of the image's keys
    (a source coefficient sits at key 0), so that g's exponents span
    [lo, hi] with lo <= 0 <= hi.  With X = 2^(8w) and c = -lo, A = X^c·g(X)
    is an int, and a source of top degree D evaluates to X^(cD)·f(g(X)),
    whose exponents lie in 0..D·(hi - lo): D·(hi - lo) + 1 slots, read back
    by ``_unpack``.  Its coefficients are at most sum(|f_d|·|g|^d), |g| the
    sum of the image's |coefficients|, and w bytes hold that bound with a
    sign bit.
    """
    if sum(map(len, sources)) < _COMPOSE_FROM:
        return None
    rows = [sorted(source.items()) for source in sources]
    top = max(row[-1][0] for row in rows)
    bivariate = type(next(iter(image))) is tuple
    base = 0
    if bivariate:
        # folded at lo (0, 0), so that the fold is additive, with W past the
        # y' range of every result; keys are read back from base = top·min y'
        xs, ys = zip(*image)
        fold_step = (gcd(*xs) or 1, gcd(*ys) or 1)
        lo_y = min(0, *ys) // fold_step[1]
        fold_width = top * (max(0, *ys) // fold_step[1] - lo_y) + 1
        image, base = _fold(image, (0, 0), fold_step, fold_width), top * lo_y
    step = gcd(*image) or 1
    lo, hi = min(0, *image) // step, max(0, *image) // step
    slots = top * (hi - lo) + 1
    # g^D has at most C(D + n - 1, n - 1) terms, n = len(g)
    if slots > _COMPOSE_FILL * comb(top + len(image) - 1, len(image) - 1):
        return None
    norm = sum(map(abs, image.values()))
    bound = max(_horner(((d, abs(c)) for d, c in reversed(row)), norm, 0, top) for row in rows)
    width = bound.bit_length() // 8 + 1
    if slots * width > _COMPOSE_BYTES:
        return None
    squares = [_pack(image, lo * step, step, hi - lo + 1, width)]
    for _ in range(top.bit_length() - 1):
        squares.append(squares[-1] * squares[-1])
    out = []
    for row in rows:
        degree = row[-1][0]
        first = degree * lo * step - base
        terms = _unpack(_compose_split(row, squares, -8 * width * lo),
                        range(first, first + (degree * (hi - lo) + 1) * step, step), width)
        out.append(_unfold(terms, (0, base * fold_step[1]), fold_step, fold_width)
                   if bivariate else terms)
    return out


def _compose_split(items, squares, shift):
    """sum(v·A^d·2^(shift·(T - d))) over the pairs (d, v) of ``items``, in
    ascending order of d, T the top degree and ``squares[i]`` = A^(2^i):
    ``laurent._split`` on ints, each low half shifted once up to its
    node's degree, and a Horner on ints below degree ``_COMPOSE_LEAF``."""
    top = items[-1][0]
    if top < _COMPOSE_LEAF:
        return _horner(reversed(items), squares[0], shift, top)
    i = top.bit_length() - 1
    m = 1 << i
    cut = bisect_left(items, (m,))
    high = _compose_split([(d - m, v) for d, v in items[cut:]], squares, shift) * squares[i]
    if not cut:
        return high
    return high + (_compose_split(items[:cut], squares, shift) << shift * (top - items[cut - 1][0]))


def _horner(pairs, base, shift, top):
    """sum(v·base^d·2^(shift·(top - d))) over the pairs (d, v) of ``pairs``, in
    descending order of d, by Horner's rule on ints: the one loop of the exact
    evaluator, the composition's width bound and its split's leaves."""
    acc, prev = 0, top
    for d, v in pairs:
        acc = acc * base ** (prev - d) + (v << shift * (top - d))
        prev = d
    return acc * base ** prev


def sqrt_terms(terms):
    """Square root of a univariate numerator-keyed dict, normalised to a
    positive leading coefficient; None, always from the long division,
    when no root with integer coefficients exists on the half-exponent
    lattice."""
    root = _packed_sqrt(terms)
    return _divided_sqrt(terms) if root is None else root


def bi_sqrt_terms(terms):
    """``sqrt_terms`` of a bivariate dict, positive at its largest key, taken
    once on the square shifted to (0, 0) and folded with W one more than
    its largest y.  A root with 2·y < W on every term squares to the input
    and every true root has one; any other carried between the folded
    fields and is refused.  The fold does not divide by strides, so an even
    numerator step leaves every other slot or row empty, past
    ``_SQRT_FILL``: only a square with one row, or with half-integer
    exponents in both variables, reaches the packed root."""
    if not terms:
        return {}
    xs, ys = zip(*terms)
    lo_x, lo_y = min(xs), min(ys)
    if lo_x % 2 or lo_y % 2:
        return None
    width = max(ys) - lo_y + 1
    root = sqrt_terms(_fold(terms, (lo_x, lo_y), (1, 1), width))
    if root is None or any(2 * (key % width) >= width for key in root):
        return None
    return _unfold(root, (lo_x // 2, lo_y // 2), (1, 1), width)


def _packed_sqrt(terms):
    """The square root of an int-keyed term dict by one ``math.isqrt``,
    normalised to a positive leading coefficient; None when this path
    cannot decide: the square is shorter or sparser than the guards allow,
    or no candidate root squares back to it.  None says nothing about
    whether a root exists; the long division decides that.

    With keys shifted by their minimum and divided by their stride g, a
    square f is r(y)^2 for a root r whose keys are min f / 2 plus g times
    its slots, so F = f(2^(8s)) is the square of R = r(2^(8s)).  With s
    from ``_root_width`` every coefficient of r is one balanced digit of
    R, and every coefficient of f fits in two slots, so F is packed as
    its even slots plus its odd ones, each two slots wide, and a candidate
    read off R counts once ``mul_terms`` squares it back to f.
    """
    if len(terms) < _SQRT_FROM:
        return None
    lo = min(terms)
    step = gcd(*(k - lo for k in terms))
    slots = (max(terms) - lo) // step + 1
    if lo % 2 or slots % 2 == 0 or slots > _SQRT_FILL * len(terms):
        return None
    width, pair = _root_width(terms), 2 * step
    even = {k: c for k, c in terms.items() if (k - lo) % pair == 0}
    odd = {k: c for k, c in terms.items() if (k - lo) % pair}
    value = (_pack(even, lo, pair, slots // 2 + 1, 2 * width)
             + (_pack(odd, lo + step, pair, slots // 2, 2 * width) << 8 * width))
    if value <= 0:  # isqrt refuses a negative value, and no root gives 0
        return None
    root_value = isqrt(value)
    if root_value * root_value != value:
        return None
    root = _unpack(root_value, range(lo // 2, lo // 2 + step * (slots // 2 + 1), step), width)
    if root is None:
        return None
    # in descending key order, as the long division builds its root
    return dict(reversed(root.items())) if mul_terms(root, root) == terms else None


def _divided_sqrt(terms):
    """``sqrt_terms`` by long division from the top down, on a dict
    remainder with a heap of its keys and a list of the nonzero root
    terms: a step costs one update per root term, whatever the gaps
    between exponents."""
    if not terms:
        return {}
    lo, hi = min(terms), max(terms)
    lead = terms[hi]
    root_lead = isqrt(max(lead, 0))
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


def _root_width(terms):
    """The slot width s in bytes of ``_packed_sqrt`` for the square
    ``terms``: every coefficient of a root lies in [-2^(8s - 1), 2^(8s - 1)).

    For f = r^2 the mean of |r|^2 over the unit circle, the sum of r's
    squared coefficients, is the mean of |f|, which is at most the root of
    the mean of |f|^2: so every |r_j| is at most N^(1/4), N the sum of f's
    squared coefficients, and 4(8s - 1) >= bitlen(N) is enough.
    """
    return ((sum(c * c for c in terms.values()).bit_length() + 3) // 4 + 8) // 8


def _pack(terms, lo, step, length, width):
    """The int sum of c·2^(8·width·i) over the terms c·x^(lo + step·i) of
    ``terms``, every |c| below 2^(8·width): the positive coefficients'
    bytes, one slot each, minus those of the negated negative ones."""
    pos, neg = bytearray(length * width), bytearray(length * width)
    for k, c in terms.items():
        i = (k - lo) // step * width
        if c > 0:
            pos[i:i + width] = c.to_bytes(width, "little")
        else:
            neg[i:i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value, keys, width):
    """The inverse of ``_pack`` for digits in [-h, h), h = 2^(8·width - 1):
    the nonzero balanced base-2^(8·width) digits of ``value`` as a term
    dict, the i-th under ``keys[i]``; None when they need more than
    len(keys) slots.  Adding h to every slot makes each digit nonnegative
    and below 2^(8·width), so one ``to_bytes`` yields every digit plus h.
    """
    empty = bytes(width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    try:
        raw = (value + int.from_bytes(empty * len(keys), "little")).to_bytes(
            len(keys) * width, "little")
    except OverflowError:
        return None
    out = {}
    for i, k in enumerate(keys):
        chunk = raw[i * width:(i + 1) * width]
        if chunk != empty:
            out[k] = int.from_bytes(chunk, "little") - half
    return out

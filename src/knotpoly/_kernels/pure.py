"""Pure-Python term-dict kernels.

A term dict maps exponent keys to nonzero integer coefficients.  The
add/sub/neg/scale kernels are key-agnostic; multiplication comes in a
univariate flavour (integer keys) and a bivariate one (pairs of ints).

Both multiplications loop over every pair of terms while the shorter
operand has fewer than ``_CROSSOVER`` terms: for the two- and three-term
factors of recurrence steps and Horner images that loop is the fastest
there is.  From ``_CROSSOVER`` terms on they hand the product to one
Kronecker substitution, ``_packed_mul``: each operand becomes one Python
int, with one fixed-width byte slot per exponent step, and a single
big-int multiply (Karatsuba in CPython) forms every coefficient at once.
A bivariate key (x, y) packs as x·W + y first, with W wider than any y of
the product, so one packed kernel serves both arities.

Packing pays for every slot between the lowest and the highest key, empty
or not: its bytes in the multiply, and a fixed cost to unpack it.  So a
density guard keeps the pair loop when the packed product's size in
bytes, a slot counted as at least ``_SLOT_FLOOR`` bytes, exceeds the
number of term pairs, len(a)·len(b).  Past 2^_KARATSUBA_FROM pairs the
multiply's superlinear cost overtakes the loop's linear one, and the
size must also stay below the geometric mean of the pairs and that
threshold.  Sparse operands, such as a few terms spread over a wide
exponent range, therefore never allocate that range.

Exact square roots pack the same way.  ``_packed_sqrt`` evaluates a square
f at 2^(8s), with s-byte slots, as one int F, takes ``math.isqrt(F)`` and
reads a candidate root off the balanced base-2^(8s) digits of the result.
The candidate counts only once its square, formed by ``_packed_mul`` or
the pair loop, is f; whenever the path cannot decide it returns None and
the long division in ``laurent`` decides.  A square is packed only from
``_SQRT_FROM`` terms on and with at most ``_SQRT_FILL`` slots per term.
``_pack`` and ``_unpack`` are the one byte packing that both packed
kernels share.
"""

from math import gcd, isqrt

# Shorter-operand length from which a product may be packed; the least
# byte cost of a slot in the density guard; and the log2 of the pair count
# past which the guard tightens.  All three were measured against the pair
# loop on products of 8-2000 by 10-3000 terms, with fills from 1 to 1/100
# and 1- to 64-bit coefficients: under the guard no packed product there
# ran more than 1.5x slower than the loop, and no refused one more than
# 2x faster, except sparse ones with 1-bit coefficients (up to 2.8x).
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
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def bi_mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= _CROSSOVER:
        # (x, y) -> x'·W + y', each variable shifted to its minimum in the
        # operand and divided by its stride; W is past the largest y' sum
        # of the product, so no y' carries into x'
        (xa, ya), (xb, yb) = zip(*a), zip(*b)
        lo_xa, lo_ya, lo_xb, lo_yb = min(xa), min(ya), min(xb), min(yb)
        step_x = gcd(*(x - lo_xa for x in xa), *(x - lo_xb for x in xb)) or 1
        step_y = gcd(*(y - lo_ya for y in ya), *(y - lo_yb for y in yb)) or 1
        width = (max(ya) - lo_ya + max(yb) - lo_yb) // step_y + 1

        def pack(terms, lo_x, lo_y):
            return {(x - lo_x) // step_x * width + (y - lo_y) // step_y: c
                    for (x, y), c in terms.items()}

        packed_a = pack(a, lo_xa, lo_ya)
        packed = _packed_mul(packed_a, packed_a if a is b else pack(b, lo_xb, lo_yb))
        if packed is not None:
            out = {}
            for key, c in packed.items():
                x, y = divmod(key, width)
                out[(lo_xa + lo_xb + step_x * x, lo_ya + lo_yb + step_y * y)] = c
            return out
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


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
    its even slots plus its odd ones, each two slots wide.
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
    square = _packed_mul(root, root)
    if square is None:
        square = _pair_mul(root, root)
    # in descending key order, as the long division builds its root
    return dict(reversed(root.items())) if square == terms else None


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

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
"""

from math import gcd

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
    no product coefficient can overflow into its neighbour.  An operand is
    int.from_bytes of its positive coefficients minus that of its
    negated negative ones; adding h = 2^(8s - 1) to every slot of the
    product makes each one nonnegative and below 2^(8s), so one
    ``to_bytes`` yields every coefficient plus h.
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

    def pack(terms, lo, length):
        pos, neg = bytearray(length * width), bytearray(length * width)
        for k, c in terms.items():
            i = (k - lo) // step * width
            if c > 0:
                pos[i:i + width] = c.to_bytes(width, "little")
            else:
                neg[i:i + width] = (-c).to_bytes(width, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    packed_a = pack(a, lo_a, len_a)
    product = packed_a * packed_a if a is b else packed_a * pack(b, lo_b, len_b)
    empty = bytes(width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    raw = (product + int.from_bytes(empty * slots, "little")).to_bytes(slots * width, "little")
    out = {}
    lo = lo_a + lo_b
    for i in range(slots):
        chunk = raw[i * width:(i + 1) * width]
        if chunk != empty:
            out[lo + step * i] = int.from_bytes(chunk, "little") - half
    return out

"""Pure-Python term-dict kernels.

A term dict maps exponent keys to nonzero integer coefficients.  The
add/sub/neg/scale kernels are key-agnostic; multiplication comes in a
univariate flavour (integer keys) and a bivariate one (pairs of ints).
"""


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
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def bi_mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}

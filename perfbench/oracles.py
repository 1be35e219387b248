"""Independent oracles for the benchmark's operations.

Nothing here calls into ``knotpoly``: every expected value is built from
closed forms over plain ints, and every rendering rule is restated, so a
change to the library's timed code cannot also change what it is checked
against.

Term dicts use the library's storage convention (exponent numerators over
the denominator 2), so x^k is stored under the key 2k.
"""

from __future__ import annotations

import json
from math import comb

# -- closed forms ------------------------------------------------------------


def alexander(s):
    """Alternating sum of s powers of t centred on degree (s-1)/2."""
    return {s - 1 - 2 * i: (-1) ** i for i in range(s)}


def qnum(n):
    return {2 * (n - 1) - 4 * i: 1 for i in range(n)}


def qpnum(n):
    return {(2 * (n - 1 - i), 2 * i): 1 for i in range(n)}


def cheb_second_degrees(n):
    """V_n(x) = sum_k (-1)^k C(n-k, k) x^(n-2k), keyed by degree."""
    if n < 0:
        return {}
    return {n - 2 * k: (-1) ** k * comb(n - k, k) for k in range(n // 2 + 1)}


def cheb_second(n):
    return {2 * d: c for d, c in cheb_second_degrees(n).items()}


def cheb_first(n):
    """T_n = V_n - V_(n-2), with the trace normalisation T_0 = 2."""
    if n == 0:
        return {0: 2}
    if n == 1:
        return {2: 1}
    out = cheb_second(n)
    for k, c in cheb_second(n - 2).items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _v_at_y_plus_2(n):
    """Coefficients of V_n(y + 2) by powers of y, binomially expanded."""
    out = {}
    for d, c in cheb_second_degrees(n).items():
        for j in range(d + 1):
            out[j] = out.get(j, 0) + c * comb(d, j) * 2 ** (d - j)
    return {j: c for j, c in out.items() if c}


def homfly(m):
    """H_m = A_m(a^2, z^2 + 2) with A_m = r^m (V_m(x) - r V_(m-1)(x))."""
    out = {}
    for j, c in _v_at_y_plus_2(m).items():
        out[(4 * m, 4 * j)] = c
    for j, c in _v_at_y_plus_2(m - 1).items():
        key = (4 * m + 4, 4 * j)
        v = out.get(key, 0) - c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def convolve(a, b):
    """Schoolbook product of term dicts with int or pair keys."""
    out = {}
    pair = bool(a) and isinstance(next(iter(a)), tuple)
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1]) if pair else ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


# -- rendering rules ---------------------------------------------------------


def _pow(var, num):
    if num == 0:
        return ""
    if num == 2:
        return var
    if num % 2 == 0:
        k = num // 2
        return f"{var}^{k}" if k > 0 else f"{var}^({k})"
    return f"{var}^({num}/2)"


def _join(pieces):
    """pieces: (coeff, monomial body) in display order."""
    parts = []
    for coeff, body in pieces:
        mag = abs(coeff)
        text = str(mag) if not body else body if mag == 1 else f"{mag}{body}"
        if parts:
            parts.append(("+ " if coeff > 0 else "- ") + text)
        else:
            parts.append(text if coeff > 0 else "-" + text)
    return " ".join(parts) if parts else "0"


def render_uni(terms, var):
    return _join((terms[k], _pow(var, k)) for k in sorted(terms, reverse=True))


def render_bi(terms, variables, ascending):
    va, vb = variables
    keys = sorted(terms) if ascending else sorted(terms, key=lambda k: (-k[0], -k[1]))
    return _join((terms[k], _pow(va, k[0]) + _pow(vb, k[1])) for k in keys)


def json_uni(terms, var):
    return {
        "variable": var,
        "den": 2,
        "terms": [{"num": k, "coeff": str(terms[k])} for k in sorted(terms, reverse=True)],
    }


def json_bi(terms, variables):
    keys = sorted(terms, key=lambda k: (-k[0], -k[1]))
    return {
        "variables": list(variables),
        "den": 2,
        "terms": [{"numA": a, "numB": b, "coeff": str(terms[(a, b)])} for a, b in keys],
    }


# -- CLI expectations --------------------------------------------------------

# A table family or one-poly command yields (label, terms, variables, kind)
# rows; kind is "uni", "bi-asc" or "bi-desc" (the text ordering).

_UNI = {
    "alexander-knots": lambda n: [(f"m={m}", alexander(2 * m + 1)) for m in range(n + 1)],
    "alexander-links": lambda n: [(f"m={2 * k + 1}/2", alexander(2 * k + 2)) for k in range(n)],
    "unified": lambda n: [(f"s={i + 1}", alexander(i + 1)) for i in range(n)],
    "qnum": lambda n: [(f"n={i}", qnum(i)) for i in range(1, n + 1)],
    "chebyshev-first": lambda n: [(f"n={i}", cheb_first(i)) for i in range(n + 1)],
    "chebyshev-second": lambda n: [(f"n={i}", cheb_second(i)) for i in range(n + 1)],
}
_UNI_VAR = {"qnum": "q", "chebyshev-first": "x", "chebyshev-second": "x"}

TABLE_FAMILIES = tuple(_UNI) + ("homfly", "qpnum")


def table_rows(family, n):
    if family in _UNI:
        var = _UNI_VAR.get(family, "t")
        return [(label, terms, var, "uni") for label, terms in _UNI[family](n)]
    if family == "homfly":
        return [(f"m={m}", homfly(m), ("a", "z"), "bi-asc") for m in range(n + 1)]
    if family == "qpnum":
        return [(f"n={i}", qpnum(i), ("q", "p"), "bi-desc") for i in range(1, n + 1)]
    raise ValueError(family)


def _text(terms, variables, kind):
    if kind == "uni":
        return render_uni(terms, variables)
    return render_bi(terms, variables, kind == "bi-asc")


def _json(terms, variables, kind):
    return json_uni(terms, variables) if kind == "uni" else json_bi(terms, variables)


# skein-derive: (variables, ascending, c1, c2, b1 prefactor, b1 radicands, b2),
# worked by hand from c1 = b1^2 + 2 b2 and c2 = -b2^2.
SKEIN = {
    "classical": (("t", "u"), False, {(2, 0): 1, (-2, 0): 1}, {(0, 0): -1},
                  {(1, 0): 1, (-1, 0): -1}, [], {(0, 0): 1}),
    "rx": (("r", "x"), True, {(2, 2): 1}, {(4, 0): -1},
           {(1, 0): 1}, [{(0, 2): 1, (0, 0): -2}], {(2, 0): 1}),
    "az": (("a", "z"), True, {(4, 4): 1, (4, 0): 2}, {(8, 0): -1},
           {(2, 2): 1}, [], {(4, 0): 1}),
}


def _skein_b1_text(variables, ascending, pre, rads):
    if not rads:
        return render_bi(pre, variables, ascending)
    parts = []
    if pre != {(0, 0): 1}:
        text = render_bi(pre, variables, ascending)
        parts.append(f"({text})" if len(pre) > 1 else text)
    parts.extend(f"sqrt({render_bi(r, variables, False)})" for r in rads)
    return " * ".join(parts)


def poly_command(argv):
    """Expected (terms, variables, kind) for a one-poly command."""
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd == "alexander":
        return alexander(int(opts["--s"])), "t", "uni"
    if cmd == "homfly":
        return homfly(int(opts["--m"])), ("a", "z"), "bi-asc"
    if cmd == "qnum":
        return qnum(int(opts["--n"])), "q", "uni"
    if cmd == "qpnum":
        return qpnum(int(opts["--n"])), ("q", "p"), "bi-desc"
    if cmd == "chebyshev":
        n = int(opts["--n"])
        return (cheb_first(n) if opts["--kind"] == "first" else cheb_second(n)), "x", "uni"
    raise ValueError(cmd)


def expected_cli_output(argv):
    """The correct stdout of a table, one-poly or skein-derive command: its
    text, or its parsed value for JSON."""
    fmt = argv[argv.index("--format") + 1]
    core = argv[: argv.index("--format")]
    if core[0] == "table":
        family, n = core[1], int(core[3])
        rows = table_rows(family, n)
        if fmt == "json":
            return {
                "family": family,
                "rows": [{"label": lab, "poly": _json(t, v, k)} for lab, t, v, k in rows],
            }
        return "".join(f"{lab}: {_text(t, v, k)}\n" for lab, t, v, k in rows)
    if core[0] == "skein-derive":
        family = core[2]
        variables, asc, c1, c2, pre, rads, b2 = SKEIN[family]
        if fmt == "json":
            return {
                "family": family,
                "c1": json_bi(c1, variables),
                "c2": json_bi(c2, variables),
                "b1": {"prefactor": json_bi(pre, variables),
                       "radicands": [json_bi(r, variables) for r in rads]},
                "b2": json_bi(b2, variables),
                "roundtrip_ok": True,
            }
        lines = [
            f"c1 = {render_bi(c1, variables, asc)}",
            f"c2 = {render_bi(c2, variables, asc)}",
            f"b1 = {_skein_b1_text(variables, asc, pre, rads)}",
            f"b2 = {render_bi(b2, variables, asc)}",
        ]
        return "".join(line + "\n" for line in lines)
    terms, variables, kind = poly_command(core)
    if fmt == "json":
        return _json(terms, variables, kind)
    return _text(terms, variables, kind) + "\n"


def check_cli_output(argv, code, out, want):
    """Return None when the captured run is right, else why it is not.
    ``want`` is what ``expected_cli_output`` gives."""
    if code != 0:
        return f"exit {code}"
    if argv[argv.index("--format") + 1] == "json":
        try:
            out = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
    return None if out == want else "output differs from the closed form"


# -- verify ------------------------------------------------------------------

_VERIFY_TOTALS = {
    "unified-skein": lambda n: n - 2,
    "knot-recurrence": lambda n: n + 1,
    "qnum-oracle": lambda n: 2 * (n + 1),
    "chebyshev-identity": lambda n: n - 1,
    "alexander-chebyshev": lambda n: n,
    "qp-specialization": lambda n: n + 1,
    "homfly-bridge": lambda n: n,
    "trig": lambda n: 24 * n,
}
VERIFY_SUITES = tuple(_VERIFY_TOTALS)


def verify_expected(suite, n):
    """Number of identities ``verify <suite> --max-n n`` must check (n >= 3)."""
    return _VERIFY_TOTALS[suite](n)


def check_verify_output(argv, code, out):
    suite, n = argv[1], int(argv[3])
    want = verify_expected(suite, n)
    if code != 0:
        return f"exit {code}"
    if argv[argv.index("--format") + 1] == "json":
        try:
            rep = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        ok = rep == {"suite": suite, "max_n": n, "passed": want, "total": want,
                     "failures": []}
    else:
        ok = out == f"{want}/{want} identities hold\n"
    return None if ok else f"expected {want}/{want} identities"


# -- exact evaluation for library results ------------------------------------


def _norms(terms):
    values = [abs(c) for c in terms.values()]
    return sum(values), max(values, default=0)


def _pack(terms, shift, width, nbytes):
    """Value of the polynomial at t = 256^nbytes with each key mapped to the
    integer exponent (a - shift_a) * width + (b - shift_b), or k - shift;
    None when a key falls outside that frame.  Coefficients must be below
    256^nbytes in size, so each fills its own field of the byte string."""
    fields = []
    for key, c in terms.items():
        if isinstance(key, tuple):
            da, db = key[0] - shift[0], key[1] - shift[1]
            if da < 0 or db < 0 or db >= width:
                return None
            fields.append((da * width + db, c))
        else:
            if key < shift:
                return None
            fields.append((key - shift, c))
    size = (max(e for e, _ in fields) + 1) * nbytes if fields else 0
    pos, neg = bytearray(size), bytearray(size)
    for e, c in fields:
        (pos if c > 0 else neg)[e * nbytes:(e + 1) * nbytes] = abs(c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _frame(factors, result):
    """Shift, row width and field size in bytes that make packing injective
    for the true product of ``factors`` and for ``result``."""
    bound = 1
    for f in factors:
        bound *= _norms(f)[0]
    bound = max(bound, _norms(result)[1])
    nbytes = ((2 * bound + 2).bit_length() + 7) // 8
    keys = [k for f in factors for k in f]
    if keys and isinstance(keys[0], tuple):
        shift = tuple(sum(min(k[i] for k in f) for f in factors) for i in (0, 1))
        span = sum(max(k[1] for k in f) - min(k[1] for k in f) for f in factors)
        return shift, span + 1, nbytes
    return sum(min(f) for f in factors), 1, nbytes


def is_product(factors, result):
    """Whether ``result`` equals the product of the term dicts ``factors``,
    decided by exact evaluation at a power of two above twice any
    coefficient either side can have, where evaluation is injective."""
    if any(not f for f in factors):
        return not result
    shift, width, nbytes = _frame(factors, result)
    got = _pack(result, shift, width, nbytes)
    if got is None:
        return False
    want = 1
    for f in factors:
        fshift = (tuple(min(k[i] for k in f) for i in (0, 1))
                  if isinstance(shift, tuple) else min(f))
        want *= _pack(f, fshift, width, nbytes)
    return got == want


def check_root(square, root, expected_root):
    """A square root is right when it is +-the generated root and squares
    back to the input."""
    negated = {k: -c for k, c in expected_root.items()}
    if root != expected_root and root != negated:
        return "root differs from the generated one"
    return None if is_product([root, root], square) else "root does not square back"

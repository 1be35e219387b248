"""Seeded operation lists for the three workloads.

An operation is one closed-loop request: a CLI invocation of
``knotpoly.cli.run`` with stdout hashed, or one call into the public
``knotpoly`` API on operands built here, outside any timed region.  Each
carries the oracle its output is checked against (see ``oracles``).

Sizes come from ``_sizes``: k values at the midpoints of k equal strata
of [lo, hi] (log-spaced unless stated), each moved by at most JITTER of a stratum by
the seed.  The seed therefore picks the exact sizes and the order, while
the size mix, and with it the work in one pass, stays close
to fixed; that keeps seed-to-seed spread near the machine's own noise.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

import knotpoly
from knotpoly import cli

# Largest seeded move of a size, as a share of its stratum.  The largest
# ops dominate ops_per_s and peak_rss_mb and grow as N^2 or faster, so a
# larger move shows up as seed-to-seed spread in those metrics.
JITTER = 0.005

# verify: suite -> (ops, lo, hi).  The three heavy suites grow roughly as
# N^3 (trig at N=150 alone takes about 5 s on the pure backend), so their
# ranges stop lower to keep one pass of the list near 5 s.
VERIFY_MIX = {
    "unified-skein": (16, 4, 150),
    "knot-recurrence": (16, 4, 150),
    "qnum-oracle": (16, 4, 150),
    "chebyshev-identity": (16, 4, 150),
    "alexander-chebyshev": (16, 4, 150),
    "qp-specialization": (8, 4, 130),
    "homfly-bridge": (8, 4, 130),
    "trig": (8, 4, 100),
}

# print-tables: table family -> (ops, lo, hi); command -> (ops, lo, hi).
TABLE_MIX = {family: (6, 10, 1000) for family in oracles.TABLE_FAMILIES}
TABLE_MIX["homfly"] = (6, 5, 200)
POLY_MIX = {
    "alexander": (10, 20, 2000),
    "homfly": (10, 10, 200),
    "qnum": (8, 10, 1000),
    "qpnum": (8, 10, 1000),
    "chebyshev": (12, 10, 1000),
}
_POLY_FLAG = {"alexander": "--s", "homfly": "--m", "qnum": "--n", "qpnum": "--n",
              "chebyshev": "--n"}


@dataclass
class Op:
    key: str                                  # stable description, hashed into the op-list id
    call: Callable[[], object]                # the timed request
    check: Callable[[object], "str | None"]   # oracle: None when right, else why not
    digest: Callable[[object], str]           # fingerprint, to compare repeated runs
    out_bytes: Callable[[object], int] = lambda out: 0
    kernel_inputs: Callable[[], list] = field(default=lambda: [])
    # the request as the checking pass makes it, keeping what ``check`` reads
    checked_call: "Callable[[], object] | None" = None

    def __post_init__(self):
        if self.checked_call is None:
            self.checked_call = self.call


def _sizes(rng, k, lo, hi, log=True):
    fractions = [(j + 0.5 + rng.uniform(-JITTER, JITTER)) / k for j in range(k)]
    if log:
        return [round(lo * (hi / lo) ** u) for u in fractions]
    return [round(lo + (hi - lo) * u) for u in fractions]


def _formats(k):
    """Text and JSON alternate over the strata, so the largest op of a
    kind is JSON for every seed."""
    return ["text" if (k - 1 - j) % 2 else "json" for j in range(k)]


# -- CLI operations ------------------------------------------------------------


_CHUNK = 1 << 16


class _Sink:
    """Text stream that hashes what is written, in chunks, as a pipe would
    consume it; it keeps the text only when asked, for the oracle."""

    def __init__(self, keep=False):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.parts = [] if keep else None

    def write(self, text):
        for i in range(0, len(text), _CHUNK):
            data = text[i:i + _CHUNK].encode()
            self.sha.update(data)
            self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self):
        pass


@dataclass
class CliResult:
    code: int
    sha256: str          # of stdout's UTF-8 bytes
    nbytes: int
    text: "str | None"   # stdout, when kept


def run_cli(argv, keep=False):
    """``knotpoly.cli.run(argv)`` with stdout hashed, and kept if ``keep``."""
    out = _Sink(keep)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Sink()):
        code = cli.run(argv)
    return CliResult(code, out.sha.hexdigest(), out.nbytes,
                     "".join(out.parts) if keep else None)


def _cli_op(argv, check):
    return Op(
        key=" ".join(argv),
        call=lambda: run_cli(argv),
        checked_call=lambda: run_cli(argv, keep=True),
        check=lambda res: check(res.code, res.text),
        digest=lambda res: f"{res.code}:{res.sha256}",
        out_bytes=lambda res: res.nbytes,
    )


def _verify_op(argv):
    return _cli_op(argv, lambda code, out: oracles.check_verify_output(argv, code, out))


def _printing_op(argv):
    # the closed form is built only when checked, so never in the run process
    return _cli_op(argv, lambda code, out: oracles.check_cli_output(
        argv, code, out, oracles.expected_cli_output(argv)))


def verify_sweep(rng):
    ops = []
    for suite, (k, lo, hi) in VERIFY_MIX.items():
        for n, fmt in zip(_sizes(rng, k, lo, hi), _formats(k)):
            ops.append(_verify_op(["verify", suite, "--max-n", str(n), "--format", fmt]))
    return ops


def print_tables(rng):
    ops = []
    for family, (k, lo, hi) in TABLE_MIX.items():
        for n, fmt in zip(_sizes(rng, k, lo, hi), _formats(k)):
            ops.append(_printing_op(["table", family, "--max", str(n), "--format", fmt]))
    for cmd, (k, lo, hi) in POLY_MIX.items():
        kinds = ["second" if j // 2 % 2 else "first" for j in range(k)]
        for n, fmt, kind in zip(_sizes(rng, k, lo, hi), _formats(k), kinds):
            argv = [cmd] + (["--kind", kind] if cmd == "chebyshev" else [])
            ops.append(_printing_op(argv + [_POLY_FLAG[cmd], str(n), "--format", fmt]))
    for family in oracles.SKEIN:
        for fmt in ("text", "json"):
            ops.append(_printing_op(["skein-derive", "--family", family, "--format", fmt]))
    return ops


# -- library operations --------------------------------------------------------


def _coeff(rng, bits):
    mag = 1 if bits == 1 else (1 << (bits - 1)) | rng.getrandbits(bits - 1)
    return mag if rng.random() < 0.5 else -mag


def _uni(rng, n, bits, stride):
    offset = rng.randrange(-n * stride, 1)
    return {offset + stride * i: _coeff(rng, bits) for i in range(n)}


def _bi(rng, n, bits):
    width = int((2 * n) ** 0.5) + 1
    oa, ob = rng.randrange(-width, 1), rng.randrange(-width, 1)
    cells = rng.sample(range(width * width), n)
    return {(2 * (c // width) + oa, 2 * (c % width) + ob): _coeff(rng, bits) for c in cells}


def _fingerprint(terms):
    return hashlib.sha256(repr(sorted(terms.items())).encode()).hexdigest()


def _poly(terms):
    if terms and isinstance(next(iter(terms)), tuple):
        return knotpoly.BiPoly(terms)
    return knotpoly.LaurentPoly(terms)


def _mul_name(terms):
    return "bi_mul_terms" if terms and isinstance(next(iter(terms)), tuple) else "mul_terms"


def _product_op(kind, a, b):
    pa, pb = _poly(a), _poly(b)
    if a is b:
        pb = pa
    return Op(
        key=f"{kind} {len(a)}x{len(b)} {_fingerprint(a)[:16]} {_fingerprint(b)[:16]}",
        call=lambda: pa * pb,
        check=lambda r: None if oracles.is_product([a, b], r.terms) else "wrong product",
        digest=lambda r: _fingerprint(r.terms),
        kernel_inputs=lambda: [(_mul_name(a), (a, b))],
    )


def _pow_op(p, k):
    poly = _poly(p)

    def chain():
        inputs, base = [], p
        while k >> len(inputs):
            inputs.append(("mul_terms", (base, base)))
            base = oracles.convolve(base, base)
        return inputs

    return Op(
        key=f"pow {len(p)}^{k} {_fingerprint(p)[:16]}",
        call=lambda: poly ** k,
        check=lambda r: None if oracles.is_product([p] * k, r.terms) else "wrong power",
        digest=lambda r: _fingerprint(r.terms),
        kernel_inputs=chain,
    )


def _sqrt_op(root):
    square = oracles.convolve(root, root)
    poly = _poly(square)
    bivariate = isinstance(poly, knotpoly.BiPoly)

    def check(r):
        if bivariate:
            if r.radicands:
                return "perfect square left a radicand"
            r = r.prefactor
        return oracles.check_root(square, r.terms, root)

    return Op(
        key=f"{'bi-' if bivariate else ''}sqrt {len(root)} {_fingerprint(root)[:16]}",
        # looked up at call time, so a traced run sees the patched method
        call=(lambda: poly.sqrt()) if bivariate else (lambda: poly.sqrt_perfect()),
        check=check,
        digest=lambda r: _fingerprint((r.prefactor if bivariate else r).terms),
        kernel_inputs=lambda: [(_mul_name(root), (root, root))],
    )


def _sequence_op(key, build, length, expected):
    def check(seq):
        if len(seq) != length:
            return f"{len(seq)} members, not {length}"
        for i, poly in enumerate(seq):
            if poly.terms != expected(i):
                return f"member {i} differs from the closed form"
        return None

    return Op(
        key=key,
        call=build,
        check=check,
        digest=lambda seq: _fingerprint(dict(enumerate(_fingerprint(p.terms) for p in seq))),
    )


def _legacy_ops():
    """The five shapes of benchmarks/bench_kernels.py at scale 1."""
    small, big = oracles.qnum(40), oracles.qnum(400)
    h60 = oracles.homfly(60)
    step = {1: 1, -1: -1}
    unified = _sequence_op("unified recursion s=400",
                           lambda: knotpoly.alexander_unified_rec(400), 400,
                           lambda i: oracles.alexander(i + 1))
    unified.kernel_inputs = lambda: [("mul_terms", (step, oracles.alexander(s)))
                                     for s in range(2, 400)]
    coeff, a4 = {(4, 4): 1, (4, 0): 2}, {(8, 0): 1}
    homfly = _sequence_op("homfly recursion m=60", lambda: knotpoly.homfly_rec(60), 61,
                          oracles.homfly)
    homfly.kernel_inputs = lambda: [(n, (c, oracles.homfly(m))) for m in range(60)
                                    for n, c in (("bi_mul_terms", coeff), ("bi_mul_terms", a4))]
    return [_product_op("legacy-mul", small, big), _product_op("legacy-square", big, big),
            _product_op("legacy-bi-square", h60, h60), unified, homfly]


def _interleave(values):
    """``values`` reordered by a fixed stride coprime to their count, so
    per-stratum attributes pair up with sizes the same way for every seed."""
    k = len(values)
    step = next(s for s in (7, 5, 3, 1) if math.gcd(s, k) == 1)
    return [values[j * step % k] for j in range(k)]


def _attributes(k, choices):
    return _interleave([choices[j % len(choices)] for j in range(k)])


def _bit_widths(rng, k):
    """Coefficient widths from 1 to 64 bits, one per stratum."""
    return _interleave([min(64, 1 + round(63 * (j + 0.5 + rng.uniform(-JITTER, JITTER)) / k))
                        for j in range(k)])


def dense_arith(rng):
    ops = _legacy_ops()
    # dense x dense univariate, a quarter of them squares; sizes spaced
    # linearly, as the dense products are the bulk of the kernel work
    k = 36
    for j, (n, m, bits, stride) in enumerate(zip(
            _sizes(rng, k, 100, 1000, log=False), reversed(_sizes(rng, k, 100, 1000, log=False)),
            _bit_widths(rng, k), _attributes(k, (1, 2, 4)))):
        a = _uni(rng, n, bits, stride)
        b = a if j % 4 == 0 else _uni(rng, m, bits, stride)
        ops.append(_product_op("uni-mul", a, b))
    # bivariate: HOMFLY members and random operands
    for m1, m2 in zip(_sizes(rng, 8, 8, 60), reversed(_sizes(rng, 8, 8, 60))):
        ops.append(_product_op("homfly-mul", oracles.homfly(m1), oracles.homfly(m2)))
    for n, m, bits in zip(_sizes(rng, 12, 100, 1000, log=False),
                          reversed(_sizes(rng, 12, 100, 1000, log=False)), _bit_widths(rng, 12)):
        ops.append(_product_op("bi-mul", _bi(rng, n, bits), _bi(rng, m, bits)))
    # small-base powers p ** k, k in 2..8
    for n, k_pow, bits, stride in zip(_sizes(rng, 14, 10, 100), _attributes(14, range(2, 9)),
                                      _attributes(14, (1, 4, 8, 16)),
                                      _attributes(14, (1, 2, 4))):
        ops.append(_pow_op(_uni(rng, n, bits, stride), k_pow))
    # square roots of generated squares
    for n, bits, stride in zip(_sizes(rng, 12, 100, 600), _attributes(12, (1, 8, 16, 32)),
                               _attributes(12, (1, 2, 4))):
        ops.append(_sqrt_op(_uni(rng, n, bits, stride)))
    for n, bits in zip(_sizes(rng, 8, 20, 150), _attributes(8, (1, 4, 8, 16))):
        ops.append(_sqrt_op(_bi(rng, n, bits)))
    # unbalanced: a short operand against a long one
    for n, m, bits, stride in zip(_sizes(rng, 16, 2, 40), _sizes(rng, 16, 200, 2000),
                                  _bit_widths(rng, 16), _attributes(16, (1, 2, 4))):
        ops.append(_product_op("unbalanced", _uni(rng, n, bits, stride),
                               _uni(rng, m, bits, stride)))
    return ops


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "print-tables": print_tables,
    "dense-arith": dense_arith,
}


def generate(workload, seed):
    """The op list for ``workload`` at ``seed``, in execution order, and
    its id: a hash of every op's description."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    ident = hashlib.sha256("\n".join(op.key for op in ops).encode()).hexdigest()
    return ops, ident

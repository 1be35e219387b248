"""Acceptance suite: every release criterion, at full scale.

The identities of criteria 2-6 are registry runs: one parametrised row
per suite, and the identity-lattice suite split over criteria 2, 3 and
5.  Every registry entry is an exact identity, the skein triples on the
closed forms included, except the float-sampled trigonometric values,
and each one has a negative control.  Every criterion test prints a
single PASS line when it completes (visible with ``pytest -s``).  A
failing criterion shows up as the test failure itself.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from knotpoly import (
    BiPoly,
    LaurentPoly,
    RadicalExpr,
    alexander_closed,
    compose_skein,
    derive_skein,
    homfly_closed,
    homfly_from_alexander,
    homfly_rec,
    verify_skein,
)
from knotpoly import identities
from knotpoly.cli import run

from support import bi_polys, bi_polys_integral, laurent_polys

KNOT_TABLE = [
    "m=0: 1",
    "m=1: t - 1 + t^(-1)",
    "m=2: t^2 - t + 1 - t^(-1) + t^(-2)",
    "m=3: t^3 - t^2 + t - 1 + t^(-1) - t^(-2) + t^(-3)",
]

LINK_TABLE = [
    "m=1/2: t^(1/2) - t^(-1/2)",
    "m=3/2: t^(3/2) - t^(1/2) + t^(-1/2) - t^(-3/2)",
    "m=5/2: t^(5/2) - t^(3/2) + t^(1/2) - t^(-1/2) + t^(-3/2) - t^(-5/2)",
]

UNIFIED_TABLE = [
    "s=1: 1",
    "s=2: t^(1/2) - t^(-1/2)",
    "s=3: t - 1 + t^(-1)",
    "s=4: t^(3/2) - t^(1/2) + t^(-1/2) - t^(-3/2)",
    "s=5: t^2 - t + 1 - t^(-1) + t^(-2)",
    "s=6: t^(5/2) - t^(3/2) + t^(1/2) - t^(-1/2) + t^(-3/2) - t^(-5/2)",
    "s=7: t^3 - t^2 + t - 1 + t^(-1) - t^(-2) + t^(-3)",
]

HOMFLY_TABLE = [
    "m=0: 1",
    "m=1: 2a^2 + a^2z^2 - a^4",
    "m=2: 3a^4 + 4a^4z^2 + a^4z^4 - 2a^6 - a^6z^2",
    "m=3: 4a^6 + 10a^6z^2 + 6a^6z^4 + a^6z^6 - 3a^8 - 4a^8z^2 - a^8z^4",
]


QNUM_TABLE = ["n=1: 1", "n=2: q + q^(-1)", "n=3: q^2 + 1 + q^(-2)"]

QPNUM_TABLE = ["n=1: 1", "n=2: q + p", "n=3: q^2 + qp + p^2"]

CHEB_FIRST_TABLE = ["n=0: 2", "n=1: x", "n=2: x^2 - 2", "n=3: x^3 - 3x"]

CHEB_SECOND_TABLE = ["n=0: 1", "n=1: x", "n=2: x^2 - 1", "n=3: x^3 - 2x"]


def test_criterion_1_table_reproduction(capsys):
    cases = [
        (["table", "alexander-knots", "--max", "3"], KNOT_TABLE),
        (["table", "alexander-links", "--max", "3"], LINK_TABLE),
        (["table", "unified", "--max", "7"], UNIFIED_TABLE),
        (["table", "homfly", "--max", "3"], HOMFLY_TABLE),
        (["table", "qnum", "--max", "3"], QNUM_TABLE),
        (["table", "qpnum", "--max", "3"], QPNUM_TABLE),
        (["table", "chebyshev-first", "--max", "3"], CHEB_FIRST_TABLE),
        (["table", "chebyshev-second", "--max", "3"], CHEB_SECOND_TABLE),
    ]
    for argv, expected in cases:
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == "".join(line + "\n" for line in expected)
    print("criterion 1 (byte-level table reproduction): PASS")


# Criteria 2-6 as far as the identity registry carries them: every
# identity of the suite holds at the index range, checked exactly except
# for the trigonometric values.
REGISTRY_RUNS = [
    ("knot-recurrence", 100, 101),      # criterion 2
    ("qnum-oracle", 500, 1002),         # criterion 2
    ("chebyshev-identity", 500, 499),   # criterion 3
    ("alexander-chebyshev", 200, 200),  # criterion 3
    ("qp-specialization", 100, 101),    # criterion 3
    ("homfly-bridge", 100, 100),        # criterion 4
    ("unified-skein", 200, 198),        # criterion 5
    ("trig", 50, 1200),                 # criterion 6, at 1e-9
    ("closed-forms", 200, 804),         # criterion 2
]


@pytest.mark.parametrize("suite, max_n, expected_total", REGISTRY_RUNS)
def test_criteria_2_to_6_registry(suite, max_n, expected_total):
    assert identities.run(suite, max_n) == (expected_total, expected_total, [])


def test_numeric_entries_hold_at_the_largest_supported_n(monkeypatch):
    # every float sample, checked at n = NUMERIC_MAX_N alone
    n = identities.NUMERIC_MAX_N
    numeric = tuple(i._replace(start=n) for i in identities.IDENTITIES if i.mode == "numeric")
    monkeypatch.setattr(identities, "IDENTITIES", numeric)
    assert identities.run("trig", n) == (24, 24, [])


# The identity-lattice suite, split by the criterion each entry belongs
# to: together the three criterion tests below run the whole suite at 200.
LATTICE_CRITERIA = {
    2: ("unified recurrence vs closed form",),
    3: ("knot member via q-numbers",
        "second kind at t + 1/t as q-number",
        "q,p second kind at (t, 1/t) as q-number",
        "q,p knot member recurrence",
        "r,x knot member as r^n(V_n - r V_(n-1))"),
    5: ("HOMFLY knot skein triple",),
}


def test_lattice_criteria_cover_the_suite():
    names = [name for group in LATTICE_CRITERIA.values() for name in group]
    assert sorted(names) == sorted(
        i.name for i in identities.IDENTITIES if i.suite == "identity-lattice")


def _run_lattice_criterion(monkeypatch, criterion):
    names = LATTICE_CRITERIA[criterion]
    monkeypatch.setattr(identities, "IDENTITIES",
                        tuple(i for i in identities.IDENTITIES if i.name in names))
    return identities.run("identity-lattice", 200)


def test_criterion_2_recurrence_vs_closed_forms(monkeypatch):
    assert _run_lattice_criterion(monkeypatch, 2) == (200, 200, [])
    print("criterion 2 (recurrence vs closed-form oracles): PASS")


def test_criterion_3_identity_lattice(monkeypatch):
    assert _run_lattice_criterion(monkeypatch, 3) == (1002, 1002, [])
    print("criterion 3 (identity lattice): PASS")


def test_criterion_5_skein_verification(monkeypatch):
    a, z = BiPoly.gens(("a", "z"))
    homfly = verify_skein([homfly_closed(m) for m in range(201)], *compose_skein(a * z, a**2))
    assert homfly.all_ok and len(homfly.checks) == 199
    half_diff = LaurentPoly({1: 1, -1: -1})
    unified = verify_skein([alexander_closed(s) for s in range(1, 201)], half_diff, 1)
    assert unified.all_ok and len(unified.checks) == 198
    assert _run_lattice_criterion(monkeypatch, 5) == (199, 199, [])
    print("criterion 5 (skein verification): PASS")


def _perturbation(ident):
    """The side to break and how: rhs + 1 at ``start + 1`` for an exact
    entry, lhs + 1 at ``start + 1`` for a numeric one."""
    at = ident.start + 1
    return "rhs" if ident.mode == "exact" else "lhs", lambda side, n: side + int(n == at)


# negative controls: every entry reports its own failure, by name and
# index; the first row also pins the failure line of the numeric mode
# (test_cli pins exact)
@pytest.mark.parametrize("name, field, perturb, failure", [
    ("q-number", "lhs", lambda side, n: side + int(n == 2), "q-number n=2: theta=0.3 error 1.00e+00"),
    *(pytest.param(ident.name, *_perturbation(ident), None, id=ident.name)
      for ident in identities.IDENTITIES),
])
def test_registry_catches_a_perturbed_side(monkeypatch, name, field, perturb, failure):
    ident = next(i for i in identities.IDENTITIES if i.name == name)
    side = getattr(ident, field)
    broken = ident._replace(**{field: lambda seq, n: perturb(side(seq, n), n)})
    monkeypatch.setattr(identities, "IDENTITIES", (broken,))
    passed, total, failures = identities.run(ident.suite, 4)
    assert passed < total
    assert all(line.startswith(f"{name} n={ident.start + 1}: ") for line in failures)
    assert failure is None or failures[0] == failure


# negative controls on the declarations: the two recurrence entries step by
# the builders' own _Recurrence, looked up in identities, so a declaration
# with a perturbed c1 or c2 fails every triple
@pytest.mark.parametrize("attr, name", [
    ("_UNIFIED_REC", "unified skein triple"),
    ("_QPNUM_REC", "q,p knot member recurrence"),
])
@pytest.mark.parametrize("field", ["c1", "c2"])
def test_registry_reads_the_declared_recurrence(monkeypatch, attr, name, field):
    ident = next(i for i in identities.IDENTITIES if i.name == name)
    rec = getattr(identities, attr)
    monkeypatch.setattr(identities, attr, replace(rec, **{field: getattr(rec, field) + 1}))
    monkeypatch.setattr(identities, "IDENTITIES", (ident,))
    passed, total, failures = identities.run(ident.suite, 6)
    assert passed == 0
    assert failures == [f"{name} n={n}: sides differ" for n in range(ident.start, 7)]


# negative controls on the paper's claim: the skein triples compare the
# closed forms, so one member off by one fails exactly the triples through
# it, n = k, k + 1 and k + 2 from the entry's start on
@pytest.mark.parametrize("builder, name", [
    ("alexander_closed", "unified skein triple"),
    ("homfly_closed", "HOMFLY knot skein triple"),
])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_skein_triples_catch_a_perturbed_closed_form(monkeypatch, builder, name, k):
    ident = next(i for i in identities.IDENTITIES if i.name == name)
    closed = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda index: closed(index) + int(index == k))
    passed, total, failures = identities.run(ident.suite, 10)
    at = [n for n in (k, k + 1, k + 2) if ident.start <= n <= 10]
    assert failures == [f"{name} n={n}: sides differ" for n in at]
    assert passed == total - len(at)


def test_criterion_4_homfly_bridge_and_skein_pairs():
    assert homfly_from_alexander(0) == homfly_rec(0)[0]

    t2, _ = BiPoly.gens(("t", "u"))
    t2_inv = BiPoly.from_terms([((-1, 0), 1)], ("t", "u"))
    half_diff = BiPoly.from_terms(
        [((Fraction(1, 2), 0), 1), ((Fraction(-1, 2), 0), -1)], ("t", "u")
    )
    r, x = BiPoly.gens(("r", "x"))
    a, z = BiPoly.gens(("a", "z"))

    pairs = [
        # (c1, c2, expected b1, expected b2)
        (t2 + t2_inv, BiPoly.constant(-1, ("t", "u")), RadicalExpr(half_diff), BiPoly.one(("t", "u"))),
        (r * x, -(r**2), RadicalExpr(r.sqrt().prefactor, x - 2), r),
        (a**2 * z**2 + 2 * a**2, -(a**4), RadicalExpr(a * z), a**2),
    ]
    for c1, c2, b1_expected, b2_expected in pairs:
        coeffs = derive_skein(c1, c2)
        assert coeffs.b1 == b1_expected
        assert coeffs.b2 == b2_expected
        assert compose_skein(coeffs.b1, coeffs.b2) == (c1, c2)
    print("criterion 4 (HOMFLY bridge and skein coefficient pairs): PASS")


def test_criterion_7_forced_evaluations():
    for s in range(1, 201):
        poly = alexander_closed(s)
        assert poly.eval_complex(1) == (1 if s % 2 else 0)
        flipped = poly.invert_variable()
        assert flipped == (poly if s % 2 else -poly)
        assert poly.degree() == Fraction(s - 1, 2)
    print("criterion 7 (forced evaluations): PASS")


THOROUGH = settings(max_examples=1000, deadline=None)


@THOROUGH
@given(a=laurent_polys(), b=laurent_polys(), c=laurent_polys())
def test_criterion_8a_univariate_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    for poly in (a + b, a * b, a - c, -a):
        assert all(coeff != 0 for coeff in poly.terms.values())


@THOROUGH
@given(f=bi_polys(), g=bi_polys(), h=bi_polys())
def test_criterion_8b_bivariate_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    for poly in (f + g, f - g, f * g, -f):
        assert all(coeff != 0 for coeff in poly.terms.values())


@THOROUGH
@given(p=laurent_polys(nonzero=True))
def test_criterion_8c_sqrt_round_trip(p):
    root = (p * p).sqrt_perfect()
    assert root == (p if p.leading_coefficient() > 0 else -p)


@THOROUGH
@given(f=bi_polys_integral(), g=bi_polys_integral(), img_a=bi_polys(max_terms=3), img_b=bi_polys(max_terms=3))
def test_criterion_8d_substitution_homomorphism(f, g, img_a, img_b):
    assert (f * g).substitute(img_a, img_b) == f.substitute(img_a, img_b) * g.substitute(img_a, img_b)
    assert (f + g).substitute(img_a, img_b) == f.substitute(img_a, img_b) + g.substitute(img_a, img_b)


def test_criterion_8_reported():
    print("criterion 8 (randomised property tests, 1000 cases each): PASS")

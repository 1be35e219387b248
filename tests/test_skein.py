from fractions import Fraction

import pytest

from knotpoly import (
    BiPoly,
    LaurentPoly,
    RadicalExpr,
    TripleCheck,
    alexander_rx,
    alexander_unified_rec,
    compose_skein,
    derive_skein,
    homfly_rec,
    verify_skein,
)
from knotpoly.errors import NonPolynomialB2

r, x = BiPoly.gens(("r", "x"))
a, z = BiPoly.gens(("a", "z"))
t2, _u = BiPoly.gens(("t", "u"))
t2_inv = BiPoly.from_terms([((-1, 0), 1)], ("t", "u"))
HALF_DIFF = BiPoly.from_terms(
    [((Fraction(1, 2), 0), 1), ((Fraction(-1, 2), 0), -1)], ("t", "u")
)

CLASSICAL = (t2 + t2_inv, BiPoly.constant(-1, ("t", "u")))
RX = (r * x, -(r**2))
AZ = (a**2 * z**2 + 2 * a**2, -(a**4))


class TestDerive:
    def test_classical_pair(self):
        coeffs = derive_skein(*CLASSICAL)
        assert coeffs.b2 == 1
        assert coeffs.b1.is_polynomial
        assert coeffs.b1.prefactor == HALF_DIFF

    def test_scale_trace_pair(self):
        coeffs = derive_skein(*RX)
        assert coeffs.b2 == r
        assert coeffs.b1.prefactor.terms == {(1, 0): 1}  # sqrt(r)
        assert [rad.terms for rad in coeffs.b1.radicands] == [{(0, 2): 1, (0, 0): -2}]

    def test_homfly_pair(self):
        coeffs = derive_skein(*AZ)
        assert coeffs.b2 == a**2
        assert coeffs.b1.is_polynomial
        assert coeffs.b1.prefactor == a * z

    def test_squaring_consistency(self):
        for c1, c2 in (CLASSICAL, RX, AZ):
            coeffs = derive_skein(c1, c2)
            assert coeffs.b1.square() == c1 - 2 * coeffs.b2
            assert coeffs.b2 * coeffs.b2 == -c2

    def test_nonpolynomial_b2_rejected(self):
        with pytest.raises(NonPolynomialB2):
            derive_skein(r * x, -(x - 2))  # -c2 = x - 2 has no polynomial root

    def test_zero_c2(self):
        coeffs = derive_skein(x * x, BiPoly.zero(("r", "x")))
        assert coeffs.b2.is_zero
        assert coeffs.b1.prefactor == x


class TestCompose:
    def test_classical(self):
        c1, c2 = compose_skein(RadicalExpr(HALF_DIFF), BiPoly.one(("t", "u")))
        assert (c1, c2) == CLASSICAL

    def test_homfly(self):
        c1, c2 = compose_skein(RadicalExpr(a * z), a**2)
        assert c1 == a**2 * z**2 + 2 * a**2
        assert c2 == -(a**4)

    def test_radical_input(self):
        coeffs = derive_skein(*RX)
        assert compose_skein(coeffs.b1, coeffs.b2) == RX

    def test_degenerate_zero_b1(self):
        c1, c2 = compose_skein(
            RadicalExpr(BiPoly.zero(("t", "u"))), BiPoly.one(("t", "u"))
        )
        assert c1 == 2
        assert c2 == -1

    def test_accepts_plain_polynomial_b1(self):
        c1, c2 = compose_skein(a * z, a**2)
        assert (c1, c2) == compose_skein(RadicalExpr(a * z), a**2)

    def test_round_trips_with_derive(self):
        for c1, c2 in (CLASSICAL, RX, AZ):
            coeffs = derive_skein(c1, c2)
            assert compose_skein(coeffs.b1, coeffs.b2) == (c1, c2)


class TestVerify:
    def test_unified_sequence_passes(self):
        seq = alexander_unified_rec(12)
        b1 = LaurentPoly.from_terms(
            [(Fraction(1, 2), 1), (Fraction(-1, 2), -1)], variable="t"
        )
        report = verify_skein(seq, b1, 1)
        assert report.all_ok
        assert len(report.checks) == 10
        assert report.summary() == "10/10 triples satisfy the skein relation"

    def test_homfly_sequence_passes_composed_pair(self):
        # consecutive knot members skip the interleaved links, so they
        # satisfy the composed coefficients (b1^2 + 2 b2, -b2^2)
        c1, c2 = compose_skein(RadicalExpr(a * z), a**2)
        report = verify_skein(homfly_rec(12), c1, c2)
        assert report.all_ok

    def test_homfly_sequence_rejects_stepwise_pair(self):
        # the raw stepwise pair needs the link members in between; on the
        # knot-only list every triple must fail
        report = verify_skein(homfly_rec(8), a * z, a**2)
        assert not any(c.ok for c in report.checks)

    def test_rx_sequence_passes_composed_pair(self):
        seq = [alexander_rx(n) for n in range(12)]
        report = verify_skein(seq, r * x, -(r**2))
        assert report.all_ok

    def test_perturbed_coefficient_fails(self):
        seq = alexander_unified_rec(10)
        b1 = LaurentPoly.from_terms(
            [(Fraction(1, 2), 1), (Fraction(-1, 2), -1)], variable="t"
        )
        report = verify_skein(seq, b1, 2)
        assert not report.all_ok
        assert not report.checks[0].ok

    def test_radical_stepwise_pair_fails_symbolically(self):
        seq = [alexander_rx(n) for n in range(8)]
        coeffs = derive_skein(*RX)
        report = verify_skein(seq, coeffs.b1, coeffs.b2)
        assert len(report.checks) == 6
        # stepwise coefficients cannot hold on the knot-only list
        assert not any(c.ok for c in report.checks)

    @pytest.mark.parametrize("third, detail", [
        # at (r, x) = (1, 3) b1 evaluates to 1, so 1, 1, 2 holds at that
        # point; exactly it does not
        (2, "residue 2 - r - (r^(1/2)) * sqrt(x - 2)"),
        # r - r * 1 = 0 leaves only the radical part b1 * P_1
        (r, "residue 0 - (r^(1/2)) * sqrt(x - 2)"),
    ], ids=["1-1-2", "1-1-r"])
    def test_radical_b1_rejects_false_relation(self, third, detail):
        b1 = (r * x - 2 * r).sqrt()
        one = BiPoly.one(("r", "x"))
        report = verify_skein([one, one, third * one], b1, r)
        assert report.checks == [TripleCheck(2, False, detail)]

    def test_radical_b1_accepts_true_relation(self):
        # r = b1 * 0 + r * 1: P_1 = 0 clears the radical part
        b1 = (r * x - 2 * r).sqrt()
        seq = [BiPoly.one(("r", "x")), BiPoly.zero(("r", "x")), r]
        report = verify_skein(seq, b1, r)
        assert report.all_ok

    def test_radical_b1_with_square_radicand_product(self):
        # sqrt(x + 1) * sqrt(x + 1) = x + 1, so b1 is the polynomial x + 1
        b1 = RadicalExpr(BiPoly.one(("r", "x")), [x + 1, x + 1])
        assert b1 == RadicalExpr(x + 1)
        assert not b1.radicands
        report = verify_skein([BiPoly.one(("r", "x")), x, x**2 + x + 1], b1, 1)
        assert report.all_ok

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            verify_skein([BiPoly.one(), BiPoly.one()], a * z, a**2)

    def test_bivariate_radical_b1_with_univariate_sequence_raises(self):
        seq = alexander_unified_rec(5)
        radical = (x - 2).sqrt()
        with pytest.raises(TypeError):
            verify_skein(seq, radical, 1)

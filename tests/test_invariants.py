from fractions import Fraction

import pytest

from knotpoly import (
    BiPoly,
    LaurentPoly,
    TorusIndex,
    alexander_closed,
    alexander_from_qnum,
    alexander_knot_rec,
    alexander_qp,
    alexander_rx,
    alexander_unified_rec,
    homfly_from_alexander,
    homfly_rec,
)

q, p = BiPoly.gens(("q", "p"))
r, x = BiPoly.gens(("r", "x"))
a, z = BiPoly.gens(("a", "z"))


class TestTorusIndex:
    def test_degree_and_kind(self):
        assert TorusIndex(1).m == 0 and TorusIndex(1).is_knot
        assert TorusIndex(2).m == Fraction(1, 2) and TorusIndex(2).is_link
        assert TorusIndex(7).m == 3 and not TorusIndex(7).is_link

    @pytest.mark.parametrize("bad", [0, -3, Fraction(3, 2), True])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TorusIndex(bad)


class TestAlexanderClosed:
    def test_unknot(self):
        assert alexander_closed(1) == 1

    def test_hopf_link(self):
        assert str(alexander_closed(2)) == "t^(1/2) - t^(-1/2)"

    def test_five_crossings(self):
        assert str(alexander_closed(5)) == "t^2 - t + 1 - t^(-1) + t^(-2)"

    def test_accepts_torus_index(self):
        assert alexander_closed(TorusIndex(3)) == alexander_closed(3)

    def test_degree_matches_index(self):
        for s in range(1, 40):
            assert alexander_closed(s).degree() == Fraction(s - 1, 2)

    def test_value_at_one(self):
        for s in range(1, 40):
            value = alexander_closed(s).eval_complex(1)
            assert value == (1 if s % 2 else 0)

    def test_palindromic_up_to_sign(self):
        for s in range(1, 40):
            poly = alexander_closed(s)
            flipped = poly.invert_variable()
            assert flipped == (poly if s % 2 else -poly)


class TestRecurrences:
    def test_unified_entries(self):
        seq = alexander_unified_rec(9)
        assert str(seq[2]) == "t - 1 + t^(-1)"
        assert (
            str(seq[5])
            == "t^(5/2) - t^(3/2) + t^(1/2) - t^(-1/2) + t^(-3/2) - t^(-5/2)"
        )
        assert seq[8] == alexander_closed(9)

    def test_unified_minimal_call(self):
        assert alexander_unified_rec(1) == [LaurentPoly.one("t")]
        with pytest.raises(ValueError):
            alexander_unified_rec(0)

    def test_knot_entries(self):
        seq = alexander_knot_rec(6)
        assert seq[0] == 1
        assert str(seq[3]) == "t^3 - t^2 + t - 1 + t^(-1) - t^(-2) + t^(-3)"
        assert seq[6] == alexander_closed(13)


class TestQnumRoute:
    def test_values(self):
        assert alexander_from_qnum(0) == 1
        assert str(alexander_from_qnum(1)) == "t - 1 + t^(-1)"
        assert alexander_from_qnum(1).variable == "t"
        assert alexander_from_qnum(4) == alexander_closed(9)


class TestTwoVariableForms:
    def test_qp_seeds(self):
        assert alexander_qp(0) == 1
        assert alexander_qp(1) == q - q * p + p

    def test_qp_explicit(self):
        expected = q**2 + q * p + p**2 - q**2 * p - q * p**2
        assert alexander_qp(2) == expected

    def test_rx_seeds(self):
        assert alexander_rx(0) == 1
        assert alexander_rx(1) == r * x - r**2

    def test_rx_explicit(self):
        assert alexander_rx(2) == r**2 * x**2 - r**2 - r**3 * x


class TestHomfly:
    def test_table(self):
        table = homfly_rec(3)
        assert table[0] == 1
        assert str(table[1]) == "2a^2 + a^2z^2 - a^4"
        assert str(table[2]) == "3a^4 + 4a^4z^2 + a^4z^4 - 2a^6 - a^6z^2"
        assert (
            str(table[3])
            == "4a^6 + 10a^6z^2 + 6a^6z^4 + a^6z^6 - 3a^8 - 4a^8z^2 - a^8z^4"
        )

    def test_substitution_route(self):
        assert homfly_from_alexander(0) == 1
        assert homfly_from_alexander(1) == 2 * a**2 + a**2 * z**2 - a**4
        assert homfly_from_alexander(4) == homfly_rec(4)[4]

    def test_routes_agree(self):
        table = homfly_rec(25)
        for n in range(26):
            assert homfly_from_alexander(n) == table[n]

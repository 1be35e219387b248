import cmath
import math

import pytest

from knotpoly import (
    BiPoly,
    LaurentPoly,
    qnum_closed,
    qnum_rec,
    qnum_rec_seq,
    qpnum_closed,
    qpnum_rec,
    qpnum_rec_seq,
)

q, p = BiPoly.gens(("q", "p"))
t = LaurentPoly.gen("t")
t_inv = LaurentPoly.from_terms([(-1, 1)], "t")


class TestClosedForms:
    def test_first_values(self):
        assert qnum_closed(0).is_zero
        assert qnum_closed(1) == 1
        assert str(qnum_closed(2)) == "q + q^(-1)"
        assert str(qnum_closed(3)) == "q^2 + 1 + q^(-2)"
        assert str(qnum_closed(4)) == "q^3 + q + q^(-1) + q^(-3)"

    def test_qp_first_values(self):
        assert qpnum_closed(0).is_zero
        assert qpnum_closed(1) == 1
        assert qpnum_closed(2) == q + p
        assert qpnum_closed(3) == q**2 + q * p + p**2
        assert qpnum_closed(4) == q**3 + q**2 * p + q * p**2 + p**3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            qnum_closed(-1)
        with pytest.raises(ValueError):
            qpnum_closed(-2)

    def test_bool_index_rejected(self):
        with pytest.raises(ValueError):
            qnum_closed(True)
        with pytest.raises(ValueError):
            qpnum_rec_seq(False)


class TestRecurrences:
    def test_small_values(self):
        assert qnum_rec(2) == qnum_closed(2)
        assert qnum_rec(3) == qnum_closed(3)
        assert qnum_rec(7) == qnum_closed(7)
        assert qpnum_rec(0).is_zero
        assert qpnum_rec(2) == q + p
        assert qpnum_rec(5) == qpnum_closed(5)

    def test_sequences_match_closed_forms(self):
        for n, poly in enumerate(qnum_rec_seq(60)):
            assert poly == qnum_closed(n)
        for n, poly in enumerate(qpnum_rec_seq(60)):
            assert poly == qpnum_closed(n)


class TestIdentities:
    def test_specialization_to_one_parameter(self):
        for n in range(31):
            got = qpnum_closed(n).substitute(t, t_inv)
            assert got == qnum_closed(n)

    def test_classical_limit_at_one(self):
        for n in range(41):
            assert qnum_closed(n).eval_complex(1) == n

    def test_trig_ratio(self):
        for n in range(1, 13):
            poly = qnum_closed(n)
            for theta in (0.3, 0.7, 1.1, 2.0):
                got = poly.eval_complex(cmath.exp(1j * theta))
                want = math.sin(n * theta) / math.sin(theta)
                assert abs(got - want) <= 1e-9

    def test_scaled_trig_ratio(self):
        for n in range(1, 13):
            poly = qpnum_closed(n)
            for theta in (0.3, 0.7, 1.1, 2.0):
                for radius in (0.5, 1.0, 2.0):
                    point = (
                        radius * cmath.exp(1j * theta),
                        radius * cmath.exp(-1j * theta),
                    )
                    want = radius ** (n - 1) * math.sin(n * theta) / math.sin(theta)
                    got = poly.eval_complex(point)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

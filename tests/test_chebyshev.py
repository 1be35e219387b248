import math

from knotpoly import (
    BiPoly,
    cheb_first,
    cheb_first_seq,
    cheb_second,
    cheb_second_qp,
    cheb_second_rx,
    cheb_second_seq,
    qpnum_closed,
)

q, p = BiPoly.gens(("q", "p"))


class TestFirstKind:
    def test_values(self):
        assert cheb_first(0) == 2
        assert str(cheb_first(1)) == "x"
        assert str(cheb_first(2)) == "x^2 - 2"
        assert str(cheb_first(3)) == "x^3 - 3x"

    def test_monic_with_exact_degree(self):
        for n, poly in enumerate(cheb_first_seq(50)):
            if n >= 1:
                assert poly.leading_coefficient() == 1
                assert poly.degree() == n


class TestSecondKind:
    def test_values(self):
        assert cheb_second(0) == 1
        assert str(cheb_second(2)) == "x^2 - 1"
        assert str(cheb_second(3)) == "x^3 - 2x"

    def test_monic_with_exact_degree(self):
        for n, poly in enumerate(cheb_second_seq(50)):
            if n >= 1:
                assert poly.leading_coefficient() == 1
                assert poly.degree() == n


class TestBridges:
    def test_trig_values(self):
        for n in range(1, 13):
            tn = cheb_first(n)
            vn = cheb_second(n)
            for theta in (0.3, 0.7, 1.1, 2.0):
                x_val = 2.0 * math.cos(theta)
                assert abs(tn.eval_complex(x_val) - 2.0 * math.cos(n * theta)) <= 1e-9
                want = math.sin((n + 1) * theta) / math.sin(theta)
                assert abs(vn.eval_complex(x_val) - want) <= 1e-9


class TestTwoVariable:
    def test_qp_values(self):
        assert cheb_second_qp(0) == 1
        assert cheb_second_qp(1) == q + p
        assert cheb_second_qp(3) == q**3 + q**2 * p + q * p**2 + p**3

    def test_qp_equals_quantum_integer(self):
        for n in range(21):
            assert cheb_second_qp(n) == qpnum_closed(n + 1)

    def test_rx_values(self):
        r, x = BiPoly.gens(("r", "x"))
        assert cheb_second_rx(0) == 1
        assert cheb_second_rx(1) == r * x
        assert cheb_second_rx(2) == r**2 * x**2 - r**2

    def test_rx_is_scaled_classical(self):
        r, x = BiPoly.gens(("r", "x"))
        for n in range(16):
            embedded = BiPoly.from_terms(
                [((0, e), c) for e, c in zip(*_dense(cheb_second(n)))], ("r", "x")
            )
            assert cheb_second_rx(n) == r**n * embedded


def _dense(poly):
    exps = [num // 2 for num in sorted(poly.terms)]
    coeffs = [poly.terms[2 * e] for e in exps]
    return exps, coeffs

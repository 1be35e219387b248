import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotpoly import LaurentPoly
from knotpoly.errors import NonIntegralOuter, NotAPerfectSquare, ZeroBase

from support import laurent_polys, laurent_polys_integral, small_coefficients, wide_coefficients

t = LaurentPoly.gen("t")
t_inv = LaurentPoly.from_terms([(-1, 1)], "t")
half_diff = LaurentPoly.from_terms([(Fraction(1, 2), 1), (Fraction(-1, 2), -1)], "t")


class TestConstruction:
    def test_empty_is_zero(self):
        assert LaurentPoly.from_terms([]).is_zero
        assert LaurentPoly.from_terms([]) == LaurentPoly.zero()

    def test_trefoil_terms(self):
        poly = LaurentPoly.from_terms([(1, 1), (-1, 1), (0, -1)])
        assert poly.terms == {2: 1, -2: 1, 0: -1}
        assert poly == t - 1 + t_inv

    def test_cancellation(self):
        poly = LaurentPoly.from_terms([(Fraction(1, 2), 1), (Fraction(1, 2), -1)])
        assert poly.is_zero

    def test_whole_fraction_and_float_exponents(self):
        assert LaurentPoly.from_terms([(Fraction(4, 2), 2), (-1.0, 3)]) == 2 * t**2 + 3 * t_inv

    def test_rejects_off_lattice_exponents(self):
        with pytest.raises(ValueError):
            LaurentPoly.from_terms([(Fraction(1, 3), 1)])
        with pytest.raises(ValueError):
            LaurentPoly.monomial(0, 0.3)

    def test_no_zero_coefficients_stored(self):
        poly = LaurentPoly([(2, 5), (2, -5), (0, 3)])
        assert poly.terms == {0: 3}

    def test_equality_ignores_variable_name(self):
        assert LaurentPoly.gen("t") == LaurentPoly.gen("q")
        assert hash(LaurentPoly.gen("t")) == hash(LaurentPoly.gen("q"))


class TestArithmetic:
    def test_add(self):
        assert (t + t_inv).terms == {2: 1, -2: 1}

    def test_half_difference_square(self):
        assert half_diff * half_diff == t - 2 + t_inv

    def test_mul_by_zero_absorbs(self):
        poly = LaurentPoly.from_terms([(3, 2), (-1, 7)])
        assert (poly * LaurentPoly.zero()).is_zero
        assert (poly * 0).is_zero

    def test_pow(self):
        assert (t + 1) ** 2 == t * t + 2 * t + 1
        assert half_diff**0 == 1

    def test_pow_negative_raises(self):
        with pytest.raises(ValueError):
            t**-1

    def test_int_coercion(self):
        assert 1 + t == t + 1
        assert 2 - t == -(t - 2)
        assert 3 * t == t * 3


class TestCompose:
    def test_identity_outer(self):
        poly = LaurentPoly.from_terms([(2, 3), (Fraction(-1, 2), 1)])
        assert LaurentPoly.gen("x").compose(poly) == poly

    def test_second_kind_bridge(self):
        outer = LaurentPoly.from_terms([(2, 1), (0, -1)], "x")  # x^2 - 1
        assert outer.compose(t + t_inv) == LaurentPoly.from_terms(
            [(2, 1), (0, 1), (-2, 1)]
        )

    def test_cubic(self):
        outer = LaurentPoly.from_terms([(3, 1), (1, -2)], "x")  # x^3 - 2x
        expected = LaurentPoly.from_terms([(3, 1), (1, 1), (-1, 1), (-3, 1)])
        assert outer.compose(t + t_inv) == expected

    def test_rejects_negative_exponent(self):
        with pytest.raises(NonIntegralOuter):
            t_inv.compose(t)

    def test_rejects_half_exponent(self):
        with pytest.raises(NonIntegralOuter):
            half_diff.compose(t)

    def test_zero_outer(self):
        assert LaurentPoly.zero().compose(t + 1).is_zero


class TestSqrtPerfect:
    def test_symmetric_half_root(self):
        assert (t - 2 + t_inv).sqrt_perfect() == half_diff

    def test_one(self):
        assert LaurentPoly.one().sqrt_perfect() == 1

    def test_integer_spread(self):
        poly = LaurentPoly.from_terms([(2, 1), (0, 2), (-2, 1)])
        assert poly.sqrt_perfect() == t + t_inv

    def test_monomial(self):
        assert LaurentPoly.from_terms([(3, 4)]).sqrt_perfect() == LaurentPoly.from_terms(
            [(Fraction(3, 2), 2)]
        )

    def test_zero_is_its_own_root(self):
        root = LaurentPoly.zero("q").sqrt_perfect()
        assert root.is_zero
        assert root.variable == "q"

    def test_root_of_square_with_cancelled_term(self):
        # (t^2 + 2t - 2)^2 has no t^2 term, so the long division must add
        # that key to its remainder
        square = LaurentPoly.from_terms([(4, 1), (3, 4), (1, -8), (0, 4)])
        assert square == (t**2 + 2 * t - 2) ** 2
        assert square.sqrt_perfect() == t**2 + 2 * t - 2

    @pytest.mark.parametrize(
        "poly",
        [
            t + 1,
            LaurentPoly.constant(2),
            LaurentPoly.constant(-1),
            LaurentPoly.gen_sqrt(),
            LaurentPoly.from_terms([(2, 1), (0, 1), (-2, 1)]),
        ],
    )
    def test_not_a_square_raises(self, poly):
        with pytest.raises(NotAPerfectSquare):
            poly.sqrt_perfect()

    def test_not_a_square_message_is_bounded(self):
        # the text of a 5000-digit int passes Python's default 4300-digit
        # limit, so a message that printed the terms would raise ValueError
        with pytest.raises(NotAPerfectSquare) as info:
            LaurentPoly({0: 10**5000, 2: 1, 4: 1}).sqrt_perfect()
        assert len(str(info.value)) < 200


class TestEval:
    def test_counts_alternating_coefficients(self):
        assert (t - 1 + t_inv).eval_complex(1) == 1

    def test_trig_ratio(self):
        theta = 0.7
        q3 = LaurentPoly.from_terms([(2, 1), (0, 1), (-2, 1)])
        got = q3.eval_complex(cmath.exp(1j * theta))
        assert abs(got - math.sin(3 * theta) / math.sin(theta)) < 1e-9

    def test_half_exponents_principal_root(self):
        assert half_diff.eval_complex(4) == pytest.approx(1.5)

    def test_zero_base_raises_with_negative_exponents(self):
        with pytest.raises(ZeroBase):
            t_inv.eval_complex(0)

    def test_zero_base_ok_without_negative_exponents(self):
        assert (t - 1).eval_complex(0) == -1


class TestRender:
    def test_trefoil_text(self):
        assert str(t - 1 + t_inv) == "t - 1 + t^(-1)"

    def test_zero(self):
        assert LaurentPoly.zero().render() == "0"

    def test_half_exponents(self):
        assert str(half_diff) == "t^(1/2) - t^(-1/2)"

    def test_coefficients_and_powers(self):
        poly = LaurentPoly.from_terms([(2, -3), (1, 1), (0, 5)])
        assert str(poly) == "-3t^2 + t + 5"

    def test_json_schema(self):
        obj = json.loads(half_diff.render("json"))
        assert obj == {
            "variable": "t",
            "den": 2,
            "terms": [{"num": 1, "coeff": "1"}, {"num": -1, "coeff": "-1"}],
        }

    def test_json_round_trip_bytes(self):
        poly = LaurentPoly.from_terms([(5, 12345678901234567890), (-3, -7)])
        text = poly.render("json")
        again = LaurentPoly.from_json_dict(json.loads(text))
        assert again == poly
        assert again.render("json") == text

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            t.render("latex")


class TestQueries:
    def test_degree(self):
        assert (t - 1 + t_inv).degree() == 1
        assert half_diff.degree() == Fraction(1, 2)
        assert half_diff.min_degree() == Fraction(-1, 2)

    def test_degree_of_zero_raises(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().degree()
        with pytest.raises(ValueError):
            LaurentPoly.zero().min_degree()

    def test_leading_coefficient(self):
        assert (2 * t - 5).leading_coefficient() == 2
        assert LaurentPoly.zero().leading_coefficient() == 0

    def test_coefficient_lookup(self):
        assert half_diff.coefficient(Fraction(-1, 2)) == -1
        assert half_diff.coefficient(3) == 0

    def test_invert_variable(self):
        assert half_diff.invert_variable() == -half_diff
        assert (t + 2).invert_variable() == t_inv + 2


class TestProperties:
    @given(p=laurent_polys(nonzero=True, strides=(1, 2, 4), coeffs=wide_coefficients))
    def test_sqrt_round_trip(self, p):
        root = (p * p).sqrt_perfect()
        expected = p if p.leading_coefficient() > 0 else -p
        assert root == expected

    @given(
        p=laurent_polys(max_terms=6, nonzero=True, coeffs=small_coefficients),
        u=st.integers(1, 6).map(lambda num: LaurentPoly({num: 1})),
    )
    def test_sqrt_round_trip_with_cancellations(self, p, u):
        # (1 + 2u - 2u^2)^2 has no u^2 term, so these squares often lack a
        # key that the long division passes through
        p = p * (1 + 2 * u - 2 * u * u)
        root = (p * p).sqrt_perfect()
        assert root == (p if p.leading_coefficient() > 0 else -p)

    @given(a=laurent_polys_integral(), b=laurent_polys_integral(), g=laurent_polys(max_terms=4))
    def test_compose_is_ring_homomorphism(self, a, b, g):
        assert (a * b).compose(g) == a.compose(g) * b.compose(g)
        assert (a + b).compose(g) == a.compose(g) + b.compose(g)

    @given(
        f=st.lists(
            st.tuples(st.integers(0, 4).map(lambda k: 2 * k), st.integers(-9, 9)),
            max_size=4,
        ).map(LaurentPoly),
        g=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=3
        ).map(LaurentPoly),
    )
    def test_compose_eval_consistency(self, f, g):
        z = cmath.exp(0.9j)
        lhs = f.compose(g).eval_complex(z)
        rhs = f.eval_complex(g.eval_complex(z))
        # scale by a worst-case magnitude bound so cancellation-heavy
        # inputs do not demand more precision than floats carry
        inner_bound = sum(abs(c) for c in g.terms.values())
        outer_bound = sum(
            abs(c) * max(1.0, inner_bound) ** (n // 2) for n, c in f.terms.items()
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, outer_bound)

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotpoly import BiPoly, LaurentPoly, RadicalExpr
from knotpoly.errors import NonIntegralOuter, UnresolvedRadical, ZeroBase

from support import bi_polys, bi_polys_integral, small_coefficients

q, p = BiPoly.gens(("q", "p"))
r, x = BiPoly.gens(("r", "x"))
a, z = BiPoly.gens(("a", "z"))
t = LaurentPoly.gen("t")
t_inv = LaurentPoly.from_terms([(-1, 1)], "t")


def _c(value):
    return BiPoly.constant(value, ("r", "x"))


class TestConstruction:
    def test_gens(self):
        assert q.terms == {(2, 0): 1}
        assert p.terms == {(0, 2): 1}

    def test_from_terms_sums_duplicates(self):
        poly = BiPoly.from_terms([((1, 0), 2), ((1, 0), -2), ((0, 0), 1)])
        assert poly == 1

    def test_equality_positional_not_by_name(self):
        assert q + p == r + x

    def test_add(self):
        assert (q + p).terms == {(2, 0): 1, (0, 2): 1}

    def test_mul(self):
        assert (q * p).terms == {(2, 2): 1}

    def test_pow_square(self):
        assert (q + p) ** 2 == q * q + 2 * q * p + p * p

    def test_pow_negative_raises(self):
        with pytest.raises(ValueError):
            (q + p) ** -1


class TestSubstitute:
    def test_bridge_seed(self):
        f = r * x - r * r
        a_sq = a * a
        z_sq_plus_2 = z * z + 2
        expected = 2 * a**2 + a**2 * z**2 - a**4
        assert f.substitute(a_sq, z_sq_plus_2) == expected

    def test_constant_unchanged(self):
        assert BiPoly.one(("r", "x")).substitute(a * a, z * z + 2) == 1

    def test_monomial(self):
        f = r * r * x
        expected = a**4 * z**2 + 2 * a**4
        assert f.substitute(a * a, z * z + 2) == expected

    def test_to_univariate(self):
        assert (q + p).substitute(t, t_inv) == t + t_inv
        assert (q - q * p + p).substitute(t, t_inv) == t - 1 + t_inv
        got = (q**2 + q * p + p**2).substitute(t, t_inv)
        assert got == LaurentPoly.from_terms([(2, 1), (0, 1), (-2, 1)])

    def test_rejects_negative_exponent(self):
        f = BiPoly.from_terms([((-1, 0), 1)])
        with pytest.raises(NonIntegralOuter):
            f.substitute(q, p)

    def test_rejects_half_exponent(self):
        from fractions import Fraction

        f = BiPoly.from_terms([((Fraction(1, 2), 0), 1)])
        with pytest.raises(NonIntegralOuter):
            f.substitute(q, p)


class TestSqrt:
    def test_monomial_and_radicand_split(self):
        result = (r * x - 2 * r).sqrt()
        assert result.prefactor.terms == {(1, 0): 1}  # sqrt(r)
        assert result.radicand.terms == {(0, 2): 1, (0, 0): -2}

    def test_perfect_monomial(self):
        result = (a * a * z * z).sqrt()
        assert result.is_polynomial
        assert result.prefactor == a * z

    def test_plain_square_variable(self):
        result = (q * q).sqrt()
        assert result.is_polynomial
        assert result.prefactor == q

    def test_polynomial_square(self):
        f = (q + p) * (q + p)
        result = f.sqrt()
        assert result.is_polynomial
        assert result.prefactor == q + p

    def test_negative_leading_square(self):
        f = (q - p) * (q - p)
        assert f.sqrt().prefactor == q - p  # normalised to positive leading

    def test_nonsquare_integer_content(self):
        f = 12 * x * x
        result = f.sqrt()
        assert result.prefactor == x
        assert result.radicand.terms == {(0, 0): 12}

    def test_zero_is_its_own_root(self):
        result = BiPoly.zero(("r", "x")).sqrt()
        assert result.is_polynomial
        assert result.prefactor.is_zero
        assert result.prefactor.variables == ("r", "x")

    def test_root_of_square_with_cancelled_term(self):
        # (q^2 + 2qp - 2p^2)^2 has no q^2 p^2 term
        square = BiPoly.from_terms([((4, 0), 1), ((3, 1), 4), ((1, 3), -8), ((0, 4), 4)])
        assert square == (q**2 + 2 * q * p - 2 * p**2) ** 2
        result = square.sqrt()
        assert result.is_polynomial
        assert result.prefactor == q**2 + 2 * q * p - 2 * p**2

    def test_square_reproduces_input(self):
        for f in (r * x - 2 * r, -q, 3 * q * p + p, a**3 + a, q * q - p):
            assert f.sqrt().square() == f

    def test_packed_root_with_carry_is_no_root(self):
        # 1 + 2p + q^(1/2)p^(1/2) packs (W = 3) to (1 + u^2)^2; that root
        # unpacks to 1 + p, whose p-degree is too high and whose square
        # is not the input.  1 + 2p^(1/2) + q^(1/2) packs (W = 2) to
        # (1 + u)^2, whose root unpacks to 1 + p^(1/2), at 2·b = W exactly
        for f in (BiPoly({(0, 0): 1, (0, 2): 2, (1, 1): 1}),
                  BiPoly({(0, 0): 1, (0, 1): 2, (1, 0): 1})):
            result = f.sqrt()
            assert result.prefactor == 1
            assert result.radicand == f
            assert result.square() == f


class TestRadicalExpr:
    def test_constructor_simplifies_square_radicand(self):
        expr = RadicalExpr(BiPoly.one(("a", "z")), a * a * z * z)
        assert expr.is_polynomial
        assert expr.prefactor == a * z

    def test_constructor_extracts_monomial_part(self):
        expr = RadicalExpr(BiPoly.one(("r", "x")), r * x - 2 * r)
        assert expr.prefactor.terms == {(1, 0): 1}
        assert expr.radicand.terms == {(0, 2): 1, (0, 0): -2}

    def test_as_polynomial_raises_on_radical(self):
        expr = (x - 2).sqrt()
        assert not expr.is_polynomial
        with pytest.raises(UnresolvedRadical):
            expr.as_polynomial()

    def test_unresolved_message_is_bounded(self):
        # a 5000-digit coefficient: its text passes the default digit limit
        with pytest.raises(UnresolvedRadical) as info:
            (x + 10**5000).sqrt().as_polynomial()
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("radicand, prefactor, rest", [
        pytest.param((x + 1) * (x + 1), x + 1, None, id="square-product"),
        pytest.param((x - 2) * (x + 3), _c(1), (x - 2) * (x + 3), id="split-product"),
        pytest.param(4 * r * (x - 2), 2 * r.sqrt().prefactor, x - 2, id="square-part"),
    ])
    def test_constructor_splits_one_radicand(self, radicand, prefactor, rest):
        # the one radicand is split once: its square part joins the prefactor
        expr = RadicalExpr(BiPoly.one(("r", "x")), radicand)
        assert (expr.prefactor, expr.radicand) == (prefactor, rest)
        assert expr == RadicalExpr(prefactor, rest)
        assert hash(expr) == hash(RadicalExpr(prefactor, rest))

    def test_radicands_view(self):
        # the list view kept for the benchmark harness: [] or [radicand]
        assert RadicalExpr(x + 1).radicands == []
        assert RadicalExpr(_c(1), x - 2).radicands == [x - 2]

    @pytest.mark.parametrize("left, right", [
        pytest.param(lambda: RadicalExpr(x, _c(12)), lambda: RadicalExpr(2 * x, _c(3)),
                     id="integer-content"),
        pytest.param(lambda: RadicalExpr(_c(1), 2 * (x + 1) ** 2),
                     lambda: RadicalExpr(x + 1, _c(2)), id="square-factor"),
        pytest.param(lambda: RadicalExpr(_c(2), _c(-3)), lambda: RadicalExpr(_c(1), _c(-12)),
                     id="negative-radicand"),
    ])
    def test_equal_values_in_different_forms(self, left, right):
        assert left() == right()
        assert right() == left()
        assert hash(left()) == hash(right())

    @pytest.mark.parametrize("left, right", [
        pytest.param(lambda: RadicalExpr(x, _c(12)), lambda: RadicalExpr(-2 * x, _c(3)),
                     id="opposite-sign"),
        pytest.param(lambda: RadicalExpr(_c(1), _c(-3)), lambda: RadicalExpr(_c(1), _c(-12)),
                     id="different-square"),
        pytest.param(lambda: RadicalExpr(_c(1), x - 2), lambda: RadicalExpr(_c(1), 2 - x),
                     id="negated-radicand"),
    ])
    def test_unequal_values(self, left, right):
        assert left() != right()
        assert right() != left()

    def test_zero_prefactor_clears_radicands(self):
        expr = RadicalExpr(BiPoly.zero(("r", "x")), x - 2)
        assert expr.is_polynomial
        assert expr.prefactor.is_zero

    def test_eval(self):
        expr = (r * x - 2 * r).sqrt()
        got = expr.eval_complex((2.0, 6.0))
        assert abs(got - (2.0 * (6.0 - 2.0)) ** 0.5) < 1e-12

    def test_equality(self):
        assert (r * x - 2 * r).sqrt() == (r * x - 2 * r).sqrt()
        assert (a * a).sqrt() == a
        assert (r * x - 2 * r).sqrt() != (r * x).sqrt()

    def test_render(self):
        assert str((r * x - 2 * r).sqrt()) == "r^(1/2) * sqrt(x - 2)"
        assert str((a * a * z * z).sqrt()) == "az"

    def test_render_json(self):
        expr = (r * x - 2 * r).sqrt()
        assert expr.render("json") == json.dumps(expr.to_json_dict())
        rx = ["r", "x"]
        assert json.loads(expr.render("json")) == {
            "prefactor": {"variables": rx, "den": 2, "terms": [{"numA": 1, "numB": 0, "coeff": "1"}]},
            "radicands": [{"variables": rx, "den": 2, "terms": [
                {"numA": 0, "numB": 2, "coeff": "1"}, {"numA": 0, "numB": 0, "coeff": "-2"}]}],
        }

    @pytest.mark.parametrize("expr", [
        pytest.param(lambda: RadicalExpr(_c(0)), id="zero"),
        pytest.param(lambda: (a * a * z * z).sqrt(), id="radical-free"),
        pytest.param(lambda: (r * x - 2 * r).sqrt(), id="radicand"),
        pytest.param(lambda: RadicalExpr(BiPoly({(-2, 1): 3}, ("a", "z")) - z, a * z**3 + 7), id="radicand-prefactor"),
        pytest.param(lambda: RadicalExpr(BiPoly.gens(("θ", 'a"b'))[0] + 1,
                                         BiPoly.gens(("θ", 'a"b'))[1] - 2**70),
                     id="escaped-names"),
    ])
    def test_render_json_is_the_dumped_dict(self, expr):
        value = expr()
        assert value.render("json") == json.dumps(value.to_json_dict())

    def test_repr_round_trips(self):
        expr = (r * x - 2 * r).sqrt()
        assert eval(repr(expr), {"BiPoly": BiPoly, "RadicalExpr": RadicalExpr}) == expr

    def test_render_rejects_unknown_style(self):
        with pytest.raises(ValueError, match="unknown style"):
            RadicalExpr(BiPoly.one()).render("bogus")


class TestEval:
    def test_half_exponents(self):
        from fractions import Fraction

        f = BiPoly.from_terms([((Fraction(1, 2), 0), 1)], ("r", "x"))  # sqrt(r)
        assert f.eval_complex((4.0, 1.0)) == pytest.approx(2.0)

    def test_zero_base_guard(self):
        f = BiPoly.from_terms([((-1, 0), 1)])
        with pytest.raises(ZeroBase):
            f.eval_complex((0.0, 1.0))
        with pytest.raises(ZeroBase):
            BiPoly.from_terms([((0, -1), 1)]).eval_complex((1.0, 0.0))

    def test_zero_base_ok_for_plain_polys(self):
        assert (q + 3).eval_complex((0.0, 5.0)) == 3


class TestRender:
    def test_homfly_style_ascending(self):
        h1 = 2 * a**2 + a**2 * z**2 - a**4
        assert h1.render() == "2a^2 + a^2z^2 - a^4"

    def test_qp_style_descending(self):
        qp4 = q**3 + q**2 * p + q * p**2 + p**3
        assert qp4.render(ascending=False) == "q^3 + q^2p + qp^2 + p^3"

    def test_zero(self):
        assert BiPoly.zero().render() == "0"

    def test_json_schema(self):
        obj = json.loads((q - q * p).render("json"))
        assert obj == {
            "variables": ["q", "p"],
            "den": 2,
            "terms": [
                {"numA": 2, "numB": 2, "coeff": "-1"},
                {"numA": 2, "numB": 0, "coeff": "1"},
            ],
        }

    def test_json_round_trip_bytes(self):
        poly = 7 * a**3 * z - 98765432109876543210 * z**5 + 1
        text = poly.render("json")
        again = BiPoly.from_json_dict(json.loads(text))
        assert again == poly
        assert again.render("json") == text


class TestProperties:
    @given(f=bi_polys_integral(), g=bi_polys_integral())
    def test_univariate_collapse_is_ring_homomorphism(self, f, g):
        img_a = LaurentPoly.from_terms([(1, 1), (0, 2)], "t")
        img_b = LaurentPoly.from_terms([(-1, 1)], "t")
        assert (f * g).substitute(img_a, img_b) == f.substitute(
            img_a, img_b
        ) * g.substitute(img_a, img_b)

    @given(f=bi_polys(nonzero=True))
    def test_sqrt_square_invariant(self, f):
        expr = f.sqrt()
        assert expr.square() == f
        # a radicand is never a perfect square
        assert expr.radicand is None or expr.radicand.sqrt().radicand is not None

    @given(f=bi_polys(), d=bi_polys())
    def test_constructor_keeps_the_square(self, f, d):
        expr = RadicalExpr(f, d)
        assert expr.square() == f * f * d
        assert expr.radicand is None or expr.radicand.sqrt().radicand is not None

    @given(g=bi_polys(nonzero=True))
    def test_sqrt_finds_perfect_squares(self, g):
        expr = (g * g).sqrt()
        assert expr.is_polynomial
        assert expr.prefactor == (g if g.terms[max(g.terms)] > 0 else -g)

    @given(
        g=bi_polys(max_terms=6, nonzero=True, coeffs=small_coefficients),
        u=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda key: BiPoly({key: 1})),
    )
    def test_sqrt_finds_squares_with_cancellations(self, g, u):
        # (1 + 2u - 2u^2)^2 has no u^2 term, so these squares often lack a
        # key that the long division passes through
        g = g * (1 + 2 * u - 2 * u * u)
        expr = (g * g).sqrt()
        assert expr.is_polynomial
        assert expr.prefactor == (g if g.terms[max(g.terms)] > 0 else -g)

    @given(f=bi_polys_integral(max_degree=3, max_terms=5, max_coeff=9))
    def test_substitution_numeric_consistency(self, f):
        a_val = 0.9 + 0.4j
        z_val = 0.7 - 0.8j
        a_sq = a * a
        z_sq_plus_2 = z * z + 2
        lhs = f.substitute(a_sq, z_sq_plus_2).eval_complex((a_val, z_val))
        rhs = f.eval_complex((a_val * a_val, z_val * z_val + 2))
        bound = sum(
            abs(c) * 1.0 ** (na // 2) * 3.2 ** (nb // 2)
            for (na, nb), c in f.terms.items()
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, bound)

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotpoly import BiPoly, LaurentPoly, RadicalExpr
from knotpoly.errors import NonIntegralOuter, UnresolvedRadical, ZeroBase

from support import bi_polys, bi_polys_integral

q, p = BiPoly.gens(("q", "p"))
r, x = BiPoly.gens(("r", "x"))
a, z = BiPoly.gens(("a", "z"))
t = LaurentPoly.gen("t")
t_inv = LaurentPoly.from_terms([(-1, 1)], "t")


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
        assert [rad.terms for rad in result.radicands] == [{(0, 2): 1, (0, 0): -2}]

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
        assert [rad.terms for rad in result.radicands] == [{(0, 0): 12}]

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            BiPoly.zero().sqrt()

    def test_square_reproduces_input(self):
        for f in (r * x - 2 * r, -q, 3 * q * p + p, a**3 + a, q * q - p):
            assert f.sqrt().square() == f

    def test_packed_root_with_carry_is_no_root(self):
        # 1 + 2p + q^(1/2)p^(1/2) packs (W = 3) to (1 + u^2)^2; that root
        # unpacks to 1 + p, whose p-degree is too high and whose square
        # is not the input
        f = BiPoly({(0, 0): 1, (0, 2): 2, (1, 1): 1})
        result = f.sqrt()
        assert result.prefactor == 1
        assert result.radicands == [f]
        assert result.square() == f


class TestRadicalExpr:
    def test_constructor_simplifies_square_radicand(self):
        expr = RadicalExpr(BiPoly.one(("a", "z")), [a * a * z * z])
        assert expr.is_polynomial
        assert expr.prefactor == a * z

    def test_constructor_extracts_monomial_part(self):
        expr = RadicalExpr(BiPoly.one(("r", "x")), [r * x - 2 * r])
        assert expr.prefactor.terms == {(1, 0): 1}
        assert [rad.terms for rad in expr.radicands] == [{(0, 2): 1, (0, 0): -2}]

    def test_as_polynomial_raises_on_radical(self):
        expr = (x - 2).sqrt()
        assert not expr.is_polynomial
        with pytest.raises(UnresolvedRadical):
            expr.as_polynomial()

    @pytest.mark.parametrize("left, right", [
        pytest.param(lambda: RadicalExpr(BiPoly.one(("r", "x")), [x + 1, x + 1]),
                     lambda: RadicalExpr(x + 1), id="square-product"),
        pytest.param(lambda: RadicalExpr(BiPoly.one(("r", "x")), [x - 2, x + 3]),
                     lambda: RadicalExpr(BiPoly.one(("r", "x")), [(x - 2) * (x + 3)]),
                     id="split-product"),
    ])
    def test_constructor_merges_radicands(self, left, right):
        # one value, one form: the radicands multiply into one before the
        # square part is split off
        assert left() == right()
        assert hash(left()) == hash(right())
        assert len(left().radicands) <= 1

    def test_zero_prefactor_clears_radicands(self):
        expr = RadicalExpr(BiPoly.zero(("r", "x")), [x - 2])
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
    @given(f=bi_polys(), g=bi_polys(), h=bi_polys())
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(f=bi_polys(), g=bi_polys())
    def test_results_canonical(self, f, g):
        for poly in (f + g, f - g, f * g, -f):
            assert all(coeff != 0 for coeff in poly.terms.values())

    @given(f=bi_polys_integral(), g=bi_polys_integral(), imgs=st.tuples(bi_polys(max_terms=3), bi_polys(max_terms=3)))
    def test_substitution_is_ring_homomorphism(self, f, g, imgs):
        img_a, img_b = imgs
        assert (f * g).substitute(img_a, img_b) == f.substitute(
            img_a, img_b
        ) * g.substitute(img_a, img_b)
        assert (f + g).substitute(img_a, img_b) == f.substitute(
            img_a, img_b
        ) + g.substitute(img_a, img_b)

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
        for rad in expr.radicands:
            # radicand entries are never perfect squares
            assert rad.sqrt().radicands

    @given(g=bi_polys(nonzero=True))
    def test_sqrt_finds_perfect_squares(self, g):
        expr = (g * g).sqrt()
        assert not expr.radicands
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

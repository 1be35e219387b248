"""Contracts LaurentPoly and BiPoly share: equality, hashing, strict
construction and the ring operators' operand rule."""

import functools
import json
import operator
import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotpoly import (
    BiPoly,
    LaurentPoly,
    RadicalExpr,
    alexander_qp,
    alexander_rx,
    alexander_rx_seq,
    alexander_unified_rec,
    cheb_first,
    cheb_first_seq,
    cheb_second,
    cheb_second_qp,
    cheb_second_rx,
    cheb_second_seq,
    homfly_closed,
    homfly_rec,
    qnum_closed,
    qnum_rec,
    qnum_rec_seq,
    qpnum_closed,
    qpnum_rec,
    qpnum_rec_seq,
)
from knotpoly import bivar, chebyshev, invariants, laurent, qnumbers

from support import bi_polys, coefficients, laurent_polys, wide_coefficients


@pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
@pytest.mark.parametrize("value", [0, 3, -7, 2**70])
def test_constant_hashes_like_its_int(cls, value):
    poly = cls.constant(value)
    assert poly == value
    assert hash(poly) == hash(value)
    assert len({poly, value}) == 1


def test_univariate_never_equals_bivariate():
    assert LaurentPoly.one() != BiPoly.one()
    assert LaurentPoly.zero() != BiPoly.zero()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: LaurentPoly([(True, 1)]), id="laurent-bool-exponent"),
        pytest.param(lambda: LaurentPoly([(2, 1.7)]), id="laurent-float-coeff"),
        pytest.param(lambda: LaurentPoly([(2, True)]), id="laurent-bool-coeff"),
        pytest.param(lambda: LaurentPoly.from_terms([(1, 1.7)]),
                     id="laurent-from-terms-float-coeff"),
        pytest.param(lambda: LaurentPoly.from_terms([(True, 1)]),
                     id="laurent-from-terms-bool-exponent"),
        pytest.param(lambda: BiPoly([((True, 0), 1)]), id="bivar-bool-exponent"),
        pytest.param(lambda: BiPoly([((2, 0), 1.7)]), id="bivar-float-coeff"),
        pytest.param(lambda: BiPoly.from_terms([((1, 0), 1.7)]),
                     id="bivar-from-terms-float-coeff"),
        pytest.param(lambda: LaurentPoly.constant(1.7), id="laurent-constant-float"),
        pytest.param(lambda: LaurentPoly.monomial(2.9, 1), id="laurent-monomial-float-coeff"),
        pytest.param(lambda: BiPoly.constant(2.5), id="bivar-constant-float"),
    ],
)
def test_rejects_non_int_inputs(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "cls, term",
    [
        (LaurentPoly, {"num": 2.9, "coeff": "1"}),
        (LaurentPoly, {"num": True, "coeff": "1"}),
        (LaurentPoly, {"num": 2, "coeff": 1.7}),
        (BiPoly, {"numA": True, "numB": 0, "coeff": "1"}),
        (BiPoly, {"numA": 2, "numB": 0.5, "coeff": "1"}),
        (BiPoly, {"numA": 2, "numB": 0, "coeff": 2.5}),
    ],
)
def test_from_json_dict_rejects_non_int(cls, term):
    with pytest.raises(TypeError):
        cls.from_json_dict({"den": 2, "terms": [term]})


def test_radical_free_value_equals_and_hashes_as_its_prefactor():
    one = RadicalExpr(BiPoly.one())
    assert one == 1 and hash(one) == hash(1) and len({one, BiPoly.one(), 1}) == 1
    r, x = BiPoly.gens(("r", "x"))
    assert RadicalExpr(r, [x - 2]) != r
    assert len({RadicalExpr(r, [x - 2]), RadicalExpr(r, [x - 2]), RadicalExpr(r, [x - 3])}) == 2


@pytest.mark.parametrize("cls, term", [
    (LaurentPoly, {"num": 2}),
    (BiPoly, {"numA": 2, "numB": 0}),
])
@pytest.mark.parametrize("coeff", [
    pytest.param(" 1_000 ", id="padded-underscore"),
    pytest.param("1_000", id="underscore"),
    pytest.param(" 7", id="leading-space"),
    pytest.param("7\n", id="trailing-newline"),
    pytest.param("١٢", id="arabic-indic-digits"),
    pytest.param("７", id="fullwidth-digit"),
    pytest.param("", id="empty"),
    pytest.param("+-1", id="two-signs"),
])
def test_from_json_dict_rejects_non_canonical_coefficient_text(cls, term, coeff):
    with pytest.raises(ValueError):
        cls.from_json_dict({"den": 2, "terms": [dict(term, coeff=coeff)]})


@pytest.mark.parametrize("text, value", [("-12", -12), ("+12", 12), ("0", 0), ("007", 7)])
def test_from_json_dict_reads_decimal_coefficient_text(text, value):
    assert LaurentPoly.from_json_dict({"den": 2, "terms": [{"num": 2, "coeff": text}]}) == \
        LaurentPoly.monomial(value, 1)


_UNI = {"den": 2, "terms": [{"num": 2, "coeff": "1"}]}
_BI = {"den": 2, "terms": [{"numA": 2, "numB": 0, "coeff": "1"}]}


@pytest.mark.parametrize("cls, obj, field", [
    pytest.param(LaurentPoly, dict(_UNI, variable=7), "variable", id="laurent-int-variable"),
    pytest.param(BiPoly, dict(_BI, variables=[1, 2]), "variables", id="bivar-int-variables"),
    pytest.param(BiPoly, dict(_BI, variables=["q", 2]), "variables", id="bivar-one-int-variable"),
    pytest.param(LaurentPoly, {"den": 2}, "terms", id="laurent-no-terms"),
    pytest.param(BiPoly, {"den": 2}, "terms", id="bivar-no-terms"),
    pytest.param(LaurentPoly, {"den": 2, "terms": 5}, "terms", id="laurent-int-terms"),
    pytest.param(BiPoly, {"den": 2, "terms": {"numA": 2}}, "terms", id="bivar-object-terms"),
    pytest.param(LaurentPoly, {"den": 2, "terms": [5]}, "terms", id="laurent-int-entry"),
    pytest.param(BiPoly, {"den": 2, "terms": [[2, 0, "1"]]}, "terms", id="bivar-list-entry"),
    pytest.param(LaurentPoly, {"den": 2, "terms": [{"coeff": "1"}]}, "num", id="laurent-no-num"),
    pytest.param(LaurentPoly, {"den": 2, "terms": [{"num": 2}]}, "coeff", id="laurent-no-coeff"),
    pytest.param(BiPoly, {"den": 2, "terms": [{"numB": 0, "coeff": "1"}]}, "numA",
                 id="bivar-no-numA"),
    pytest.param(BiPoly, {"den": 2, "terms": [{"numA": 2, "coeff": "1"}]}, "numB",
                 id="bivar-no-numB"),
    pytest.param(BiPoly, {"den": 2, "terms": [{"numA": 2, "numB": 0}]}, "coeff",
                 id="bivar-no-coeff"),
    pytest.param(LaurentPoly, dict(_UNI, den=2.0), "den", id="laurent-float-den"),
    pytest.param(BiPoly, dict(_BI, den=2.0), "den", id="bivar-float-den"),
])
def test_from_json_dict_names_the_malformed_field(cls, obj, field):
    with pytest.raises(ValueError, match=f'"{field}"'):
        cls.from_json_dict(obj)


@pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
@pytest.mark.parametrize("obj", [[], None, "terms"])
def test_from_json_dict_rejects_non_object(cls, obj):
    with pytest.raises(ValueError, match="JSON object"):
        cls.from_json_dict(obj)


@pytest.mark.parametrize("op", [
    pytest.param(lambda poly: poly * True, id="mul"),
    pytest.param(lambda poly: True * poly, id="rmul"),
    pytest.param(lambda poly: poly ** True, id="pow"),
])
@pytest.mark.parametrize("poly", [LaurentPoly.gen(), BiPoly.gens()[0]], ids=["laurent", "bivar"])
def test_bool_operand_is_refused(op, poly):
    with pytest.raises(TypeError):
        op(poly)


@pytest.mark.parametrize("op", [
    pytest.param(lambda poly: poly + True, id="add"),
    pytest.param(lambda poly: True - poly, id="rsub"),
])
@pytest.mark.parametrize("poly", [LaurentPoly.gen(), BiPoly.gens()[0]], ids=["laurent", "bivar"])
def test_bool_addend_is_refused(op, poly):
    with pytest.raises(TypeError):
        op(poly)


# a value of each type in names other than the defaults
_LAURENT = LaurentPoly.from_terms([(1, 2), (-1, 1)], "s")
_BIVAR = BiPoly.from_terms([((1, 0), 2), ((0, 2), -1)], ("r", "x"))
_BINARY_OPS = [pytest.param(op, id=op.__name__) for op in (operator.add, operator.sub, operator.mul)]


@pytest.mark.parametrize("poly, names, constant", [
    pytest.param(_LAURENT, "variable", lambda c: LaurentPoly.constant(c, "s"), id="laurent"),
    pytest.param(_BIVAR, "variables", lambda c: BiPoly.constant(c, ("r", "x")), id="bivar"),
])
@pytest.mark.parametrize("op", _BINARY_OPS)
@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("int_on_left", [False, True], ids=["int-right", "int-left"])
def test_int_operand_is_its_constant(poly, names, constant, op, value, int_on_left):
    if int_on_left:
        result, expected = op(value, poly), op(constant(value), poly)
    else:
        result, expected = op(poly, value), op(poly, constant(value))
    assert type(result) is type(poly)
    assert result == expected
    assert getattr(result, names) == getattr(poly, names)


@pytest.mark.parametrize("poly, other", [
    pytest.param(poly, other, id=f"{name}-{kind}")
    for name, poly, other_type in (("laurent", _LAURENT, BiPoly.one()),
                                   ("bivar", _BIVAR, LaurentPoly.one()))
    for kind, other in (("str", "2"), ("float", 2.0), ("other-type", other_type))
])
@pytest.mark.parametrize("op", _BINARY_OPS)
def test_foreign_operand_is_refused(poly, other, op):
    with pytest.raises(TypeError):
        op(poly, other)
    with pytest.raises(TypeError):
        op(other, poly)


_NOT_A_NAME = '"variable" is not a string'
_NOT_A_PAIR = '"variables" is not a pair of strings'


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: LaurentPoly({2: 1}, variable=7), _NOT_A_NAME, id="laurent-init"),
    pytest.param(lambda: LaurentPoly.from_terms([(1, 1)], 7), _NOT_A_NAME,
                 id="laurent-from-terms"),
    pytest.param(lambda: LaurentPoly.zero(7), _NOT_A_NAME, id="laurent-zero"),
    pytest.param(lambda: LaurentPoly.constant(3, 7), _NOT_A_NAME, id="laurent-constant"),
    pytest.param(lambda: LaurentPoly.one(("t",)), _NOT_A_NAME, id="laurent-one"),
    pytest.param(lambda: LaurentPoly.gen(None), _NOT_A_NAME, id="laurent-gen"),
    pytest.param(lambda: LaurentPoly.gen_sqrt(7), _NOT_A_NAME, id="laurent-gen-sqrt"),
    pytest.param(lambda: LaurentPoly.monomial(2, 1, 7), _NOT_A_NAME, id="laurent-monomial"),
    pytest.param(lambda: LaurentPoly.gen().rename(7), _NOT_A_NAME, id="laurent-rename"),
    pytest.param(lambda: BiPoly({(2, 0): 1}, ("a", "b", "c")), _NOT_A_PAIR, id="bivar-init"),
    pytest.param(lambda: BiPoly.from_terms([((1, 0), 1)], ("a", 7)), _NOT_A_PAIR,
                 id="bivar-from-terms"),
    pytest.param(lambda: BiPoly.zero(("a",)), _NOT_A_PAIR, id="bivar-zero"),
    pytest.param(lambda: BiPoly.constant(3, ("a", 7)), _NOT_A_PAIR, id="bivar-constant"),
    pytest.param(lambda: BiPoly.one(("a", "b", "c")), _NOT_A_PAIR, id="bivar-one"),
    pytest.param(lambda: BiPoly.gens(("a",)), _NOT_A_PAIR, id="bivar-gens"),
    pytest.param(lambda: BiPoly.one().rename(("a", "b", "c")), _NOT_A_PAIR, id="bivar-rename"),
])
def test_variable_names_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# every public builder that takes an index, as the three family modules
# export it
INDEX_BUILDERS = [
    getattr(module, name) for module in (invariants, chebyshev, qnumbers)
    for name in module.__all__
    if isinstance(getattr(module, name), types.FunctionType)
    and name not in {"derive_skein", "compose_skein", "verify_skein"}
]


@pytest.mark.parametrize("index", [-1, True])
@pytest.mark.parametrize("build", INDEX_BUILDERS, ids=lambda build: build.__name__)
def test_builders_refuse_a_negative_or_bool_index(build, index):
    with pytest.raises(ValueError):
        build(index)


# the builders take no names: each family lives in the paper's variables,
# which the CLI prints; ``rename`` gives any others
@pytest.mark.parametrize("build, names", [
    pytest.param(lambda: [qnum_closed(2)], "q", id="qnum-closed"),
    pytest.param(lambda: qnum_rec_seq(2), "q", id="qnum-rec-seq"),
    pytest.param(lambda: [qnum_rec(2)], "q", id="qnum-rec"),
    pytest.param(lambda: [qpnum_closed(2)], ("q", "p"), id="qpnum-closed"),
    pytest.param(lambda: qpnum_rec_seq(2), ("q", "p"), id="qpnum-rec-seq"),
    pytest.param(lambda: [qpnum_rec(2)], ("q", "p"), id="qpnum-rec"),
    pytest.param(lambda: cheb_first_seq(2), "x", id="cheb-first-seq"),
    pytest.param(lambda: [cheb_first(2)], "x", id="cheb-first"),
    pytest.param(lambda: cheb_second_seq(2), "x", id="cheb-second-seq"),
    pytest.param(lambda: [cheb_second(2)], "x", id="cheb-second"),
    pytest.param(lambda: [cheb_second_qp(2)], ("q", "p"), id="cheb-second-qp"),
    pytest.param(lambda: [cheb_second_rx(2)], ("r", "x"), id="cheb-second-rx"),
    pytest.param(lambda: [alexander_qp(2)], ("q", "p"), id="alexander-qp"),
    pytest.param(lambda: alexander_rx_seq(2), ("r", "x"), id="alexander-rx-seq"),
    pytest.param(lambda: [alexander_rx(2)], ("r", "x"), id="alexander-rx"),
    pytest.param(lambda: homfly_rec(2), ("a", "z"), id="homfly-rec"),
    pytest.param(lambda: [homfly_closed(2)], ("a", "z"), id="homfly-closed"),
    pytest.param(lambda: alexander_unified_rec(3), "t", id="alexander-unified-rec"),
])
def test_builders_use_the_paper_names(build, names):
    for value in build():
        assert (value.variable if isinstance(value, LaurentPoly) else value.variables) == names


@pytest.mark.parametrize("module, kernel, poly", [
    (laurent, "mul_terms", LaurentPoly([(2, 1), (0, -3), (-1, 2)])),
    (bivar, "bi_mul_terms", BiPoly([((2, 0), 1), ((0, 2), -3), ((-1, 1), 2)])),
], ids=["laurent", "bivar"])
@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (8, 3), (13, 5)])
def test_power_makes_no_product_with_the_unit(monkeypatch, module, kernel, poly, k, products):
    # square-and-multiply takes its first factor as it is: one squaring per
    # bit below the top one and one product per further set bit
    mul, calls = getattr(module, kernel), []
    monkeypatch.setattr(module, kernel, lambda a, b: calls.append(1) or mul(a, b))
    power = poly ** k
    assert len(calls) == products
    monkeypatch.undo()
    assert power == functools.reduce(operator.mul, [poly] * k, 1)


# -- the canonical JSON writer against the dict path it replaces -------------

# small, 64-bit and wider coefficients; names that json.dumps must escape
_json_coeffs = st.one_of(coefficients, wide_coefficients,
                         st.integers(min_value=-(2**200), max_value=2**200))
_json_names = st.sampled_from(["t", "θ", 'a"b'])


@given(poly=laurent_polys(strides=(1, 2, 4), coeffs=_json_coeffs), name=_json_names)
@example(poly=LaurentPoly.zero(), name='a"b')
def test_laurent_json_writer_matches_the_dict_path(poly, name):
    poly = poly.rename(name)
    assert poly.render("json") == json.dumps(poly.to_json_dict())


@given(poly=bi_polys(coeffs=_json_coeffs), names=st.tuples(_json_names, _json_names))
@example(poly=BiPoly.zero(), names=("θ", "t"))
def test_bivar_json_writer_matches_the_dict_path(poly, names):
    poly = poly.rename(names)
    assert poly.render("json") == json.dumps(poly.to_json_dict())

"""Contracts LaurentPoly and BiPoly share: equality, hashing, strict
construction and the ring operators' operand rule."""

import functools
import json
import operator
import re
import sys
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
from knotpoly.errors import NonIntegralOuter

from support import (bi_polys, coefficients, laurent_polys, naive_json, naive_render,
                     wide_coefficients)


@pytest.mark.parametrize("cls", [LaurentPoly, BiPoly])
@pytest.mark.parametrize("value", [0, 3, -7, 2**70])
def test_constant_hashes_like_its_int(cls, value):
    poly = cls.constant(value)
    assert poly == value
    assert hash(poly) == hash(value)
    assert len({poly, value}) == 1
    assert bool(poly) == bool(value)


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
        pytest.param(lambda: LaurentPoly.monomial(0, True), id="laurent-monomial-zero-bool-exponent"),
        pytest.param(lambda: BiPoly.constant(2.5), id="bivar-constant-float"),
        pytest.param(lambda: RadicalExpr(2.5), id="radical-float-prefactor"),
        pytest.param(lambda: RadicalExpr(BiPoly.one(), 2.5), id="radical-float-radicand"),
        pytest.param(lambda: RadicalExpr(BiPoly.one(), [BiPoly.one()]), id="radical-list-radicand"),
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
    assert one != "1" and one != LaurentPoly.one()
    r, x = BiPoly.gens(("r", "x"))
    assert RadicalExpr(r, x - 2) != r
    assert len({RadicalExpr(r, x - 2), RadicalExpr(r, x - 2), RadicalExpr(r, x - 3)}) == 2


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
    pytest.param(LaurentPoly, dict(_UNI, variable=""), "variable", id="laurent-empty-variable"),
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


# an image of a substitution follows the operand rule: True is no ring value
@pytest.mark.parametrize("op", [
    pytest.param(lambda: LaurentPoly.gen().compose(True), id="compose"),
    pytest.param(lambda: BiPoly.gens()[0].substitute(True, 1), id="substitute-first"),
    pytest.param(lambda: BiPoly.gens()[1].substitute(LaurentPoly.gen(), False), id="substitute-second"),
])
def test_bool_image_is_refused(op):
    with pytest.raises(TypeError, match="bool"):
        op()


@pytest.mark.parametrize("key", [2, (2, 0, 0), (2,), "20", (2, 0.0), None])
def test_bivar_key_is_a_pair_of_ints(key):
    with pytest.raises(TypeError, match=f"key {re.escape(repr(key))} is not a pair of int"):
        BiPoly({key: 1})


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


# the names perfbench/spans.py wraps in each class's own __dict__, written
# out: its RING_METHODS for both polynomial types, and its CLASS_SPANS
_RING_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__",
                 "__neg__")
_SPAN_SITES = [
    (LaurentPoly, (*_RING_METHODS, "render", "to_json_dict", "compose", "eval_complex",
                   "sqrt_perfect")),
    (BiPoly, (*_RING_METHODS, "render", "to_json_dict", "substitute", "eval_complex", "sqrt")),
    (RadicalExpr, ("render", "to_json_dict", "eval_complex")),
]


def test_both_polynomial_types_share_one_core():
    # one function serves both types, and each class still names it in its
    # own body, where the traced benchmark pass wraps it
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__",
                 "to_json_dict"):
        assert getattr(LaurentPoly, name) is getattr(BiPoly, name), name
    for cls, names in _SPAN_SITES:
        assert [n for n in names if n not in vars(cls)] == [], cls.__name__


# compose, substitute and ** read their source's exponents in one place
@pytest.mark.parametrize("op", [
    pytest.param(lambda: LaurentPoly({-2: 1}).compose(LaurentPoly.gen()), id="compose-negative"),
    pytest.param(lambda: LaurentPoly({1: 1}).compose(LaurentPoly.gen()), id="compose-half"),
    pytest.param(lambda: BiPoly({(0, -2): 1}).substitute(1, 1), id="substitute-negative"),
    pytest.param(lambda: BiPoly({(3, 0): 1}).substitute(1, 1), id="substitute-half"),
])
def test_a_negative_or_half_source_exponent_has_one_message(op):
    with pytest.raises(NonIntegralOuter) as info:
        op()
    assert str(info.value) == "a substituted polynomial must have nonnegative integer exponents"


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
    pytest.param(lambda: LaurentPoly({2: 2}, ""), _NOT_A_NAME, id="laurent-empty"),
    pytest.param(lambda: BiPoly({(2, 0): 1}, ("a", "b", "c")), _NOT_A_PAIR, id="bivar-init"),
    pytest.param(lambda: BiPoly.from_terms([((1, 0), 1)], ("a", 7)), _NOT_A_PAIR,
                 id="bivar-from-terms"),
    pytest.param(lambda: BiPoly.zero(("a",)), _NOT_A_PAIR, id="bivar-zero"),
    pytest.param(lambda: BiPoly.constant(3, ("a", 7)), _NOT_A_PAIR, id="bivar-constant"),
    pytest.param(lambda: BiPoly.one(("a", "b", "c")), _NOT_A_PAIR, id="bivar-one"),
    pytest.param(lambda: BiPoly.gens(("a",)), _NOT_A_PAIR, id="bivar-gens"),
    pytest.param(lambda: BiPoly.one().rename(("a", "b", "c")), _NOT_A_PAIR, id="bivar-rename"),
    pytest.param(lambda: BiPoly.constant(3, ("", "p")), _NOT_A_PAIR, id="bivar-one-empty"),
    pytest.param(lambda: BiPoly({(2, 4): 1, (4, 2): 1}, ("x", "x")), _NOT_A_PAIR,
                 id="bivar-init-equal"),
    pytest.param(lambda: BiPoly.gens(["q", "q"]), _NOT_A_PAIR, id="bivar-gens-equal"),
    pytest.param(lambda: BiPoly.one().rename(("t", "t")), _NOT_A_PAIR, id="bivar-rename-equal"),
    pytest.param(lambda: BiPoly.from_json_dict({"variables": ["x", "x"], "den": 2, "terms": []}),
                 _NOT_A_PAIR, id="bivar-from-json-equal"),
])
def test_variable_names_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("poly, field", [
    pytest.param(_LAURENT, "variable", id="laurent"),
    pytest.param(_BIVAR, "variables", id="bivar"),
])
def test_names_survive_repr_and_json_and_are_read_only(poly, field):
    cls, names = type(poly), getattr(poly, field)
    for again in (eval(repr(poly), {cls.__name__: cls}), cls.from_json_dict(poly.to_json_dict())):
        assert again == poly and getattr(again, field) == names
    with pytest.raises(AttributeError):
        setattr(poly, field, names)


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
# which the CLI prints; ``rename`` gives any others.  The constants take
# each type's default names.
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
    pytest.param(lambda: [LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.constant(5)], "t",
                 id="laurent-constants"),
    pytest.param(lambda: [BiPoly.zero(), BiPoly.one(), BiPoly.constant(5)], ("q", "p"),
                 id="bivar-constants"),
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
    # ``**`` splits x^k over the squares of the base and takes its first
    # factor as it is: one squaring per bit below the top one and one
    # product per further set bit
    mul, calls = getattr(module, kernel), []
    monkeypatch.setattr(module, kernel, lambda a, b: calls.append(1) or mul(a, b))
    power = poly ** k
    assert len(calls) == products
    monkeypatch.undo()
    assert power == functools.reduce(operator.mul, [poly] * k, 1)


# one-term bases take the remap, zero and the rest the split; the terms
# carry half exponents and up to 64-bit coefficients, the names differ from
# the defaults
_power_coeffs = st.one_of(coefficients, wide_coefficients)
_power_bases = st.one_of(
    *(laurent_polys(max_terms=n, coeffs=_power_coeffs).map(lambda p: p.rename("u")) for n in (1, 5)),
    *(bi_polys(max_terms=n, coeffs=_power_coeffs).map(lambda p: p.rename(("a", "b")))
      for n in (1, 5)))


@given(poly=_power_bases, k=st.integers(min_value=0, max_value=9))
@example(poly=LaurentPoly.zero("u"), k=0)
@example(poly=BiPoly.zero(("a", "b")), k=0)
def test_power_is_the_repeated_product(poly, k):
    power = poly ** k
    assert power == functools.reduce(operator.mul, [poly] * k, 1)
    name = "variable" if isinstance(poly, LaurentPoly) else "variables"
    assert type(power) is type(poly) and getattr(power, name) == getattr(poly, name)


# -- the canonical JSON writer is exactly ``json.dumps`` of its own parse -----
# (``to_json_dict`` reads the writer back): the same spacing, escaping and
# key order; and it is ``naive_json``, the schema dict built term by term,
# which checks the numbers the writer writes, as its own parse cannot

# small, 64-bit and wider coefficients; names that json.dumps must escape
_json_coeffs = st.one_of(coefficients, wide_coefficients,
                         st.integers(min_value=-(2**200), max_value=2**200))
_json_names = st.sampled_from(["t", "θ", 'a"b', "x\\y"])


@given(poly=laurent_polys(strides=(1, 2, 4), coeffs=_json_coeffs), name=_json_names)
@example(poly=LaurentPoly.zero(), name='a"b')
def test_laurent_json_writer_matches_the_dict_path(poly, name):
    poly = poly.rename(name)
    assert poly.render("json") == json.dumps(poly.to_json_dict()) == naive_json(poly)


# the two names of a pair differ
@given(poly=bi_polys(coeffs=_json_coeffs),
       names=st.lists(_json_names, min_size=2, max_size=2, unique=True).map(tuple))
@example(poly=BiPoly.zero(), names=("θ", "t"))
def test_bivar_json_writer_matches_the_dict_path(poly, names):
    poly = poly.rename(names)
    assert poly.render("json") == json.dumps(poly.to_json_dict()) == naive_json(poly)


# the constructor moves the radicand's square part into the prefactor, or
# drops the radicand when the prefactor is zero
@given(prefactor=bi_polys(coeffs=_json_coeffs), radicand=st.none() | bi_polys(coeffs=_json_coeffs),
       names=st.lists(_json_names, min_size=2, max_size=2, unique=True).map(tuple))
@example(prefactor=BiPoly.one(), radicand=BiPoly({(2, 0): 1, (0, 0): -2}), names=("a", "z"))
def test_radical_json_writer_matches_the_naive_one(prefactor, radicand, names):
    radicand = None if radicand is None else radicand.rename(names)
    expr = RadicalExpr(prefactor.rename(names), radicand)
    assert expr.render("json") == json.dumps(expr.to_json_dict()) == naive_json(expr)


# a coefficient longer than the int-to-str digit limit: written whole with
# the limit lifted, as ``cli.run`` lifts it, and refused by both writers
# with it in force
@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("style", ["text", "json"])
@pytest.mark.parametrize("make", [LaurentPoly, BiPoly], ids=["laurent", "bivar"])
def test_writers_at_the_int_to_str_digit_limit(make, style):
    coeff = 1234567890 * (10**5000 - 1) // (10**10 - 1)   # "1234567890" 500 times
    poly = make({(2, 1) if make is BiPoly else 1: coeff, make._UNIT: -coeff - 1})
    caller_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        text = poly.render(style)
        assert text == (naive_render(poly) if style == "text" else naive_json(poly))
        assert len(str(coeff)) == 5000 and str(coeff) in text and str(coeff + 1) in text
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            poly.render(style)
    finally:
        sys.set_int_max_str_digits(caller_limit)


# -- the text writer is the naive term-by-term one ---------------------------

# coefficients of 1 and -1 often, small and 64-bit ones otherwise; the
# numerators run over zero (the constant term), odd (half exponents) and
# negative values
_text_coeffs = st.one_of(st.sampled_from([1, -1]), coefficients, wide_coefficients)
_text_names = st.sampled_from(["t", "q", "θ", "ab"])


@given(poly=laurent_polys(coeffs=_text_coeffs), name=_text_names)
@example(poly=LaurentPoly({0: -1}), name="t")
@example(poly=LaurentPoly({2: -1, 0: 1, -1: 1}), name="t")
def test_laurent_text_writer_matches_the_naive_one(poly, name):
    poly = poly.rename(name)
    assert poly.render() == str(poly) == naive_render(poly)


@given(poly=bi_polys(coeffs=_text_coeffs),
       names=st.lists(_text_names, min_size=2, max_size=2, unique=True).map(tuple),
       ascending=st.booleans())
@example(poly=BiPoly({(0, 0): -1}), names=("q", "p"), ascending=True)
@example(poly=BiPoly({(0, 0): 1, (1, -2): -1, (-3, 2): 1}), names=("q", "p"), ascending=False)
def test_bivar_text_writer_matches_the_naive_one(poly, names, ascending):
    poly = poly.rename(names)
    assert poly.render(ascending=ascending) == naive_render(poly, ascending)

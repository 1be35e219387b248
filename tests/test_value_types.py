"""Contracts LaurentPoly and BiPoly share: equality, hashing and strict
construction."""

import pytest

from knotpoly import BiPoly, LaurentPoly


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
        lambda: LaurentPoly([(True, 1)]),
        lambda: LaurentPoly([(2, 1.7)]),
        lambda: LaurentPoly([(2, True)]),
        lambda: LaurentPoly.from_terms([(1, 1.7)]),
        lambda: LaurentPoly.from_terms([(True, 1)]),
        lambda: BiPoly([((True, 0), 1)]),
        lambda: BiPoly([((2, 0), 1.7)]),
        lambda: BiPoly.from_terms([((1, 0), 1.7)]),
    ],
    ids=[
        "laurent-bool-exponent",
        "laurent-float-coeff",
        "laurent-bool-coeff",
        "laurent-from-terms-float-coeff",
        "laurent-from-terms-bool-exponent",
        "bivar-bool-exponent",
        "bivar-float-coeff",
        "bivar-from-terms-float-coeff",
    ],
)
def test_rejects_non_int_inputs(build):
    with pytest.raises(TypeError):
        build()


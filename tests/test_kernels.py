from hypothesis import given
from hypothesis import strategies as st

import knotpoly
from knotpoly._kernels import pure

uni_dicts = st.dictionaries(
    st.integers(-30, 30), st.integers(-999, 999).filter(bool), max_size=10
)
bi_dicts = st.dictionaries(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.integers(-999, 999).filter(bool),
    max_size=10,
)


@given(a=uni_dicts, b=uni_dicts, c=bi_dicts, d=bi_dicts)
def test_pure_results_canonical(a, b, c, d):
    for result in (
        pure.add_terms(a, b),
        pure.sub_terms(a, b),
        pure.mul_terms(a, b),
        pure.bi_mul_terms(c, d),
    ):
        assert all(v != 0 for v in result.values())


def test_backend_reported():
    assert knotpoly.kernel_backend() == "pure"

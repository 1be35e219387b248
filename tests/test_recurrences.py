"""The one three-term recurrence under every sequence builder: the seeds
at the shortest lengths, and the ring operations a step costs."""

from collections import Counter

import pytest

from knotpoly import (
    LaurentPoly,
    alexander_knot_rec,
    alexander_rx_seq,
    alexander_unified_rec,
    bivar,
    cheb_first_seq,
    cheb_second_seq,
    homfly_rec,
    laurent,
    qnum_rec_seq,
    qpnum_rec_seq,
)

_HALF_DIFF = LaurentPoly.from_terms([(0.5, 1), (-0.5, -1)], "t")


@pytest.mark.parametrize("build, seeds", [
    pytest.param(lambda: cheb_first_seq(0), [2], id="cheb-first-0"),
    pytest.param(lambda: cheb_second_seq(1), [1, LaurentPoly.gen("x")], id="cheb-second-1"),
    pytest.param(lambda: qnum_rec_seq(0), [0], id="qnum-0"),
    pytest.param(lambda: qpnum_rec_seq(1), [0, 1], id="qpnum-1"),
    pytest.param(lambda: alexander_rx_seq(0), [1], id="rx-0"),
    pytest.param(lambda: homfly_rec(0), [1], id="homfly-0"),
    pytest.param(lambda: alexander_knot_rec(0), [1], id="knot-0"),
    pytest.param(lambda: alexander_unified_rec(1), [1], id="unified-1"),
    pytest.param(lambda: alexander_unified_rec(2), [1, _HALF_DIFF], id="unified-2"),
])
def test_short_runs_return_the_seeds(build, seeds):
    assert build() == seeds


def _count_kernels(monkeypatch, module, names):
    counts = Counter()
    for name in names:
        kernel = getattr(module, name)

        def counting(*args, _name=name, _kernel=kernel):
            counts[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("build, steps", [
    pytest.param(lambda: cheb_first_seq(50), 49, id="cheb-first"),
    pytest.param(lambda: alexander_unified_rec(50), 48, id="unified"),
])
def test_unit_tail_costs_one_product_per_step(monkeypatch, build, steps):
    counts = _count_kernels(monkeypatch, laurent, ("mul_terms", "scale_terms"))
    build()
    assert counts == {"mul_terms": steps}


def test_polynomial_tail_costs_two_products_per_step(monkeypatch):
    counts = _count_kernels(monkeypatch, bivar, ("bi_mul_terms", "scale_terms"))
    # negation is shared by both polynomial types, so it looks its kernel up in laurent
    negations = _count_kernels(monkeypatch, laurent, ("neg_terms",))
    alexander_rx_seq(30)
    assert counts + negations == {"bi_mul_terms": 2 * 29}

"""The one three-term recurrence under every sequence builder: the eight
declarations and the builders that run them, the seeds at the shortest
lengths, the ring operations a step costs, and the relations between the
declared (c1, c2, seeds) that the skein relation is read from."""

from collections import Counter
from itertools import islice

import pytest

from knotpoly import (
    BiPoly,
    LaurentPoly,
    alexander_knot_rec,
    alexander_rx_seq,
    alexander_unified_rec,
    bivar,
    cheb_first_seq,
    cheb_second_seq,
    compose_skein,
    homfly_rec,
    laurent,
    qnum_rec_seq,
    qpnum_rec_seq,
)
from knotpoly.chebyshev import _CHEB_FIRST_REC, _CHEB_SECOND_REC
from knotpoly.invariants import _HOMFLY_IMAGES, _HOMFLY_REC, _KNOT_REC, _RX_REC, _UNIFIED_REC
from knotpoly.qnumbers import _QNUM_REC, _QPNUM_REC

_HALF_DIFF = LaurentPoly.from_terms([(0.5, 1), (-0.5, -1)], "t")

# each declaration and its builder's members as a function of their count
DECLARATIONS = [
    pytest.param(_QNUM_REC, lambda k: qnum_rec_seq(k - 1), id="qnum"),
    pytest.param(_QPNUM_REC, lambda k: qpnum_rec_seq(k - 1), id="qpnum"),
    pytest.param(_CHEB_FIRST_REC, lambda k: cheb_first_seq(k - 1), id="cheb-first"),
    pytest.param(_CHEB_SECOND_REC, lambda k: cheb_second_seq(k - 1), id="cheb-second"),
    pytest.param(_UNIFIED_REC, alexander_unified_rec, id="unified"),
    pytest.param(_KNOT_REC, lambda k: alexander_knot_rec(k - 1), id="knot"),
    pytest.param(_RX_REC, lambda k: alexander_rx_seq(k - 1), id="rx"),
    pytest.param(_HOMFLY_REC, lambda k: homfly_rec(k - 1), id="homfly"),
]


@pytest.mark.parametrize("rec, build", DECLARATIONS)
def test_builder_runs_its_declaration(rec, build):
    members = build(40)
    assert len(members) == 40
    assert members == list(islice(rec.members(), 40))
    for k in range(2, 40):
        assert members[k] == rec.step(members[k - 1], members[k - 2])
        assert members[k] == rec.c1 * members[k - 1] + rec.c2 * members[k - 2]


def test_the_r_x_declaration_maps_to_the_homfly_one():
    """r = a^2, x = z^2 + 2 takes the (r,x) recurrence, seeds included, to
    the HOMFLY one, so the two skein relations are one."""
    rx, homfly = _RX_REC, _HOMFLY_REC
    assert [p.substitute(*_HOMFLY_IMAGES) for p in (rx.c1, rx.c2, *rx.seeds)] == [
        homfly.c1, homfly.c2, *homfly.seeds]


def test_the_q_p_declaration_specialises_to_the_knot_pair():
    t, t_inv = LaurentPoly.gen("t"), LaurentPoly({-2: 1})
    pair = tuple(c.substitute(t, t_inv) for c in (_QPNUM_REC.c1, _QPNUM_REC.c2))
    assert pair == (_KNOT_REC.c1, _KNOT_REC.c2)


def test_the_homfly_declaration_is_the_composed_skein_pair():
    a, z = BiPoly.gens(("a", "z"))
    assert compose_skein(a * z, a**2) == (_HOMFLY_REC.c1, _HOMFLY_REC.c2)


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
    pytest.param(lambda: qnum_rec_seq(50), 49, id="qnum"),
    pytest.param(lambda: alexander_knot_rec(50), 49, id="knot"),
])
def test_unit_tail_costs_one_product_per_step(monkeypatch, build, steps):
    counts = _count_kernels(monkeypatch, laurent, ("mul_terms", "scale_terms"))
    build()
    assert counts == {"mul_terms": steps}


@pytest.mark.parametrize("build", [
    pytest.param(alexander_rx_seq, id="rx"),
    pytest.param(homfly_rec, id="homfly"),
])
def test_polynomial_tail_costs_two_products_per_step(monkeypatch, build):
    counts = _count_kernels(monkeypatch, bivar, ("bi_mul_terms", "scale_terms"))
    # negation is shared by both polynomial types, so it looks its kernel up in laurent
    negations = _count_kernels(monkeypatch, laurent, ("neg_terms",))
    build(30)
    assert counts + negations == {"bi_mul_terms": 2 * 29}

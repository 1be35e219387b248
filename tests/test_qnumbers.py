import subprocess
import sys

import pytest

from knotpoly import (
    BiPoly,
    qnum_closed,
    qnum_rec,
    qpnum_closed,
    qpnum_rec,
    qpnum_rec_seq,
)

q, p = BiPoly.gens(("q", "p"))


class TestClosedForms:
    def test_first_values(self):
        assert qnum_closed(0).is_zero
        assert qnum_closed(1) == 1
        assert str(qnum_closed(2)) == "q + q^(-1)"
        assert str(qnum_closed(3)) == "q^2 + 1 + q^(-2)"
        assert str(qnum_closed(4)) == "q^3 + q + q^(-1) + q^(-3)"

    def test_qp_first_values(self):
        assert qpnum_closed(0).is_zero
        assert qpnum_closed(1) == 1
        assert qpnum_closed(2) == q + p
        assert qpnum_closed(3) == q**2 + q * p + p**2
        assert qpnum_closed(4) == q**3 + q**2 * p + q * p**2 + p**3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            qnum_closed(-1)
        with pytest.raises(ValueError):
            qpnum_closed(-2)

    def test_bool_index_rejected(self):
        with pytest.raises(ValueError):
            qnum_closed(True)
        with pytest.raises(ValueError):
            qpnum_rec_seq(False)


class TestRecurrences:
    def test_small_values(self):
        assert qnum_rec(2) == qnum_closed(2)
        assert qnum_rec(3) == qnum_closed(3)
        assert qnum_rec(7) == qnum_closed(7)
        assert qpnum_rec(0).is_zero
        assert qpnum_rec(2) == q + p
        assert qpnum_rec(5) == qpnum_closed(5)


class TestIdentities:
    def test_classical_limit_at_one(self):
        for n in range(41):
            assert qnum_closed(n).eval_complex(1) == n


# one member is read off the recurrence holding two members at a time: the
# n + 1 members of qnum_rec_seq(800) peak at about 21 MB, and those of
# qpnum_rec_seq(600) at about 23 MB.  The peak is tracemalloc's, taken in a
# child process, as for the tables in test_cli.py.
def test_a_single_member_holds_two_members():
    code = ("import sys, tracemalloc\nfrom knotpoly import qnum_rec, qpnum_rec\n"
            "tracemalloc.start()\nfor build, n in ((qnum_rec, 800), (qpnum_rec, 600)):\n"
            "    tracemalloc.reset_peak()\n    build(n)\n"
            "    sys.stderr.write(f'{tracemalloc.get_traced_memory()[1]} ')")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    peaks = [int(peak) for peak in proc.stderr.split()]
    assert len(peaks) == 2 and max(peaks) < 5 * 2**20, peaks

"""Exact polynomial invariants of (s,2) torus knots and links.

Construction and cross-verification of the classical Alexander
polynomials, their two-variable generalisations, the HOMFLY polynomials,
Chebyshev polynomials of both kinds, q-numbers and q,p-numbers, plus the
algebra that converts recurrence coefficients into skein coefficients.

The arithmetic core is exact: arbitrary-precision integer coefficients
over half-integer exponent lattices, on one set of pure-Python term-dict
kernels.
"""

from . import errors
from .bivar import BiPoly, RadicalExpr
from .chebyshev import (
    cheb_first,
    cheb_first_seq,
    cheb_second,
    cheb_second_qp,
    cheb_second_rx,
    cheb_second_seq,
)
from .invariants import (
    SkeinCoeffs,
    SkeinReport,
    TorusIndex,
    TripleCheck,
    alexander_closed,
    alexander_from_qnum,
    alexander_knot_rec,
    alexander_qp,
    alexander_rx,
    alexander_rx_seq,
    alexander_unified_rec,
    compose_skein,
    derive_skein,
    homfly_closed,
    homfly_from_alexander,
    homfly_rec,
    verify_skein,
)
from .laurent import LaurentPoly
from .qnumbers import (
    qnum_closed,
    qnum_rec,
    qnum_rec_seq,
    qpnum_closed,
    qpnum_rec,
    qpnum_rec_seq,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "LaurentPoly",
    "RadicalExpr",
    "SkeinCoeffs",
    "SkeinReport",
    "TorusIndex",
    "TripleCheck",
    "alexander_closed",
    "alexander_from_qnum",
    "alexander_knot_rec",
    "alexander_qp",
    "alexander_rx",
    "alexander_rx_seq",
    "alexander_unified_rec",
    "cheb_first",
    "cheb_first_seq",
    "cheb_second",
    "cheb_second_qp",
    "cheb_second_rx",
    "cheb_second_seq",
    "compose_skein",
    "derive_skein",
    "errors",
    "homfly_closed",
    "homfly_from_alexander",
    "homfly_rec",
    "kernel_backend",
    "qnum_closed",
    "qnum_rec",
    "qnum_rec_seq",
    "qpnum_closed",
    "qpnum_rec",
    "qpnum_rec_seq",
    "verify_skein",
]


def kernel_backend() -> str:
    """The arithmetic kernel in use; always "pure", since the package is
    pure Python."""
    return "pure"

"""Exact polynomial invariants of (s,2) torus knots and links.

Construction and cross-verification of the classical Alexander
polynomials, their two-variable generalisations, the HOMFLY polynomials,
Chebyshev polynomials of both kinds, q-numbers and q,p-numbers, plus the
algebra that converts recurrence coefficients into skein coefficients.

The arithmetic core is exact: arbitrary-precision integer coefficients
over half-integer exponent lattices, on one set of pure-Python term-dict
kernels.
"""

from . import bivar, chebyshev, errors, invariants, laurent, qnumbers
from .bivar import *
from .chebyshev import *
from .invariants import *
from .laurent import *
from .qnumbers import *

__version__ = "0.1.0"

__all__ = ["errors", "kernel_backend", *bivar.__all__, *chebyshev.__all__,
           *invariants.__all__, *laurent.__all__, *qnumbers.__all__]


def kernel_backend() -> str:
    """The arithmetic kernel in use; always "pure", since the package is
    pure Python."""
    return "pure"

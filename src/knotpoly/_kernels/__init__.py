"""The term-dict kernels every polynomial operation runs on (see ``pure``).

Addition, subtraction, negation and scaling are one pass over the terms.
The two multiplications, ``mul_terms`` (int keys) and ``bi_mul_terms``
(pairs of ints), loop over the pairs of terms while the shorter operand is
below a measured crossover, one row per term of the shorter operand: the
first row is one dict comprehension, the others add into it, and zeros
are dropped only when some sum cancelled.  Above the crossover, a product
dense enough for the density guard runs as one Kronecker-packed big-int
multiply, which both arities share.  The two exact square roots,
``sqrt_terms`` and ``bi_sqrt_terms``, try a square long and dense enough
as one packed integer square root, checked by squaring the candidate root
with ``mul_terms``, and leave every other case to a long division; the
bivariate kernels of all three kinds fold a key (x, y) onto one int the
same way.  ``compose_terms`` evaluates sums c·g^d, one per source, at a
packed image g as one big int each, over the squares of that int, scales
and shifts each to its place as it unpacks it, and sums them; a source
below its crossover, or an image or result past its density and size
guards, is refused, and ``compose`` and ``substitute`` then split their
source so that their work is balanced products that reach the packed
multiply, as ``**`` always does.
"""

from .pure import (add_terms, bi_mul_terms, bi_sqrt_terms, compose_terms, mul_terms, neg_terms,
                   scale_terms, sqrt_terms, sub_terms)

__all__ = ["add_terms", "bi_mul_terms", "bi_sqrt_terms", "compose_terms", "mul_terms", "neg_terms",
           "scale_terms", "sqrt_terms", "sub_terms"]

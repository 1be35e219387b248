"""The term-dict kernels every polynomial operation runs on (see ``pure``)."""

from .pure import add_terms, bi_mul_terms, mul_terms, neg_terms, scale_terms, sub_terms

__all__ = ["add_terms", "bi_mul_terms", "mul_terms", "neg_terms", "scale_terms", "sub_terms"]

"""Exact-arithmetic engine for power-series solutions of singular PDE
systems of the form P^k L_k(y) + ... + P L_1(y) = F(x, y), together with
divergence-rate (Gevrey order) prediction and measurement."""

from .diffops import DiffOperator, check_divisibility
from .dsl import parse_problem
from .gevrey import estimate_order, monomial_gevrey_fit, theoretical_order
from .series import Series, SeriesMatrix
from .solver import (PExpansion, ProblemSpec, check_poincare, solve_direct,
                     solve_p_expansion)

__version__ = "0.1.0"

__all__ = [
    "DiffOperator",
    "PExpansion",
    "ProblemSpec",
    "Series",
    "SeriesMatrix",
    "check_divisibility",
    "check_poincare",
    "estimate_order",
    "monomial_gevrey_fit",
    "parse_problem",
    "solve_direct",
    "solve_p_expansion",
    "theoretical_order",
    "__version__",
]

"""Exact subgraph-count moment polynomials for the uniform random graph G(n, 1/2).

For a small pattern graph (or pair of patterns) this package computes the
mean, variance and covariance of the number of appearances as a subgraph of
a uniform random graph on n labeled nodes, as polynomials in n with exact
rational coefficients, and certifies the results against an independent
exhaustive-enumeration oracle at small n.
"""

from .algebra import (
    RationalPolynomial,
    falling_factorial_poly,
    format_rational_decimal,
    poly_eval_exact,
    rat_add,
    rat_div,
    rat_mul,
    rat_sub,
    sqrt_decimal,
)
from .moments import (
    MomentReport,
    covariance_poly,
    mean_poly,
    second_moment_poly,
    variance_poly,
)
from .oracle import (
    DEFAULT_NODE_CAP,
    OracleResult,
    VerificationCheck,
    VerificationReport,
    exact_moments,
    verify,
)
from .pattern import (
    DEFAULT_MAX_VERTICES,
    PatternGraph,
    builtin,
    builtin_names,
    parse_adjacency_matrix,
    parse_edge_list,
    relabel,
)
from .symmetry import automorphism_count

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "DEFAULT_NODE_CAP",
    "MomentReport",
    "OracleResult",
    "PatternGraph",
    "RationalPolynomial",
    "VerificationCheck",
    "VerificationReport",
    "automorphism_count",
    "builtin",
    "builtin_names",
    "covariance_poly",
    "exact_moments",
    "falling_factorial_poly",
    "format_rational_decimal",
    "mean_poly",
    "parse_adjacency_matrix",
    "parse_edge_list",
    "poly_eval_exact",
    "rat_add",
    "rat_div",
    "rat_mul",
    "rat_sub",
    "relabel",
    "second_moment_poly",
    "sqrt_decimal",
    "variance_poly",
    "verify",
]

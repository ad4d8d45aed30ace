"""Exact subgraph-count moment polynomials for the uniform random graph G(n, 1/2).

For a small pattern graph (or pair of patterns) this package computes the
mean, variance and covariance of the number of appearances as a subgraph of
a uniform random graph on n labeled nodes, as polynomials in n with exact
rational coefficients, and certifies the results against an independent
exhaustive-enumeration oracle at small n.
"""

import importlib

# Each exported name, under the module that defines it.  Nothing is imported
# until one of them, or one of these modules, is first read from the package:
# then all five are imported and every name is bound here.  So `import
# motifmoments` compiles none of them, and a CLI command only those it runs.
_EXPORTS = {
    "algebra": (
        "RationalPolynomial",
        "falling_factorial_poly",
        "format_rational_decimal",
        "poly_eval_exact",
        "rat_add",
        "rat_div",
        "rat_mul",
        "rat_sub",
        "sqrt_decimal",
    ),
    "pattern": (
        "DEFAULT_MAX_VERTICES",
        "DEFAULT_NODE_CAP",
        "PatternGraph",
        "builtin",
        "builtin_names",
        "parse_adjacency_matrix",
        "parse_edge_list",
        "relabel",
    ),
    "symmetry": ("automorphism_count",),
    "moments": (
        "MomentReport",
        "covariance_poly",
        "mean_poly",
        "second_moment_poly",
        "variance_poly",
    ),
    "oracle": (
        "OracleResult",
        "VerificationCheck",
        "VerificationReport",
        "exact_moments",
        "verify",
    ),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # importlib, not ``from . import``: that statement asks hasattr() of this
    # package for each name, which would call back into this function.
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update((export, getattr(module, export)) for export in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

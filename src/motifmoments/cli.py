"""Command-line front end.

Examples::

    motifmoments mean --builtin triangle
    motifmoments var --builtin triangle --eval 1000000 --stddev
    motifmoments cov --builtin edge --builtin2 triangle --format matrix-csv
    motifmoments verify --builtin square --n 0,1,2,3,4,5
    motifmoments builtins

Patterns come from --builtin NAME, --file PATH, or --stdin; files and stdin
hold either an adjacency matrix or an edge list (auto-detected from the first
nonblank line).  Results go to stdout, errors to stderr with exit status 2;
``verify`` exits 1 when any engine/oracle comparison mismatches.

Output formats: ``human`` prints terms like ``1/48 n^3 - 1/16 n^2 + 1/24 n``;
``matrix-csv`` prints two comma-separated rows, numerators then denominators,
highest degree first, absent terms encoded as 0/1 (the zero polynomial is the
single column 0 over 1).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import (
    RationalPolynomial,
    format_rational_decimal,
    poly_eval_exact,
    sqrt_decimal,
)
from .moments import covariance_poly, mean_poly, variance_poly
from .oracle import DEFAULT_NODE_CAP, MAX_NODE_CAP, verify
from .pattern import (
    PatternGraph,
    builtin,
    builtin_names,
    parse_adjacency_matrix,
    parse_edge_list,
)


def format_human(poly: RationalPolynomial) -> str:
    """Render terms highest degree first: ``1/8 n^4 - 19/32 n^3 + ... - 7/16 n``."""
    if not poly:
        return "0"
    parts: list[str] = []
    for power in range(poly.degree, -1, -1):
        coeff = poly.coefficient(power)
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        if power == 0:
            body = str(magnitude)
        else:
            variable = "n" if power == 1 else f"n^{power}"
            body = variable if magnitude == 1 else f"{magnitude} {variable}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def format_matrix_csv(poly: RationalPolynomial) -> str:
    """Two CSV rows of equal length: numerators then denominators, highest
    degree first, with absent terms as 0/1."""
    top_degree = max(poly.degree, 0)
    numerators = []
    denominators = []
    for power in range(top_degree, -1, -1):
        coeff = poly.coefficient(power)
        numerators.append(str(coeff.numerator))
        denominators.append(str(coeff.denominator))
    return ",".join(numerators) + "\n" + ",".join(denominators)


def render_poly(poly: RationalPolynomial, mode: str) -> str:
    if mode == "matrix-csv":
        return format_matrix_csv(poly)
    return format_human(poly)


def parse_pattern_text(text: str) -> PatternGraph:
    """Auto-detect the pattern format.

    A first nonblank line with several tokens is an adjacency-matrix row.  A
    single-token first line is ``0`` for the one-vertex adjacency matrix
    (the only 1x1 matrix with a zero diagonal) or a vertex count starting an
    edge list.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty pattern input")
    first = lines[0].split()
    if len(first) > 1 or first[0] == "0":
        return parse_adjacency_matrix(text)
    return parse_edge_list(text)


def _load_pattern(args: argparse.Namespace, secondary: bool = False) -> PatternGraph | None:
    suffix = "2" if secondary else ""
    builtin_name = getattr(args, "builtin" + suffix, None)
    file_path = getattr(args, "file" + suffix, None)
    use_stdin = bool(getattr(args, "stdin", False)) and not secondary
    chosen = []
    if builtin_name:
        chosen.append("--builtin" + suffix)
    if file_path:
        chosen.append("--file" + suffix)
    if use_stdin:
        chosen.append("--stdin")
    if not chosen:
        if secondary:
            return None
        raise ValueError("a pattern source is required: one of --builtin, --file, --stdin")
    if len(chosen) > 1:
        raise ValueError(f"pattern sources are mutually exclusive, got {' and '.join(chosen)}")
    if builtin_name:
        return builtin(builtin_name)
    if file_path:
        with open(file_path, encoding="utf-8") as handle:
            return parse_pattern_text(handle.read())
    return parse_pattern_text(sys.stdin.read())


def _print_eval(label: str, value: Fraction, n: int, digits: int) -> None:
    print(f"{label} at n={n}: {value} ≈ {format_rational_decimal(value, digits)}")


def cmd_mean(args: argparse.Namespace) -> int:
    pattern = _load_pattern(args)
    poly = mean_poly(pattern)
    print(render_poly(poly, args.format))
    if args.eval is not None:
        _print_eval("mean", poly_eval_exact(poly, args.eval), args.eval, args.digits)
    return 0


def cmd_var(args: argparse.Namespace) -> int:
    if args.stddev and args.eval is None:
        raise ValueError("--stddev requires --eval N")
    pattern = _load_pattern(args)
    report = variance_poly(pattern, workers=args.workers)
    print(render_poly(report.covariance, args.format))
    if args.eval is None:
        return 0
    n, digits = args.eval, args.digits
    mean_value = poly_eval_exact(report.mean_a, n)
    variance_value = poly_eval_exact(report.covariance, n)
    _print_eval("mean", mean_value, n, digits)
    _print_eval("variance", variance_value, n, digits)
    if args.stddev:
        if variance_value < 0:
            raise RuntimeError(
                f"internal error: variance evaluated negative ({variance_value}) at n={n}"
            )
        print(f"stddev at n={n}: {sqrt_decimal(variance_value, digits)}")
    return 0


def cmd_cov(args: argparse.Namespace) -> int:
    pattern_a = _load_pattern(args)
    pattern_b = _load_pattern(args, secondary=True) or pattern_a
    report = covariance_poly(pattern_a, pattern_b, workers=args.workers)
    print(render_poly(report.covariance, args.format))
    if args.eval is not None:
        _print_eval(
            "covariance",
            poly_eval_exact(report.covariance, args.eval),
            args.eval,
            args.digits,
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    pattern_a = _load_pattern(args)
    pattern_b = _load_pattern(args, secondary=True) or pattern_a
    n_values = args.n
    report = verify(
        pattern_a, pattern_b, n_values, node_cap=args.oracle_cap, workers=args.workers
    )
    for n in n_values:
        parts = []
        for check in report.checks:
            if check.n != n:
                continue
            if check.matches:
                parts.append(f"{check.quantity} {check.engine_value} OK")
            else:
                parts.append(
                    f"{check.quantity} MISMATCH (engine {check.engine_value}, "
                    f"oracle {check.oracle_value})"
                )
        print(f"n={n}: " + ", ".join(parts))
    failed = sorted({check.n for check in report.checks if not check.matches})
    if failed:
        print(f"FAILED: {len(failed)} of {len(n_values)} n values failed")
        return 1
    print(f"all {len(n_values)} checks passed")
    return 0


def cmd_builtins(args: argparse.Namespace) -> int:
    for name in builtin_names():
        pattern = builtin(name)
        print(f"{name:<10} {pattern.vertex_count} vertices, {pattern.edge_count} edges")
    print("parameterized: clique:K (K>=1), cycle:K (K>=3), path:K (K vertices), star:K (K leaves)")
    return 0


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _n_list(text: str) -> list[int]:
    values = [token.strip() for token in text.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    try:
        n_values = [int(v) for v in values]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer in n list: {text!r}") from None
    negative = [n for n in n_values if n < 0]
    if negative:
        raise argparse.ArgumentTypeError(
            f"n values must be >= 0, got {', '.join(map(str, negative))}"
        )
    repeated = sorted({n for n in n_values if n_values.count(n) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"repeated n values in {text!r}: {', '.join(map(str, repeated))}"
        )
    return n_values


def _add_source_arguments(parser: argparse.ArgumentParser, secondary: bool = False) -> None:
    suffix = "2" if secondary else ""
    which = "second pattern" if secondary else "pattern"
    parser.add_argument(
        f"--builtin{suffix}", metavar="NAME", help=f"builtin name for the {which}"
    )
    parser.add_argument(
        f"--file{suffix}",
        metavar="PATH",
        help=f"file with the {which} (adjacency matrix or edge list, auto-detected)",
    )
    if not secondary:
        parser.add_argument(
            "--stdin", action="store_true", help="read the pattern from standard input"
        )


def _add_render_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("human", "matrix-csv"),
        default="human",
        help="polynomial output encoding (default: human)",
    )
    parser.add_argument(
        "--digits",
        type=_int_at_least(1),
        default=5,
        metavar="D",
        help="significant digits for decimal output, D >= 1 (default: 5)",
    )


def _add_eval_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eval", type=_int_at_least(0), metavar="N", help="also evaluate at n=N >= 0"
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        metavar="W",
        help="accepted for compatibility, must be >= 1; the engine runs in "
        "one process and the output is identical for any value (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifmoments",
        description="Exact mean/variance/covariance polynomials for subgraph "
        "counts in the uniform random graph G(n, 1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="mean-count polynomial of a pattern")
    _add_source_arguments(p_mean)
    _add_render_arguments(p_mean)
    _add_eval_argument(p_mean)
    p_mean.set_defaults(func=cmd_mean)

    p_var = sub.add_parser("var", help="variance polynomial of a pattern's count")
    _add_source_arguments(p_var)
    _add_render_arguments(p_var)
    _add_eval_argument(p_var)
    p_var.add_argument(
        "--stddev",
        action="store_true",
        help="with --eval, also print the standard deviation",
    )
    _add_workers_argument(p_var)
    p_var.set_defaults(func=cmd_var)

    p_cov = sub.add_parser("cov", help="covariance polynomial of two patterns' counts")
    _add_source_arguments(p_cov)
    _add_source_arguments(p_cov, secondary=True)
    _add_render_arguments(p_cov)
    _add_eval_argument(p_cov)
    _add_workers_argument(p_cov)
    p_cov.set_defaults(func=cmd_cov)

    p_verify = sub.add_parser(
        "verify", help="certify engine polynomials against exhaustive enumeration"
    )
    _add_source_arguments(p_verify)
    _add_source_arguments(p_verify, secondary=True)
    p_verify.add_argument(
        "--n", type=_n_list, required=True, metavar="LIST", help="comma-separated n values"
    )
    p_verify.add_argument(
        "--oracle-cap",
        type=_int_at_least(0),
        default=DEFAULT_NODE_CAP,
        metavar="CAP",
        help=f"largest n the oracle may enumerate (default {DEFAULT_NODE_CAP}, "
        f"max {MAX_NODE_CAP}; raising it warns about the graph count)",
    )
    _add_workers_argument(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_builtins = sub.add_parser("builtins", help="list builtin pattern names")
    p_builtins.set_defaults(func=cmd_builtins)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

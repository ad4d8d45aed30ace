"""Command-line front end.

Examples::

    motifmoments mean --builtin triangle
    motifmoments var --builtin triangle --eval 1000000 --stddev
    motifmoments cov --builtin edge --builtin2 triangle --format matrix-csv
    motifmoments verify --builtin square --n 0,1,2,3,4,5
    motifmoments builtins

Patterns come from --builtin NAME, --file PATH, or --stdin; files and stdin
hold either an adjacency matrix or an edge list, told apart by
`pattern.parse_pattern_text`.  ``mean``, ``var`` and ``cov`` build their
output through one routine: the polynomial in the chosen --format, then with
--eval N each labelled value at N, exact and as a decimal.  Results go to
stdout, errors to stderr with exit status 2; ``verify`` exits 1 when any
engine/oracle comparison mismatches.

Each command imports the engine (`moments`) or the oracle itself, once its
patterns have loaded: a cold process compiles only the modules it runs, so
``builtins`` and every input error compile neither.

Output formats: ``human`` prints terms like ``1/48 n^3 - 1/16 n^2 + 1/24 n``;
``matrix-csv`` prints two comma-separated rows, numerators then denominators,
highest degree first, absent terms encoded as 0/1 (the zero polynomial is the
single column 0 over 1).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .algebra import (
    RationalPolynomial,
    format_rational_decimal,
    poly_eval_exact,
    sqrt_decimal,
)
from .pattern import (
    DEFAULT_NODE_CAP,
    MAX_NODE_CAP,
    PatternGraph,
    _excerpt,
    _numbers,
    builtin,
    builtin_names,
    parse_pattern_text,
)

# Largest --digits: the significand is built as an integer with D digits, and
# Python refuses to print integers of more than 4300 digits.
MAX_DIGITS = 1000


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


RENDERERS = {"human": format_human, "matrix-csv": format_matrix_csv}


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


def _output(
    args: argparse.Namespace,
    poly: RationalPolynomial,
    evaluated: list[tuple[str, RationalPolynomial]],
) -> list[str]:
    """The lines to print: `poly` in the --format chosen, then with --eval N
    one line per (label, polynomial) in `evaluated`, with its exact value at
    N and that value's decimal rounding to --digits.

    A value with more digits than Python converts to a string is an error on
    --eval; every line is built before any is printed, so nothing is printed
    then."""
    lines = [RENDERERS[args.format](poly)]
    if args.eval is None:
        return lines
    n, digits = args.eval, args.digits
    try:
        for label, labelled in evaluated:
            value = poly_eval_exact(labelled, n)
            lines.append(f"{label} at n={n}: {value} ≈ {format_rational_decimal(value, digits)}")
    except ValueError as exc:
        raise ValueError(f"--eval: the exact value is too long to print ({exc})") from None
    return lines


def cmd_mean(args: argparse.Namespace) -> int:
    pattern = _load_pattern(args)
    from .moments import mean_poly

    poly = mean_poly(pattern)
    print("\n".join(_output(args, poly, [("mean", poly)])))
    return 0


def cmd_var(args: argparse.Namespace) -> int:
    if args.stddev and args.eval is None:
        raise ValueError("--stddev requires --eval N")
    pattern = _load_pattern(args)
    from .moments import variance_poly

    report = variance_poly(pattern, workers=args.workers)
    variance = report.covariance
    lines = _output(args, variance, [("mean", report.mean_a), ("variance", variance)])
    if args.stddev:
        n = args.eval
        value = poly_eval_exact(variance, n)
        if value < 0:
            raise RuntimeError(f"internal error: variance evaluated negative ({value}) at n={n}")
        lines.append(f"stddev at n={n}: {sqrt_decimal(value, args.digits)}")
    print("\n".join(lines))
    return 0


def cmd_cov(args: argparse.Namespace) -> int:
    pattern_a = _load_pattern(args)
    pattern_b = _load_pattern(args, secondary=True) or pattern_a
    from .moments import covariance_poly

    report = covariance_poly(pattern_a, pattern_b, workers=args.workers)
    print("\n".join(_output(args, report.covariance, [("covariance", report.covariance)])))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    pattern_a = _load_pattern(args)
    pattern_b = _load_pattern(args, secondary=True) or pattern_a
    from .oracle import verify

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


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer >= minimum and, if given, <= maximum.
    Echoed input is cut at 40 characters."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {_numbers(value)}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {_numbers(value)}")
        return value

    return parse


def _n_list(text: str) -> list[int]:
    values = [token.strip() for token in text.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    try:
        n_values = [int(v) for v in values]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer in n list: {_excerpt(text)}") from None
    negative = [n for n in n_values if n < 0]
    if negative:
        raise argparse.ArgumentTypeError(f"n values must be >= 0, got {_numbers(*negative)}")
    repeated = sorted(n for n, times in Counter(n_values).items() if times > 1)
    if repeated:
        raise argparse.ArgumentTypeError(
            f"repeated n values in {_excerpt(text)}: {_numbers(*repeated)}"
        )
    return n_values


def build_parser() -> argparse.ArgumentParser:
    # Each argument set is declared once, as a parent parser; a subcommand's
    # options appear in the order of its parents.
    source, second, output, stddev, checks, workers = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    source.add_argument("--builtin", metavar="NAME", help="builtin name for the pattern")
    source.add_argument(
        "--file",
        metavar="PATH",
        help="file with the pattern (adjacency matrix or edge list, auto-detected)",
    )
    source.add_argument(
        "--stdin", action="store_true", help="read the pattern from standard input"
    )
    second.add_argument("--builtin2", metavar="NAME", help="builtin name for the second pattern")
    second.add_argument(
        "--file2",
        metavar="PATH",
        help="file with the second pattern (adjacency matrix or edge list, auto-detected)",
    )
    output.add_argument(
        "--format",
        choices=RENDERERS,
        default="human",
        help="polynomial output encoding (default: human)",
    )
    output.add_argument(
        "--digits",
        type=_int_at_least(1, MAX_DIGITS),
        default=5,
        metavar="D",
        help=f"significant digits for decimal output, 1 <= D <= {MAX_DIGITS} (default: 5)",
    )
    output.add_argument(
        "--eval", type=_int_at_least(0), metavar="N", help="also evaluate at n=N >= 0"
    )
    stddev.add_argument(
        "--stddev",
        action="store_true",
        help="with --eval, also print the standard deviation",
    )
    checks.add_argument(
        "--n", type=_n_list, required=True, metavar="LIST", help="comma-separated n values"
    )
    checks.add_argument(
        "--oracle-cap",
        type=_int_at_least(0),
        default=DEFAULT_NODE_CAP,
        metavar="CAP",
        help=f"largest n the oracle may enumerate (default {DEFAULT_NODE_CAP}, "
        f"max {MAX_NODE_CAP}; raising it warns about the graph count)",
    )
    workers.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        metavar="W",
        help="accepted for compatibility, must be >= 1; the engine runs in "
        "one process and the output is identical for any value (default: 1)",
    )

    parser = argparse.ArgumentParser(
        prog="motifmoments",
        description="Exact mean/variance/covariance polynomials for subgraph "
        "counts in the uniform random graph G(n, 1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, func, summary in (
        ("mean", [source, output], cmd_mean, "mean-count polynomial of a pattern"),
        (
            "var",
            [source, output, stddev, workers],
            cmd_var,
            "variance polynomial of a pattern's count",
        ),
        (
            "cov",
            [source, second, output, workers],
            cmd_cov,
            "covariance polynomial of two patterns' counts",
        ),
        (
            "verify",
            [source, second, checks, workers],
            cmd_verify,
            "certify engine polynomials against exhaustive enumeration",
        ),
        ("builtins", [], cmd_builtins, "list builtin pattern names"),
    ):
        sub.add_parser(name, parents=parents, help=summary).set_defaults(func=func)
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

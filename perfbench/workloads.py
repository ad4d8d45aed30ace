"""Seeded job lists for the three workloads, and the exact checks on their output.

A job is one closed-loop request: the harness starts it, waits for it to end
and checks its output before the next one starts.  Every input is generated
from the workload seed (relabelings, text encodings, job order and the
asymmetric patterns drawn for engine-lowsym); the package receives only
pattern text and PatternGraph objects.  Outputs are checked against
goldens.json, polynomials kept as numerator/denominator lists per named
pattern.  Moments do not change under relabeling, so the goldens hold for
every seed.  The checks parse CLI output and compare values exactly; they
share no code with the package's renderers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

CLI_TIMEOUT_S = 30.0
CALL_TIMEOUT_S = 90.0

WORKLOADS = ("cli-small", "engine-lowsym", "engine-highsym")

# The eight graphs on six vertices whose only automorphism is the identity.
ASYM6 = {
    "asym6-1": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)),
    "asym6-2": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5)),
    "asym6-3": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (3, 5)),
    "asym6-4": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (3, 5)),
    "asym6-5": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4)),
    "asym6-6": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5)),
    "asym6-7": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (4, 5)),
    "asym6-8": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (4, 5)),
}

FIXED_BUILTINS = ("node", "edge", "wedge", "triangle", "square", "k4")
GOLDEN_BUILTINS = FIXED_BUILTINS + (
    "path:4", "path:5", "path:6", "path:7",
    "cycle:5", "cycle:7",
    "star:3", "star:4", "star:6", "star:7",
    "clique:5", "clique:7", "clique:8",
)
GOLDEN_PAIRS = (
    ("edge", "triangle"),
    ("edge", "wedge"),
    ("wedge", "square"),
    ("path:4", "star:3"),
    ("triangle", "k4"),
    ("cycle:5", "path:5"),
    ("path:6", "cycle:7"),
)

E6 = 10**6
E30 = 10**30

# cli-small: (subcommand, source A, source B, extra flags).  A source is
# (kind, pattern name) with kind builtin, file or stdin; the error jobs use
# file-text and stdin-text, whose value is the text itself.
CLI_TEMPLATES = (
    ("mean", ("builtin", "triangle"), None, ()),
    ("mean", ("builtin", "k4"), None, ("--eval", str(E6))),
    ("mean", ("file", "path:5"), None, ("--format", "matrix-csv")),
    ("mean", ("stdin", "square"), None, ("--eval", str(E30), "--digits", "30")),
    ("mean", ("file", "star:4"), None, ("--eval", str(E6), "--digits", "30")),
    ("mean", ("builtin", "cycle:5"), None, ("--format", "matrix-csv", "--eval", str(E30))),
    ("var", ("builtin", "triangle"), None, ("--eval", str(E6), "--stddev")),
    ("var", ("builtin", "square"), None, ()),
    ("var", ("file", "path:4"), None, ("--format", "matrix-csv")),
    ("var", ("stdin", "wedge"), None, ("--eval", str(E30), "--digits", "30", "--stddev")),
    ("var", ("file", "clique:5"), None, ("--eval", str(E6), "--stddev")),
    ("var", ("stdin", "star:3"), None, ("--format", "matrix-csv", "--eval", str(E6))),
    ("var", ("builtin", "cycle:5"), None, ("--eval", str(E30), "--digits", "30", "--stddev")),
    ("var", ("builtin", "path:5"), None, ("--format", "matrix-csv", "--eval", str(E6), "--stddev")),
    ("cov", ("builtin", "edge"), ("builtin", "triangle"), ()),
    ("cov", ("builtin", "wedge"), ("builtin", "square"), ("--format", "matrix-csv", "--eval", str(E6))),
    ("cov", ("file", "path:4"), ("file", "star:3"), ("--eval", str(E30), "--digits", "30")),
    ("cov", ("stdin", "triangle"), ("builtin", "k4"), ("--format", "matrix-csv")),
    ("cov", ("builtin", "cycle:5"), ("file", "path:5"), ("--eval", str(E6))),
    ("builtins", None, None, ()),
    ("verify", ("builtin", "triangle"), None, ("--n", "0,1,2,3,4,5")),
    ("verify", ("stdin", "square"), None, ("--n", "0,1,2,3,4,5")),
    ("verify", ("builtin", "edge"), ("file", "wedge"), ("--n", "0,1,2,3,4,5")),
)

# Warm in-process cli.main calls added to every traced pass, so that each
# layer is exercised on every workload.
LAYER_PROBE = (
    ("mean", ("stdin", "square"), None, ("--eval", str(E6))),
    ("var", ("builtin", "edge"), None, ("--eval", "1000", "--stddev", "--workers", "1")),
    ("verify", ("builtin", "edge"), None, ("--n", "0,1,2,3,4", "--workers", "1")),
)

LOWSYM_FIXED = (("path:7", None), ("cycle:7", None), ("path:6", "cycle:7"))
# engine-lowsym draws its two asymmetric patterns from the four densest of
# ASYM6.  Their variance_poly costs lie within a few percent of each other,
# while the sparser ones cost 30-45% less, and with five jobs the median job
# is often a drawn one: a draw from all eight moved job_p50_s with the seed.
LOWSYM_POOL = ("asym6-5", "asym6-6", "asym6-7", "asym6-8")
HIGHSYM = ("clique:8", "star:7", "clique:7", "star:6")


@dataclass
class Job:
    """One request: `run` does it, `check` returns None or why it failed.

    `cold` jobs run in a child process, so their CPU time and memory are the
    child's; the others run in this process.  `pooled` jobs are in-process
    calls whose work runs in pool worker processes.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    cold: bool = False
    pooled: bool = False
    patterns: tuple = ()  # (name, k, edges) of each pattern the job uses


# ---------------------------------------------------------------- goldens


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def poly_from_json(entry: dict) -> list[Fraction]:
    return [Fraction(n, d) for n, d in zip(entry["num"], entry["den"])]


def poly_to_json(coeffs) -> dict:
    return {"num": [c.numerator for c in coeffs], "den": [c.denominator for c in coeffs]}


def horner(coeffs: list[Fraction], n: int) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * n + c
    return value


class Expected:
    """Golden polynomials by pattern name; coefficient lists lowest degree first."""

    def __init__(self, goldens: dict):
        self.patterns = goldens["patterns"]
        self.pairs = goldens["pairs"]

    def edges(self, name: str) -> list[tuple[int, int]]:
        return [tuple(e) for e in self.patterns[name]["edges"]]

    def k(self, name: str) -> int:
        return self.patterns[name]["k"]

    def mean(self, name: str) -> list[Fraction]:
        return poly_from_json(self.patterns[name]["mean"])

    def cov(self, a: str, b: str | None) -> list[Fraction]:
        if b is None or b == a:
            return poly_from_json(self.patterns[a]["var"])
        return poly_from_json(self.pairs[f"{a}|{b}"]["cov"])


# ---------------------------------------------------------------- inputs


def relabeled(edges, k: int, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(k))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def encode(k: int, edges, rng: random.Random) -> str:
    """Adjacency-matrix or edge-list text, picked by the seed."""
    if rng.random() < 0.5:
        rows = [[0] * k for _ in range(k)]
        for u, v in edges:
            rows[u][v] = rows[v][u] = 1
        return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join([str(k), *lines]) + "\n"


def random_edges(k: int, e: int, rng: random.Random) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return rng.sample(pairs, e)


# ---------------------------------------------------------------- CLI checks


def _parse_human(line: str) -> dict[int, Fraction]:
    if line == "0":
        return {}
    terms: list[tuple[int, list[str]]] = []
    sign, parts = 1, []
    for token in line.split(" "):
        if token in ("+", "-") and parts:
            terms.append((sign, parts))
            sign, parts = (1 if token == "+" else -1), []
        else:
            parts.append(token)
    terms.append((sign, parts))
    poly: dict[int, Fraction] = {}
    for sign, parts in terms:
        if parts[0].startswith("-"):
            sign, parts[0] = -sign, parts[0][1:]
        variable = parts[-1]
        if variable == "n" or variable.startswith("n^"):
            power = 1 if variable == "n" else int(variable[2:])
            coeff = Fraction(parts[0]) if len(parts) == 2 else Fraction(1)
            if len(parts) > 2 or (len(parts) == 2 and coeff == 1):
                raise ValueError(f"bad term {' '.join(parts)!r}")
        elif len(parts) == 1:
            power, coeff = 0, Fraction(variable)
        else:
            raise ValueError(f"bad term {' '.join(parts)!r}")
        if power in poly or coeff == 0:
            raise ValueError(f"repeated or zero term in {line!r}")
        poly[power] = sign * coeff
    return poly


def _parse_csv(top: str, bottom: str) -> list[Fraction]:
    nums, dens = top.split(","), bottom.split(",")
    if len(nums) != len(dens):
        raise ValueError("matrix-csv rows differ in length")
    coeffs = []
    for n, d in zip(nums, dens):
        if int(d) <= 0:
            raise ValueError("non-positive denominator")
        coeffs.append(Fraction(int(n), int(d)))
    return coeffs[::-1]


def _floor_log10(value: Fraction) -> int:
    """E with 10**E <= value < 10**(E+1), for value > 0, exactly."""
    exponent = len(str(value.numerator)) - len(str(value.denominator))
    while Fraction(10) ** exponent > value:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= value:
        exponent += 1
    return exponent


def _decimal(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError):
        raise ValueError(f"not a decimal: {text!r}") from None


def decimal_ok(text: str, value: Fraction, digits: int) -> bool:
    """`text` is `value` rounded to `digits` significant digits."""
    shown = _decimal(text)
    if value == 0:
        return text == "0"
    unit = Fraction(10) ** (_floor_log10(abs(value)) - digits + 1)
    return (shown / unit).denominator == 1 and abs(shown - value) <= unit / 2


def sqrt_ok(text: str, square: Fraction, digits: int) -> bool:
    """`text` is sqrt(`square`) rounded to `digits` significant digits."""
    shown = _decimal(text)
    if square == 0:
        return text == "0"
    exponent = _floor_log10(square) // 2  # 10**E <= sqrt < 10**(E+1)
    unit = Fraction(10) ** (exponent - digits + 1)
    half = unit / 2
    return (
        (shown / unit).denominator == 1
        and shown >= half
        and (shown - half) ** 2 <= square <= (shown + half) ** 2
    )


_EVAL = re.compile(r"^([\w\[\]]+) at n=(\d+): (-?\d+(?:/\d+)?) ≈ (\S+)$")
_STDDEV = re.compile(r"^stddev at n=(\d+): (\S+)$")
_VERIFY = re.compile(r"^n=(\d+): (.*)$")
_BUILTIN = re.compile(r"^(\S+)\s+(\d+) vertices, (\d+) edges$")


def _flag(flags, name: str, default=None):
    return flags[flags.index(name) + 1] if name in flags else default


def cli_expectation(expected: Expected, sub: str, a: str | None, b: str | None, flags):
    """Return check(stdout) -> None or reason, for a job expected to exit 0."""
    fmt = _flag(flags, "--format", "human")
    digits = int(_flag(flags, "--digits", "5"))
    n_eval = _flag(flags, "--eval")
    n_eval = None if n_eval is None else int(n_eval)

    def check_poly(lines: list[str], coeffs: list[Fraction]) -> str | None:
        if fmt == "matrix-csv":
            got = _parse_csv(lines.pop(0), lines.pop(0))
            want = coeffs if coeffs else [Fraction(0)]
            return None if got == want else f"polynomial {got} != {want}"
        got = _parse_human(lines.pop(0))
        want = {i: c for i, c in enumerate(coeffs) if c}
        return None if got == want else f"polynomial {got} != {want}"

    def check_eval(lines: list[str], label: str, coeffs: list[Fraction]) -> str | None:
        match = _EVAL.match(lines.pop(0))
        value = horner(coeffs, n_eval)
        if not match or match[1] != label or int(match[2]) != n_eval:
            return f"bad {label} line"
        if Fraction(match[3]) != value:
            return f"{label} {match[3]} != {value}"
        if not decimal_ok(match[4], value, digits):
            return f"{label} decimal {match[4]} is not {value} to {digits} digits"
        return None

    if sub == "builtins":
        want = {(name, expected.k(name), len(expected.edges(name))) for name in FIXED_BUILTINS}

        def check(stdout: str) -> str | None:
            lines = stdout.splitlines()
            got = set()
            for line in lines[:-1]:
                match = _BUILTIN.match(line)
                if not match:
                    return f"bad builtins line {line!r}"
                got.add((match[1], int(match[2]), int(match[3])))
            if got != want or not lines[-1].startswith("parameterized:"):
                return "builtins listing differs"
            return None

        return check

    if sub == "verify":
        n_values = [int(x) for x in _flag(flags, "--n").split(",")]
        if b is None:
            quantities = [("mean", expected.mean(a)), ("variance", expected.cov(a, None))]
        else:
            quantities = [("mean[A]", expected.mean(a)), ("mean[B]", expected.mean(b)),
                          ("covariance", expected.cov(a, b))]

        def check(stdout: str) -> str | None:
            lines = stdout.splitlines()
            if len(lines) != len(n_values) + 1:
                return f"verify printed {len(lines)} lines"
            for n, line in zip(n_values, lines):
                match = _VERIFY.match(line)
                want = ", ".join(f"{q} {horner(c, n)} OK" for q, c in quantities)
                if not match or int(match[1]) != n or match[2] != want:
                    return f"verify line {line!r} != n={n}: {want}"
            if lines[-1] != f"all {len(n_values)} checks passed":
                return f"verify summary {lines[-1]!r}"
            return None

        return check

    poly = expected.mean(a) if sub == "mean" else expected.cov(a, b)

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        try:
            reasons = [check_poly(lines, poly)]
            if n_eval is not None:
                if sub == "mean":
                    reasons.append(check_eval(lines, "mean", poly))
                elif sub == "cov":
                    reasons.append(check_eval(lines, "covariance", poly))
                else:
                    reasons.append(check_eval(lines, "mean", expected.mean(a)))
                    reasons.append(check_eval(lines, "variance", poly))
                    if "--stddev" in flags:
                        match = _STDDEV.match(lines.pop(0))
                        square = horner(poly, n_eval)
                        if not match or int(match[1]) != n_eval:
                            reasons.append("bad stddev line")
                        elif not sqrt_ok(match[2], square, digits):
                            reasons.append(f"stddev {match[2]} is not sqrt({square})")
        except (IndexError, ValueError) as exc:
            return f"unparsable output: {exc}"
        if lines:
            reasons.append(f"unexpected trailing output {lines[0]!r}")
        return next((r for r in reasons if r), None)

    return check


# ---------------------------------------------------------------- CLI jobs


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def cold_cli(argv: list[str], stdin: str | None) -> CliResult:
    """`python -m motifmoments ARGV` in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, "-s", "-m", "motifmoments", *argv],
            input=stdin if stdin is not None else "",
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            env=cli_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return CliResult(-1, "", "timeout")
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def warm_cli(argv: list[str], stdin: str | None) -> CliResult:
    """motifmoments.cli.main(ARGV) in this process, with stdio redirected."""
    from motifmoments import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return CliResult(code, out.getvalue(), err.getvalue())


def check_cli_ok(content_check):
    def check(result: CliResult) -> str | None:
        if result.returncode != 0:
            return f"exit {result.returncode}: {result.stderr.strip()[:200]}"
        return content_check(result.stdout)

    return check


def check_cli_error(result: CliResult) -> str | None:
    if result.returncode != 2:
        return f"expected exit 2, got {result.returncode}"
    if result.stdout or not result.stderr.startswith("error: "):
        return "error path printed unexpected output"
    return None


class CliJobFactory:
    """Turns templates into argv + stdin, writing --file inputs under out/."""

    def __init__(self, expected: Expected, rng: random.Random, tag: str):
        self.expected = expected
        self.rng = rng
        self.tag = tag
        self.count = 0

    def _text(self, name: str) -> str:
        k = self.expected.k(name)
        return encode(k, relabeled(self.expected.edges(name), k, self.rng), self.rng)

    def _file(self, text: str) -> str:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"input-{self.tag}-{self.count}.txt"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def source(self, src, secondary: bool) -> tuple[list[str], str | None]:
        kind, value = src
        suffix = "2" if secondary else ""
        if kind == "builtin":
            return [f"--builtin{suffix}", value], None
        text = value if kind.endswith("-text") else self._text(value)
        if kind.startswith("stdin"):
            return ["--stdin"], text
        return [f"--file{suffix}", self._file(text)], None

    def job(self, sub, src_a, src_b, flags, runner, error: bool = False) -> Job:
        argv, stdin = [sub], None
        if src_a is not None:
            part, stdin = self.source(src_a, False)
            argv += part
        if src_b is not None:
            part, stdin_b = self.source(src_b, True)
            argv += part
            stdin = stdin or stdin_b
        argv += list(flags)
        if error:
            check = check_cli_error
        else:
            names = (src_a[1] if src_a else None, src_b[1] if src_b else None)
            check = check_cli_ok(cli_expectation(self.expected, sub, *names, flags))
        label = " ".join(a if not a.startswith(str(OUT)) else "FILE" for a in argv)
        named = tuple((src[1], self.expected.k(src[1]), tuple(self.expected.edges(src[1])))
                      for src in (src_a, src_b) if src and not error)
        return Job(label, lambda: runner(argv, stdin), check, cold=runner is cold_cli,
                   patterns=named)

    def error_jobs(self, runner) -> list[Job]:
        rng = self.rng
        unknown = "unknown-" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
        k = rng.randint(3, 5)
        rows = [[0] * k for _ in range(k)]
        for u in range(k):
            for v in range(u + 1, k):
                rows[u][v] = rows[v][u] = rng.randint(0, 1)
        u, v = rng.sample(range(k), 2)
        rows[u][v] = 1 - rows[v][u]
        asymmetric = "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
        big = encode(9, random_edges(9, rng.randint(8, 20), rng), rng)
        return [
            self.job("mean", ("builtin", unknown), None, (), runner, error=True),
            self.job("var", ("stdin-text", asymmetric), None, (), runner, error=True),
            self.job("mean", ("file-text", big), None, (), runner, error=True),
        ]


def cli_jobs(expected: Expected, rng: random.Random, templates, runner, tag: str,
             with_errors: bool) -> list[Job]:
    factory = CliJobFactory(expected, rng, tag)
    jobs = [factory.job(*template, runner) for template in templates]
    if with_errors:
        jobs += factory.error_jobs(runner)
    return jobs


# ---------------------------------------------------------------- library jobs


def _pattern(mm, expected: Expected, name: str, rng: random.Random):
    k = expected.k(name)
    return mm.PatternGraph(k, relabeled(expected.edges(name), k, rng))


def _described(name: str, pattern) -> tuple:
    return (name, pattern.vertex_count, pattern.sorted_edges())


def _check_report(expected: Expected, a: str, b: str | None):
    want_mean_a = expected.mean(a)
    want_mean_b = expected.mean(b or a)
    want_cov = expected.cov(a, b)

    def check(report) -> str | None:
        if list(report.mean_a.coeffs) != want_mean_a:
            return f"mean[{a}] differs from golden"
        if list(report.mean_b.coeffs) != want_mean_b:
            return f"mean[{b or a}] differs from golden"
        if list(report.covariance.coeffs) != want_cov:
            return "covariance differs from golden"
        return None

    return check


def engine_jobs(mm, expected: Expected, pairs, workers: int, rng: random.Random) -> list[Job]:
    jobs = []
    for a, b in pairs:
        pa = _pattern(mm, expected, a, rng)
        if b is None:
            run = (lambda p: lambda: mm.variance_poly(p, workers=workers))(pa)
            label = f"variance_poly({a}, workers={workers})"
            used = (_described(a, pa),)
        else:
            pb = _pattern(mm, expected, b, rng)
            run = (lambda p, q: lambda: mm.covariance_poly(p, q, workers=workers))(pa, pb)
            label = f"covariance_poly({a}, {b}, workers={workers})"
            used = (_described(a, pa), _described(b, pb))
        jobs.append(Job(label, run, _check_report(expected, a, b), pooled=workers > 1,
                        patterns=used))
    return jobs


def build_jobs(workload: str, seed: int, goldens: dict, nproc: int) -> list[Job]:
    """The seeded job list of one pass, in the seed's order."""
    import motifmoments as mm

    expected = Expected(goldens)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-small":
        jobs = cli_jobs(expected, rng, CLI_TEMPLATES, cold_cli, f"{seed}", True)
    elif workload == "engine-lowsym":
        drawn = rng.sample(LOWSYM_POOL, 2)
        pairs = list(LOWSYM_FIXED) + [(name, None) for name in drawn]
        jobs = engine_jobs(mm, expected, pairs, 1, rng)
    elif workload == "engine-highsym":
        jobs = engine_jobs(mm, expected, [(name, None) for name in HIGHSYM], nproc, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    return jobs


def warm_cli_jobs(workload: str, seed: int, goldens: dict) -> list[Job]:
    """cli-small's job list run through cli.main in this process (traced runs)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = cli_jobs(Expected(goldens), rng, CLI_TEMPLATES, warm_cli, f"{seed}w", True)
    rng.shuffle(jobs)
    return jobs


def layer_probe_jobs(seed: int, goldens: dict) -> list[Job]:
    rng = random.Random(f"probe:{seed}")
    return cli_jobs(Expected(goldens), rng, LAYER_PROBE, warm_cli, f"{seed}p", False)

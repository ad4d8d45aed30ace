"""Command-line interface: rendering formats, sources, exit codes."""

import io
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motifmoments import RationalPolynomial, builtin, variance_poly
from motifmoments.cli import format_human, format_matrix_csv, main, parse_pattern_text

from helpers import parse_human

F = Fraction

TRIANGLE_MATRIX = "0 1 1\n1 0 1\n1 1 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, *argv):
    """Run an argument list the parser must refuse; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


USAGE = {
    "mean": "usage: motifmoments mean [-h] [--builtin NAME] [--file PATH] [--stdin] "
    "[--format {human,matrix-csv}] [--digits D] [--eval N]",
    "var": "usage: motifmoments var [-h] [--builtin NAME] [--file PATH] [--stdin] "
    "[--format {human,matrix-csv}] [--digits D] [--eval N] [--stddev] [--workers W]",
    "cov": "usage: motifmoments cov [-h] [--builtin NAME] [--file PATH] [--stdin] "
    "[--builtin2 NAME] [--file2 PATH] [--format {human,matrix-csv}] [--digits D] "
    "[--eval N] [--workers W]",
    "verify": "usage: motifmoments verify [-h] [--builtin NAME] [--file PATH] [--stdin] "
    "[--builtin2 NAME] [--file2 PATH] --n LIST [--oracle-cap CAP] [--workers W]",
    "builtins": "usage: motifmoments builtins [-h]",
}

WEDGE_EDGES = "3\n0 1\n1 2\n"
BUILTINS_LISTING = (
    "node       1 vertices, 0 edges\n"
    "edge       2 vertices, 1 edges\n"
    "wedge      3 vertices, 2 edges\n"
    "triangle   3 vertices, 3 edges\n"
    "square     4 vertices, 4 edges\n"
    "k4         4 vertices, 6 edges\n"
    "parameterized: clique:K (K>=1), cycle:K (K>=3), path:K (K vertices), star:K (K leaves)\n"
)


# (command line, stdin, exit status, stdout)
CORPUS = [
    ("mean --builtin triangle", "", 0, "1/48 n^3 - 1/16 n^2 + 1/24 n\n"),
    (
        "mean --builtin square --format matrix-csv",
        "",
        0,
        "1,-3,11,-3,0\n128,64,128,64,1\n",
    ),
    (
        "mean --stdin --eval 10 --digits 7",
        WEDGE_EDGES,
        0,
        "1/8 n^3 - 3/8 n^2 + 1/4 n\nmean at n=10: 90 ≈ 90.00000\n",
    ),
    (
        "var --builtin triangle --eval 1000000 --stddev",
        "",
        0,
        "1/128 n^4 - 11/384 n^3 + 1/32 n^2 - 1/96 n\n"
        "mean at n=1000000: 20833270833375000 ≈ 2.0833e16\n"
        "variance at n=1000000: 7812471354197916656250 ≈ 7.8125e21\n"
        "stddev at n=1000000: 8.8388e10\n",
    ),
    (
        "var --builtin wedge --format matrix-csv --eval 5 --digits 3 --stddev",
        "",
        0,
        "1,-19,29,-7,0\n8,32,32,16,1\n"
        "mean at n=5: 15/2 ≈ 7.50\nvariance at n=5: 195/8 ≈ 24.4\nstddev at n=5: 4.94\n",
    ),
    (
        "var --builtin node --eval 4 --stddev",
        "",
        0,
        "0\nmean at n=4: 4 ≈ 4.0000\nvariance at n=4: 0 ≈ 0\nstddev at n=4: 0\n",
    ),
    ("var --builtin edge --workers 2", "", 0, "1/8 n^2 - 1/8 n\n"),
    ("var --builtin triangle --stddev", "", 2, ""),
    ("cov --builtin edge --builtin2 triangle", "", 0, "1/32 n^3 - 3/32 n^2 + 1/16 n\n"),
    (
        "cov --builtin edge --builtin2 triangle --format matrix-csv --eval 3",
        "",
        0,
        "1,-3,1,0\n32,32,16,1\ncovariance at n=3: 3/16 ≈ 0.18750\n",
    ),
    (
        "cov --builtin square --eval 6",
        "",
        0,
        "1/512 n^6 - 5/256 n^5 + 161/2048 n^4 - 163/1024 n^3 + 327/2048 n^2 - 63/1024 n\n"
        "covariance at n=6: 3105/256 ≈ 12.129\n",
    ),
    (
        "cov --stdin --builtin2 wedge --eval 7 --digits 2",
        TRIANGLE_MATRIX,
        0,
        "1/32 n^4 - 9/64 n^3 + 13/64 n^2 - 3/32 n\ncovariance at n=7: 1155/32 ≈ 36\n",
    ),
    (
        "verify --builtin triangle --n 0,3,4",
        "",
        0,
        "n=0: mean 0 OK, variance 0 OK\nn=3: mean 1/8 OK, variance 7/64 OK\n"
        "n=4: mean 1/2 OK, variance 5/8 OK\nall 3 checks passed\n",
    ),
    (
        "verify --builtin edge --builtin2 wedge --n 2,4",
        "",
        0,
        "n=2: mean[A] 1/2 OK, mean[B] 0 OK, covariance 0 OK\n"
        "n=4: mean[A] 3 OK, mean[B] 3 OK, covariance 3 OK\nall 2 checks passed\n",
    ),
    ("builtins", "", 0, BUILTINS_LISTING),
]


@pytest.mark.parametrize("argv,stdin,code,out", CORPUS, ids=[case[0] for case in CORPUS])
def test_cli_output_bytes(capsys, monkeypatch, argv, stdin, code, out):
    """Exact stdout and exit status of each command line, and the usage line
    of its subcommand with whitespace collapsed, which pins the option order."""
    argv = argv.split()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv)[:2] == (code, out)
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(usage.split()) == USAGE[argv[0]]


def test_mean_triangle_human(capsys):
    code, out, err = run(capsys, "mean", "--builtin", "triangle")
    assert code == 0 and err == ""
    assert out.strip() == "1/48 n^3 - 1/16 n^2 + 1/24 n"


def test_mean_node_is_bare_n(capsys):
    code, out, _ = run(capsys, "mean", "--builtin", "node")
    assert code == 0
    assert out.strip() == "n"


def test_mean_square_matrix_csv(capsys):
    code, out, _ = run(capsys, "mean", "--builtin", "square", "--format", "matrix-csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows == ["1,-3,11,-3,0", "128,64,128,64,1"]


def test_var_node_is_zero(capsys):
    code, out, _ = run(capsys, "var", "--builtin", "node", "--workers", "1")
    assert code == 0
    assert out.strip() == "0"


def test_var_zero_matrix_csv(capsys):
    code, out, _ = run(
        capsys, "var", "--builtin", "node", "--workers", "1", "--format", "matrix-csv"
    )
    assert out.strip().splitlines() == ["0", "1"]


def test_var_wedge_human(capsys):
    code, out, _ = run(capsys, "var", "--builtin", "wedge", "--workers", "1")
    assert code == 0
    assert out.strip() == "1/8 n^4 - 19/32 n^3 + 29/32 n^2 - 7/16 n"


def test_var_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "var",
        "--builtin",
        "triangle",
        "--eval",
        "1000000",
        "--stddev",
        "--workers",
        "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1/128 n^4 - 11/384 n^3 + 1/32 n^2 - 1/96 n"
    mean_line = next(line for line in lines if line.startswith("mean at"))
    stddev_line = next(line for line in lines if line.startswith("stddev at"))
    assert mean_line.endswith("2.0833e16")
    assert stddev_line == "stddev at n=1000000: 8.8388e10"


def test_var_stddev_requires_eval(capsys):
    # rejected before the variance is computed, so nothing reaches stdout
    for name in ("node", "triangle"):
        code, out, err = run(capsys, "var", "--builtin", name, "--stddev", "--workers", "1")
        assert code == 2 and out == ""
        assert "--stddev requires --eval" in err


def test_cov_edge_triangle(capsys):
    code, out, _ = run(
        capsys, "cov", "--builtin", "edge", "--builtin2", "triangle", "--workers", "1"
    )
    assert code == 0
    assert out.strip() == "1/32 n^3 - 3/32 n^2 + 1/16 n"


def test_cov_node_anything_zero(capsys):
    code, out, _ = run(
        capsys, "cov", "--builtin", "node", "--builtin2", "triangle", "--workers", "1"
    )
    assert out.strip() == "0"


def test_cov_defaults_to_self_matching_var(capsys):
    code, cov_out, _ = run(capsys, "cov", "--builtin", "square", "--workers", "1")
    code, var_out, _ = run(capsys, "var", "--builtin", "square", "--workers", "1")
    assert cov_out == var_out


def test_cov_eval_line(capsys):
    code, out, _ = run(
        capsys,
        "cov",
        "--builtin",
        "edge",
        "--builtin2",
        "triangle",
        "--eval",
        "3",
        "--workers",
        "1",
    )
    assert "covariance at n=3: 3/16" in out


def test_verify_triangle_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--builtin", "triangle", "--n", "3,4,5", "--workers", "1"
    )
    assert code == 0
    assert "all 3 checks passed" in out
    assert "n=3: mean 1/8 OK, variance 7/64 OK" in out


def test_verify_pair(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "edge",
        "--builtin2",
        "triangle",
        "--n",
        "3",
        "--workers",
        "1",
    )
    assert code == 0
    assert "covariance 3/16 OK" in out
    assert "all 1 checks passed" in out


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "k4", "--n", "9", "--workers", "1")
    assert code == 2
    assert "2**36 = 68719476736" in err


@pytest.mark.parametrize("n", ["200", "3000"])
def test_verify_far_past_cap_exits_2(capsys, n):
    code, out, err = run(capsys, "verify", "--builtin", "edge", "--n", n)
    assert code == 2 and out == ""
    pairs = int(n) * (int(n) - 1) // 2
    assert err == (
        f"error: n={n} exceeds the exhaustive-enumeration cap of 6 nodes: "
        f"it would require iterating 2**{pairs} labeled graphs\n"
    )


def test_verify_cap_checked_before_any_work(capsys, monkeypatch):
    import motifmoments.oracle as oracle_module

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran the engine or the oracle before the cap check")

    monkeypatch.setattr(oracle_module, "covariance_poly", refuse)
    monkeypatch.setattr(oracle_module, "exact_moments", refuse)
    code, out, err = run(capsys, "verify", "--builtin", "triangle", "--n", "0,1,2,3,4,5,6,7")
    assert code == 2 and out == ""
    assert "n=7 exceeds the exhaustive-enumeration cap of 6 nodes" in err


def test_verify_mismatch_exits_one(capsys, monkeypatch):
    import motifmoments.cli as cli_module
    from motifmoments.oracle import VerificationCheck, VerificationReport

    def fake_verify(pattern_a, pattern_b, n_values, node_cap=6, workers=1):
        checks = (VerificationCheck(3, "variance", F(1, 8), F(7, 64)),)
        return VerificationReport(pattern_a, pattern_b, checks)

    monkeypatch.setattr(cli_module, "verify", fake_verify)
    code, out, _ = run(capsys, "verify", "--builtin", "triangle", "--n", "3")
    assert code == 1
    assert "MISMATCH (engine 1/8, oracle 7/64)" in out
    assert "FAILED: 1 of 1 n values failed" in out


@pytest.mark.parametrize("workers", ["0", "-4"])
@pytest.mark.parametrize("command", ["var", "cov", "verify"])
def test_workers_below_one_rejected(capsys, command, workers):
    extra = ("--n", "3") if command == "verify" else ()
    err = run_rejected(capsys, command, "--builtin", "edge", *extra, "--workers", workers)
    assert f"argument --workers: must be >= 1, got {workers}" in err


@pytest.mark.parametrize("command", ["mean", "var", "cov"])
def test_negative_eval_rejected(capsys, command):
    err = run_rejected(capsys, command, "--builtin", "edge", "--eval", "-3")
    assert "argument --eval: must be >= 0, got -3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("var", "--builtin", "triangle", "--digits", "0", "--eval", "10"),
        ("mean", "--builtin", "triangle", "--digits", "-3"),
        ("cov", "--builtin", "edge", "--digits", "0"),
        ("var", "--builtin", "triangle", "--eval", "1000", "--digits", "5000"),
        ("mean", "--builtin", "triangle", "--eval", "10", "--digits", "100000000"),
        ("cov", "--builtin", "edge", "--digits", "1001"),
    ],
)
def test_digits_out_of_range_rejected(capsys, argv):
    err = run_rejected(capsys, *argv)
    digits = argv[argv.index("--digits") + 1]
    bound = ">= 1" if int(digits) < 1 else "<= 1000"
    assert f"argument --digits: must be {bound}, got {digits}" in err


def test_digits_at_the_limit(capsys):
    code, out, err = run(
        capsys, "mean", "--builtin", "triangle", "--eval", "10", "--digits", "1000"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "mean at n=10: 15 ≈ 15." + "0" * 998


@pytest.mark.parametrize(
    "argv",
    [
        ("mean", "--builtin", "k4"),
        ("var", "--builtin", "triangle", "--stddev"),
        ("cov", "--builtin", "k4", "--builtin2", "k4"),
    ],
    ids=["mean", "var", "cov"],
)
def test_value_too_long_to_print_prints_nothing(capsys, argv):
    code, out, err = run(capsys, *argv, "--eval", str(10**1100))
    assert code == 2 and out == ""
    assert err.startswith("error: --eval: the exact value is too long to print")


def test_oversized_builtin_exits_2(capsys):
    code, out, err = run(capsys, "mean", "--builtin", "star:2000000")
    assert code == 2 and out == ""
    assert "2000001 vertices, above the engine maximum" in err


NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv,stdin,needle",
    [
        (("mean", "--builtin", f"path:{NINES}"), "", "engine maximum"),
        (("var", "--builtin", f"star:{NINES}"), "", "engine maximum"),
        (("mean", "--stdin"), f"{NINES}\n0 1\n", "engine maximum"),
        (("mean", "--stdin"), f"+000{NINES}\n0 1\n", "engine maximum"),
        (("mean", "--stdin"), f"-{NINES}\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), "0" * 5000 + "\n0 1\n", "vertex count must be >= 1"),
        (("mean", "--builtin", "path:" + "0" * 5000), "", "must be >= 1"),
        (("mean", "--stdin"), "x" * 5000 + "\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), "++3\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), "+\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), "-3\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), "0_5\n0 1\n", "must start with the vertex count"),
        (("mean", "--stdin"), f"3\n0 {NINES}\n", "expected integers"),
        (("mean", "--stdin"), f"3\n0 {'9' * 4000}\n", "out of range"),
        (("mean", "--stdin"), f"3\n{'9' * 4000} {'9' * 4000}\n", "self-loop"),
        (("mean", "--builtin", "path:" + "x" * 5000), "", "must be a positive integer"),
        (("mean", "--builtin", "x" * 5000), "", "unknown builtin pattern"),
        (("mean", "--builtin", "x" * 5000 + ":3"), "", "unknown pattern family"),
    ],
    ids=[
        "path", "star", "count", "signed-count", "negative-count", "zero-count", "zero-path",
        "letters", "double-plus", "lone-plus", "minus", "underscore",
        "endpoint", "endpoint-range", "endpoint-loop",
        "letter-parameter", "letter-name", "letter-family",
    ],
)
def test_long_pattern_text_exits_2_with_a_short_message(capsys, monkeypatch, argv, stdin, needle):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert needle in err and "4300" not in err
    assert len(err) < 400


BIG = "9" * 4000  # int() takes it: it has fewer than 4300 digits


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("verify", "--builtin", "edge", "--n", BIG), "exceeds the exhaustive-enumeration cap"),
        (("verify", "--builtin", "edge", "--n", "3", "--oracle-cap", BIG), "is not supported"),
        (("mean", "--builtin", "edge", "--eval", f"-{BIG}"), "must be >="),
        (("mean", "--builtin", "edge", "--digits", f"-{BIG}"), "must be >="),
        (("mean", "--builtin", "edge", "--digits", BIG), "must be <="),
        (("var", "--builtin", "edge", "--workers", f"-{BIG}"), "must be >="),
        (("verify", "--builtin", "edge", "--n", "3", "--oracle-cap", f"-{BIG}"), "must be >="),
        (("verify", "--builtin", "edge", "--n", f"-{BIG}"), "must be >="),
        (("cov", "--builtin", "edge", "--eval", NINES), "invalid int value"),
        (("var", "--builtin", "edge", "--workers", f"x{BIG}"), "invalid int value"),
        (("verify", "--builtin", "edge", "--n", f"3,{NINES}"), "bad integer in n list"),
    ],
    ids=[
        "n-cap", "oracle-cap", "eval", "digits-low", "digits-high", "workers",
        "oracle-cap-low", "n-negative", "eval-letters", "workers-letters",
        "n-letters",
    ],
)
def test_oversize_integer_flags_exit_2_with_a_short_message(capsys, monkeypatch, argv, needle):
    # a wide terminal puts the usage on one line, so the size does not depend on it
    monkeypatch.setenv("COLUMNS", "200")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert needle in captured.err and "4300" not in captured.err
    assert len(captured.err.encode()) < 300


def test_long_n_list_is_refused_on_the_node_cap_in_linear_time(capsys):
    # 20001 distinct values: a repeat search quadratic in the list length
    # takes seconds on them
    n_list = ",".join(map(str, range(20001)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--builtin", "edge", "--n", n_list)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert "n=7 exceeds the exhaustive-enumeration cap of 6 nodes" in err
    assert elapsed < 1.5


def test_verify_repeated_n_rejected(capsys):
    err = run_rejected(capsys, "verify", "--builtin", "triangle", "--n", "3,4,3")
    assert "repeated n values in '3,4,3': 3" in err
    err = run_rejected(capsys, "verify", "--builtin", "triangle", "--n", f"{BIG},{BIG}")
    assert err.endswith(f"repeated n values in '{BIG[:40]}'...: {BIG[:40]}...\n")


@pytest.mark.parametrize(
    "n_list,negative",
    [("-1", "-1"), ("3,-2", "-2"), ("-4,1,-5", "-4, -5")],
    ids=["-1", "3,-2", "-4,1,-5"],
)
def test_verify_negative_n_rejected(capsys, n_list, negative):
    err = run_rejected(capsys, "verify", "--builtin", "edge", f"--n={n_list}")
    assert f"argument --n: n values must be >= 0, got {negative}" in err


@pytest.mark.parametrize("n_list", [",", " , ,"])
def test_verify_empty_n_list_rejected(capsys, n_list):
    err = run_rejected(capsys, "verify", "--builtin", "edge", f"--n={n_list}")
    assert "argument --n: expected a comma-separated list of integers" in err


@pytest.mark.parametrize("cap", ["-1", "-7"])
def test_verify_negative_oracle_cap_rejected(capsys, cap):
    err = run_rejected(capsys, "verify", "--builtin", "edge", "--n", "3", "--oracle-cap", cap)
    assert f"argument --oracle-cap: must be >= 0, got {cap}" in err


def test_workers_default_and_help(capsys):
    code, out, _ = run(capsys, "var", "--builtin", "edge")
    assert code == 0 and out.strip() == "1/8 n^2 - 1/8 n"
    with pytest.raises(SystemExit):
        main(["var", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "identical for any value (default: 1)" in help_text


def test_pattern_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_MATRIX))
    code, out, _ = run(capsys, "var", "--stdin", "--workers", "1")
    assert code == 0
    assert out.strip() == "1/128 n^4 - 11/384 n^3 + 1/32 n^2 - 1/96 n"


def test_pattern_from_file_adjacency(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_MATRIX)
    code, out, _ = run(capsys, "mean", "--file", str(path))
    assert code == 0
    assert out.strip() == "1/48 n^3 - 1/16 n^2 + 1/24 n"


def test_pattern_from_file_edge_list(tmp_path, capsys):
    path = tmp_path / "wedge.txt"
    path.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "mean", "--file", str(path))
    assert code == 0
    assert out.strip() == "1/8 n^3 - 3/8 n^2 + 1/4 n"


def test_missing_file_reports_error(capsys):
    code, _, err = run(capsys, "mean", "--file", "/nonexistent/pattern.txt")
    assert code == 2
    assert "error:" in err


def test_validation_errors_have_distinct_messages(capsys, monkeypatch):
    cases = {
        "0 1\n1 1\n": "diagonal",
        "0 1\n0 0\n": "symmetric",
        "0 2\n2 0\n": "0 or 1",
    }
    for text, needle in cases.items():
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, "mean", "--stdin")
        assert code == 2
        assert needle in err


def test_source_is_required_and_exclusive(capsys):
    code, _, err = run(capsys, "mean")
    assert code == 2
    assert "pattern source is required" in err
    code, _, err = run(capsys, "mean", "--builtin", "edge", "--file", "x.txt")
    assert code == 2
    assert "mutually exclusive" in err


def test_builtins_listing(capsys):
    code, out, _ = run(capsys, "builtins")
    assert code == 0
    for name in ("node", "edge", "wedge", "triangle", "square", "k4"):
        assert name in out
    assert "clique:K" in out


def test_parse_pattern_text_autodetect():
    assert parse_pattern_text("0 1\n1 0").vertex_count == 2  # adjacency
    assert parse_pattern_text("0").vertex_count == 1  # one-node adjacency
    assert parse_pattern_text("3\n0 1\n1 2").edge_count == 2  # edge list
    assert parse_pattern_text("1").vertex_count == 1  # one-node edge list
    with pytest.raises(ValueError, match="empty"):
        parse_pattern_text("\n\n")


def test_format_human_edge_cases():
    assert format_human(RationalPolynomial()) == "0"
    assert format_human(RationalPolynomial((F(1, 2),))) == "1/2"
    assert format_human(RationalPolynomial((0, -1))) == "-n"
    assert format_human(RationalPolynomial((-3, 0, F(-1, 4)))) == "-1/4 n^2 - 3"
    assert format_human(RationalPolynomial((1, 1))) == "n + 1"


def test_format_matrix_csv_rows_align():
    text = format_matrix_csv(RationalPolynomial((F(1, 3), 0, -2)))
    rows = text.splitlines()
    assert rows == ["-2,0,1", "1,1,3"]


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=64)
polys = st.lists(small_fractions, max_size=7).map(RationalPolynomial)


@given(polys)
def test_human_format_round_trips(p):
    assert parse_human(format_human(p)) == p


@given(polys)
def test_matrix_csv_round_trips(p):
    rows = format_matrix_csv(p).splitlines()
    numerators = rows[0].split(",")
    denominators = rows[1].split(",")
    assert len(numerators) == len(denominators)
    rebuilt = [
        F(int(num), int(den)) for num, den in zip(numerators, denominators)
    ]
    rebuilt.reverse()  # rows are highest degree first
    assert RationalPolynomial(rebuilt) == p
    for den in denominators:
        assert int(den) > 0


def test_cli_matches_library(capsys):
    code, out, _ = run(capsys, "var", "--builtin", "square", "--workers", "1")
    assert parse_human(out.strip()) == variance_poly(builtin("square")).covariance

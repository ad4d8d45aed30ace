"""Self-test of the benchmark harness.

Run from the root of a checkout:  python3 perfbench/selftest.py

1. Hand-checked counts: verify(triangle, triangle, range(7)) traced gives
   moments.mask_pairs = 4 (one mask pair per overlap size 0..3) and
   oracle.graphs = 1 + 1 + 2 + 8 + 64 + 1024 + 32768 = 33868.
2. A corrupted golden makes jobs fail, on CLI and library jobs.
3. Corrupted outputs are caught: a CLI coefficient, a decimal one unit off in
   its last digit, a wrong standard deviation and a wrong covariance in a
   report.
4. Smoke: every workload runs one job in both modes, with every metric that
   BENCHMARK.json names, and no failure.
5. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

import motifmoments as mm  # noqa: E402
import motifmoments.cli  # noqa: E402,F401  (not imported by the package itself)
from run import run_job  # noqa: E402
from spans import SpanRecorder, layer_figures  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def hand_checked_counts() -> None:
    triangle = mm.builtin("triangle")
    modules = (mm, mm.algebra, mm.cli, mm.moments, mm.oracle, mm.pattern, mm.symmetry)
    before = [dict(vars(m)) for m in modules]
    recorder = SpanRecorder(mm.symmetry.automorphism_count)
    recorder.install()
    try:
        report = mm.verify(triangle, triangle, range(7))
    finally:
        recorder.uninstall()
    figures = layer_figures(recorder.spans)
    expect(report.all_match, "traced verify(triangle) still matches")
    expect(figures["moments.mask_pairs"] == 4, "triangle: moments.mask_pairs == 4")
    expect(figures["oracle.graphs"] == 33868, "triangle: oracle.graphs over n=0..6 == 33868")
    expect(figures["moments.cpu_per_wall"] == 0, "no pooled call: moments.cpu_per_wall == 0")
    changed = [f"{m.__name__}.{name}" for m, old in zip(modules, before)
               for name, value in vars(m).items() if old.get(name) is not value]
    expect(not changed, f"uninstall restores every rebound name {changed}")


def corrupted_goldens() -> None:
    goldens = wl.load_goldens()
    bad = copy.deepcopy(goldens)
    for entry in bad["patterns"].values():
        entry["mean"]["num"][-1] += 1
    for entry in bad["pairs"].values():
        entry["cov"]["num"][-1] += 1
    nproc = len(os.sched_getaffinity(0))
    cli = [j for j in wl.build_jobs("cli-small", 1, bad, nproc) if j.patterns][:3]
    lib = [j for j in wl.build_jobs("engine-lowsym", 1, bad, 1) if "path:7" not in j.label][:2]
    results = [run_job(job) for job in cli + lib]
    failed = sum(not r["ok"] for r in results)
    expect(failed == len(results), f"corrupted goldens: fail_frac = {failed}/{len(results)} > 0")


def corrupted_outputs() -> None:
    expected = wl.Expected(wl.load_goldens())
    check = wl.cli_expectation(expected, "var", "triangle", None,
                               ("--eval", "1000000", "--stddev"))
    good = wl.warm_cli(["var", "--builtin", "triangle", "--eval", "1000000", "--stddev",
                        "--workers", "1"], None).stdout
    expect(check(good) is None, "true CLI output passes its check")
    lines = good.splitlines()
    expect(check("\n".join([lines[0].replace("1/128", "1/127", 1), *lines[1:]])) is not None,
           "CLI output with one wrong coefficient fails")
    expect(check(good.replace("7.8125e21", "7.8126e21")) is not None,
           "decimal one unit off in its last digit fails")
    expect(check(good.replace("8.8388e10", "8.8389e10")) is not None, "wrong stddev fails")
    expect(check(good + "extra\n") is not None, "trailing output fails")
    expect(wl.decimal_ok("26.250", Fraction(105, 4), 5) and wl.decimal_ok("26.25", Fraction(105, 4), 5)
           and not wl.decimal_ok("26.251", Fraction(105, 4), 5), "decimal check")

    path6, cycle7 = mm.builtin("path:6"), mm.builtin("cycle:7")
    report = mm.covariance_poly(path6, cycle7)
    report_check = wl._check_report(expected, "path:6", "cycle:7")
    expect(report_check(report) is None, "true covariance report passes its check")
    wrong = mm.MomentReport(**{**report.__dict__,
                               "covariance": report.covariance + mm.RationalPolynomial([1])})
    expect(report_check(wrong) is not None, "report with a wrong covariance fails")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke() -> None:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(wl.ROOT, "--workload", workload, "--smoke", "--trace", str(trace))
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"smoke {workload} trace={trace}: no result ({proc.stderr[-300:]})")
                continue
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                   and set(result["metrics"]) == names[trace],
                   f"smoke {workload} trace={trace}: correct, every metric present")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "--workload", "cli-small", "--seconds", "1")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package source: non-zero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    hand_checked_counts()
    corrupted_goldens()
    corrupted_outputs()
    smoke()
    bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Generate perfbench/goldens.json and certify every entry before writing it.

Run from the root of a checkout:  python3 perfbench/make_goldens.py

Each named pattern gets |Aut|, the mean and the variance polynomial; each
named pair gets the covariance polynomial (coefficient lists lowest degree
first, as numerator/denominator lists).  Certification:

- |Aut| against a brute-force filter over all k! permutations written here;
- the mean against (n)_k / (|Aut| 2^e), computed here;
- Cov(edge, H) = (e_H / 2) E[X_H], an identity that holds at every n;
- k <= 5: mean and (co)variance against oracle.exact_moments at n = 0..6;
- k >= 6: workers=1 and workers=nproc give identical polynomials;
- pairs: Cov(A, B) and Cov(B, A) are identical.

Nothing is written unless every check holds.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    ASYM6,
    GOLDEN_BUILTINS,
    GOLDEN_PAIRS,
    GOLDENS,
    SRC,
    horner,
    poly_to_json,
)

sys.path.insert(0, str(SRC))

import motifmoments as mm  # noqa: E402
from run import git_commit  # noqa: E402

ORACLE_N = range(7)  # k <= 5 goldens are checked against the oracle at these n


def brute_aut(k: int, edges) -> int:
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((perm[u], perm[v])) in edge_set for u, v in edges)
        for perm in permutations(range(k))
    )


def falling(k: int) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for j in range(k):  # multiply by (n - j)
        shifted = [Fraction(0)] + coeffs
        coeffs = [shifted[i] - j * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(shifted))]
    return coeffs


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"certification failed: {what}")


def main() -> int:
    workers = len(os.sched_getaffinity(0))
    named = {name: mm.builtin(name) for name in GOLDEN_BUILTINS}
    named.update({name: mm.PatternGraph(6, edges) for name, edges in ASYM6.items()})
    edge = mm.builtin("edge")
    patterns, pairs = {}, {}
    for name, p in named.items():
        k, e = p.vertex_count, p.edge_count
        aut = mm.automorphism_count(p)
        require(aut == brute_aut(k, p.sorted_edges()), f"|Aut| of {name}")
        report = mm.variance_poly(p, workers=1)
        mean = list(report.mean_a.coeffs)
        require(mean == [c / (aut * 2**e) for c in falling(k)], f"mean of {name}")
        var = list(report.covariance.coeffs)
        with_edge = mm.covariance_poly(edge, p, workers=1).covariance
        require(list(with_edge.coeffs) == [c * e / 2 for c in mean] if e else not with_edge,
                f"Cov(edge, {name}) = e/2 E[X]")
        certified = ["aut-bruteforce", "mean-formula", "cov-edge-identity"]
        if k <= 5:
            for n in ORACLE_N:
                truth = mm.exact_moments(p, p, n)
                require(horner(mean, n) == truth.mean_a, f"oracle mean of {name} at n={n}")
                require(horner(var, n) == truth.covariance, f"oracle var of {name} at n={n}")
            certified.append("oracle-n0..6")
        else:
            again = mm.variance_poly(p, workers=workers)
            require(list(again.covariance.coeffs) == var, f"workers=1 vs {workers} for {name}")
            certified.append(f"workers-1-vs-{workers}")
        patterns[name] = {"k": k, "edges": [list(x) for x in p.sorted_edges()], "aut": aut,
                          "mean": poly_to_json(mean), "var": poly_to_json(var),
                          "certified": certified}
        print(f"{name}: |Aut|={aut} {', '.join(certified)}", flush=True)
    for a, b in GOLDEN_PAIRS:
        pa, pb = named[a], named[b]
        cov = list(mm.covariance_poly(pa, pb, workers=1).covariance.coeffs)
        require(list(mm.covariance_poly(pb, pa, workers=1).covariance.coeffs) == cov,
                f"Cov({a}, {b}) symmetry")
        certified = ["symmetry"]
        if max(pa.vertex_count, pb.vertex_count) <= 5:
            for n in ORACLE_N:
                truth = mm.exact_moments(pa, pb, n)
                require(horner(cov, n) == truth.covariance, f"oracle Cov({a}, {b}) at n={n}")
            certified.append("oracle-n0..6")
        else:
            again = mm.covariance_poly(pa, pb, workers=workers).covariance
            require(list(again.coeffs) == cov, f"workers=1 vs {workers} for ({a}, {b})")
            certified.append(f"workers-1-vs-{workers}")
        pairs[f"{a}|{b}"] = {"cov": poly_to_json(cov), "certified": certified}
        print(f"{a}|{b}: {', '.join(certified)}", flush=True)
    goldens = {"generated_at_commit": git_commit(),
               "coefficients": "lowest degree first; num[i]/den[i] is the coefficient of n^i",
               "patterns": patterns, "pairs": pairs}
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

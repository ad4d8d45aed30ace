"""Record a baseline: ten untraced runs per workload and one traced run each.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 1-10] [--out FILE]

Each run measures for BENCHMARK.json's run_seconds.  Runs go seed by seed,
each seed on every workload in turn, so that every workload's runs are
spread over the whole recording.  For each end-to-end metric the file
gives the median, the quartiles (statistics.quantiles, n=4) and the spread,
their distance as a share of the median, next to the bound from
BENCHMARK.json.  Prints one line per metric other than setup_s that spreads
past its bound and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINE_KEYS = ("cpu_count", "affinity", "python", "cpu_model", "commit")
RECORD_KEYS = MACHINE_KEYS + ("rounds", "jobs", "runs_per_job", "setup_samples",
                              "bare_mean_s", "loop_mean_s", "raw_setup_s", "raw_wall_s",
                              "raw_job_p50_s", "loadavg_1m_start", "loadavg_1m_end",
                              "control_loop_s_start", "control_loop_s_end")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    kept = {key: record[key] for key in RECORD_KEYS if key in record}
    if trace:
        kept.update(counts=record["counts"], aut=record["aut"])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}", flush=True)
    return {"seed": seed, **kept, "result": result}


def summary(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in seeds(args.seeds):
        for name in names:
            runs[name].append(run(name, seed, seconds, 0))
    traced = {name: run(name, seeds(args.seeds)[0], seconds, 1) for name in names}

    machine = {key: runs[names[0]][0][key] for key in MACHINE_KEYS}
    workloads = {name: {"summary": summary(runs[name], bounds), "runs": runs[name],
                        "traced": traced[name]} for name in names}
    about = (f"Baseline: untraced runs of seeds {args.seeds} (--seconds {seconds}) per "
             "workload and one traced run of the first seed. 'spread' is the distance "
             "between the first and third quartile (statistics.quantiles, n=4) as a share "
             "of the median.")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"about": about, "machine": machine, "workloads": workloads}, handle,
                  indent=1)
    past = [f"{name} {metric}: spread {s['spread']:.3f} > bound {s['bound']}"
            for name, w in workloads.items() for metric, s in w["summary"].items()
            if metric != "setup_s" and s["spread"] > s["bound"]]
    for name, w in workloads.items():
        print(name, " ".join(f"{m}={s['spread']:.3f}" for m, s in w["summary"].items()))
    print("\n".join(past))
    return 1 if past else 0


if __name__ == "__main__":
    sys.exit(main())

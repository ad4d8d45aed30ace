"""motifmoments benchmark: end-to-end and per-layer figures per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Workloads (each a closed loop: one client, one job at a time):

  cli-small       cold `python -m motifmoments` processes on patterns with
                  k <= 5: mean/var/cov/builtins/verify, --builtin/--file/--stdin,
                  human and matrix-csv output, --eval 10^6 and 10^30, --stddev,
                  and three error paths that exit 2.  Start-up, import, pool
                  spawn, parsing and rendering dominate.
  engine-lowsym   in-process variance_poly/covariance_poly at workers=1 on
                  path:7, cycle:7, (path:6, cycle:7) and two asymmetric
                  six-vertex patterns drawn by the seed: the pair loop dominates.
  engine-highsym  in-process variance_poly at workers=nproc on clique:8,
                  star:7, clique:7, star:6: mask tables and automorphism
                  enumeration dominate, and the process pool is used.

The exhaustive oracle has no workload of its own; its layer figures come
from the verify jobs of cli-small and the layer probe of every traced run.

With --trace 0 the run makes one whole pass over the job list, then goes
round the list again and again running each job whose mean time so far
still fits in --seconds, and reports:

  setup_s      mean of the cold `python -c "import motifmoments"` runs made
               between jobs, one for each two seconds of the run
  wall_s       one pass: the sum over the job list of each job's mean wall
               time
  job_p50_s    median over the job list of each job's mean wall time
  job_p90_s    90th percentile over the job list of each job's mean wall
               time
  cpu_s        one pass: the sum of each job's mean user+system CPU,
               children included
  peak_rss_mb  largest resident set of the processes that ran the first pass
  ok_frac      jobs whose output was exactly right / jobs attempted

Every time is given at the host's full speed.  On a shared host each
virtual CPU switches, from one tenth of a second to the next, between full
speed and about 1.6 times slower (CPU time grows with wall time, so it is
not waiting), and the share of slow time drifts over minutes: the same
pass can take 1.7 times longer ten minutes later.  So the run times two
references that do not touch the package, interleaved with the jobs: a
cold `python -s -c pass` with each cold import, and loop_s() after each
job and three times with each cold import.  A job's time is scaled by the
reference that runs where the job's work runs: times of child processes
(setup_s, cli-small's jobs, engine-highsym's pooled calls) by
BARE_FULL_SPEED_S / (mean time of the cold `pass`), times of calls that
run in this process (engine-lowsym) by LOOP_FULL_SPEED_S / (mean
loop_s()).  A change to the package moves the scaled times as it moves the
raw ones; the machine's drift moves both a job and its reference.  The
raw means go into the run record.  Means, not medians: a median of
two-speed samples jumps between the speeds as the slow share moves, a mean
moves in proportion to it, as the reference does.

With --trace 1 the run makes, after a warm-up, two traced passes (a layer
probe of three warm cli.main calls is added to each, so every layer is
exercised on every workload), and reports per-layer totals per traced pass
(see spans.py) plus cold-start probes.  For cli-small the traced run calls
cli.main in process instead of starting a process per job.
trace.overhead_s is the tracer's cost in one traced pass: the spans it
recorded times the measured cost of one span, plus the time spent computing
counts.  The counts moments.mask_pairs, oracle.graphs and symmetry.aut_calls
must be equal on both traced passes, or the run fails.

Every job's output is checked exactly (see workloads.py).  The last line of
standard output is the JSON result; a run record with machine details goes
to standard error and, with the spans of a traced run, to perfbench/out/.
The record's load average, hypervisor steal time and control-loop timing
at start and end show when other tenants of a shared machine slowed a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    CALL_TIMEOUT_S,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    build_jobs,
    cli_env,
    layer_probe_jobs,
    load_goldens,
    warm_cli_jobs,
)

DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
SETUP_REPEATS = 21  # cold starts per probe in a traced run
SETUP_EVERY_S = 2.0  # a cold import between jobs for each such share of the run
# Time of the two speed references at the host's full speed (2-vCPU Intel
# Xeon, Python 3.11): a cold `python -s -c pass` and one loop_s().  They set
# the scale of every reported time and nothing else; see the docstring.
BARE_FULL_SPEED_S = 0.065
LOOP_FULL_SPEED_S = 0.0085
POOL_PROBE_REPEATS = 5
RUN_LIMIT_S = 150.0  # start no job after this, to end well within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- run record


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def loop_s() -> float:
    """Time of a fixed pure-Python loop: a reading of this CPU's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return time.perf_counter() - start


def control_loop_s() -> float:
    return statistics.median(loop_s() for _ in range(5))


def machine_record() -> dict:
    """Machine details, plus readings that show interference from other tenants."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": nproc(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
        "steal_s_start": steal_s(),
        "control_loop_s_start": control_loop_s(),
    }


# ---------------------------------------------------------------- measuring


def rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cold_start(code: str, repeats: int, warm_up: bool = True) -> list[float]:
    """Wall times of fresh interpreters running `code`, after an untimed warm-up
    unless `warm_up` is false."""
    times = []
    for i in range(repeats + warm_up):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True,
                              text=True, env=cli_env(), cwd=ROOT, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cold start of {code!r} failed: {proc.stderr.strip()}")
        if i or not warm_up:
            times.append(elapsed)
    return times


def run_job(job, recorder=None, index: int = 0) -> dict:
    """Run one job; time it, take its CPU, and check its output."""
    children0 = rusage_cpu(resource.RUSAGE_CHILDREN)
    self0 = rusage_cpu(resource.RUSAGE_SELF)
    start = time.perf_counter()
    reason = None
    try:
        if recorder is None:
            output = job.run()
        else:
            with recorder.job_span(index, job.label):
                output = job.run()
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        output, reason = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = rusage_cpu(resource.RUSAGE_CHILDREN) - children0
    if not job.cold:
        cpu += rusage_cpu(resource.RUSAGE_SELF) - self0
    if reason is None and not job.cold and wall > CALL_TIMEOUT_S:
        reason = f"took {wall:.1f} s, over the {CALL_TIMEOUT_S:.0f} s limit"
    if reason is None:
        reason = job.check(output)
    return {"label": job.label, "wall": wall, "cpu": cpu, "ok": reason is None,
            "reason": reason}


def run_pass(jobs, recorder=None) -> list[dict]:
    return [run_job(job, recorder, i) for i, job in enumerate(jobs)]


def peak_rss_mb(cold: bool) -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if cold:
        return kids / 1024
    return max(kids, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024


def percentile(values: list[float], fraction: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- the two modes


def end_to_end(workload, jobs, seconds, smoke, record) -> tuple[dict, list[dict]]:
    setup = cold_start("import motifmoments", 3 if smoke else 0)
    bare = cold_start("pass", 3 if smoke else 0)
    loops = []
    last_setup = start = time.perf_counter()
    deadline = start + min(seconds, RUN_LIMIT_S)
    runs = [[] for _ in jobs]  # each job's results, in the order they ran
    rounds = 0
    while True:
        # The first round runs every job; later ones each job whose mean
        # time so far still fits before the deadline, so that the end of
        # the run is filled with whole jobs instead of left idle.
        ran = 0
        for i, job in enumerate(jobs):
            if rounds and time.perf_counter() + statistics.mean(
                    r["wall"] for r in runs[i]) > deadline:
                continue
            runs[i].append(run_job(job))
            loops.append(loop_s())
            ran += 1
            while not smoke and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup += cold_start("import motifmoments", 1, warm_up=False)
                bare += cold_start("pass", 1, warm_up=False)
                loops += [loop_s() for _ in range(3)]
                last_setup += SETUP_EVERY_S
        rounds += 1
        if rounds == 1:
            # Later rounds fork pool workers from a parent whose heap has
            # already grown, so the peak is taken over exactly one pass.
            peak = peak_rss_mb(all(job.cold for job in jobs))
        if smoke or not ran:
            break
    done = [r for job_runs in runs for r in job_runs]

    if not setup:  # one pass of jobs too short to reach SETUP_EVERY_S
        setup = cold_start("import motifmoments", 3, warm_up=False)
        bare = cold_start("pass", 3, warm_up=False)
    cold_scale = BARE_FULL_SPEED_S / statistics.mean(bare)
    loop_scale = LOOP_FULL_SPEED_S / statistics.mean(loops)

    def per_job(key):
        return [statistics.mean(r[key] for r in job_runs)
                * (cold_scale if job.cold or job.pooled else loop_scale)
                for job, job_runs in zip(jobs, runs)]

    walls = per_job("wall")
    raw_walls = [statistics.mean(r["wall"] for r in job_runs) for job_runs in runs]
    record.update(rounds=rounds, jobs=len(done), setup_samples=len(setup),
                  runs_per_job=[len(job_runs) for job_runs in runs],
                  bare_mean_s=statistics.mean(bare), loop_mean_s=statistics.mean(loops),
                  loop_samples=len(loops), raw_setup_s=statistics.mean(setup),
                  raw_wall_s=sum(raw_walls), raw_job_p50_s=statistics.median(raw_walls))
    metrics = {
        "setup_s": metric(statistics.mean(setup) * cold_scale, "s"),
        "wall_s": metric(sum(walls), "s"),
        "job_p50_s": metric(statistics.median(walls), "s"),
        "job_p90_s": metric(percentile(walls, 0.9), "s"),
        "cpu_s": metric(sum(per_job("cpu")), "s"),
        "peak_rss_mb": metric(peak, "MB"),
        "ok_frac": metric(sum(r["ok"] for r in done) / len(done), "frac"),
    }
    return metrics, done


def traced(workload, jobs, seed, goldens, smoke, record) -> tuple[dict, list[dict], bool]:
    from motifmoments import algebra, symmetry, variance_poly, builtin
    from spans import COUNTS, SpanRecorder, layer_figures, spans_to_json

    repeats = 3 if smoke else SETUP_REPEATS
    interp = statistics.mean(cold_start("pass", repeats))
    imported = statistics.mean(cold_start("import motifmoments", repeats))
    triangle = builtin("triangle")
    pool_repeats = 2 if smoke else POOL_PROBE_REPEATS

    def pool_probe(workers):
        times = []
        for _ in range(pool_repeats):
            start = time.perf_counter()
            variance_poly(triangle, workers=workers)
            times.append(time.perf_counter() - start)
        return statistics.mean(times)

    pool_overhead = pool_probe(nproc()) - pool_probe(1)

    if workload == "cli-small":
        jobs = warm_cli_jobs(workload, seed, goldens)[: len(jobs)]
    probe = layer_probe_jobs(seed, goldens)
    done = run_pass(probe)  # warm-up: first-call costs land on no traced pass
    jobs = jobs + probe
    traced_walls, figures, all_spans, overheads = [], [], [], []
    recorder = SpanRecorder(symmetry.automorphism_count)
    span_cost = recorder.span_cost_s(algebra.poly_eval_exact,
                                     algebra.RationalPolynomial([Fraction(1, 3)]), 2)
    for _ in range(2):
        recorder.spans, recorder.count_s = [], 0.0
        recorder.install()
        try:
            results = run_pass(jobs, recorder)
        finally:
            recorder.uninstall()
        done += results
        traced_walls.append(sum(r["wall"] for r in results))
        figures.append(layer_figures(recorder.spans))
        all_spans.append(spans_to_json(recorder.spans))
        overheads.append(len(recorder.spans) * span_cost + recorder.count_s)

    counts = [{name: f[name] for name in COUNTS} for f in figures]
    repeat_ok = counts[0] == counts[1]
    record.update(counts=counts, counts_repeat=repeat_ok, traced_pass_s=traced_walls,
                  spans_per_pass=[len(x) for x in all_spans], span_cost_s=span_cost,
                  jobs=len(done))
    units = {"moments.mask_pairs": "count", "oracle.graphs": "count",
             "symmetry.aut_calls": "count", "moments.mask_pairs_per_s": "1/s",
             "oracle.graphs_per_s": "1/s", "moments.cpu_per_wall": "ratio",
             "oracle.engine_share": "ratio"}
    metrics = {
        "cli.interp_s": metric(interp, "s"),
        "cli.import_s": metric(imported - interp, "s"),
    }
    for name in figures[0]:
        value = (figures[0][name] if name in COUNTS
                 else statistics.mean(f[name] for f in figures))
        metrics[name] = metric(value, units.get(name, "s"))
    metrics["moments.pool_overhead_s"] = metric(pool_overhead, "s")
    metrics["trace.overhead_s"] = metric(statistics.mean(overheads), "s")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(all_spans, handle)
    return metrics, done, repeat_ok


def pattern_auts(jobs) -> dict:
    """|Aut| of every pattern the jobs use, from the package."""
    import motifmoments as mm

    return {name: mm.automorphism_count(mm.PatternGraph(k, edges))
            for job in jobs for name, k, edges in job.patterns}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job, one pass: checks that the workload runs")
    args = parser.parse_args(argv)

    if not (SRC / "motifmoments" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import motifmoments

    if Path(motifmoments.__file__).resolve().parent != SRC / "motifmoments":
        print(f"error: imported motifmoments from {motifmoments.__file__}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seed_is_default": args.seed == DEFAULT_SEED, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, **machine_record()}
    goldens = load_goldens()
    jobs = build_jobs(args.workload, args.seed, goldens, nproc())
    if args.smoke:
        jobs = jobs[:1]
    auts = pattern_auts(jobs)
    aut_ok = all(goldens["patterns"][name]["aut"] == aut
                 for name, aut in auts.items() if name in goldens["patterns"])
    record["aut"] = auts

    if args.trace:
        metrics, done, repeat_ok = traced(args.workload, jobs, args.seed, goldens,
                                          args.smoke, record)
    else:
        metrics, done = end_to_end(args.workload, jobs, args.seconds, args.smoke, record)
        repeat_ok = True
    failures = [f"{r['label']}: {r['reason']}" for r in done if not r["ok"]]
    record.update(loadavg_1m_end=os.getloadavg()[0], steal_s_end=steal_s(),
                  control_loop_s_end=control_loop_s(), failures=failures[:20],
                  aut_matches_goldens=aut_ok)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record), file=sys.stderr)
    result = {"correct": not failures and aut_ok and repeat_ok, "attempted": len(done),
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span recorder for the traced run.

The recorder wraps every public function defined in the package's modules
(cli, pattern, symmetry, moments, algebra, oracle) and rebinds every
module-level name that refers to one of them, not only the one in its home
module: `moments.automorphism_count`, `oracle.automorphism_count`,
`oracle.covariance_poly`, `cli.variance_poly` and the re-exports in
`motifmoments` all go through the wrapper, so calls between modules are seen.
Private helpers are not wrapped; their time is inside the public caller's
span.

Each span records its name, start, end, parent id, the job it belongs to and
the CPU time (this process plus reaped children) at both ends.  Spans stay in
memory and are written out when the run ends; self time is computed from
them.

Work inside process-pool children is covered only by the parent's
`second_moment_poly` span: the children run private helpers that are not
wrapped, and spans there would be lost with the child anyway.  Their CPU
shows in the span's CPU time once the pool has been shut down and its
workers reaped.  `moments.cpu_per_wall` is therefore taken only over the
`second_moment_poly` spans whose `workers` argument is above 1, and is 0 on
a pass that makes no such call.

The tracer's own cost is measured, not inferred from a traced and an
untraced pass (on passes of many seconds the machine's drift is larger than
the tracer's cost): `span_cost_s` times a wrapped against a bare call, and
the time spent computing counts is summed in `count_s`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "pattern", "symmetry", "moments", "algebra", "oracle")


def cpu_now() -> float:
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans around the package's public functions while installed."""

    def __init__(self, aut_count):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._rebound: list[tuple[object, str, object]] = []
        self._aut_count = aut_count  # unwrapped symmetry.automorphism_count
        self._aut_cache: dict = {}
        self._paused = False  # set while the recorder itself calls the package
        self.count_s = 0.0  # time spent computing counts, part of the tracer's cost

    # -- counts computed from a call's arguments, where the work is done

    def _aut(self, pattern) -> int:
        key = (pattern.vertex_count, pattern.edges)
        if key not in self._aut_cache:
            self._paused = True
            try:
                self._aut_cache[key] = self._aut_count(pattern)
            finally:
                self._paused = False
        return self._aut_cache[key]

    def _counts(self, name: str, bound: inspect.BoundArguments) -> dict:
        args = bound.arguments
        if name == "moments.second_moment_poly":
            a, b = args["pattern_a"], args["pattern_b"]
            per_overlap = (math.factorial(a.vertex_count) // self._aut(a)) * (
                math.factorial(b.vertex_count) // self._aut(b)
            )
            return {"mask_pairs": (min(a.vertex_count, b.vertex_count) + 1) * per_overlap,
                    "workers": args.get("workers", 1)}
        if name == "oracle.exact_moments":
            n = args["n"]
            return {"graphs": 2 ** (n * (n - 1) // 2)}
        return {}

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counted = name in ("moments.second_moment_poly", "oracle.exact_moments")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            counts = {}
            if counted:
                start = time.perf_counter()
                counts = self._counts(name, signature.bind(*args, **kwargs))
                self.count_s += time.perf_counter() - start
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self._job, time.perf_counter(), cpu_now(), counts=counts)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                span.cpu_end = cpu_now()
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def span_cost_s(self, fn, *args, blocks: int = 21, calls: int = 500) -> float:
        """Time one span adds to a call of `fn`: the median over blocks of the
        per-call difference between a wrapped and a bare run of `calls` calls."""
        wrapped = self._wrap("span-cost-probe", fn)
        saved = self.spans
        diffs = []
        try:
            for _ in range(blocks):
                self.spans = []
                start = time.perf_counter()
                for _ in range(calls):
                    fn(*args)
                bare = time.perf_counter()
                for _ in range(calls):
                    wrapped(*args)
                diffs.append((time.perf_counter() - bare - (bare - start)) / calls)
        finally:
            self.spans = saved
        return statistics.median(diffs)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"motifmoments.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "motifmoments" and not modname.startswith("motifmoments."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    @contextlib.contextmanager
    def job_span(self, job_index: int, label: str):
        """A root span for one job; the job's spans nest under it."""
        span = Span(len(self.spans), f"job:{label}", None, job_index,
                    time.perf_counter(), cpu_now())
        self.spans.append(span)
        self._stack.append(span.id)
        self._job = job_index
        try:
            yield span
        finally:
            span.cpu_end = cpu_now()
            span.end = time.perf_counter()
            self._stack.pop()
            self._job = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` that have no ancestor named in `names`."""
    by_id = {s.id: s for s in spans}
    chosen = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            chosen.append(s)
    return chosen


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one traced pass."""

    def total(*names):
        return sum(s.duration for s in outermost(spans, set(names)))

    symmetry = outermost(spans, {"symmetry.automorphisms", "symmetry.automorphism_count"})
    second = [s for s in spans if s.name == "moments.second_moment_poly"]
    second_s = sum(s.duration for s in second)
    pooled = [s for s in second if s.counts["workers"] > 1]
    pooled_s = sum(s.duration for s in pooled)
    mask_pairs = sum(s.counts["mask_pairs"] for s in second)
    exact = [s for s in spans if s.name == "oracle.exact_moments"]
    exact_s = sum(s.duration for s in exact)
    graphs = sum(s.counts["graphs"] for s in exact)
    verify = [s for s in spans if s.name == "oracle.verify"]
    verify_ids = {s.id for s in verify}
    engine_in_verify = sum(
        s.duration for s in spans
        if s.name == "moments.covariance_poly" and s.parent in verify_ids
    )
    verify_s = sum(s.duration for s in verify)
    return {
        "cli.main_s": total("cli.main"),
        "pattern.parse_s": total("pattern.builtin", "pattern.parse_adjacency_matrix",
                                 "pattern.parse_edge_list"),
        "symmetry.aut_s": sum(s.duration for s in symmetry),
        "symmetry.aut_calls": len(symmetry),
        "moments.mean_s": total("moments.mean_poly"),
        "moments.second_moment_s": second_s,
        "moments.mask_pairs": mask_pairs,
        "moments.mask_pairs_per_s": mask_pairs / second_s if second_s else 0.0,
        "moments.cpu_per_wall": (sum(s.cpu_end - s.cpu_start for s in pooled) / pooled_s
                                 if pooled_s else 0.0),
        "algebra.eval_s": total("algebra.poly_eval_exact"),
        "algebra.render_s": total("algebra.format_rational_decimal", "algebra.sqrt_decimal"),
        "oracle.exact_moments_s": exact_s,
        "oracle.graphs": graphs,
        "oracle.graphs_per_s": graphs / exact_s if exact_s else 0.0,
        "oracle.engine_share": engine_in_verify / verify_s if verify_s else 0.0,
    }


COUNTS = ("moments.mask_pairs", "oracle.graphs", "symmetry.aut_calls")


def spans_to_json(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [
        {"id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
         "start": s.start, "end": s.end, "self_s": selfs[s.id],
         "cpu_s": s.cpu_end - s.cpu_start, **s.counts}
        for s in spans
    ]

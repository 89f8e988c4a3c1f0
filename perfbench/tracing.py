"""In-memory spans around the program's layer boundaries, and their analysis.

The traced run records a span for each runner stage, each operator call,
each gateway call and each backend call. Spans live in memory only and are
written out when the run ends. A layer's self time is its spans' duration
minus the part of each interval that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

# Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one traced run.

    Spans opened on a thread with no open span of its own (a runner pool
    worker) take the running stage span as their parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.case = None
        return self._local.stack

    @property
    def case(self) -> str | None:
        self._stack()
        return self._local.case

    @case.setter
    def case(self, value: str | None) -> None:
        self._stack()
        self._local.case = value

    @contextmanager
    def span(self, name: str, case: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self._stage
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, case or self.case, attrs))

    @contextmanager
    def stage(self, name: str):
        """A runner stage: parent of every span its pool workers open."""
        with self.span(name):
            self._stage = self._local.stack[-1]
            try:
                yield
            finally:
                self._stage = None
                self.case = None


def traced(tracer: Tracer, name: str, fn, case_of=None):
    """Wrap an operator so each call is a span, tagged with its case if known."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        case = case_of(args, kwargs) if case_of else None
        outer = tracer.case
        if case is not None:
            tracer.case = case
        try:
            with tracer.span(name, case):
                return fn(*args, **kwargs)
        finally:
            tracer.case = outer

    return wrapper


class TracedBackend:
    """Times each `complete` of the backend object handed to the gateway."""

    def __init__(self, backend, tracer: Tracer):
        self.backend = backend
        self.name = backend.name
        self.tracer = tracer

    def complete(self, req):
        with self.tracer.span("backend.complete", template=req.template_id):
            return self.backend.complete(req)


class TracedGateway:
    """Timing proxy in front of an `LlmGateway`: one span per `call`.

    Keeps the template variables of every call, which the prompt render
    microbenchmark replays.
    """

    def __init__(self, gateway, tracer: Tracer):
        self.gateway = gateway
        self.tracer = tracer
        self.rendered: list[tuple[str, dict]] = []

    def call(self, template_id, variables, *args, **kwargs):
        case = variables.get("case_id")
        if case is not None:
            # eval passes the case id only in the variables; later calls of
            # the same case (the risk judge) inherit it on this thread.
            self.tracer.case = case
        self.rendered.append((template_id, variables))
        attempt = int(variables.get("attempt", 1))
        with self.tracer.span("gateway.call", template=template_id, attempt=attempt):
            return self.gateway.call(template_id, variables, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.gateway, name)


def children_index(spans: list[Span]) -> dict[int, list[Span]]:
    index: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            index.setdefault(s.parent, []).append(s)
    return index


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: Span, children: list[Span]) -> float:
    return span.duration - covered(span.start, span.end, [(c.start, c.end) for c in children])


def chain_depth(intervals: list[tuple[float, float]]) -> int:
    """Longest chain of non-overlapping intervals: the sequential round-trips.

    Greedy by end time gives the largest set of pairwise disjoint intervals.
    Intervals that touch at an end point do not overlap.
    """
    depth = 0
    last_end = -math.inf
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            depth += 1
            last_end = end
    return depth


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, n): the highest percentile with at least ten samples beyond it.

    Values use the nearest-rank rule. Returns None below 2 x 10 samples,
    where even the median has fewer than ten samples beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(pct)) * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n
    return None


# Runner stage span -> the stage it reports under.
STAGE_SPANS = {
    "runner.convert": "convert",
    "runner.perturb": "perturb",
    "runner.generate": "generate",
    "runner.baseline.phi": "baselines",
    "runner.baseline.sdc": "baselines",
    "runner.baseline.llm_only": "baselines",
    "runner.eval": "eval",
}
STAGES = ("convert", "perturb", "generate", "baselines", "eval")
OPERATOR_LAYERS = ("converter", "perturbation", "narrator", "baselines", "evaluation")


def summarize(spans: list[Span], n_cases: int, templates: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run over `n_cases` cases."""
    kids = children_index(spans)
    by_id = {s.span_id: s for s in spans}

    def per_case_ms(seconds: float) -> float:
        return seconds * 1000.0 / n_cases

    def self_sum(prefix: str) -> float:
        return sum(self_time(s, kids.get(s.span_id, [])) for s in spans if s.name.startswith(prefix))

    def stage_span(s: Span) -> Span:
        while s.name not in STAGE_SPANS:
            s = by_id[s.parent]
        return s

    m: dict[str, float] = {}
    stage_seconds = Counter()
    for s in spans:
        if s.name in STAGE_SPANS:
            stage_seconds[STAGE_SPANS[s.name]] += s.duration
    for stage in STAGES:
        m[f"runner.{stage}_ms_per_case"] = per_case_ms(stage_seconds[stage])
    m["runner.self_ms_per_case"] = per_case_ms(self_sum("runner."))
    for layer in OPERATOR_LAYERS:
        m[f"{layer}.self_ms_per_case"] = per_case_ms(self_sum(layer + "."))

    calls = [s for s in spans if s.name == "gateway.call"]
    backend = [s for s in spans if s.name == "backend.complete"]
    m["gateway.self_ms_per_case"] = per_case_ms(self_sum("gateway.call"))
    m["gateway.wait_ms_per_case"] = per_case_ms(sum(s.duration for s in backend))
    m["gateway.calls_per_case"] = len(calls) / n_cases
    per_template = Counter(s.attrs["template"] for s in calls)
    for template in templates:
        m[f"gateway.calls.{template}"] = per_template[template] / n_cases
    if calls:
        hits = sum(1 for s in calls if not any(k.name == "backend.complete" for k in kids.get(s.span_id, [])))
        m["gateway.cache_hit_share"] = hits / len(calls)
        m["gateway.retry_share"] = sum(1 for s in calls if s.attrs["attempt"] > 1) / len(calls)
        durations_ms = sorted(s.duration * 1000.0 for s in calls)
        m["gateway.call_p50_ms"] = durations_ms[(len(durations_ms) - 1) // 2]
        tail = tail_percentile(durations_ms)
        if tail is not None:
            m["gateway.call_tail_pct"], m["gateway.call_tail_ms"], m["gateway.call_tail_n"] = tail

    # Critical path: per stage run and case, the longest chain of that case's
    # non-overlapping calls. A call without a case id (the baselines) belongs
    # to the operator span that made it, which covers exactly one case.
    chains: dict[tuple[int, str | int], list[tuple[float, float]]] = {}
    for s in calls:
        group = s.case if s.case is not None else s.parent
        chains.setdefault((stage_span(s).span_id, group), []).append((s.start, s.end))
    depth = Counter()
    for (stage_id, _), intervals in chains.items():
        depth[STAGE_SPANS[by_id[stage_id].name]] += chain_depth(intervals)
    for stage in STAGES:
        m[f"gateway.depth.{stage}"] = depth[stage] / n_cases
    return m

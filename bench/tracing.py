"""The traced run: spans around each layer, recorded from outside the engine.

Phase spans come from the pipeline's calls (parse, select_sources,
decompose, plan, execute under one query span).  Request spans come from
wrapping each service's public request methods on the instance, so the
engine's own code is untouched.  Spans stay in memory and are written out
as JSON lines when the run ends.  A span's self time is its duration minus
the durations of its children, which never overlap because the client is a
single thread.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from fedldf.federation import Federation
from fedldf.planner import AccessPlan, JoinOp, JoinPlan, PlanNode, access_requests
from fedldf.rdf import join_mappings, match_pattern

# Public request methods of a service and the span name each records.
REQUEST_METHODS = (("ask", "ask"), ("count", "count"), ("evaluate", "evaluate"), ("values_evaluate", "values"))
REQUEST_KINDS = tuple(kind for _, kind in REQUEST_METHODS)
PHASES = ("parse", "select_sources", "decompose", "plan", "execute")
# The share of each query span its phase spans must cover.
MIN_PHASE_COVERAGE = 0.95
# Seconds each micro-timing's repetitions are sized to take, all three together.
MICRO_BUDGET_S = 1.5


def _rows(kind: str, result) -> int:
    """Rows a request returned: mappings on a page, the cardinality a count
    reported, 1 for an ask answered true."""
    if kind in ("evaluate", "values"):
        return len(result.mappings)
    return int(result)


class Tracer:
    """Spans as lists ``[name, start, end, parent, rows, cpu]``; ``parent``
    is the index of the enclosing span, or None for a query span.  ``cpu``
    is the thread CPU seconds of a query or phase span, None for a request
    span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.queries: list[dict] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _wrap(self, kind: str, method):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = method(*args, **kwargs)
            end = time.perf_counter()
            spans.append([kind, start, end, open_spans[-1] if open_spans else None, _rows(kind, result), None])
            return result

        return traced

    @contextmanager
    def instrument(self, federation: Federation):
        """Wrap every service's request methods for the duration of the block."""
        for svc in federation.services:
            for attr, kind in REQUEST_METHODS:
                setattr(svc, attr, self._wrap(kind, getattr(svc, attr)))
        try:
            yield
        finally:
            for svc in federation.services:
                for attr, _ in REQUEST_METHODS:
                    delattr(svc, attr)

    def note_query(self, run, internals, federation: Federation) -> None:
        """Per-query figures the spans cannot show, computed after the clock
        stopped: decomposition shape, predicted and measured requests."""
        d, node, trace = internals.decomposition, internals.plan, internals.trace
        span = next(i for i in range(len(self.spans) - 1, -1, -1) if self.spans[i][0] == "query")
        record = {
            "query": run.query,
            "variant": run.variant,
            "span": span,
            "answers": len(trace.answers),
            "exec_requests": run.requests["execution"],
            "entries": len(d.entries) if d else 0,
            "pruned_sources": pruned_sources(internals.sources, d) if d else 0,
            "predicted_exec_requests": predicted_requests(node, federation) if node else 0,
        }
        self.queries.append(record)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, rows, cpu) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "rows": rows, "cpu": cpu}
                out.write(json.dumps(record) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


class _Span:
    """A query or phase span.  The tracer's own work between two phases is
    time that no phase span covers, so it is kept to the least: a plain
    context manager rather than a generator, the clocks read before the
    record is stored (growing the span list can take a fresh, faulting
    page) and only a pop after they are read again."""

    __slots__ = ("tracer", "record", "cpu_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.record = [name, None, None, tracer._open[-1] if tracer._open else None, None, None]

    def __enter__(self) -> None:
        self.cpu_start = time.thread_time()
        self.record[1] = time.perf_counter()
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.record[5] = time.thread_time() - self.cpu_start
        self.tracer._open.pop()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pruned_sources(sources, decomposition) -> int:
    """Pattern-source pairs that source selection found and the
    decomposition no longer sends."""
    kept = sum(len(entry.sources & sources[p]) for entry in decomposition.entries for p in entry.patterns)
    return sum(len(sources[p]) for p in decomposition.patterns()) - kept


def predicted_requests(node: PlanNode, federation: Federation) -> int:
    """Execution requests the planner's formulas predict for the plan: the
    chosen operator's cost at each join of the left-deep tree, which counts
    every leaf once."""
    if isinstance(node, AccessPlan):
        return access_requests(node, federation)
    total = 0
    while isinstance(node, JoinPlan):
        total += node.pbj_requests if node.op is JoinOp.PBJ else node.shj_requests
        node = node.left
    return total


def layer_metrics(tracer: Tracer, untraced_qps: float, traced_qps: float) -> tuple[list[tuple[str, float, str]], list[str]]:
    """Per-layer metrics as (name, value, unit), and the problems found in
    the spans: a negative self time, or a query run whose phase spans cover
    less than ``MIN_PHASE_COVERAGE`` of its query span.

    Coverage is judged in thread CPU time.  The pipeline is single-threaded
    and CPU-bound (the services are simulated in-process), so a query's CPU
    time is its wall time less the time the process was not running.  A
    preemption that lands between two phases then does not read as a stage
    the phase spans miss."""
    spans, own = tracer.spans, tracer.self_times()
    problems = [f"span {i} ({spans[i][0]}) has self time {t:.3g}s" for i, t in enumerate(own) if t < -1e-9]
    n = max(1, sum(1 for s in spans if s[0] == "query"))
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    covered: dict[int, float] = {}  # query span -> summed phase CPU time under it
    exec_rows = 0
    for (name, start, end, parent, r, cpu), t in zip(spans, own):
        dur[name] = dur.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if name in PHASES:
            covered[parent] = covered.get(parent, 0.0) + cpu
        if r is not None:
            rows[name] = rows.get(name, 0) + r
            if name in ("evaluate", "values") and parent is not None and spans[parent][0] == "execute":
                exec_rows += r
    query_s = dur.get("query", 0.0)
    phase_s = sum(dur.get(p, 0.0) for p in PHASES)
    q = tracer.queries
    for r in q:
        c = _ratio(covered.get(r["span"], 0.0), spans[r["span"]][5])
        if c < MIN_PHASE_COVERAGE:
            problems.append(f"phase spans cover only {c:.1%} of the CPU time of {r['query']} under {r['variant']}")
    asks = calls.get("ask", 0)
    exec_requests = sum(r["exec_requests"] for r in q)
    predicted = sum(r["predicted_exec_requests"] for r in q)

    out: list[tuple[str, float, str]] = []
    for kind in REQUEST_KINDS:
        out += [
            (f"services.{kind}.calls", calls.get(kind, 0) / n, "1/query"),
            (f"services.{kind}.busy_s", dur.get(kind, 0.0) / n, "s/query"),
            (f"services.{kind}.rows", rows.get(kind, 0) / n, "rows/query"),
        ]
    out += [
        ("services.busy_share", _ratio(sum(dur.get(k, 0.0) for k in REQUEST_KINDS), query_s), "ratio"),
        ("federation.select_sources_s", dur.get("select_sources", 0.0) / n, "s/query"),
        ("federation.select_sources_self_s", self_s.get("select_sources", 0.0) / n, "s/query"),
        ("federation.ask_hit_ratio", _ratio(rows.get("ask", 0), asks), "ratio"),
        ("decomposer.decompose_s", dur.get("decompose", 0.0) / n, "s/query"),
        ("decomposer.entries", sum(r["entries"] for r in q) / n, "1/query"),
        ("decomposer.pruned_sources", sum(r["pruned_sources"] for r in q) / n, "1/query"),
        ("planner.plan_s", dur.get("plan", 0.0) / n, "s/query"),
        ("planner.self_s", self_s.get("plan", 0.0) / n, "s/query"),
        ("planner.count_requests", calls.get("count", 0) / n, "1/query"),
        ("planner.predicted_exec_requests", predicted / n, "1/query"),
        ("planner.request_ratio", _ratio(exec_requests, predicted), "ratio"),
        ("executor.execute_s", dur.get("execute", 0.0) / n, "s/query"),
        ("executor.self_s", self_s.get("execute", 0.0) / n, "s/query"),
        ("executor.requests", exec_requests / n, "1/query"),
        ("executor.rows_fetched", exec_rows / n, "rows/query"),
        ("executor.answers_per_row", _ratio(sum(r["answers"] for r in q), exec_rows), "ratio"),
        ("parser.parse_s", dur.get("parse", 0.0) / n, "s/query"),
        ("trace.phase_coverage", _ratio(phase_s, query_s), "ratio"),
        ("trace.overhead_ratio", _ratio(traced_qps, untraced_qps), "ratio"),
    ]
    return out, problems


def _median_us(reps: int, calls: int, fn) -> float:
    """Median over ``reps`` timings of ``fn``, in microseconds per call."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / calls * 1e6


def rdf_micro(federation: Federation, pattern_lists) -> list[tuple[str, float, str]]:
    """Micro-timings of the data plane on the workload's own patterns over
    the union graph: ``match_pattern`` on every distinct pattern,
    ``join_mappings`` of each query's smallest match with the smallest match
    that shares a variable with it, and ``merged`` on up to 64 compatible
    pairs drawn from each of those joins.  Repetitions are sized so each
    timing takes about ``MICRO_BUDGET_S / 3``."""
    graph = federation.union_graph()
    patterns = list(dict.fromkeys(p for ps in pattern_lists for p in ps))
    matches = {p: match_pattern(graph, p) for p in patterns}

    pairs = []
    joins = []
    for ps in pattern_lists:
        small = min(ps, key=lambda p: len(matches[p]))
        partners = [p for p in ps if p is not small and p.variables & small.variables]
        if not partners:
            continue
        partner = min(partners, key=lambda p: len(matches[p]))
        joins.append((matches[small], matches[partner]))
        shared = sorted(small.variables & partner.variables)
        by_key: dict[tuple, list] = {}
        for b in sorted(matches[partner], key=repr):
            by_key.setdefault(tuple(b[v] for v in shared), []).append(b)
        for a in sorted(matches[small], key=repr)[:8]:
            pairs += [(a, b) for b in by_key.get(tuple(a[v] for v in shared), [])[:8]]

    def match_all():
        for p in patterns:
            match_pattern(graph, p)

    def merge_all():
        for a, b in pairs:
            a.merged(b)

    def join_all():
        for left, right in joins:
            join_mappings(left, right)

    out = []
    for name, fn, calls in (
        ("rdf.match_pattern_us", match_all, len(patterns)),
        ("rdf.merged_us", merge_all, len(pairs)),
        ("rdf.join_mappings_us", join_all, len(joins)),
    ):
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        reps = max(3, min(200, int(MICRO_BUDGET_S / 3 / max(once, 1e-6))))
        out.append((name, _median_us(reps, calls, fn), "us"))
    return out

"""The measured pipeline: one closed-loop client running queries one at a time.

Each query run is what ``harness.run`` does for one repetition: reset the
counters, parse, select sources, decompose, plan and execute.  The wall time
runs from the start of parsing to the last answer; everything else (answer
projection, the oracle comparison, the determinism guard) happens after the
clock has stopped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from fedldf.decomposer import Decomposition, NoRelevantSourceError
from fedldf.executor import ExecutionTrace, execute
from fedldf.federation import Federation, SourceMap, load_federation, select_sources
from fedldf.harness import VARIANTS, oracle_answers, project_answers, variant_decomposition, variant_plan
from fedldf.parser import executable_bgp, parse_query
from fedldf.planner import PlanNode
from fedldf.rdf import SolutionMapping

# Variants that prune sources and so may legitimately miss answers
# (harness.variant_decomposition prunes for exactly these).
PRUNING = frozenset({"decomposer_ps", "decomposer_ps_pbj"})

TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    variants: tuple[str, ...]
    shards: tuple[str, ...] | None = None
    chains: int = 0  # how many of world.chain_queries, shortest first
    draws: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", 1, ("baseline", "decomposer_ps"), chains=2, draws=4),
        Workload("probe", 3, ("decomposer_ps_pbj",), draws=2),
        Workload("wide", 1, VARIANTS, ("tpf", "brtpf", "sparql") * 4, chains=3, draws=6),
    )
}


@dataclass(frozen=True)
class Job:
    """One (query, variant) pair of a round, with the query's oracle answers."""

    query: str
    text: str
    variant: str
    oracle: frozenset[SolutionMapping]


@dataclass
class QueryRun:
    query: str
    variant: str
    wall_s: float
    first_answer_s: float | None
    requests: dict[str, int]
    answers: int
    hits: int
    expected: int
    error: str | None = None
    slowdown: float = 1.0  # the host's slowdown around this run; see host_slowdowns


@dataclass
class Internals:
    """What the pipeline built for one run, kept for the traced run's
    per-layer figures."""

    sources: SourceMap
    decomposition: Decomposition | None
    plan: PlanNode | None
    trace: ExecutionTrace


def no_span(name: str):
    return nullcontext()


def _oracles(manifest: Path, texts: list[str]) -> list[frozenset[SolutionMapping]]:
    federation = load_federation(manifest)
    answers = []
    for text in texts:
        parsed = parse_query(text)
        answers.append(oracle_answers(federation, parsed, executable_bgp(parsed)))
    return answers


def make_jobs(manifest: Path, queries, variants) -> list[Job]:
    """Jobs in query order, each query under every variant.

    The oracle answers of each distinct query text are computed before any
    timing, in a forked child process that loads ``manifest`` itself.  The
    union graphs they need are as large as the federation, so this keeps
    them out of the benchmark process's peak memory."""
    texts = list(dict.fromkeys(text for _, text in queries))
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as child:
        oracles = dict(zip(texts, child.submit(_oracles, manifest, texts).result()))
    return [Job(name, text, variant, oracles[text]) for name, text in queries for variant in variants]


def run_query(federation: Federation, job: Job, span=no_span) -> tuple[QueryRun, Internals | None]:
    """One timed pipeline run; ``span(name)`` opens a phase span."""
    federation.reset_counters()
    start = time.perf_counter()
    try:
        with span("query"):
            with span("parse"):
                parsed = parse_query(job.text)
                patterns = executable_bgp(parsed)
            with span("select_sources"):
                sources = select_sources(federation, patterns)
            decomposition = node = None
            with span("decompose"):
                try:
                    decomposition = variant_decomposition(job.variant, patterns, sources, federation)
                except NoRelevantSourceError:
                    pass
            if decomposition is None:
                trace = ExecutionTrace(requests=federation.requests_by_phase())
                exec_start = None
            else:
                with span("plan"):
                    node = variant_plan(job.variant, decomposition, federation)
                exec_start = time.perf_counter()
                with span("execute"):
                    trace = execute(node, federation, timeout_s=TIMEOUT_S)
        end = time.perf_counter()
    except Exception as exc:  # a failed query is counted, not fatal
        wall = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
        return QueryRun(job.query, job.variant, wall, None, {}, 0, 0, len(job.oracle), error), None

    first = None
    if exec_start is not None and trace.answers:
        first = exec_start - start + trace.answers[0][1]
    got = project_answers(parsed, trace.answer_set())
    run = QueryRun(
        job.query,
        job.variant,
        end - start,
        first,
        trace.request_totals(),
        len(got),
        len(got & job.oracle),
        len(job.oracle),
    )
    if trace.timed_out:
        run.error = f"timed out after {TIMEOUT_S:g}s"
    elif got - job.oracle:
        run.error = f"{len(got - job.oracle)} answers outside the oracle's"
    elif job.variant not in PRUNING and got != job.oracle:
        run.error = f"missed {len(job.oracle - got)} of {len(job.oracle)} oracle answers"
    return run, Internals(sources, decomposition, node, trace)


class RequestGuard:
    """Request totals per (query, variant) and phase must repeat exactly.

    Totals seen earlier in the process, and those a previous process with
    the same seed and the same source digest recorded on disk, are the
    reference; a mismatch is an error on the run that showed it.
    """

    def __init__(self, record: Path, digest: str):
        self.record = record
        self.digest = digest
        self.totals: dict[str, dict[str, int]] = {}
        self.reference: dict[str, dict[str, int]] = {}
        if record.is_file():
            doc = json.loads(record.read_text(encoding="utf-8"))
            if doc.get("digest") == digest:
                self.reference = doc["totals"]

    def check(self, run: QueryRun) -> None:
        if run.error is not None:
            return
        key = f"{run.query}/{run.variant}"
        expected = self.totals.setdefault(key, self.reference.get(key, run.requests))
        if run.requests != expected:
            run.error = f"request totals {run.requests} differ from the earlier {expected}"

    def save(self) -> None:
        self.record.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.record.with_suffix(".tmp")
        tmp.write_text(
            json.dumps({"digest": self.digest, "totals": {**self.reference, **self.totals}}, sort_keys=True, indent=1),
            encoding="utf-8",
        )
        tmp.replace(self.record)


def source_digest(*roots: Path) -> str:
    """Digest of every Python file under ``roots``: equal digests mean the
    same engine and the same benchmark."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(federation: Federation, jobs: list[Job], seconds: float, guard: RequestGuard, span=no_span, on_run=None):
    """Whole rounds over ``jobs``, so every run holds each (query, variant)
    equally often.  The last round is the one whose end is nearest to
    ``seconds`` (at least one round): a run neither stops a round short of
    ``seconds`` nor takes another whole round past it."""
    runs: list[QueryRun] = []
    kernel: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in jobs:
            # Each run starts from the same collector state, so the
            # collections inside it are the same every time.
            gc.collect()
            kernel.append(reference_kernel())
            run, internals = run_query(federation, job, span)
            guard.check(run)
            if on_run is not None and internals is not None:
                on_run(run, internals)
            runs.append(run)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    for run, slowdown in zip(runs, host_slowdowns(kernel)):
        run.slowdown = slowdown
    return runs


# A fixed pure-Python kernel of work like the engine's data plane (sorting,
# hashing and looking up IRI strings), and its time on a fast host.  On a
# shared 2-vCPU VM whose speed swung 2.7x, its time tracked the time of a
# fixed set of queries with slope 1.03 on a log-log fit.
_KERNEL_IRIS = tuple(f"http://synth.test/paper_{i * 7919 % 1500}" for i in range(1500))
KERNEL_NOMINAL_S = 0.00105
# A sample's slowdown is the median kernel time over the samples taken
# within SLOWDOWN_SPAN_S of it, and at least its SLOWDOWN_WINDOW neighbours
# on each side.  The host's speed phases lasted 3 s and more.
SLOWDOWN_SPAN_S = 0.5
SLOWDOWN_WINDOW = 2


def reference_kernel() -> tuple[float, float]:
    """When the reference kernel ran (``perf_counter`` seconds) and how
    long it took."""
    start = time.perf_counter()
    rank = {iri: i for i, iri in enumerate(sorted(_KERNEL_IRIS))}
    sum(rank[iri] for iri in sorted(_KERNEL_IRIS, key=lambda iri: iri[::-1]))
    return start, time.perf_counter() - start


def host_slowdowns(samples: list[tuple[float, float]]) -> list[float]:
    """The host's slowdown at each ``reference_kernel`` sample: the median
    kernel time around it (see ``SLOWDOWN_SPAN_S``) over the nominal.

    On a shared host the speed drifts as other tenants load it (up to 2.7x
    over minutes on a 2-vCPU cloud VM); dividing a time by the slowdown
    measured around it gives the time at nominal host speed."""
    slowdowns = []
    lo = hi = 0
    for i, (at, _) in enumerate(samples):
        while samples[lo][0] < at - SLOWDOWN_SPAN_S:
            lo += 1
        while hi + 1 < len(samples) and samples[hi + 1][0] <= at + SLOWDOWN_SPAN_S:
            hi += 1
        window = samples[max(0, min(lo, i - SLOWDOWN_WINDOW)) : max(hi, i + SLOWDOWN_WINDOW) + 1]
        slowdowns.append(statistics.median(t for _, t in window) / KERNEL_NOMINAL_S)
    return slowdowns


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by the inclusive method (a sample value or the
    midpoint of two)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def queries_per_s(runs: list[QueryRun]) -> float:
    """Successful runs per second of pipeline time at nominal host speed."""
    ok = [r for r in runs if r.error is None]
    return len(ok) / math.fsum(r.wall_s / r.slowdown for r in ok) if ok else 0.0


def end_to_end(runs: list[QueryRun], setup_s: list[float], peak_rss_mb: float) -> list[tuple[str, float, str, int]]:
    """(name, value, unit, samples) for every end-to-end metric.  Times are
    at nominal host speed (each divided by the slowdown measured around it)."""
    ok = [r for r in runs if r.error is None]
    walls = [r.wall_s / r.slowdown for r in ok] or [0.0]
    firsts = [r.first_answer_s / r.slowdown for r in ok if r.first_answer_s is not None] or [0.0]
    requests = [r.requests["total"] for r in ok]
    error_rate = (len(runs) - len(ok)) / len(runs)
    return [
        ("queries_per_s", queries_per_s(runs), "1/s", len(ok)),
        ("query_s_p50", quantile(walls, 50), "s", len(ok)),
        ("query_s_p90", quantile(walls, 90), "s", len(ok)),
        ("first_answer_s_p50", quantile(firsts, 50), "s", len(firsts)),
        ("requests_per_query", sum(requests) / len(requests) if requests else 0.0, "req/query", len(ok)),
        ("answer_recall", sum(r.hits for r in runs) / max(1, sum(r.expected for r in runs)), "ratio", len(runs)),
        ("error_rate", error_rate, "ratio", len(runs)),
        ("success_rate", 1.0 - error_rate, "ratio", len(runs)),
        ("setup_s", statistics.median(setup_s), "s", len(setup_s)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]

"""The benchmark's own checks: its world and request counts agree with the
acceptance gate, and its traced and untraced runs agree with each other.

    PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pipeline  # noqa: E402
import synthfed  # noqa: E402
import tracing  # noqa: E402
import world  # noqa: E402
from fedldf.executor import execute  # noqa: E402
from fedldf.federation import load_federation, select_sources  # noqa: E402
from fedldf.harness import variant_decomposition, variant_plan  # noqa: E402
from fedldf.parser import executable_bgp, parse_query  # noqa: E402


def _load(workload: pipeline.Workload, seed: int, directory: Path):
    """The workload's world under a single anchor draw."""
    w = world.build(workload.scale, seed, workload.shards, workload.chains)
    manifest, queries = world.write(w, directory)
    return manifest, load_federation(manifest), [(name, path.read_text(encoding="utf-8")) for name, path in queries]


def test_seed_0_at_scale_1_is_synthfed(tmp_path):
    _, federation, queries = _load(pipeline.WORKLOADS["scan"], 0, tmp_path)
    reference = synthfed.build_federation()
    assert federation.order == reference.order
    for mine, theirs in zip(federation, reference):
        assert mine.spec == theirs.spec
        assert mine.graph.triples == theirs.graph.triples
    # scan adds two chains after the synthfed queries
    assert [(name, executable_bgp(parse_query(text))) for name, text in queries[:10]] == list(synthfed.queries())
    assert len(queries) == 12


def test_scan_request_totals_equal_criterion_6(tmp_path):
    scan = pipeline.WORKLOADS["scan"]
    reference = synthfed.build_federation()
    expected = {}
    for name, bgp in synthfed.queries():
        for variant in scan.variants:
            # exactly as test_criterion_6_synthetic_federation_request_savings
            reference.reset_counters()
            sources = select_sources(reference, bgp)
            d = variant_decomposition(variant, bgp, sources, reference)
            execute(variant_plan(variant, d, reference), reference)
            expected[name, variant] = reference.total_requests()

    manifest, federation, queries = _load(scan, 0, tmp_path)
    measured = {}
    for job in pipeline.make_jobs(manifest, queries, scan.variants):
        run, _ = pipeline.run_query(federation, job)
        assert run.error is None
        measured[job.query, job.variant] = run.requests["total"]
    assert {key: measured[key] for key in expected} == expected


def test_every_seed_draws_queries_of_the_same_shape():
    canonical = world.build(1, 0, chains=3)
    shape = sorted(len(ps) for _, ps in canonical.queries)
    for scale in (1, 3):
        for seed in range(1, 30):
            w = world.build(scale, seed, chains=3, draws=3)
            assert sorted(len(ps) for _, ps in w.queries) == sorted(shape * 3)
            assert len({name for name, _ in w.queries}) == len(w.queries)
    first_draw = world.build(1, 0, draws=3).queries[:10]
    assert [(name.removesuffix("@0"), ps) for name, ps in first_draw] == list(canonical.queries[:10])
    wide = pipeline.WORKLOADS["wide"]
    for seed in range(1, 6):
        w = world.build(wide.scale, seed, wide.shards, wide.chains)
        union = world.build(wide.scale, seed)
        assert w.triple_count == len({t for svc in union.services for t in svc.triples})


def test_traced_and_untraced_runs_agree(tmp_path):
    wide = pipeline.WORKLOADS["wide"]
    manifest, federation, queries = _load(wide, 7, tmp_path)
    jobs = pipeline.make_jobs(manifest, queries, wide.variants)
    assert all(job.oracle for job in jobs)
    guard = pipeline.RequestGuard(tmp_path / "requests.json", "digest")
    untraced = pipeline.measure(federation, jobs, 0, guard)
    tracer = tracing.Tracer()
    with tracer.instrument(federation):
        traced = pipeline.measure(
            federation, jobs, 0, guard, tracer.span, lambda run, internals: tracer.note_query(run, internals, federation)
        )
    assert all(r.error is None for r in untraced + traced)
    assert [r.requests for r in untraced] == [r.requests for r in traced]
    assert all(t >= -1e-9 for t in tracer.self_times())
    metrics, problems = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert problems == []
    values = {name: value for name, value, _ in metrics}
    assert values["decomposer.pruned_sources"] > 0
    assert values["services.ask.calls"] == sum(12 * len(executable_bgp(parse_query(t))) for _, t in queries) / len(queries)

    # a later process with the same digest checks against the saved totals
    guard.save()
    run, _ = pipeline.run_query(federation, jobs[0])
    run.requests = {**run.requests, "total": run.requests["total"] + 1}
    pipeline.RequestGuard(tmp_path / "requests.json", "digest").check(run)
    assert run.error is not None and "differ" in run.error


def _busy(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_a_gap_between_phases_is_a_problem():
    tracer = tracing.Tracer()
    counts = dict.fromkeys(("answers", "exec_requests", "entries", "pruned_sources", "predicted_exec_requests"), 0)
    # q1 spends half of its time outside every phase; q2 none
    for query, outside_s in (("q1", 0.02), ("q2", 0.0)):
        span = len(tracer.spans)
        with tracer.span("query"):
            with tracer.span("parse"):
                _busy(0.02)
            _busy(outside_s)
        tracer.queries.append({**counts, "query": query, "variant": "baseline", "span": span})
    _, problems = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert len(problems) == 1 and "of the CPU time of q1 under baseline" in problems[0]


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Benchmark of the fedldf pipeline on seeded synthetic federations.

    python3 bench/run.py --workload {scan,probe,wide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark writes the workload's world
(N-Triples, a manifest and ``.rq`` files) under ``bench/out/``, loads it
with ``load_federation``, computes each query's oracle answers, and then
runs whole rounds of every (query, variant) pair from one single-threaded
closed-loop client for about ``S`` seconds.  It prints a table of every metric
with its unit and sample count, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the time runs untraced and half traced, and the metrics are the
per-layer ones; the spans are written to ``bench/out/``.  See
``bench/README.md`` for every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import world

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 15

# Printed in the table but not in the JSON line: it is 0 on a healthy run,
# and the JSON carries success_rate = 1 - error_rate instead.
TABLE_ONLY = {"error_rate"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("scan", "probe", "wide"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    """The process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedldf" / "__init__.py").is_file():
        print(f"bench: no engine sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # The engine is measured from this checkout's sources, never from an
    # installed copy, so the import waits until the path is known.
    sys.path.insert(0, str(SRC))
    import pipeline
    import tracing
    from fedldf.federation import load_federation
    from fedldf.parser import executable_bgp, parse_query

    workload = pipeline.WORKLOADS[args.workload]
    w = world.build(workload.scale, args.seed, workload.shards, workload.chains, workload.draws)
    load_s, kernel = [], []
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload.name}-") as tmp:
        manifest, query_files = world.write(w, Path(tmp))
        queries = [(name, path.read_text(encoding="utf-8")) for name, path in query_files]
        jobs = pipeline.make_jobs(manifest, queries, workload.variants)
        for _ in range(SETUP_REPS):
            # Only one federation is resident at a time, so set-up stays
            # below the timed loop's memory and peak_rss_mb is the loop's.
            federation = None
            gc.collect()
            kernel.append(pipeline.reference_kernel())
            start = time.perf_counter()
            federation = load_federation(manifest)
            load_s.append(time.perf_counter() - start)
    setup_s = [t / slowdown for t, slowdown in zip(load_s, pipeline.host_slowdowns(kernel))]
    setup_rss_mb = peak_rss_mb()
    guard = pipeline.RequestGuard(
        OUT / f"requests-{workload.name}-seed{args.seed}.json", pipeline.source_digest(SRC, BENCH)
    )

    problems: list[str] = []
    if args.trace == 0:
        runs = pipeline.measure(federation, jobs, args.seconds, guard)
        rows = pipeline.end_to_end(runs, setup_s, peak_rss_mb())
    else:
        untraced = pipeline.measure(federation, jobs, args.seconds / 2, guard)
        tracer = tracing.Tracer()
        with tracer.instrument(federation):
            traced = pipeline.measure(
                federation,
                jobs,
                args.seconds / 2,
                guard,
                tracer.span,
                on_run=lambda run, internals: tracer.note_query(run, internals, federation),
            )
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        runs = untraced + traced
        layers, problems = tracing.layer_metrics(
            tracer, pipeline.queries_per_s(untraced), pipeline.queries_per_s(traced)
        )
        patterns = [executable_bgp(parse_query(text)) for _, text in queries]
        triples = sum(len(svc.graph) for svc in federation)
        layers.append(("rdf.load_triples_per_s", triples / statistics.median(load_s), "1/s"))
        layers += tracing.rdf_micro(federation, patterns)
        samples = sum(1 for s in tracer.spans if s[0] == "query")
        rows = [(n, v, u, samples) for n, v, u in layers]
    guard.save()

    failed = [r for r in runs if r.error is not None]
    for r in failed[:10]:
        print(f"bench: FAILED {r.query} under {r.variant}: {r.error}", file=sys.stderr)
    for p in problems[:10]:
        print(f"bench: TRACE PROBLEM {p}", file=sys.stderr)

    print(
        f"workload={workload.name} scale={workload.scale} seed={args.seed} services={len(federation)} "
        f"triples={w.triple_count} queries={len(queries)} variants={','.join(workload.variants)} "
        f"rounds={len(runs) // len(jobs)} setup_peak_rss_mb={setup_rss_mb:.1f} digest={guard.digest}"
    )
    for name, value, unit, samples in rows:
        print(f"  {name:36s} {value:14.6g} {unit:10s} n={samples}")
    print(
        json.dumps(
            {
                "correct": not failed and not problems,
                "attempted": len(runs),
                "failed": len(failed),
                "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows if n not in TABLE_ONLY},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

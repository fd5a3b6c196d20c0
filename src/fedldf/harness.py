"""End-to-end query runs: load, select sources, decompose, plan, execute.

Four variants fix the feature set so ablations are comparable:

* ``baseline``: atomic decomposition, hash joins only.
* ``decomposer``: pairwise merging, no source pruning, hash joins only.
* ``decomposer_ps``: merging plus source pruning, hash joins only.
* ``decomposer_ps_pbj``: merging, pruning, and bind joins where cheaper.

A run report carries the chosen decomposition with its exact density and
cost, per-repetition metrics, and their means.  ``oracle_check`` compares a
variant's answers against brute-force evaluation over the union of all
service graphs; pruning variants may miss answers (that is the documented
trade-off) but extra answers always indicate a bug.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from .decomposer import (
    Decomposition,
    NoRelevantSourceError,
    decompose,
    decomposition_cost,
    atomic_decomposition,
    density,
)
from .executor import ExecutionTrace, execute
from .federation import Federation, ManifestError, SourceMap, load_federation, select_sources
from .parser import QuerySyntaxError, executable_bgp, parse_query
from .planner import PlanNode, plan
from .rdf import SolutionMapping, TriplePattern, eval_bgp
from .expression import Select

VARIANTS = ("baseline", "decomposer", "decomposer_ps", "decomposer_ps_pbj")

DEFAULT_TIMEOUT_S = 900.0


class LoadError(Exception):
    """Manifest or query could not be loaded; maps to CLI exit code 2."""


class InvariantViolation(Exception):
    """The engine caught itself misbehaving; maps to CLI exit code 4."""


@dataclass
class RunConfig:
    manifest: Path
    query: Path
    variant: str = "decomposer_ps_pbj"
    timeout_s: float = DEFAULT_TIMEOUT_S
    repetitions: int = 1
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        self.manifest = Path(self.manifest)
        self.query = Path(self.query)
        if self.variant not in VARIANTS:
            raise LoadError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.repetitions < 1:
            raise LoadError("repetitions must be at least 1")
        if self.timeout_s <= 0:
            raise LoadError("timeout must be positive")


def load_inputs(manifest: Path, query: Path) -> tuple[Federation, Select, tuple[TriplePattern, ...]]:
    try:
        federation = load_federation(manifest)
    except ManifestError as exc:
        raise LoadError(str(exc)) from exc
    try:
        text = Path(query).read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read query {query}: {exc}") from exc
    try:
        parsed = parse_query(text)
    except QuerySyntaxError as exc:
        raise LoadError(f"{query}: {exc}") from exc
    try:
        patterns = executable_bgp(parsed)
    except ValueError as exc:
        raise LoadError(f"{query}: {exc}") from exc
    return federation, parsed, patterns


def variant_decomposition(
    variant: str,
    patterns: tuple[TriplePattern, ...],
    sources: SourceMap,
    federation: Federation,
) -> Decomposition:
    if variant == "baseline":
        return atomic_decomposition(patterns, sources)
    return decompose(
        patterns, sources, federation, prune=variant in ("decomposer_ps", "decomposer_ps_pbj")
    )


def variant_plan(variant: str, decomposition: Decomposition, federation: Federation) -> PlanNode:
    return plan(decomposition, federation, use_bind_join=(variant == "decomposer_ps_pbj"))


def project_answers(
    parsed: Select, answers: frozenset[SolutionMapping]
) -> frozenset[SolutionMapping]:
    if parsed.variables is None:
        return answers
    return frozenset(m.restrict(parsed.variables) for m in answers)


def project_trace(parsed: Select, trace: ExecutionTrace) -> ExecutionTrace:
    """The trace with its answers projected to the selected variables, each
    projected answer kept once with its first arrival time."""
    if parsed.variables is None:
        return trace
    first: dict[SolutionMapping, float] = {}
    for m, t in trace.answers:
        first.setdefault(m.restrict(parsed.variables), t)
    return replace(trace, answers=list(first.items()))


def dief_at_t(trace: ExecutionTrace, t: float) -> float:
    """Area under the answer-count curve up to time ``t``: the sum over
    answers arriving by ``t`` of how long each has been available."""
    if t < 0:
        raise ValueError("dief time must be non-negative")
    return float(sum(t - arrived for _, arrived in trace.answers if arrived <= t))


def run(config: RunConfig) -> dict:
    """Execute the query ``config.repetitions`` times and report metrics.

    Every repetition starts from fresh counters and performs the whole
    pipeline including source selection.  Trace files are written as JSON
    lines when ``out_dir`` is set.  Traces, answer counts and dief all see
    the projected answers.
    """
    federation, parsed, patterns = load_inputs(config.manifest, config.query)

    report: dict = {
        "manifest": str(config.manifest),
        "query": str(config.query),
        "variant": config.variant,
        "runs": [],
    }
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)

    for rep in range(1, config.repetitions + 1):
        federation.reset_counters()
        record: dict = {"repetition": rep}
        sources = select_sources(federation, patterns)
        try:
            decomposition = variant_decomposition(config.variant, patterns, sources, federation)
        except NoRelevantSourceError as exc:
            # Nothing can match: the run short-circuits to an empty answer
            # with only the source-selection requests on the meter.
            trace = ExecutionTrace(requests=federation.requests_by_phase())
            record.update(_trace_metrics(trace, config))
            record["unmatched_pattern"] = str(exc.pattern)
            report.setdefault("decomposition", None)
            report["runs"].append(record)
            _write_trace(config, rep, trace)
            continue

        if "decomposition" not in report:
            report["decomposition"] = describe_decomposition(
                decomposition, patterns, sources, federation
            )
        node = variant_plan(config.variant, decomposition, federation)
        trace = project_trace(parsed, execute(node, federation, timeout_s=config.timeout_s))
        record.update(_trace_metrics(trace, config))
        report["runs"].append(record)
        _write_trace(config, rep, trace)

    report["mean"] = _mean_metrics(report["runs"])
    report["timeout"] = any(r.get("timeout") for r in report["runs"])
    return report


def describe_decomposition(
    decomposition: Decomposition,
    patterns: tuple[TriplePattern, ...],
    sources: SourceMap,
    federation: Federation,
) -> dict:
    index = {p: i + 1 for i, p in enumerate(patterns)}
    dens = density(decomposition, sources)
    return {
        "entries": [
            {
                "patterns": [index[p] for p in entry.patterns],
                "sources": list(federation.ordered(entry.sources)),
            }
            for entry in decomposition.entries
        ],
        "density": str(dens),
        "density_float": float(dens),
        "cost": decomposition_cost(decomposition, federation),
    }


def _trace_metrics(trace: ExecutionTrace, config: RunConfig) -> dict:
    totals = trace.request_totals()
    metrics = {
        "answers": len(trace.answer_set()),
        "runtime_s": trace.runtime_s,
        "requests": totals,
        "dief": dief_at_t(trace, trace.runtime_s),
    }
    if trace.timed_out:
        metrics["timeout"] = True
    return metrics


def _write_trace(config: RunConfig, rep: int, trace: ExecutionTrace) -> None:
    if config.out_dir is None:
        return
    path = config.out_dir / f"trace_{config.variant}_rep{rep}.jsonl"
    path.write_text(trace.to_jsonl(), encoding="utf-8")


def _mean_metrics(runs: list[dict]) -> dict:
    if not runs:
        return {}
    return {
        "answers": statistics.mean(r["answers"] for r in runs),
        "runtime_s": statistics.mean(r["runtime_s"] for r in runs),
        "requests_total": statistics.mean(r["requests"]["total"] for r in runs),
        "dief": statistics.mean(r["dief"] for r in runs),
    }


def oracle_answers(
    federation: Federation, parsed: Select, patterns: tuple[TriplePattern, ...]
) -> frozenset[SolutionMapping]:
    """Brute-force answers over the union of all service graphs."""
    return project_answers(parsed, eval_bgp(federation.union_graph(), patterns))


def oracle_check(manifest: Path, query: Path, variant: str = "decomposer_ps_pbj") -> dict:
    """Compare one variant's answers against the brute-force oracle.

    ``missing`` answers are possible under pruning variants and reported;
    ``extra`` answers are a soundness bug and raise InvariantViolation.
    """
    federation, parsed, patterns = load_inputs(manifest, query)
    expected = oracle_answers(federation, parsed, patterns)

    federation.reset_counters()
    sources = select_sources(federation, patterns)
    try:
        decomposition = variant_decomposition(variant, patterns, sources, federation)
    except NoRelevantSourceError:
        got: frozenset[SolutionMapping] = frozenset()
    else:
        node = variant_plan(variant, decomposition, federation)
        trace = execute(node, federation)
        got = project_answers(parsed, trace.answer_set())

    missing = expected - got
    extra = got - expected
    if extra:
        raise InvariantViolation(
            f"engine produced {len(extra)} answers the oracle does not: "
            + "; ".join(sorted(repr(m) for m in list(extra)[:3]))
        )
    return {
        "equal": got == expected,
        "engine_answers": len(got),
        "oracle_answers": len(expected),
        "missing": sorted(repr(m) for m in missing),
        "extra": [],
    }

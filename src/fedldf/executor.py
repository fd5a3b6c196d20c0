"""Streaming plan execution with exact request accounting.

All operators are pull-based generators over solution mappings and
deduplicate their own output, so the root stream yields each answer once.
Execution is single-threaded and deterministic: access unions visit
sources in manifest order, the hash join alternates sides strictly, and
bind-join blocks flush in arrival order.

The bind join adapts to each inner source's interface: single-pattern
instantiation for TPF (block size 1), inline VALUES blocks for brTPF and
endpoints.  Outer mappings are buffered per source next to the projected
bindings of the open block, so results can be hash-joined back to the full
outer rows when the block flushes.  Projected bindings are deduplicated
within a block but not across blocks; a binding seen again later is sent
again.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from .expression import DataBlock, InterfaceLanguage
from .federation import Federation
from .planner import AccessPlan, JoinOp, JoinPlan, PlanNode
from .rdf import SolutionMapping
from .services import PHASES, DeadlineExceeded, metering_deadline, metering_phase


class PlanInvariantError(Exception):
    """The executor was handed a plan that breaks its contracts."""


@dataclass
class ExecutionTrace:
    """What a query execution did: every answer with its arrival time, and
    the per-service request counts of all pipeline phases."""

    answers: list[tuple[SolutionMapping, float]] = field(default_factory=list)
    requests: dict[str, dict[str, int]] = field(default_factory=dict)
    runtime_s: float = 0.0
    timed_out: bool = False

    def answer_set(self) -> frozenset[SolutionMapping]:
        return frozenset(m for m, _ in self.answers)

    def request_totals(self) -> dict[str, int]:
        totals = {phase: sum(per.values()) for phase, per in self.requests.items()}
        for phase in PHASES:
            totals.setdefault(phase, 0)
        totals["total"] = sum(v for k, v in totals.items() if k != "total")
        return totals

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"t": t, "answer": m.to_dict()}, sort_keys=True)
            for m, t in self.answers
        ]
        summary = {
            "requests": self.request_totals(),
            "answers": len(self.answers),
            "runtime_s": self.runtime_s,
        }
        if self.timed_out:
            summary["timeout"] = True
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"


def access_stream(
    entry_plan: AccessPlan, federation: Federation
) -> Iterator[SolutionMapping]:
    """Union of the entry's evaluation at each of its sources, deduplicated,
    paging each source fully before moving to the next."""
    expression = entry_plan.entry.expression()
    seen: set[SolutionMapping] = set()
    for uri in federation.ordered(entry_plan.entry.sources):
        service = federation.service(uri)
        page = service.evaluate(expression)
        while True:
            for m in page.mappings:
                if m not in seen:
                    seen.add(m)
                    yield m
            if page.next_page is None:
                break
            page = service.evaluate(expression, page.next_page)


def symmetric_hash_join(
    left: Iterator[SolutionMapping],
    right: Iterator[SolutionMapping],
    shared: frozenset[str],
) -> Iterator[SolutionMapping]:
    """Pull both inputs alternately, emitting joins as soon as they appear.

    With no shared variables every pair joins (cartesian product).  Neither
    input has to finish before results flow, and nothing is emitted twice.
    """
    key_vars = tuple(sorted(shared))
    tables: tuple[dict, dict] = ({}, {})
    sides: list[Iterator[SolutionMapping] | None] = [iter(left), iter(right)]
    seen: set[SolutionMapping] = set()
    side = 0
    while sides[0] is not None or sides[1] is not None:
        if sides[side] is None:
            side = 1 - side
            continue
        try:
            m = next(sides[side])
        except StopIteration:
            sides[side] = None
            side = 1 - side
            continue
        key = tuple(m[v] for v in key_vars)
        tables[side].setdefault(key, []).append(m)
        for other in tables[1 - side].get(key, ()):
            joined = m.merged(other)
            if joined not in seen:
                seen.add(joined)
                yield joined
        side = 1 - side


class _Block:
    """Open bind-join block for one inner source: the projected bindings to
    send (deduplicated) and the outer rows waiting for its results."""

    __slots__ = ("bindings", "binding_set", "outer_rows")

    def __init__(self) -> None:
        self.bindings: list[SolutionMapping] = []
        self.binding_set: set[SolutionMapping] = set()
        self.outer_rows: list[SolutionMapping] = []

    def add(self, binding: SolutionMapping, outer: SolutionMapping) -> None:
        self.outer_rows.append(outer)
        if binding not in self.binding_set:
            self.binding_set.add(binding)
            self.bindings.append(binding)

    def clear(self) -> None:
        self.bindings = []
        self.binding_set = set()
        self.outer_rows = []


def bind_join(
    outer: Iterator[SolutionMapping],
    inner_plan: AccessPlan,
    shared: frozenset[str],
    federation: Federation,
) -> Iterator[SolutionMapping]:
    """Probe the inner entry with blocks of outer bindings.

    Each inner source keeps its own block sized to its interface's block
    capacity; a block flushes when full and any remainder flushes when the
    outer input ends.  Flush results join back to the buffered outer rows
    by the projected variables.
    """
    entry = inner_plan.entry
    expression = entry.expression()
    shared_vars = tuple(sorted(shared))
    uris = federation.ordered(entry.sources)
    blocks: dict[str, _Block] = {uri: _Block() for uri in uris}
    seen: set[SolutionMapping] = set()

    def flush(uri: str) -> Iterator[SolutionMapping]:
        block = blocks[uri]
        if not block.bindings:
            return
        service = federation.service(uri)
        inner_rows: list[SolutionMapping] = []
        if service.spec.language is InterfaceLanguage.TP:
            if len(entry.patterns) != 1:
                raise PlanInvariantError(
                    f"cannot instantiate a {len(entry.patterns)}-pattern group at {uri}"
                )
            (pattern,) = entry.patterns
            for binding in block.bindings:
                if not pattern.instantiable(binding):
                    continue
                bound = pattern.substitute(binding)
                page = service.evaluate(bound)
                while True:
                    inner_rows.extend(m.merged(binding) for m in page.mappings)
                    if page.next_page is None:
                        break
                    page = service.evaluate(bound, page.next_page)
        else:
            data = DataBlock(
                shared_vars,
                tuple(tuple(b[v] for v in shared_vars) for b in block.bindings),
            )
            page = service.values_evaluate(expression, data)
            while True:
                inner_rows.extend(page.mappings)
                if page.next_page is None:
                    break
                page = service.values_evaluate(expression, data, page.next_page)

        by_key: dict[tuple, list[SolutionMapping]] = {}
        for outer_row in block.outer_rows:
            by_key.setdefault(tuple(outer_row[v] for v in shared_vars), []).append(outer_row)
        for row in inner_rows:
            key = tuple(row[v] for v in shared_vars)
            for outer_row in by_key.get(key, ()):
                joined = outer_row.merged(row)
                if joined not in seen:
                    seen.add(joined)
                    yield joined
        block.clear()

    for outer_row in outer:
        binding = outer_row.restrict(shared_vars)
        for uri in uris:
            block = blocks[uri]
            block.add(binding, outer_row)
            if len(block.bindings) >= federation.service(uri).spec.block_size:
                yield from flush(uri)
    for uri in uris:
        yield from flush(uri)


def shared_variables(left: PlanNode, right: PlanNode) -> frozenset[str]:
    return left.variables & right.variables


def build_stream(node: PlanNode, federation: Federation) -> Iterator[SolutionMapping]:
    """Wire the plan tree into one pull stream."""
    if isinstance(node, AccessPlan):
        return access_stream(node, federation)
    if isinstance(node, JoinPlan):
        shared = shared_variables(node.left, node.right)
        if node.op is JoinOp.SHJ:
            return symmetric_hash_join(
                build_stream(node.left, federation),
                build_stream(node.right, federation),
                shared,
            )
        if not isinstance(node.right, AccessPlan):
            raise PlanInvariantError("bind join requires a plain access on its inner side")
        return bind_join(
            build_stream(node.left, federation), node.right, shared, federation
        )
    raise PlanInvariantError(f"not a plan node: {node!r}")


def execute(
    node: PlanNode, federation: Federation, timeout_s: float | None = None
) -> ExecutionTrace:
    """Run the plan to completion (or timeout), collecting the trace.

    With ``timeout_s`` the run stops at the first answer or request after
    the deadline: that answer is kept, that request is served, and the
    next request is refused, so a plan that yields nothing stops too.

    The trace's request table reflects the services' full counters, so the
    source-selection and planning requests made earlier for the same query
    appear under their own phases.  Callers reset counters between queries.
    """
    trace = ExecutionTrace()
    start = time.perf_counter()
    deadline = nullcontext() if timeout_s is None else metering_deadline(start + timeout_s)
    with metering_phase("execution"), deadline:
        try:
            for m in build_stream(node, federation):
                now = time.perf_counter() - start
                trace.answers.append((m, now))
                if timeout_s is not None and now >= timeout_s:
                    trace.timed_out = True
                    break
        except DeadlineExceeded:
            trace.timed_out = True
        if timeout_s is not None and not trace.timed_out:
            if time.perf_counter() - start >= timeout_s:
                trace.timed_out = True
    trace.runtime_s = time.perf_counter() - start
    trace.requests = federation.requests_by_phase()
    return trace

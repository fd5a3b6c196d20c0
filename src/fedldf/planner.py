"""Greedy cardinality-ordered join planning over a decomposition.

Entries are sorted by total estimated cardinality (count requests against
each selected source, attributed to the planning phase).  The plan grows
left-deep from the smallest entry, preferring the smallest remaining entry
that shares a variable with what is already planned and falling back to the
smallest overall, which keeps cartesian steps last.

Each join picks its physical operator by comparing exact request formulas:

* hash join: both inputs are fully paged in, so an access of entry T costs
  ceil(card_c / page_size_c) requests per source (at least one each).
* bind join: the inner side is fetched per block of outer bindings, costing
  ceil(outer_card / block_size_c) requests per inner source.

The bind join is chosen only when strictly cheaper and only when the inner
side is a plain access; ties keep the hash join.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union as TyUnion

from .decomposer import Decomposition, DecompositionEntry
from .federation import Federation
from .services import metering_phase


class JoinOp(Enum):
    SHJ = "shj"
    PBJ = "pbj"


@dataclass(frozen=True)
class AccessPlan:
    entry: DecompositionEntry
    cards: tuple[tuple[str, int], ...]
    card: int

    @property
    def variables(self) -> frozenset[str]:
        return self.entry.variables


@dataclass(frozen=True)
class JoinPlan:
    left: "PlanNode"
    right: "PlanNode"
    op: JoinOp
    card: int
    shj_requests: int
    pbj_requests: int | None

    @property
    def variables(self) -> frozenset[str]:
        return self.left.variables | self.right.variables


PlanNode = TyUnion[AccessPlan, JoinPlan]


def estimate_cardinality(
    entry: DecompositionEntry, federation: Federation
) -> tuple[tuple[tuple[str, int], ...], int]:
    """Per-source and total counts for the entry, one request per source."""
    with metering_phase("planning"):
        cards = tuple(
            (uri, federation.service(uri).count(entry.expression()))
            for uri in federation.ordered(entry.sources)
        )
    return cards, sum(n for _, n in cards)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def access_requests(plan: AccessPlan, federation: Federation) -> int:
    """Requests to page in the entry everywhere: ceil(card / page size) per
    source, and never less than one per source (emptiness is only learnt by
    asking)."""
    total = 0
    for uri, card in plan.cards:
        page = federation.service(uri).spec.page_size
        total += max(1, _ceil_div(card, page))
    return total


def bind_requests(outer_card: int, inner: AccessPlan, federation: Federation) -> int:
    """Requests to probe the inner entry with ``outer_card`` distinct outer
    bindings, sent in full blocks: ceil(outer / block size) per source."""
    total = 0
    for uri, _ in inner.cards:
        block = federation.service(uri).spec.block_size
        total += _ceil_div(outer_card, block)
    return total


def pick_join_operator(
    left: PlanNode, right: PlanNode, federation: Federation, allow_bind: bool = True
) -> tuple[JoinOp, int, int | None]:
    """Compare the two formulas; returns (operator, hash cost, bind cost).

    The left input contributes its own access cost only when it is a plain
    access (a join result is already streaming and costs nothing extra).
    Bind cost is undefined when the right side is not a plain access.
    """
    left_cost = access_requests(left, federation) if isinstance(left, AccessPlan) else 0
    shj = left_cost + access_requests(right, federation) if isinstance(right, AccessPlan) else left_cost
    pbj = None
    if isinstance(right, AccessPlan):
        pbj = left_cost + bind_requests(left.card, right, federation)
    op = JoinOp.PBJ if allow_bind and pbj is not None and pbj < shj else JoinOp.SHJ
    return op, shj, pbj


def plan(
    decomposition: Decomposition, federation: Federation, use_bind_join: bool = True
) -> PlanNode:
    """Left-deep plan over the decomposition's entries.

    Join cardinality is estimated as the smaller input's estimate, which is
    what steers both the join order and the bind-join block arithmetic.
    """
    accesses = []
    for position, entry in enumerate(decomposition.entries):
        cards, total = estimate_cardinality(entry, federation)
        accesses.append((total, position, AccessPlan(entry, cards, total)))
    accesses.sort(key=lambda item: (item[0], item[1]))
    remaining = [access for _, _, access in accesses]

    current: PlanNode = remaining.pop(0)
    while remaining:
        index = 0
        for i, candidate in enumerate(remaining):
            if candidate.variables & current.variables:
                index = i
                break
        nxt = remaining.pop(index)
        op, shj, pbj = pick_join_operator(current, nxt, federation, allow_bind=use_bind_join)
        current = JoinPlan(current, nxt, op, min(current.card, nxt.card), shj, pbj)
    return current


def explain_plan(node: PlanNode, patterns=None, indent: str = "") -> str:
    """Indented operator tree with cardinalities and request estimates."""
    index = {p: i + 1 for i, p in enumerate(patterns)} if patterns else None

    def entry_label(entry: DecompositionEntry) -> str:
        if index is not None:
            ids = ",".join(str(index[p]) for p in entry.patterns)
        else:
            ids = ",".join(str(p) for p in entry.patterns)
        return f"SE{{{ids}}}"

    def render(node: PlanNode, indent: str) -> list[str]:
        if isinstance(node, AccessPlan):
            cards = ", ".join(f"{uri}:{n}" for uri, n in node.cards)
            return [f"{indent}access {entry_label(node.entry)} card={node.card} [{cards}]"]
        pbj = "-" if node.pbj_requests is None else str(node.pbj_requests)
        head = (
            f"{indent}join[{node.op.value}] card={node.card} "
            f"requests(shj)={node.shj_requests} requests(pbj)={pbj}"
        )
        return [head] + render(node.left, indent + "  ") + render(node.right, indent + "  ")

    return "\n".join(render(node, indent))

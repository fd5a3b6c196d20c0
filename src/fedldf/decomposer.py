"""Query decomposition: grouping patterns per source before planning.

A decomposition splits a basic graph pattern into entries, each a group of
patterns evaluated together at a set of services.  The atomic decomposition
sends every pattern alone to all of its relevant sources; the decomposer
improves on it by merging groups a single source can answer in one request,
and optionally by pruning redundant sources first.

Two exact measures guide and describe the result:

* density compares the decomposition's interaction graph against the
  atomic one, as a rational in [0, 1]; higher means fewer evaluation and
  coordination edges were lost by grouping.
* cost counts the requests needed to evaluate every entry once: one per
  selected source per entry, plus the extra splits a source needs when an
  entry overflows its interface language.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .expression import And, Expression, bgp_expression, in_language
from .federation import Federation, SourceMap
from .rdf import TermKind, TriplePattern
from .services import InterfaceSpec


class NoRelevantSourceError(Exception):
    """A pattern matches nowhere in the federation; the answer is empty."""

    def __init__(self, pattern: TriplePattern):
        super().__init__(f"no relevant source for {pattern}")
        self.pattern = pattern


@dataclass(frozen=True, slots=True)
class DecompositionEntry:
    patterns: tuple[TriplePattern, ...]
    sources: frozenset[str]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("entry needs at least one pattern")
        if not self.sources:
            raise ValueError("entry needs at least one source")

    def expression(self) -> Expression:
        return bgp_expression(self.patterns)

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.patterns:
            out |= p.variables
        return out


@dataclass(frozen=True, slots=True)
class Decomposition:
    entries: tuple[DecompositionEntry, ...]

    def __post_init__(self) -> None:
        seen: set[TriplePattern] = set()
        for entry in self.entries:
            for p in entry.patterns:
                if p in seen:
                    raise ValueError(f"pattern appears in two entries: {p}")
                seen.add(p)

    def patterns(self) -> tuple[TriplePattern, ...]:
        return tuple(p for entry in self.entries for p in entry.patterns)

    def __len__(self) -> int:
        return len(self.entries)


def atomic_decomposition(
    patterns: Sequence[TriplePattern], sources: SourceMap
) -> Decomposition:
    """One entry per pattern, at every relevant source."""
    entries = []
    for p in patterns:
        relevant = sources[p]
        if not relevant:
            raise NoRelevantSourceError(p)
        entries.append(DecompositionEntry((p,), relevant))
    return Decomposition(tuple(entries))


def exclusive_groups(
    patterns: Sequence[TriplePattern], sources: SourceMap
) -> tuple[tuple[str, tuple[TriplePattern, ...]], ...]:
    """Patterns grouped by their sole relevant source.

    Multi-source patterns belong to no group.  Groups are keyed by uri and
    ordered by first pattern occurrence.
    """
    groups: dict[str, list[TriplePattern]] = {}
    for p in patterns:
        relevant = sources[p]
        if len(relevant) == 1:
            (only,) = relevant
            groups.setdefault(only, []).append(p)
    return tuple((uri, tuple(ps)) for uri, ps in groups.items())


@dataclass(frozen=True)
class DecompositionGraph:
    """Interaction graph of a decomposition.

    Vertices are the patterns plus every relevant source.  Edges connect a
    pattern to each source it is actually sent to, and pattern pairs that
    remain separate joins: pairs not grouped into a common entry, pairs
    answerable by the same sole source, and all pairs when the whole query
    collapses into one entry at one source.
    """

    pattern_vertices: tuple[TriplePattern, ...]
    source_vertices: tuple[str, ...]
    edges: frozenset[frozenset]

    def out_degree(self, vertex) -> int:
        return sum(1 for e in self.edges if vertex in e)


def decomposition_graph(
    d: Decomposition,
    sources: SourceMap,
    exclusives: tuple[tuple[str, tuple[TriplePattern, ...]], ...] | None = None,
) -> DecompositionGraph:
    patterns = d.patterns()
    if exclusives is None:
        exclusives = exclusive_groups(patterns, sources)

    source_vertices = tuple(sorted({c for p in patterns for c in sources[p]}))
    edges: set[frozenset] = set()

    # A pattern touches a source when its entry is evaluated there and the
    # source is relevant to the pattern itself.
    for entry in d.entries:
        for p in entry.patterns:
            for c in entry.sources & sources[p]:
                edges.add(frozenset((p, c)))

    together: set[frozenset] = set()
    for entry in d.entries:
        for a, b in combinations(entry.patterns, 2):
            together.add(frozenset((a, b)))
    for a, b in combinations(patterns, 2):
        if frozenset((a, b)) not in together:
            edges.add(frozenset((a, b)))

    for _, group in exclusives:
        for a, b in combinations(group, 2):
            edges.add(frozenset((a, b)))

    if len(d.entries) == 1 and len(d.entries[0].sources) == 1:
        for a, b in combinations(patterns, 2):
            edges.add(frozenset((a, b)))

    return DecompositionGraph(tuple(patterns), source_vertices, frozenset(edges))


def density(
    d: Decomposition,
    sources: SourceMap,
    exclusives: tuple[tuple[str, tuple[TriplePattern, ...]], ...] | None = None,
) -> Fraction:
    """Edge count relative to the atomic decomposition's, as an exact rational.

    ``sources`` must be the original source-selection result, not a pruned
    view, so the reference graph stays the same for every candidate.
    """
    patterns = d.patterns()
    reference = decomposition_graph(atomic_decomposition(patterns, sources), sources, exclusives)
    graph = decomposition_graph(d, sources, exclusives)
    return Fraction(len(graph.edges), len(reference.edges))


def compliant_split_size(entry: DecompositionEntry, spec: InterfaceSpec) -> int:
    """Fewest interface-legal requests that cover the entry at this service:
    1 when the whole group fits the language, else one per pattern."""
    if in_language(entry.expression(), spec.language):
        return 1
    return len(entry.patterns)


def decomposition_cost(d: Decomposition, federation: Federation) -> int:
    """Requests to evaluate each entry once at each of its sources, counting
    the extra per-pattern requests at sources that cannot take the group."""
    total = 0
    for entry in d.entries:
        total += len(entry.sources)
        for c in entry.sources:
            total += compliant_split_size(entry, federation.service(c).spec) - 1
    return total


def prune_sources(
    d: Decomposition, graph: DecompositionGraph, service_order: Sequence[str]
) -> Decomposition:
    """Heuristically drop redundant sources from an atomic decomposition.

    Sources are visited by falling out-degree in ``graph`` (ties follow the
    manifest order).  Each visited source claims the patterns still attached
    to it, cutting their edges to every other source, so a pattern keeps the
    first claimant among its relevant sources.  Patterns that share a
    constant subject URI with another pattern are left untouched: such
    entity-centred groups are the one shape where answers routinely need
    the same pattern from several sources.

    This is a heuristic: it can discard a source that contributes to valid
    answers, trading completeness for fewer requests.
    """
    order_index = {uri: i for i, uri in enumerate(service_order)}
    ranked = sorted(
        graph.source_vertices,
        key=lambda c: (-graph.out_degree(c), order_index.get(c, len(order_index))),
    )

    subject_counts: dict = {}
    for p in graph.pattern_vertices:
        if p.s.kind is TermKind.URI:
            subject_counts[p.s] = subject_counts.get(p.s, 0) + 1
    exempt = {
        p
        for p in graph.pattern_vertices
        if p.s.kind is TermKind.URI and subject_counts[p.s] > 1
    }

    kept: dict[TriplePattern, set[str]] = {}
    for entry in d.entries:
        for p in entry.patterns:
            kept[p] = set(entry.sources)

    for c in ranked:
        for p in graph.pattern_vertices:
            if p in exempt:
                continue
            if c in kept[p]:
                kept[p] = {c}

    return Decomposition(
        tuple(
            DecompositionEntry(entry.patterns, frozenset().union(*(kept[p] for p in entry.patterns)))
            for entry in d.entries
        )
    )


def decompose(
    patterns: Sequence[TriplePattern],
    sources: SourceMap,
    federation: Federation,
    prune: bool = False,
) -> Decomposition:
    """Build a decomposition by greedy pairwise merging.

    Starting from the atomic decomposition (source-pruned first when asked),
    repeatedly merge the first entry pair, in entry order, that shares a
    variable, is evaluated at exactly one common service, and whose combined
    pattern group that service's language accepts.  The merged entry takes
    the earlier entry's position.  Stops at a fixed point.
    """
    d = atomic_decomposition(patterns, sources)
    if prune:
        d = prune_sources(d, decomposition_graph(d, sources), federation.order)

    entries = list(d.entries)
    merged = True
    while merged:
        merged = False
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                a, b = entries[i], entries[j]
                if not (a.variables & b.variables):
                    continue
                union = a.sources | b.sources
                if len(union) != 1:
                    continue
                (c,) = union
                spec = federation.service(c).spec
                if not in_language(And(a.expression(), b.expression()), spec.language):
                    continue
                entries[i] = DecompositionEntry(a.patterns + b.patterns, union)
                del entries[j]
                merged = True
                break
            if merged:
                break
    return Decomposition(tuple(entries))


def _set_partitions(items: list) -> Iterable[list[list]]:
    """All partitions of ``items`` into non-empty blocks, first-index ordered."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[head]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[head] + partition[k]] + partition[k + 1 :]


def enumerate_decompositions(
    patterns: Sequence[TriplePattern],
    sources: SourceMap,
    federation: Federation,
    max_patterns: int = 4,
) -> list[dict]:
    """Exhaustive density/cost survey of the decomposition space.

    Every partition of the pattern set is combined with every non-empty
    source subset per block, drawn from the union of the block's relevant
    sources.  Returns one record per decomposition with its exact density
    and cost, marking the Pareto front (maximal density, minimal cost).
    Guarded to small queries; the space grows super-exponentially.
    """
    patterns = list(patterns)
    if len(patterns) > max_patterns:
        raise ValueError(
            f"enumeration is limited to {max_patterns} patterns, got {len(patterns)}"
        )
    exclusives = exclusive_groups(patterns, sources)
    records: list[dict] = []
    for partition in _set_partitions(patterns):
        partition = sorted(partition, key=lambda block: patterns.index(block[0]))
        per_block_choices: list[list[frozenset[str]]] = []
        for block in partition:
            candidates = federation.ordered({c for p in block for c in sources[p]})
            subsets = []
            for r in range(1, len(candidates) + 1):
                for combo in combinations(candidates, r):
                    subsets.append(frozenset(combo))
            per_block_choices.append(subsets)

        def build(block_idx: int, chosen: list[frozenset[str]]):
            if block_idx == len(partition):
                entries = tuple(
                    DecompositionEntry(tuple(block), srcs)
                    for block, srcs in zip(partition, chosen)
                )
                d = Decomposition(entries)
                records.append(
                    {
                        "decomposition": d,
                        "density": density(d, sources, exclusives),
                        "cost": decomposition_cost(d, federation),
                    }
                )
                return
            for srcs in per_block_choices[block_idx]:
                build(block_idx + 1, chosen + [srcs])

        build(0, [])

    for rec in records:
        rec["pareto"] = not any(
            (other["density"] > rec["density"] and other["cost"] <= rec["cost"])
            or (other["density"] >= rec["density"] and other["cost"] < rec["cost"])
            for other in records
        )
    return records


def explain(
    d: Decomposition,
    patterns: Sequence[TriplePattern],
    sources: SourceMap,
    federation: Federation,
) -> str:
    """One line per entry: pattern indexes, sources, and the decomposition's
    density and cost."""
    index = {p: i + 1 for i, p in enumerate(patterns)}
    dens = density(d, sources)
    cost = decomposition_cost(d, federation)
    lines = []
    for entry in d.entries:
        ids = ",".join(str(index[p]) for p in entry.patterns)
        uris = ",".join(federation.ordered(entry.sources))
        lines.append(f"SE{{{ids}}} @ {{{uris}}} | density={dens} cost={cost}")
    return "\n".join(lines)

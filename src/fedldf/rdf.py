"""RDF data plane: terms, triples, graphs, patterns, and solution mappings.

Everything here is immutable and hashable so result sets can be plain
Python sets.  ``eval_bgp`` and its nested-loop ``join_mappings`` are the
brute-force reference evaluator, used only by the oracle as ground truth;
they must stay independent of the planner, the executor and the simulator.
The simulator evaluates with ``hash_join`` and indexed pattern lookups
instead (``expression.evaluate_expression``), so the oracle checks that
fast path independently.

Blank nodes are deliberately unsupported.  Literals are compared by exact
lexical form, with no datatype or language-tag semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping


class TermKind(Enum):
    URI = "uri"
    LITERAL = "literal"
    VARIABLE = "variable"


@dataclass(frozen=True, slots=True)
class Term:
    """One RDF term. Variables carry their ``?`` prefix in lexical form."""

    kind: TermKind
    lexical: str

    def __post_init__(self) -> None:
        if self.kind is TermKind.VARIABLE:
            if not self.lexical.startswith("?") or len(self.lexical) < 2:
                raise ValueError(f"malformed variable term: {self.lexical!r}")
        elif self.lexical.startswith("?"):
            raise ValueError(f"non-variable term may not start with '?': {self.lexical!r}")

    @property
    def is_variable(self) -> bool:
        return self.kind is TermKind.VARIABLE

    @property
    def is_constant(self) -> bool:
        return self.kind is not TermKind.VARIABLE

    @property
    def var_name(self) -> str:
        """Variable name without the ``?`` sigil."""
        if self.kind is not TermKind.VARIABLE:
            raise ValueError(f"not a variable: {self}")
        return self.lexical[1:]

    def __str__(self) -> str:
        if self.kind is TermKind.URI:
            return f"<{self.lexical}>"
        if self.kind is TermKind.LITERAL:
            escaped = self.lexical.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return self.lexical


def uri(value: str) -> Term:
    return Term(TermKind.URI, value)


def literal(value: str) -> Term:
    return Term(TermKind.LITERAL, value)


def variable(name: str) -> Term:
    return Term(TermKind.VARIABLE, name if name.startswith("?") else f"?{name}")


@dataclass(frozen=True, slots=True)
class Triple:
    """A ground triple: constant subject/predicate/object only."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        if self.s.kind is not TermKind.URI:
            raise ValueError(f"triple subject must be a URI: {self.s}")
        if self.p.kind is not TermKind.URI:
            raise ValueError(f"triple predicate must be a URI: {self.p}")
        if self.o.is_variable:
            raise ValueError(f"triple object must be constant: {self.o}")

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o} ."


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple with variables allowed anywhere a constant would be legal."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        if self.s.kind is TermKind.LITERAL:
            raise ValueError(f"pattern subject may not be a literal: {self.s}")
        if self.p.kind is TermKind.LITERAL:
            raise ValueError(f"pattern predicate may not be a literal: {self.p}")

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(t.var_name for t in (self.s, self.p, self.o) if t.is_variable)

    def substitute(self, binding: "SolutionMapping") -> "TriplePattern":
        """Replace every variable bound in ``binding`` with its value."""

        def sub(t: Term) -> Term:
            if t.is_variable:
                bound = binding.get(t.var_name)
                if bound is not None:
                    return bound
            return t

        return TriplePattern(sub(self.s), sub(self.p), sub(self.o))

    def instantiable(self, binding: "SolutionMapping") -> bool:
        """Whether ``substitute(binding)`` is a well-formed pattern.

        A literal bound into subject or predicate position can match no
        triple, and the substituted pattern would be rejected."""
        for t in (self.s, self.p):
            if t.is_variable:
                bound = binding.get(t.var_name)
                if bound is not None and bound.kind is TermKind.LITERAL:
                    return False
        return True

    def to_triple(self) -> Triple:
        return Triple(self.s, self.p, self.o)

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o}"


class SolutionMapping:
    """Immutable partial mapping from variable names to constant terms.

    Bindings are stored sorted by variable name, which makes equal mappings
    hash equal regardless of construction order.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, bindings: Mapping[str, Term] | Iterable[tuple[str, Term]] = ()):
        items = tuple(sorted(dict(bindings).items()))
        for name, term in items:
            if name.startswith("?"):
                raise ValueError(f"bind by bare variable name, not {name!r}")
            if term.is_variable:
                raise ValueError(f"mapping values must be constant: {name} -> {term}")
        self._items = items
        self._hash = hash(items)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(name for name, _ in self._items)

    def get(self, name: str) -> Term | None:
        for key, term in self._items:
            if key == name:
                return term
        return None

    def __getitem__(self, name: str) -> Term:
        term = self.get(name)
        if term is None:
            raise KeyError(name)
        return term

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> tuple[tuple[str, Term], ...]:
        return self._items

    def compatible(self, other: "SolutionMapping") -> bool:
        """True when both bind every shared variable to the same term."""
        mine = dict(self._items)
        return all(mine[k] == v for k, v in other._items if k in mine)

    def merged(self, other: "SolutionMapping") -> "SolutionMapping":
        combined = dict(self._items)
        combined.update(other._items)
        return SolutionMapping(combined)

    def restrict(self, names: Iterable[str]) -> "SolutionMapping":
        keep = set(names)
        return SolutionMapping((k, v) for k, v in self._items if k in keep)

    def to_dict(self) -> dict[str, str]:
        """Rendered form used in trace output: variable name to printed term."""
        return {name: str(term) for name, term in self._items}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SolutionMapping) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"{{{inner}}}"


EMPTY_MAPPING = SolutionMapping()


class Graph:
    """Immutable triple set with single-position hash indexes for matching."""

    __slots__ = ("triples", "_by_s", "_by_p", "_by_o")

    def __init__(self, triples: Iterable[Triple] = ()):
        self.triples: frozenset[Triple] = frozenset(triples)
        by_s: dict[Term, list[Triple]] = {}
        by_p: dict[Term, list[Triple]] = {}
        by_o: dict[Term, list[Triple]] = {}
        for t in self.triples:
            by_s.setdefault(t.s, []).append(t)
            by_p.setdefault(t.p, []).append(t)
            by_o.setdefault(t.o, []).append(t)
        self._by_s = by_s
        self._by_p = by_p
        self._by_o = by_o

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    @staticmethod
    def union_all(graphs: Iterable["Graph"]) -> "Graph":
        out: set[Triple] = set()
        for g in graphs:
            out |= g.triples
        return Graph(out)

    def candidates(self, pattern: TriplePattern) -> Iterable[Triple]:
        """Smallest indexed candidate list for the pattern's constants."""
        pools: list[list[Triple]] = []
        if pattern.s.is_constant:
            pools.append(self._by_s.get(pattern.s, []))
        if pattern.p.is_constant:
            pools.append(self._by_p.get(pattern.p, []))
        if pattern.o.is_constant:
            pools.append(self._by_o.get(pattern.o, []))
        if not pools:
            return self.triples
        return min(pools, key=len)


def _unify(pattern: TriplePattern, t: Triple) -> SolutionMapping | None:
    binding: dict[str, Term] = {}
    for pat_term, ground in ((pattern.s, t.s), (pattern.p, t.p), (pattern.o, t.o)):
        if pat_term.is_variable:
            name = pat_term.var_name
            seen = binding.get(name)
            if seen is None:
                binding[name] = ground
            elif seen != ground:
                return None
        elif pat_term != ground:
            return None
    return SolutionMapping(binding)


def _matches(pattern: TriplePattern, t: Triple) -> bool:
    """Whether ``_unify`` succeeds, without building the mapping.

    Written apart from ``_unify`` so the reference evaluator shares no code
    with the simulator's fast paths that tests compare against it.
    """
    seen: dict[str, Term] = {}
    for pat_term, ground in ((pattern.s, t.s), (pattern.p, t.p), (pattern.o, t.o)):
        if pat_term.is_variable:
            bound = seen.setdefault(pat_term.lexical, ground)
            if bound is not ground and bound != ground:
                return False
        elif pat_term != ground:
            return False
    return True


def match_pattern(graph: Graph, pattern: TriplePattern) -> frozenset[SolutionMapping]:
    """All mappings whose substitution into ``pattern`` yields a graph triple.

    The domain of every result is exactly the pattern's variable set.
    """
    out = set()
    for t in graph.candidates(pattern):
        m = _unify(pattern, t)
        if m is not None:
            out.add(m)
    return frozenset(out)


def has_match(graph: Graph, pattern: TriplePattern) -> bool:
    """Whether ``pattern`` matches any graph triple; stops at the first."""
    return any(_matches(pattern, t) for t in graph.candidates(pattern))


def count_matches(graph: Graph, pattern: TriplePattern) -> int:
    """``len(match_pattern(graph, pattern))`` without building the set.

    Two distinct matching triples differ in a position the pattern holds a
    variable in, so they yield distinct mappings: the count of matching
    triples is the count of mappings.
    """
    return sum(1 for t in graph.candidates(pattern) if _matches(pattern, t))


def join_mappings(
    left: Iterable[SolutionMapping], right: Iterable[SolutionMapping]
) -> frozenset[SolutionMapping]:
    """Pairwise compatible unions of the two sets, deduplicated."""
    right_list = list(right)
    out = set()
    for a in left:
        for b in right_list:
            if a.compatible(b):
                out.add(a.merged(b))
    return frozenset(out)


def hash_join(
    left: Iterable[SolutionMapping], right: Iterable[SolutionMapping]
) -> frozenset[SolutionMapping]:
    """``join_mappings`` through a hash table, for the simulator's evaluator.

    The table is keyed on the variables that every mapping on both sides
    binds.  Other shared variables, which only some mappings bind (as in a
    UNION of different domains), are checked with ``compatible`` inside a
    bucket.  With no key variables there is one bucket: the cartesian
    product, filtered by ``compatible``.
    """
    left = list(left)
    right = list(right)
    if not left or not right:
        return frozenset()
    left_all, left_every = _domains(left)
    right_all, right_every = _domains(right)
    key = tuple(sorted(left_every & right_every))
    check = bool((left_all & right_all).difference(key))
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    table: dict[tuple[Term, ...], list[SolutionMapping]] = {}
    for m in build:
        table.setdefault(tuple(m[v] for v in key), []).append(m)
    out = set()
    for a in probe:
        for b in table.get(tuple(a[v] for v in key), ()):
            if not check or a.compatible(b):
                out.add(a.merged(b))
    return frozenset(out)


def _domains(mappings: list[SolutionMapping]) -> tuple[frozenset[str], frozenset[str]]:
    """The variables some mapping binds, and those every mapping binds."""
    distinct = {tuple(name for name, _ in m.items()) for m in mappings}
    names = [frozenset(d) for d in distinct]
    return frozenset().union(*names), frozenset.intersection(*names)


def eval_bgp(graph: Graph, patterns: Iterable[TriplePattern]) -> frozenset[SolutionMapping]:
    """Reference BGP evaluation: left fold of joins over per-pattern matches.

    The result is independent of pattern order.  An empty pattern list is
    rejected rather than answered with the unit mapping.
    """
    patterns = list(patterns)
    if not patterns:
        raise ValueError("cannot evaluate an empty pattern list")
    result: frozenset[SolutionMapping] = match_pattern(graph, patterns[0])
    for pattern in patterns[1:]:
        if not result:
            return frozenset()
        result = join_mappings(result, match_pattern(graph, pattern))
    return result


class NTriplesError(Exception):
    """Raised when a data file is outside the supported N-Triples subset."""


_LINE_RE = re.compile(
    r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+"
    r"(?:<([^<>\s]+)>|\"((?:[^\"\\]|\\.)*)\")\s*\.$"
)

_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\t": "\t", "\\r": "\r"}


def _unescape_literal(raw: str) -> str:
    return re.sub(r"\\.", lambda m: _UNESCAPE.get(m.group(0), m.group(0)), raw)


def parse_ntriples(text: str, source: str = "<string>") -> Graph:
    """Parse the one-triple-per-line N-Triples subset used by data files.

    Comment lines start with ``#``.  Blank node syntax is a hard error, not
    a skipped line, so unsupported data cannot load silently.
    """
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            if "_:" in line:
                raise NTriplesError(f"{source}:{lineno}: blank nodes are not supported")
            raise NTriplesError(f"{source}:{lineno}: malformed triple: {line!r}")
        s, p, o_uri, o_lit = m.groups()
        obj = uri(o_uri) if o_uri is not None else literal(_unescape_literal(o_lit))
        triples.append(Triple(uri(s), uri(p), obj))
    return Graph(triples)


def load_ntriples(path: str | Path) -> Graph:
    path = Path(path)
    return parse_ntriples(path.read_text(encoding="utf-8"), source=str(path))

"""Query expression AST and interface expressiveness levels.

The AST covers the SPARQL fragment the engine understands: triple patterns,
conjunction, UNION, OPTIONAL, FILTER, inline VALUES data, and SELECT.
OPTIONAL and FILTER take part in parsing and language-membership checks but
carry no evaluation semantics here; the executable core is basic graph
patterns plus VALUES.

Each simulated service advertises one of three languages, each contained
in the next: single triple patterns (TPF), triple patterns with inline
bindings (brTPF), and the whole fragment (SPARQL endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union as TyUnion

from .rdf import (
    Graph,
    SolutionMapping,
    Term,
    TriplePattern,
    hash_join,
    match_pattern,
)


@dataclass(frozen=True, slots=True)
class DataBlock:
    """Inline VALUES data: a variable list and rows of constant terms."""

    variables: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate VALUES variable in {self.variables}")
        for row in self.rows:
            if len(row) != len(self.variables):
                raise ValueError(
                    f"VALUES row width {len(row)} != {len(self.variables)} variables"
                )
            for term in row:
                if term.is_variable:
                    raise ValueError(f"VALUES rows must be constant, got {term}")

    def mappings(self) -> tuple[SolutionMapping, ...]:
        return tuple(SolutionMapping(zip(self.variables, row)) for row in self.rows)


@dataclass(frozen=True, slots=True)
class And:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Union:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Optional:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Filter:
    inner: "Expression"
    condition: str

    def __post_init__(self) -> None:
        if not self.condition.strip():
            raise ValueError("FILTER condition may not be empty")


@dataclass(frozen=True, slots=True)
class Values:
    inner: "Expression"
    block: DataBlock


@dataclass(frozen=True, slots=True)
class Select:
    """Projection; ``variables`` is None for ``SELECT *``."""

    variables: tuple[str, ...] | None
    inner: "Expression"


Expression = TyUnion[TriplePattern, And, Union, Optional, Filter, Values, Select]


def expression_vars(e: Expression) -> frozenset[str]:
    """Every variable occurring anywhere in the expression."""
    if isinstance(e, TriplePattern):
        return e.variables
    if isinstance(e, (And, Union, Optional)):
        return expression_vars(e.left) | expression_vars(e.right)
    if isinstance(e, Filter):
        return expression_vars(e.inner)
    if isinstance(e, Values):
        return expression_vars(e.inner) | frozenset(e.block.variables)
    if isinstance(e, Select):
        return expression_vars(e.inner)
    raise TypeError(f"not an expression: {e!r}")


def bgp_patterns(e: Expression) -> tuple[TriplePattern, ...] | None:
    """Flatten a conjunction-only tree to its patterns, or None if it isn't one."""
    if isinstance(e, TriplePattern):
        return (e,)
    if isinstance(e, And):
        left = bgp_patterns(e.left)
        right = bgp_patterns(e.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def bgp_expression(patterns: tuple[TriplePattern, ...] | list[TriplePattern]) -> Expression:
    """Left-deep conjunction of the given patterns, in order."""
    if not patterns:
        raise ValueError("a basic graph pattern needs at least one triple pattern")
    expr: Expression = patterns[0]
    for p in patterns[1:]:
        expr = And(expr, p)
    return expr


class InterfaceLanguage(Enum):
    TP = "tp"
    TP_VALUES = "tp_values"
    CORE_SPARQL = "core_sparql"


def in_language(e: Expression, lang: InterfaceLanguage) -> bool:
    """Whether an interface speaking ``lang`` accepts ``e`` as a request."""
    if lang is InterfaceLanguage.TP:
        return isinstance(e, TriplePattern)
    if lang is InterfaceLanguage.TP_VALUES:
        return isinstance(e, TriplePattern) or (
            isinstance(e, Values) and isinstance(e.inner, TriplePattern)
        )
    if lang is InterfaceLanguage.CORE_SPARQL:
        return _is_core(e)
    raise TypeError(f"unknown language: {lang!r}")


def _is_core(e: Expression) -> bool:
    if isinstance(e, TriplePattern):
        return True
    if isinstance(e, (And, Union, Optional)):
        return _is_core(e.left) and _is_core(e.right)
    if isinstance(e, (Filter, Values, Select)):
        return _is_core(e.inner)
    return False


class UnsupportedExpressionError(Exception):
    """Expression is in the accepted fragment but has no executable semantics."""


def evaluate_expression(graph: Graph, e: Expression) -> frozenset[SolutionMapping]:
    """Set-semantics evaluation over one graph, as the simulator answers it.

    Supports the executable core: patterns, conjunction, UNION, VALUES and
    SELECT.  OPTIONAL and FILTER are out of evaluation scope and raise.
    Conjunctions are hash joins; VALUES over a single triple pattern looks
    each row up in the graph's indexes, and VALUES over anything else is a
    hash join with the block.  ``rdf.eval_bgp`` and ``rdf.join_mappings``
    stay the naive reference that checks this evaluator independently.
    """
    if isinstance(e, TriplePattern):
        return match_pattern(graph, e)
    if isinstance(e, And):
        left = evaluate_expression(graph, e.left)
        if not left:
            return frozenset()
        return hash_join(left, evaluate_expression(graph, e.right))
    if isinstance(e, Union):
        return evaluate_expression(graph, e.left) | evaluate_expression(graph, e.right)
    if isinstance(e, Values):
        if isinstance(e.inner, TriplePattern):
            return _bound_pattern(graph, e.inner, e.block)
        return hash_join(evaluate_expression(graph, e.inner), e.block.mappings())
    if isinstance(e, Select):
        inner = evaluate_expression(graph, e.inner)
        if e.variables is None:
            return inner
        return frozenset(m.restrict(e.variables) for m in inner)
    if isinstance(e, (Optional, Filter)):
        raise UnsupportedExpressionError(
            f"{type(e).__name__} has no evaluation semantics in this engine"
        )
    raise TypeError(f"not an expression: {e!r}")


def _bound_pattern(
    graph: Graph, pattern: TriplePattern, block: DataBlock
) -> frozenset[SolutionMapping]:
    """``pattern VALUES block``: each row substituted into the pattern and
    looked up by index, its matches merged with the row.  A row that puts a
    literal in subject or predicate position matches nothing."""
    out = set()
    for row in block.mappings():
        if pattern.instantiable(row):
            out.update(m.merged(row) for m in match_pattern(graph, pattern.substitute(row)))
    return frozenset(out)


def summarize(e: Expression) -> str:
    """Compact one-line rendering used in logs and explain output."""
    if isinstance(e, TriplePattern):
        return str(e)
    if isinstance(e, And):
        return f"({summarize(e.left)} . {summarize(e.right)})"
    if isinstance(e, Union):
        return f"({summarize(e.left)} UNION {summarize(e.right)})"
    if isinstance(e, Optional):
        return f"({summarize(e.left)} OPTIONAL {summarize(e.right)})"
    if isinstance(e, Filter):
        return f"({summarize(e.inner)} FILTER ({e.condition}))"
    if isinstance(e, Values):
        return f"({summarize(e.inner)} VALUES[{len(e.block.rows)} rows])"
    if isinstance(e, Select):
        head = "*" if e.variables is None else " ".join("?" + v for v in e.variables)
        return f"SELECT {head} {{ {summarize(e.inner)} }}"
    raise TypeError(f"not an expression: {e!r}")

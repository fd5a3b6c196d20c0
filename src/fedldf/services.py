"""In-process service simulators for the three LDF interface flavours.

A service owns one graph and answers four request kinds: paged evaluation,
paged evaluation with inline bindings, cardinality lookup, and boolean ask.
Every call increments the request counter exactly once, including calls
that are answered with a polite empty page or rejected as interface
violations, so measured counts always equal the number of calls made.

A request for an expression outside the service's language is answered
with an empty page rather than an error, mirroring servers that ignore
unsupported query features.  Those responses are tallied separately in
``polite_empty_count``; a correct client never triggers them.

Simulator cost scales with the request, not the graph.  Each service
memoizes an expression's result for one query run: ``evaluate``,
``values_evaluate`` and ``count`` evaluate an expression at most once, and
pages are slices of one ordered tuple sorted lazily on the first page
request.  ``count`` on a single triple pattern counts the matching
triples without keeping them, and ``ask`` stops at the first match; neither
stores anything.  ``reset_counters`` clears the memo, so nothing carries
over from one query run to the next.  A memo hit is still metered as one
request with the same kind, detail, phase, page and rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .expression import (
    Expression,
    InterfaceLanguage,
    Values,
    evaluate_expression,
    in_language,
    summarize,
)
from .rdf import Graph, SolutionMapping, TriplePattern, count_matches, has_match


# An expression's result: the evaluated set, or the same rows in page order.
_Result = frozenset[SolutionMapping] | tuple[SolutionMapping, ...]


class MetadataKind(Enum):
    """What a service reports alongside result pages."""

    NONE = "none"
    TRIPLE_COUNT = "triple_count"
    MATCH_COUNT = "match_count"


@dataclass(frozen=True, slots=True)
class InterfaceSpec:
    """Language, metadata, page size and bind-block capacity of an interface."""

    name: str
    language: InterfaceLanguage
    metadata: MetadataKind
    page_size: int
    block_size: int

    def __post_init__(self) -> None:
        if self.page_size < 1 or self.block_size < 1:
            raise ValueError("page_size and block_size must be positive")

    @staticmethod
    def tpf(page_size: int = 100) -> "InterfaceSpec":
        # A TPF server binds one mapping at a time by URL templating, so its
        # block size is fixed at 1 rather than configurable.
        return InterfaceSpec("tpf", InterfaceLanguage.TP, MetadataKind.TRIPLE_COUNT, page_size, 1)

    @staticmethod
    def brtpf(page_size: int = 100, block_size: int = 30) -> "InterfaceSpec":
        return InterfaceSpec(
            "brtpf", InterfaceLanguage.TP_VALUES, MetadataKind.MATCH_COUNT, page_size, block_size
        )

    @staticmethod
    def sparql_endpoint(page_size: int = 10000, block_size: int = 50) -> "InterfaceSpec":
        return InterfaceSpec(
            "sparql", InterfaceLanguage.CORE_SPARQL, MetadataKind.NONE, page_size, block_size
        )


@dataclass(frozen=True, slots=True)
class Page:
    """One page of results; ``total_estimate`` is None when the interface
    publishes no count metadata, ``next_page`` is None on the last page."""

    mappings: tuple[SolutionMapping, ...]
    total_estimate: int | None
    next_page: int | None


@dataclass(slots=True)
class RequestRecord:
    kind: str
    detail: str
    phase: str
    page: int | None = None
    rows: int | None = None


class ServiceError(Exception):
    pass


class InterfaceViolationError(ServiceError):
    """The request form itself is illegal for this interface (engine bug)."""


class PageTokenError(ServiceError):
    """Page token does not reference a page of this result."""


class ServiceSim:
    """Simulated LDF service over an immutable graph.

    Counters are guarded by a lock so concurrent probes stay exact.  The
    optional ``count_noise`` hook distorts reported cardinalities without
    touching result pages; it defaults to off and is never used in tests
    that check exact numbers.
    """

    def __init__(
        self,
        uri: str,
        spec: InterfaceSpec,
        graph: Graph,
        count_noise: Callable[[int], int] | None = None,
    ):
        self.uri = uri
        self.spec = spec
        self.graph = graph
        self.count_noise = count_noise
        self.phase = "execution"
        self.requests_by_phase: dict[str, int] = {}
        self.request_log: list[RequestRecord] = []
        self.polite_empty_count = 0
        # Result per expression for the current query run: the evaluated set
        # until a page is requested, then the ordered tuple that pages slice.
        self._results: dict[Expression, _Result] = {}
        self._lock = threading.Lock()

    def reset_counters(self) -> None:
        """Zero the meters and forget the results of the last query run."""
        with self._lock:
            self.requests_by_phase = {}
            self.request_log = []
            self.polite_empty_count = 0
            self._results = {}

    def _record(self, kind: str, detail: str, page: int | None = None, rows: int | None = None) -> None:
        with self._lock:
            phase = self.phase
            self.requests_by_phase[phase] = self.requests_by_phase.get(phase, 0) + 1
            self.request_log.append(RequestRecord(kind, detail, phase, page, rows))

    def total_requests(self) -> int:
        return sum(self.requests_by_phase.values())

    # -- request kinds -----------------------------------------------------

    def evaluate(self, expression: Expression, page: int = 0) -> Page:
        """Answer one page; out-of-language requests get a polite empty page."""
        self._record("evaluate", summarize(expression), page=page)
        if not in_language(expression, self.spec.language):
            with self._lock:
                self.polite_empty_count += 1
            return Page((), self._estimate(0), None)
        results = self._ordered_results(expression)
        return self._paged(results, page)

    def values_evaluate(self, expression: Expression, block, page: int = 0) -> Page:
        """Paged evaluation of ``expression VALUES block``.

        TPF rejects this request kind outright.  brTPF only binds single
        triple patterns; endpoints accept any expression they can evaluate.
        """
        self._record("values", summarize(expression), page=page, rows=len(block.rows))
        if self.spec.language is InterfaceLanguage.TP:
            raise InterfaceViolationError(f"{self.uri}: interface takes no inline bindings")
        if self.spec.language is InterfaceLanguage.TP_VALUES and not isinstance(
            expression, TriplePattern
        ):
            raise InterfaceViolationError(
                f"{self.uri}: inline bindings apply to single triple patterns only"
            )
        combined = Values(expression, block)
        results = self._ordered_results(combined)
        return self._paged(results, page)

    def count(self, expression: Expression) -> int:
        """Cardinality of the expression's full result on this service."""
        self._record("count", summarize(expression))
        if self.spec.language in (InterfaceLanguage.TP, InterfaceLanguage.TP_VALUES):
            if not isinstance(expression, TriplePattern):
                raise InterfaceViolationError(
                    f"{self.uri}: count metadata covers single triple patterns only"
                )
        if isinstance(expression, TriplePattern):
            # Most counted patterns are later probed with bindings, never
            # paged, so their rows are counted rather than kept.
            exact = count_matches(self.graph, expression)
        else:
            exact = len(self._result(expression))
        return self.count_noise(exact) if self.count_noise else exact

    def ask(self, pattern: TriplePattern) -> bool:
        """Whether the pattern has at least one match here."""
        self._record("ask", str(pattern))
        return has_match(self.graph, pattern)

    # -- internals ----------------------------------------------------------

    def _result(self, expression: Expression) -> _Result:
        """The expression's result, evaluated at most once per query run."""
        result = self._results.get(expression)
        if result is None:
            result = self._results[expression] = evaluate_expression(self.graph, expression)
        return result

    def _ordered_results(self, expression: Expression) -> tuple[SolutionMapping, ...]:
        result = self._result(expression)
        if isinstance(result, tuple):
            return result
        if isinstance(expression, TriplePattern):
            key = lambda m: str(expression.substitute(m))
        else:
            key = lambda m: repr(m)
        self._results[expression] = result = tuple(sorted(result, key=key))
        return result

    def _estimate(self, total: int) -> int | None:
        if self.spec.metadata is MetadataKind.NONE:
            return None
        return self.count_noise(total) if self.count_noise else total

    def _paged(self, results: tuple[SolutionMapping, ...], page: int) -> Page:
        size = self.spec.page_size
        if page < 0 or (page > 0 and page * size >= len(results)):
            raise PageTokenError(f"{self.uri}: no page {page} in a {len(results)}-row result")
        chunk = results[page * size : (page + 1) * size]
        more = (page + 1) * size < len(results)
        return Page(chunk, self._estimate(len(results)), page + 1 if more else None)

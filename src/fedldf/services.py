"""In-process service simulators for the three LDF interface flavours.

A service owns one graph and answers four request kinds: paged evaluation,
paged evaluation with inline bindings, cardinality lookup, and boolean ask.
Every call increments the request counter exactly once, including calls
that are answered with a polite empty page or rejected as interface
violations, so measured counts always equal the number of calls made.  The
one exception is a call refused at a deadline, which is never served.

A request for an expression outside the service's language is answered
with an empty page rather than an error, mirroring servers that ignore
unsupported query features.  Those responses are tallied separately in
``polite_empty_count``; a correct client never triggers them.

Simulator cost scales with the request, not the graph.  Expressions are
evaluated with hash joins, and a VALUES block over a triple pattern is
answered by one indexed lookup per row (``expression.evaluate_expression``).
Each service memoizes an expression's result for one query run:
``evaluate``, ``values_evaluate`` and ``count`` evaluate an expression at
most once, and pages are slices of one ordered tuple sorted lazily on the
first page request; a triple pattern's rows sort by their printed terms at
the variable positions, which is the order of the printed substituted
patterns.  ``count`` on a single triple pattern counts the matching triples
without keeping them, and ``ask`` stops at the first match; neither stores
anything.  ``reset_counters`` clears the memo, so nothing carries
over from one query run to the next.  A memo hit is still metered as one
request with the same kind, detail, phase, page and rows.

Requests are attributed to the phase of the current query run, which
``metering_phase`` sets for a block.  There is one phase at a time, shared
by every service, held in a context variable and so scoped to the current
thread or context; outside any block requests count as execution.
``metering_deadline`` sets a deadline the same way: the first request made
after it is still served, and any later one raises ``DeadlineExceeded``
unmetered, so a run stops at its deadline whether or not answers arrive.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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

PHASES = ("source_selection", "planning", "execution")

_phase: ContextVar[str] = ContextVar("fedldf_phase", default="execution")


@contextmanager
def metering_phase(name: str) -> Iterator[None]:
    """Attribute requests made inside the block, at any service, to the
    named phase; the enclosing phase comes back when the block ends."""
    if name not in PHASES:
        raise ValueError(f"unknown phase {name!r}")
    token = _phase.set(name)
    try:
        yield
    finally:
        _phase.reset(token)


class DeadlineExceeded(Exception):
    """A request came after one that had already found the deadline passed."""


class _Deadline:
    __slots__ = ("at", "passed")

    def __init__(self, at: float) -> None:
        self.at = at
        self.passed = False

    def check(self) -> None:
        if self.passed:
            raise DeadlineExceeded(f"deadline passed {time.perf_counter() - self.at:.3f}s ago")
        self.passed = time.perf_counter() >= self.at


_deadline: ContextVar[_Deadline | None] = ContextVar("fedldf_deadline", default=None)


@contextmanager
def metering_deadline(at: float) -> Iterator[None]:
    """Refuse requests made inside the block, at any service, once the
    ``time.perf_counter()`` instant ``at`` has passed.  The first request
    after it is served, like the answer that ends a timed-out run; every
    later one raises ``DeadlineExceeded`` before it is metered."""
    token = _deadline.set(_Deadline(at))
    try:
        yield
    finally:
        _deadline.reset(token)


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

    Counters are guarded by a lock so concurrent probes stay exact.
    """

    def __init__(self, uri: str, spec: InterfaceSpec, graph: Graph):
        self.uri = uri
        self.spec = spec
        self.graph = graph
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
        deadline = _deadline.get()
        if deadline is not None:
            deadline.check()
        phase = _phase.get()
        with self._lock:
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
            return count_matches(self.graph, expression)
        return len(self._result(expression))

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
            # The printed terms at the variable positions, in s, p, o order,
            # sort exactly as the printed substituted pattern: constants are
            # equal in every row and no printed term is a prefix of another.
            terms = (expression.s, expression.p, expression.o)
            names = [t.var_name for t in terms if t.is_variable]
            key = lambda m: tuple(str(m[name]) for name in names)
        else:
            key = lambda m: repr(m)
        self._results[expression] = result = tuple(sorted(result, key=key))
        return result

    def _estimate(self, total: int) -> int | None:
        return None if self.spec.metadata is MetadataKind.NONE else total

    def _paged(self, results: tuple[SolutionMapping, ...], page: int) -> Page:
        size = self.spec.page_size
        if page < 0 or (page > 0 and page * size >= len(results)):
            raise PageTokenError(f"{self.uri}: no page {page} in a {len(results)}-row result")
        chunk = results[page * size : (page + 1) * size]
        more = (page + 1) * size < len(results)
        return Page(chunk, self._estimate(len(results)), page + 1 if more else None)

"""Service simulator tests: paging, metadata, counters, interface rules."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedldf.expression import (
    And,
    DataBlock,
    InterfaceLanguage,
    Values,
    evaluate_expression,
    expression_vars,
)
from fedldf.rdf import Graph, Triple, TriplePattern, eval_bgp, literal, match_pattern, variable
from fedldf.services import (
    InterfaceSpec,
    InterfaceViolationError,
    MetadataKind,
    Page,
    PageTokenError,
    ServiceSim,
    metering_phase,
)

from helpers import drain, ex, sm, tp, triple

G_C1 = Graph(
    [
        triple("p1", "position", "president"),
        triple("p1", "party", "dems"),
        triple("y1", "sameAs", "p1"),
    ]
)
G_C2 = Graph(
    [
        triple("y1", "sameAs", "p1"),
        triple("y1", "predecessor", "p0"),
    ]
)

TP1 = tp("?x", "position", "president")
TP2 = tp("?x", "party", "?party")
TP4 = tp("?y", "predecessor", "?predecessor")


def _bulk_graph(n: int) -> Graph:
    return Graph([triple(f"s{i}", "p", f"o{i}") for i in range(n)])


def test_interface_defaults():
    tpf = InterfaceSpec.tpf()
    assert (tpf.page_size, tpf.block_size, tpf.metadata) == (100, 1, MetadataKind.TRIPLE_COUNT)
    br = InterfaceSpec.brtpf()
    assert (br.page_size, br.block_size, br.metadata) == (100, 30, MetadataKind.MATCH_COUNT)
    ep = InterfaceSpec.sparql_endpoint()
    assert (ep.page_size, ep.block_size, ep.metadata) == (10000, 50, MetadataKind.NONE)


def test_tpf_paging_three_pages():
    svc = ServiceSim("c", InterfaceSpec.tpf(), _bulk_graph(250))
    pattern = tp("?s", "p", "?o")
    page0 = svc.evaluate(pattern)
    assert len(page0.mappings) == 100
    assert page0.total_estimate == 250
    assert page0.next_page == 1
    page1 = svc.evaluate(pattern, page0.next_page)
    assert len(page1.mappings) == 100 and page1.next_page == 2
    page2 = svc.evaluate(pattern, page1.next_page)
    assert len(page2.mappings) == 50 and page2.next_page is None
    assert svc.total_requests() == 3


def test_exact_page_boundary_is_single_page():
    svc = ServiceSim("c", InterfaceSpec.tpf(), _bulk_graph(100))
    page = svc.evaluate(tp("?s", "p", "?o"))
    assert len(page.mappings) == 100 and page.next_page is None
    assert svc.total_requests() == 1


def test_drain_equals_full_evaluation():
    svc = ServiceSim("c", InterfaceSpec.tpf(page_size=7), _bulk_graph(23))
    pattern = tp("?s", "p", "?o")
    rows = drain(svc, pattern)
    assert len(rows) == 23
    assert frozenset(rows) == evaluate_expression(svc.graph, pattern)
    # paging is deterministic: drain twice, same order
    assert rows == drain(svc, pattern)


def test_endpoint_reports_no_estimate():
    svc = ServiceSim("c1", InterfaceSpec.sparql_endpoint(), G_C1)
    page = svc.evaluate(TP1)
    assert page.total_estimate is None
    assert page.mappings == (sm(x="p1"),)


def test_endpoint_evaluates_groups():
    svc = ServiceSim("c1", InterfaceSpec.sparql_endpoint(), G_C1)
    page = svc.evaluate(And(TP1, TP2))
    assert set(page.mappings) == {sm(x="p1", party="dems")}


def test_out_of_language_request_is_politely_empty():
    svc = ServiceSim("c2", InterfaceSpec.tpf(), G_C2)
    page = svc.evaluate(And(TP1, TP4))
    assert page.mappings == ()
    assert page.next_page is None
    assert svc.polite_empty_count == 1
    assert svc.total_requests() == 1
    # in-language request on the same service is answered normally
    assert len(svc.evaluate(TP4).mappings) == 1
    assert svc.polite_empty_count == 1


def test_brtpf_values_evaluation():
    svc = ServiceSim("c2", InterfaceSpec.brtpf(), G_C2)
    block = DataBlock(("y",), ((ex("y1"),),))
    page = svc.values_evaluate(TP4, block)
    assert set(page.mappings) == {sm(y="y1", predecessor="p0")}
    assert page.total_estimate == 1
    non_matching = DataBlock(("y",), ((ex("nope"),),))
    assert svc.values_evaluate(TP4, non_matching).mappings == ()
    empty = DataBlock(("y",), ())
    assert svc.values_evaluate(TP4, empty).mappings == ()
    assert svc.total_requests() == 3


def test_tpf_rejects_values():
    svc = ServiceSim("c2", InterfaceSpec.tpf(), G_C2)
    with pytest.raises(InterfaceViolationError):
        svc.values_evaluate(TP4, DataBlock(("y",), ((ex("y1"),),)))
    # the rejected call still counted
    assert svc.total_requests() == 1


def test_brtpf_rejects_group_bindings():
    svc = ServiceSim("c2", InterfaceSpec.brtpf(), G_C2)
    with pytest.raises(InterfaceViolationError):
        svc.values_evaluate(And(TP4, tp("?y", "sameAs", "?x")), DataBlock(("y",), ()))


def test_endpoint_values_on_group():
    svc = ServiceSim("c1", InterfaceSpec.sparql_endpoint(), G_C1)
    block = DataBlock(("x",), ((ex("p1"),), (ex("p2"),)))
    page = svc.values_evaluate(And(TP1, TP2), block)
    assert set(page.mappings) == {sm(x="p1", party="dems")}


def test_counts():
    c1 = ServiceSim("c1", InterfaceSpec.sparql_endpoint(), G_C1)
    assert c1.count(tp("?y", "sameAs", "?x")) == 1
    assert c1.count(And(TP1, TP2)) == 1
    tpf = ServiceSim("c2", InterfaceSpec.tpf(), G_C2)
    assert tpf.count(TP4) == 1
    assert tpf.count(tp("?a", "nothing", "?b")) == 0
    with pytest.raises(InterfaceViolationError):
        tpf.count(And(TP1, TP4))


def test_ask():
    c1 = ServiceSim("c1", InterfaceSpec.tpf(), G_C1)
    assert c1.ask(TP1) is True
    assert c1.ask(TP4) is False
    assert c1.total_requests() == 2


def test_invalid_page_tokens():
    svc = ServiceSim("c", InterfaceSpec.tpf(), _bulk_graph(5))
    pattern = tp("?s", "p", "?o")
    with pytest.raises(PageTokenError):
        svc.evaluate(pattern, 1)
    with pytest.raises(PageTokenError):
        svc.evaluate(pattern, -1)
    # page 0 of an empty result is fine
    empty = svc.evaluate(tp("?s", "q", "?o"))
    assert empty.mappings == () and empty.next_page is None


def test_request_log_phases_and_rows():
    svc = ServiceSim("c2", InterfaceSpec.brtpf(), G_C2)
    with metering_phase("planning"):
        svc.count(TP4)
    with metering_phase("execution"):
        svc.values_evaluate(TP4, DataBlock(("y",), ((ex("y1"),),)))
    assert svc.requests_by_phase == {"planning": 1, "execution": 1}
    assert svc.request_log[0].kind == "count"
    assert svc.request_log[1].kind == "values"
    assert svc.request_log[1].rows == 1


def test_counter_thread_safety():
    svc = ServiceSim("c", InterfaceSpec.tpf(), _bulk_graph(3))
    pattern = tp("?s", "p", "?o")

    def hammer():
        for _ in range(200):
            svc.evaluate(pattern)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert svc.total_requests() == 1600


def test_metering_phase_is_scoped_to_its_thread():
    svc = ServiceSim("c", InterfaceSpec.tpf(), _bulk_graph(3))
    pattern = tp("?s", "p", "?o")
    entered, release = threading.Event(), threading.Event()

    def plan_elsewhere():
        with metering_phase("planning"):
            entered.set()
            release.wait(5)
            svc.count(pattern)

    worker = threading.Thread(target=plan_elsewhere)
    worker.start()
    assert entered.wait(5)
    svc.evaluate(pattern)
    release.set()
    worker.join(5)
    assert not worker.is_alive()
    assert [(r.kind, r.phase) for r in svc.request_log] == [
        ("evaluate", "execution"),
        ("count", "planning"),
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=13),
    st.randoms(),
)
def test_drain_matches_oracle_on_random_graphs(size, page_size, rng):
    triples = [
        Triple(ex(f"s{rng.randint(0, 9)}"), ex(f"p{rng.randint(0, 2)}"), ex(f"o{rng.randint(0, 9)}"))
        for _ in range(size)
    ]
    g = Graph(triples)
    svc = ServiceSim("c", InterfaceSpec.tpf(page_size=page_size), g)
    pattern = tp("?s", f"p{rng.randint(0, 2)}", "?o")
    rows = drain(svc, pattern)
    assert len(rows) == len(set(rows))
    assert frozenset(rows) == eval_bgp(g, [pattern]) if rows else True
    first = svc.evaluate(pattern)
    assert first.total_estimate == len(evaluate_expression(g, pattern))


# -- the per-query result memo -------------------------------------------------

_NODES = [ex(f"n{i}") for i in range(5)]
_PREDICATES = [ex(f"p{i}") for i in range(2)]


def _reference_page(svc: ServiceSim, expression, page: int) -> Page:
    """A page evaluated from scratch, ordered and cut as the simulator does."""
    results = evaluate_expression(svc.graph, expression)
    if isinstance(expression, TriplePattern):
        key = lambda m: str(expression.substitute(m))
    else:
        key = repr
    ordered = tuple(sorted(results, key=key))
    size = svc.spec.page_size
    if page < 0 or (page > 0 and page * size >= len(ordered)):
        raise PageTokenError(page)
    estimate = None if svc.spec.metadata is MetadataKind.NONE else len(ordered)
    more = (page + 1) * size < len(ordered)
    return Page(ordered[page * size : (page + 1) * size], estimate, page + 1 if more else None)


def _outcome(call):
    try:
        return call()
    except PageTokenError:
        return PageTokenError


@st.composite
def _memo_scenarios(draw):
    triples = draw(
        st.lists(
            st.builds(
                Triple,
                st.sampled_from(_NODES),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_NODES),
            ),
            max_size=40,
        )
    )
    page_size = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        spec = InterfaceSpec.brtpf(page_size=page_size)
    else:
        spec = InterfaceSpec.sparql_endpoint(page_size=page_size)

    def term(pool, names):
        return draw(st.one_of(st.sampled_from(pool), st.sampled_from(names).map(variable)))

    first = TriplePattern(term(_NODES, ["a"]), term(_PREDICATES, ["p"]), term(_NODES, ["a", "b"]))
    second = TriplePattern(term(_NODES, ["b"]), term(_PREDICATES, ["q"]), term(_NODES, ["c"]))
    if spec.language is not InterfaceLanguage.TP_VALUES:
        second = And(first, second)
    expressions = (first, second)

    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        expression = draw(st.sampled_from(expressions))
        phase = draw(st.sampled_from(("planning", "execution")))
        kind = draw(st.sampled_from(("count", "evaluate", "values")))
        if kind == "count":
            ops.append((phase, kind, expression, None, 0))
            continue
        page = draw(st.integers(min_value=0, max_value=4))
        block = None
        if kind == "values":
            names = sorted(expression_vars(expression))
            if not names:
                kind = "evaluate"
            else:
                name = draw(st.sampled_from(names))
                nodes = st.lists(st.sampled_from(_NODES), min_size=1, max_size=5, unique=True)
                block = DataBlock((name,), tuple((node,) for node in draw(nodes)))
        ops.append((phase, kind, expression, block, page))
    return Graph(triples), spec, ops


def _request(svc: ServiceSim, phase, kind, expression, block, page):
    with metering_phase(phase):
        if kind == "count":
            return svc.count(expression)
        if kind == "evaluate":
            return _outcome(lambda: svc.evaluate(expression, page))
        return _outcome(lambda: svc.values_evaluate(expression, block, page))


@settings(max_examples=80, deadline=None)
@given(_memo_scenarios())
def test_memoized_requests_equal_fresh_evaluation(scenario):
    graph, spec, ops = scenario
    svc = ServiceSim("c", spec, graph)
    unmemoized = ServiceSim("c", spec, graph)
    for phase, kind, expression, block, page in ops:
        got = _request(svc, phase, kind, expression, block, page)
        # The twin forgets every result before each request, so it
        # evaluates every request from scratch.
        unmemoized._results.clear()
        assert _request(unmemoized, phase, kind, expression, block, page) == got
        if kind == "count":
            assert got == len(evaluate_expression(graph, expression))
        else:
            requested = expression if block is None else Values(expression, block)
            assert got == _outcome(lambda: _reference_page(svc, requested, page))
    assert svc.request_log == unmemoized.request_log
    assert svc.requests_by_phase == unmemoized.requests_by_phase
    assert svc.total_requests() == len(ops)

    svc.reset_counters()
    assert svc._results == {}
    assert svc.request_log == [] and svc.total_requests() == 0


def test_memo_hits_are_metered_and_bad_pages_still_rejected():
    svc = ServiceSim("c", InterfaceSpec.brtpf(page_size=2), _bulk_graph(5))
    pattern = tp("?s", "p", "?o")
    assert svc.count(pattern) == 5
    first = svc.evaluate(pattern)
    assert svc.evaluate(pattern) == first
    assert svc.evaluate(pattern, 2).next_page is None
    with pytest.raises(PageTokenError):
        svc.evaluate(pattern, 3)
    with pytest.raises(PageTokenError):
        svc.evaluate(pattern, -1)
    assert [(r.kind, r.page) for r in svc.request_log] == [
        ("count", None),
        ("evaluate", 0),
        ("evaluate", 0),
        ("evaluate", 2),
        ("evaluate", 3),
        ("evaluate", -1),
    ]
    assert svc._results
    svc.reset_counters()
    assert svc._results == {}


# -- page order ------------------------------------------------------------------

# URIs where one is a prefix of another and literals holding the characters
# their printed form escapes, so a printed term that ran into the next one
# would sort differently from the tuple of printed terms.
_KEY_NODES = [ex("a"), ex("a!"), ex("ab"), ex("a b")]
_KEY_OBJECTS = _KEY_NODES + [
    literal(""),
    literal("a"),
    literal('a"'),
    literal('a"b'),
    literal("a\\"),
    literal("a\\b"),
    literal("a b"),
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(
            Triple,
            st.sampled_from(_KEY_NODES),
            st.sampled_from(_KEY_NODES[:2]),
            st.sampled_from(_KEY_OBJECTS),
        ),
        max_size=40,
    ),
    st.builds(
        TriplePattern,
        st.one_of(st.sampled_from(_KEY_NODES), st.just(variable("x"))),
        st.one_of(st.sampled_from(_KEY_NODES[:2]), st.sampled_from(["x", "p"]).map(variable)),
        st.one_of(st.sampled_from(_KEY_OBJECTS), st.sampled_from(["x", "o"]).map(variable)),
    ),
    st.integers(min_value=1, max_value=7),
)
def test_pages_follow_the_printed_pattern_order(triples, pattern, page_size):
    graph = Graph(triples)
    svc = ServiceSim("c", InterfaceSpec.sparql_endpoint(page_size=page_size), graph)
    expected = sorted(match_pattern(graph, pattern), key=lambda m: str(pattern.substitute(m)))
    assert drain(svc, pattern) == expected

"""Planner tests: cardinality estimates, join order, operator choice."""

from __future__ import annotations

from fedldf.decomposer import DecompositionEntry, decompose
from fedldf.federation import Federation, select_sources
from fedldf.planner import (
    AccessPlan,
    JoinOp,
    JoinPlan,
    access_requests,
    bind_requests,
    estimate_cardinality,
    explain_plan,
    pick_join_operator,
    plan,
)
from fedldf.rdf import Graph
from fedldf.services import InterfaceSpec, ServiceSim

from helpers import (
    REFERENCE_BGP,
    TP_PARTY,
    TP_POSITION,
    TP_PREDECESSOR,
    TP_SAMEAS,
    tp,
    triple,
)


def _entry(patterns, *uris) -> DecompositionEntry:
    return DecompositionEntry(tuple(patterns), frozenset(uris))


def _access(entry, cards) -> AccessPlan:
    return AccessPlan(entry, tuple(cards), sum(n for _, n in cards))


def _fed(*services) -> Federation:
    return Federation(services)


def _svc(uri, spec, triples=()) -> ServiceSim:
    return ServiceSim(uri, spec, Graph(triples))


def test_estimate_cardinality_per_source(fed_base):
    cards, total = estimate_cardinality(_entry([TP_SAMEAS], "c1", "c2"), fed_base)
    assert cards == (("c1", 1), ("c2", 1))
    assert total == 2


def test_estimate_cardinality_group_at_endpoint(fed_base):
    cards, total = estimate_cardinality(_entry([TP_POSITION, TP_PARTY], "c1"), fed_base)
    assert cards == (("c1", 1),)
    assert total == 1


def test_estimate_cardinality_zero_on_empty_service():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()))
    cards, total = estimate_cardinality(_entry([TP_POSITION], "e"), fed)
    assert cards == (("e", 0),) and total == 0


def test_estimate_counts_in_planning_phase(fed_base):
    fed_base.reset_counters()
    estimate_cardinality(_entry([TP_SAMEAS], "c1", "c2"), fed_base)
    assert fed_base.service("c1").requests_by_phase == {"planning": 1}
    assert fed_base.service("c2").requests_by_phase == {"planning": 1}


def test_access_requests_paging_arithmetic():
    tpf = _fed(_svc("t", InterfaceSpec.tpf()))
    entry = _entry([tp("?s", "p", "?o")], "t")
    assert access_requests(_access(entry, [("t", 250)]), tpf) == 3
    assert access_requests(_access(entry, [("t", 100)]), tpf) == 1
    assert access_requests(_access(entry, [("t", 101)]), tpf) == 2

    ep = _fed(_svc("e", InterfaceSpec.sparql_endpoint()))
    entry_e = _entry([tp("?s", "p", "?o")], "e")
    assert access_requests(_access(entry_e, [("e", 10000)]), ep) == 1
    assert access_requests(_access(entry_e, [("e", 10001)]), ep) == 2


def test_access_requests_zero_cardinality_still_costs_one_per_source():
    fed = _fed(_svc("t", InterfaceSpec.tpf()), _svc("e", InterfaceSpec.sparql_endpoint()))
    entry = _entry([tp("?s", "p", "?o")], "t", "e")
    assert access_requests(_access(entry, [("t", 0), ("e", 0)]), fed) == 2


def test_access_requests_sums_over_sources():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()), _svc("t", InterfaceSpec.tpf()))
    entry = _entry([tp("?s", "p", "?o")], "e", "t")
    # 1 request for the endpoint, 3 pages on the TPF side
    assert access_requests(_access(entry, [("e", 1), ("t", 250)]), fed) == 4


def test_bind_requests_block_arithmetic():
    entry = _entry([tp("?s", "p", "?o")], "x")
    for spec, expected in [
        (InterfaceSpec.brtpf(), 4),       # ceil(120/30)
        (InterfaceSpec.tpf(), 120),       # one instantiation per binding
        (InterfaceSpec.sparql_endpoint(), 3),  # ceil(120/50)
    ]:
        fed = _fed(_svc("x", spec))
        assert bind_requests(120, _access(entry, [("x", 999)]), fed) == expected


def test_bind_requests_zero_outer_means_no_flushes():
    fed = _fed(_svc("x", InterfaceSpec.brtpf()))
    entry = _entry([tp("?s", "p", "?o")], "x")
    assert bind_requests(0, _access(entry, [("x", 7)]), fed) == 0


def test_bind_requests_sums_over_inner_sources():
    fed = _fed(_svc("a", InterfaceSpec.brtpf()), _svc("b", InterfaceSpec.sparql_endpoint()))
    entry = _entry([tp("?s", "p", "?o")], "a", "b")
    plan_node = _access(entry, [("a", 5), ("b", 5)])
    assert bind_requests(60, plan_node, fed) == 2 + 2


def test_pick_join_operator_prefers_cheaper_bind():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()), _svc("b", InterfaceSpec.brtpf()))
    outer = _access(_entry([tp("?s", "p", "?o")], "e"), [("e", 10)])
    inner = _access(_entry([tp("?o", "q", "?v")], "b"), [("b", 500)])
    op, shj, pbj = pick_join_operator(outer, inner, fed)
    # hash: 1 + ceil(500/100) = 6; bind: 1 + ceil(10/30) = 2
    assert (op, shj, pbj) == (JoinOp.PBJ, 6, 2)


def test_pick_join_operator_tie_keeps_hash_join():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()), _svc("b", InterfaceSpec.brtpf()))
    outer = _access(_entry([tp("?s", "p", "?o")], "e"), [("e", 40)])
    inner = _access(_entry([tp("?o", "q", "?v")], "b"), [("b", 150)])
    op, shj, pbj = pick_join_operator(outer, inner, fed)
    # hash: 1 + 2; bind: 1 + ceil(40/30) = 3: tie
    assert shj == pbj == 3
    assert op is JoinOp.SHJ


def test_pick_join_operator_respects_disable_flag():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()), _svc("b", InterfaceSpec.brtpf()))
    outer = _access(_entry([tp("?s", "p", "?o")], "e"), [("e", 10)])
    inner = _access(_entry([tp("?o", "q", "?v")], "b"), [("b", 500)])
    op, _, _ = pick_join_operator(outer, inner, fed, allow_bind=False)
    assert op is JoinOp.SHJ


def test_pick_join_operator_requires_access_inner():
    fed = _fed(_svc("e", InterfaceSpec.sparql_endpoint()), _svc("b", InterfaceSpec.brtpf()))
    a = _access(_entry([tp("?s", "p", "?o")], "e"), [("e", 10)])
    b = _access(_entry([tp("?o", "q", "?v")], "b"), [("b", 500)])
    joined = JoinPlan(a, b, JoinOp.SHJ, 10, 6, 2)
    op, shj, pbj = pick_join_operator(a, joined, fed)
    assert op is JoinOp.SHJ
    assert pbj is None


def test_plan_reference_join_order(fed_f1):
    sources = select_sources(fed_f1, REFERENCE_BGP)
    d = decompose(REFERENCE_BGP, sources, fed_f1, prune=False)
    fed_f1.reset_counters()
    node = plan(d, fed_f1)

    # grouped patterns 1+2 seed the plan (cardinality 1, earliest position);
    # the shared-variable rule pulls pattern 3 before pattern 4
    assert isinstance(node, JoinPlan)
    assert isinstance(node.left, JoinPlan)
    first = node.left.left
    assert isinstance(first, AccessPlan)
    assert first.entry.patterns == (TP_POSITION, TP_PARTY)
    assert node.left.right.entry.patterns == (TP_SAMEAS,)
    assert node.right.entry.patterns == (TP_PREDECESSOR,)

    # both joins tie on request estimates, so both stay hash joins
    assert node.left.op is JoinOp.SHJ
    assert node.left.shj_requests == 3 and node.left.pbj_requests == 3
    assert node.op is JoinOp.SHJ
    assert node.shj_requests == 1 and node.pbj_requests == 1

    # estimated cardinality propagates as the min of the inputs
    assert node.left.card == 1 and node.card == 1


def test_plan_issues_one_count_per_entry_source(fed_f1):
    sources = select_sources(fed_f1, REFERENCE_BGP)
    d = decompose(REFERENCE_BGP, sources, fed_f1, prune=False)
    fed_f1.reset_counters()
    plan(d, fed_f1)
    per_source = {
        uri: fed_f1.service(uri).requests_by_phase.get("planning", 0) for uri in fed_f1.order
    }
    # entry sources: {c1}, {c1,c2}, {c2}
    assert per_source == {"c1": 2, "c2": 2}
    assert sum(len(e.sources) for e in d.entries) == 4


def test_plan_single_entry_is_bare_access(fed_f1):
    sources = select_sources(fed_f1, [TP_SAMEAS])
    d = decompose([TP_SAMEAS], sources, fed_f1)
    node = plan(d, fed_f1)
    assert isinstance(node, AccessPlan)
    assert node.card == 2


def test_plan_cartesian_fallback_picks_smallest():
    left = tp("?a", "p", "?b")
    right = tp("?c", "q", "?d")
    fed = _fed(
        _svc(
            "e",
            InterfaceSpec.sparql_endpoint(),
            [triple("s1", "p", "o1"), triple("s2", "p", "o2"), triple("s3", "q", "o3")],
        )
    )
    sources = select_sources(fed, [left, right])
    d = decompose([left, right], sources, fed, prune=False)
    node = plan(d, fed)
    assert isinstance(node, JoinPlan)
    # the q-pattern has cardinality 1 < 2, so it seeds despite source order
    assert node.left.entry.patterns == (right,)
    assert node.right.entry.patterns == (left,)


def test_explain_plan_mentions_operators_and_cards(fed_f1):
    sources = select_sources(fed_f1, REFERENCE_BGP)
    d = decompose(REFERENCE_BGP, sources, fed_f1, prune=False)
    node = plan(d, fed_f1)
    text = explain_plan(node, REFERENCE_BGP)
    assert "join[shj]" in text
    assert "access SE{1,2} card=1 [c1:1]" in text
    assert "access SE{3} card=2 [c1:1, c2:1]" in text

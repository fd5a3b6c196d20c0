"""Executor tests: streaming operators, request accounting, trace format."""

from __future__ import annotations

import json
import time

import pytest

from fedldf.decomposer import DecompositionEntry, decompose
from fedldf.executor import (
    PlanInvariantError,
    access_stream,
    bind_join,
    build_stream,
    execute,
    symmetric_hash_join,
)
from fedldf.federation import Federation, select_sources
from fedldf.planner import AccessPlan, JoinOp, JoinPlan, plan
from fedldf.rdf import Graph, eval_bgp
from fedldf.services import InterfaceSpec, ServiceSim

from helpers import (
    REFERENCE_ANSWER,
    REFERENCE_BGP,
    TP_SAMEAS,
    ex,
    sm,
    tp,
    triple,
)


def _entry(patterns, *uris) -> DecompositionEntry:
    return DecompositionEntry(tuple(patterns), frozenset(uris))


def _access(patterns, *uris) -> AccessPlan:
    entry = _entry(patterns, *uris)
    return AccessPlan(entry, tuple((u, 0) for u in sorted(uris)), 0)


def _execution_requests(fed: Federation) -> int:
    return sum(
        svc.requests_by_phase.get("execution", 0) for svc in (fed.service(u) for u in fed.order)
    )


# -- access ------------------------------------------------------------------


def test_access_stream_dedups_across_sources(fed_base):
    fed_base.reset_counters()
    got = list(access_stream(_access([TP_SAMEAS], "c1", "c2"), fed_base))
    assert got == [sm(y="y1", x="p1")]
    assert _execution_requests(fed_base) == 2


def test_access_stream_asks_even_hopeless_sources(fed_base):
    fed_base.reset_counters()
    got = list(access_stream(_access([tp("?a", "nothing", "?b")], "c1", "c2"), fed_base))
    assert got == []
    assert _execution_requests(fed_base) == 2


def test_access_stream_pages_large_results():
    triples = [triple(f"s{i}", "p", f"o{i}") for i in range(250)]
    fed = Federation([ServiceSim("t", InterfaceSpec.tpf(), Graph(triples))])
    got = list(access_stream(_access([tp("?s", "p", "?o")], "t"), fed))
    assert len(got) == 250
    assert fed.service("t").requests_by_phase == {"execution": 3}


def test_access_stream_visits_sources_in_manifest_order():
    a = ServiceSim("a", InterfaceSpec.sparql_endpoint(), Graph([triple("s1", "p", "o1")]))
    b = ServiceSim("b", InterfaceSpec.sparql_endpoint(), Graph([triple("s2", "p", "o2")]))
    fed = Federation([a, b])
    got = list(access_stream(_access([tp("?s", "p", "?o")], "b", "a"), fed))
    assert got == [sm(s="s1", o="o1"), sm(s="s2", o="o2")]


# -- symmetric hash join -----------------------------------------------------


def test_hash_join_on_shared_variable():
    left = [sm(x="a", y="1"), sm(x="b", y="2")]
    right = [sm(x="a", z="9")]
    got = set(symmetric_hash_join(iter(left), iter(right), frozenset({"x"})))
    assert got == {sm(x="a", y="1", z="9")}


def test_hash_join_cartesian_without_shared_variables():
    left = [sm(a=f"l{i}") for i in range(2)]
    right = [sm(b=f"r{i}") for i in range(3)]
    got = set(symmetric_hash_join(iter(left), iter(right), frozenset()))
    assert len(got) == 6


def test_hash_join_deduplicates_output():
    left = [sm(x="a"), sm(x="a")]
    right = [sm(x="a", z="9")]
    got = list(symmetric_hash_join(iter(left), iter(right), frozenset({"x"})))
    assert got == [sm(x="a", z="9")]


def test_hash_join_streams_before_inputs_finish():
    pulls = {"left": 0, "right": 0}

    def side(name, mappings):
        for m in mappings:
            pulls[name] += 1
            yield m

    stream = symmetric_hash_join(
        side("left", [sm(x="a"), sm(x="b")]),
        side("right", [sm(x="a"), sm(x="c")]),
        frozenset({"x"}),
    )
    first = next(stream)
    assert first == sm(x="a")
    assert pulls == {"left": 1, "right": 1}


# -- bind join ---------------------------------------------------------------


def test_bind_join_tpf_instantiates_one_request_per_binding():
    inner = ServiceSim("t", InterfaceSpec.tpf(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    got = list(
        bind_join(
            iter([sm(x="s1")]),
            _access([tp("?x", "p", "?v")], "t"),
            frozenset({"x"}),
            fed,
        )
    )
    assert got == [sm(x="s1", v="o1")]
    log = inner.request_log
    assert [r.kind for r in log] == ["evaluate"]
    assert str(ex("s1")) in log[0].detail


def test_bind_join_brtpf_sends_full_blocks_of_thirty():
    triples = [triple(f"s{i}", "p", f"o{i}") for i in range(120)]
    inner = ServiceSim("b", InterfaceSpec.brtpf(), Graph(triples))
    fed = Federation([inner])
    outer = [sm(x=f"s{i}") for i in range(120)]
    got = set(
        bind_join(iter(outer), _access([tp("?x", "p", "?v")], "b"), frozenset({"x"}), fed)
    )
    assert got == {sm(x=f"s{i}", v=f"o{i}") for i in range(120)}
    values = [r for r in inner.request_log if r.kind == "values"]
    assert len(values) == 4
    assert [r.rows for r in values] == [30, 30, 30, 30]


def test_bind_join_without_outer_rows_sends_nothing():
    inner = ServiceSim("b", InterfaceSpec.brtpf(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    got = list(
        bind_join(iter([]), _access([tp("?x", "p", "?v")], "b"), frozenset({"x"}), fed)
    )
    assert got == []
    assert inner.request_log == []


def test_bind_join_dedups_bindings_within_a_block():
    inner = ServiceSim("b", InterfaceSpec.brtpf(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    outer = [sm(x="s1", tag="t1"), sm(x="s1", tag="t2")]
    got = set(
        bind_join(iter(outer), _access([tp("?x", "p", "?v")], "b"), frozenset({"x"}), fed)
    )
    assert got == {sm(x="s1", tag="t1", v="o1"), sm(x="s1", tag="t2", v="o1")}
    values = [r for r in inner.request_log if r.kind == "values"]
    assert [r.rows for r in values] == [1]


def test_bind_join_repeats_bindings_across_blocks():
    inner = ServiceSim("b", InterfaceSpec.brtpf(block_size=1), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    outer = [sm(x="s1", tag="t1"), sm(x="s1", tag="t2")]
    got = set(
        bind_join(iter(outer), _access([tp("?x", "p", "?v")], "b"), frozenset({"x"}), fed)
    )
    assert len(got) == 2
    values = [r for r in inner.request_log if r.kind == "values"]
    assert [r.rows for r in values] == [1, 1]


def test_bind_join_flushes_remainder_only_at_outer_end():
    triples = [triple(f"s{i}", "p", f"o{i}") for i in range(10)]
    inner = ServiceSim("b", InterfaceSpec.brtpf(), Graph(triples))
    fed = Federation([inner])
    outer = [sm(x=f"s{i}") for i in range(10)]
    stream = bind_join(
        iter(outer), _access([tp("?x", "p", "?v")], "b"), frozenset({"x"}), fed
    )
    assert inner.request_log == []  # building the stream sends nothing
    got = list(stream)
    assert len(got) == 10
    values = [r for r in inner.request_log if r.kind == "values"]
    assert [r.rows for r in values] == [10]


def test_bind_join_skips_probes_no_triple_could_match():
    # a literal bound into subject position cannot match anything; the
    # hash join silently drops such rows and the bind join must as well
    inner = ServiceSim("t", InterfaceSpec.tpf(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    outer = [sm(x='"not a subject"'), sm(x="s1")]
    got = list(
        bind_join(iter(outer), _access([tp("?x", "p", "?v")], "t"), frozenset({"x"}), fed)
    )
    assert got == [sm(x="s1", v="o1")]
    assert [r.kind for r in inner.request_log] == ["evaluate"]


def test_bind_join_rejects_grouped_patterns_on_tpf():
    inner = ServiceSim("t", InterfaceSpec.tpf(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([inner])
    group = _access([tp("?x", "p", "?v"), tp("?v", "q", "?w")], "t")
    with pytest.raises(PlanInvariantError):
        list(bind_join(iter([sm(x="s1")]), group, frozenset({"x"}), fed))


def test_build_stream_rejects_bind_join_onto_join_result():
    svc = ServiceSim("e", InterfaceSpec.sparql_endpoint(), Graph([triple("s1", "p", "o1")]))
    fed = Federation([svc])
    a = _access([tp("?x", "p", "?v")], "e")
    inner = JoinPlan(a, a, JoinOp.SHJ, 0, 1, None)
    bad = JoinPlan(a, inner, JoinOp.PBJ, 0, 1, 1)
    with pytest.raises(PlanInvariantError):
        build_stream(bad, fed)


# -- end-to-end execution ----------------------------------------------------


def _pipeline(fed, patterns, prune=False, use_bind_join=True):
    fed.reset_counters()
    sources = select_sources(fed, patterns)
    d = decompose(patterns, sources, fed, prune=prune)
    return execute(plan(d, fed, use_bind_join=use_bind_join), fed)


def test_execute_reference_query_frozen_request_table(fed_f1):
    trace = _pipeline(fed_f1, REFERENCE_BGP)
    assert trace.answer_set() == {REFERENCE_ANSWER}
    totals = trace.request_totals()
    # 2 services x 4 patterns relevance probes, 4 planning counts
    # (entry sources {c1}, {c1,c2}, {c2}), 4 single-page accesses
    assert totals == {
        "source_selection": 8,
        "planning": 4,
        "execution": 4,
        "total": 16,
    }


@pytest.mark.parametrize("fed_name", ["fed_base", "fed_f1", "fed_f2"])
@pytest.mark.parametrize("prune", [False, True])
def test_execute_matches_oracle_on_reference_fixtures(request, fed_name, prune):
    fed = request.getfixturevalue(fed_name)
    trace = _pipeline(fed, REFERENCE_BGP, prune=prune)
    oracle = eval_bgp(fed.union_graph(), REFERENCE_BGP)
    assert trace.answer_set() == oracle == {REFERENCE_ANSWER}


def test_execute_totals_agree_with_service_counters(fed_base):
    trace = _pipeline(fed_base, REFERENCE_BGP)
    assert trace.request_totals()["total"] == fed_base.total_requests()


def test_execute_answer_times_are_monotone():
    triples = [triple(f"s{i}", "p", f"o{i}") for i in range(250)]
    fed = Federation([ServiceSim("t", InterfaceSpec.tpf(), Graph(triples))])
    trace = execute(_access([tp("?s", "p", "?o")], "t"), fed)
    times = [t for _, t in trace.answers]
    assert len(times) == 250
    assert times == sorted(times)
    assert trace.runtime_s >= times[-1]


def test_execute_timeout_cuts_the_stream_short():
    triples = [triple(f"s{i}", "p", f"o{i}") for i in range(250)]
    fed = Federation([ServiceSim("t", InterfaceSpec.tpf(), Graph(triples))])
    trace = execute(_access([tp("?s", "p", "?o")], "t"), fed, timeout_s=0.0)
    assert trace.timed_out
    assert len(trace.answers) == 1


class _SlowService(ServiceSim):
    """Takes ``delay`` seconds to serve each page."""

    delay = 0.02

    def evaluate(self, expression, page=0):
        time.sleep(self.delay)
        return super().evaluate(expression, page)


def test_execute_stops_at_the_deadline_without_answers():
    # 20 pages of ?o values, none of which ?o q ?v matches: no answers.
    rows = [triple(f"s{i}", "p", f"o{i}") for i in range(2000)]
    fed = Federation(
        [
            _SlowService("t", InterfaceSpec.tpf(), Graph(rows)),
            _SlowService("u", InterfaceSpec.tpf(), Graph([triple("x", "q", "y")])),
        ]
    )
    node = JoinPlan(
        _access([tp("?s", "p", "?o")], "t"),
        _access([tp("?o", "q", "?v")], "u"),
        JoinOp.SHJ,
        0,
        0,
        0,
    )
    full = execute(node, fed)
    full_requests = fed.total_requests()
    assert not full.timed_out and full.answers == [] and full_requests == 21

    fed.reset_counters()
    timed = execute(node, fed, timeout_s=0.05)
    assert timed.timed_out and timed.answers == []
    assert timed.runtime_s < full.runtime_s / 2
    assert fed.total_requests() < full_requests
    assert timed.request_totals()["execution"] == fed.total_requests()


def test_trace_jsonl_layout(fed_f1):
    trace = _pipeline(fed_f1, REFERENCE_BGP)
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == 2

    answer = json.loads(lines[0])
    assert set(answer) == {"t", "answer"}
    assert answer["answer"] == {
        "x": "<http://example.org/p1>",
        "party": "<http://example.org/dems>",
        "y": "<http://example.org/y1>",
        "predecessor": "<http://example.org/p0>",
    }

    summary = json.loads(lines[1])
    assert set(summary) == {"requests", "answers", "runtime_s"}
    assert summary["answers"] == 1
    assert summary["requests"] == {
        "source_selection": 8,
        "planning": 4,
        "execution": 4,
        "total": 16,
    }


def test_trace_jsonl_marks_timeouts():
    fed = Federation(
        [ServiceSim("t", InterfaceSpec.tpf(), Graph([triple("s1", "p", "o1")]))]
    )
    trace = execute(_access([tp("?s", "p", "?o")], "t"), fed, timeout_s=0.0)
    summary = json.loads(trace.to_jsonl().splitlines()[-1])
    assert summary["timeout"] is True


def test_forced_bind_join_agrees_with_hash_join():
    rows = [triple(f"s{i}", "p", f"o{i % 7}") for i in range(40)]
    link = [triple(f"o{i}", "q", f"v{i}") for i in range(5)]
    outer_svc = ServiceSim("e", InterfaceSpec.sparql_endpoint(), Graph(rows))
    inner_svc = ServiceSim("b", InterfaceSpec.brtpf(), Graph(link))
    fed = Federation([outer_svc, inner_svc])

    outer = AccessPlan(_entry([tp("?s", "p", "?o")], "e"), (("e", 40),), 40)
    inner = AccessPlan(_entry([tp("?o", "q", "?v")], "b"), (("b", 5),), 5)

    shj = set(build_stream(JoinPlan(outer, inner, JoinOp.SHJ, 5, 3, 3), fed))
    fed.reset_counters()
    pbj = set(build_stream(JoinPlan(outer, inner, JoinOp.PBJ, 5, 3, 3), fed))
    assert shj == pbj
    oracle = eval_bgp(fed.union_graph(), [tp("?s", "p", "?o"), tp("?o", "q", "?v")])
    assert pbj == oracle
    # one request for the outer page, distinct projected o-values fit one block
    values = [r for r in fed.service("b").request_log if r.kind == "values"]
    assert len(values) == 1 and values[0].rows == 7

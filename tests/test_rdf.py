"""Data plane tests: terms, graphs, matching, joins, reference evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedldf.rdf import (
    EMPTY_MAPPING,
    Graph,
    NTriplesError,
    Term,
    TermKind,
    Triple,
    TriplePattern,
    count_matches,
    eval_bgp,
    has_match,
    join_mappings,
    literal,
    match_pattern,
    parse_ntriples,
    uri,
    variable,
)

from helpers import REFERENCE_ANSWER, REFERENCE_BGP, ex, sm, tp, triple


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


def test_term_kinds_distinguish_equal_lexicals():
    assert uri("a") != literal("a")
    assert uri("a") == Term(TermKind.URI, "a")
    assert hash(uri("a")) != hash(literal("a")) or uri("a") != literal("a")


def test_variable_requires_sigil():
    assert variable("x") == variable("?x")
    with pytest.raises(ValueError):
        Term(TermKind.VARIABLE, "x")
    with pytest.raises(ValueError):
        Term(TermKind.URI, "?x")


def test_triple_rejects_variables_and_literal_subjects():
    with pytest.raises(ValueError):
        Triple(variable("s"), ex("p"), ex("o"))
    with pytest.raises(ValueError):
        Triple(literal("s"), ex("p"), ex("o"))
    with pytest.raises(ValueError):
        Triple(ex("s"), ex("p"), variable("o"))


def test_pattern_rejects_literal_subject_and_predicate():
    with pytest.raises(ValueError):
        tp('"lit"', "p", "o")
    with pytest.raises(ValueError):
        TriplePattern(ex("s"), literal("p"), ex("o"))
    assert tp("s", "p", '"lit"').variables == frozenset()


def test_match_single_variable():
    got = match_pattern(G_C1, tp("?x", "position", "president"))
    assert got == frozenset({sm(x="p1")})


def test_match_two_variables():
    got = match_pattern(G_C1, tp("?x", "party", "?party"))
    assert got == frozenset({sm(x="p1", party="dems")})


def test_match_all_constants_yields_unit_or_empty():
    assert match_pattern(G_C1, tp("p1", "party", "dems")) == frozenset({EMPTY_MAPPING})
    assert match_pattern(G_C1, tp("p1", "party", "reps")) == frozenset()


def test_match_repeated_variable_must_agree():
    g = Graph([triple("a", "p", "a"), triple("a", "p", "b")])
    got = match_pattern(g, TriplePattern(variable("v"), ex("p"), variable("v")))
    assert got == frozenset({sm(v="a")})


def test_match_domain_is_pattern_variables():
    for m in match_pattern(G_C1, tp("?x", "party", "?party")):
        assert m.domain == frozenset({"x", "party"})


def test_mapping_compatibility_and_merge():
    a = sm(x="p1", y="y1")
    b = sm(y="y1", z="p0")
    c = sm(y="other")
    assert a.compatible(b) and b.compatible(a)
    assert not a.compatible(c)
    assert a.merged(b) == sm(x="p1", y="y1", z="p0")


def test_empty_mapping_is_join_identity():
    some = frozenset({sm(x="p1"), sm(x="p2")})
    assert join_mappings(some, {EMPTY_MAPPING}) == some
    assert join_mappings({EMPTY_MAPPING}, some) == some


def test_join_on_disjoint_domains_is_product():
    left = {sm(a="1x"), sm(a="2x")}
    right = {sm(b="1y"), sm(b="2y"), sm(b="3y")}
    assert len(join_mappings(left, right)) == 6


def test_join_filters_incompatible():
    left = {sm(x="p1", y="y1")}
    right = {sm(y="y1", z="a"), sm(y="y2", z="b")}
    assert join_mappings(left, right) == frozenset({sm(x="p1", y="y1", z="a")})


def test_eval_bgp_reference_federation_answer():
    union = G_C1.union(G_C2)
    assert eval_bgp(union, REFERENCE_BGP) == frozenset({REFERENCE_ANSWER})


def test_eval_bgp_rejects_empty():
    with pytest.raises(ValueError):
        eval_bgp(G_C1, [])


def test_eval_bgp_no_join_partner():
    union = G_C1.union(G_C2)
    got = eval_bgp(union, [tp("?x", "position", "president"), tp("?y", "successor", "?s")])
    assert got == frozenset()


def test_eval_bgp_permutation_invariant_on_reference():
    union = G_C1.union(G_C2)
    expected = frozenset({REFERENCE_ANSWER})
    rng = random.Random(7)
    patterns = list(REFERENCE_BGP)
    for _ in range(10):
        rng.shuffle(patterns)
        assert eval_bgp(union, patterns) == expected


# -- property tests over small random graphs --------------------------------

_SUBJECTS = [ex(f"s{i}") for i in range(4)]
_PREDICATES = [ex(f"p{i}") for i in range(3)]
_OBJECTS = [ex(f"o{i}") for i in range(4)] + [literal("v0"), literal("v1")]

_triples = st.builds(
    Triple,
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS),
)
_graphs = st.lists(_triples, max_size=30).map(Graph)


def _term_or_var(pool, names):
    return st.one_of(st.sampled_from(pool), st.sampled_from(names).map(variable))


_patterns = st.builds(
    TriplePattern,
    _term_or_var(_SUBJECTS, ["a", "b"]),
    _term_or_var(_PREDICATES, ["a", "c"]),
    _term_or_var(_OBJECTS, ["b", "c", "d"]),
)


@settings(max_examples=60, deadline=None)
@given(_graphs, _patterns)
def test_match_substitution_postcondition(g, pattern):
    for m in match_pattern(g, pattern):
        assert m.domain == pattern.variables
        assert pattern.substitute(m).to_triple() in g


@settings(max_examples=60, deadline=None)
@given(_graphs, st.lists(_patterns, min_size=1, max_size=3), st.randoms())
def test_eval_bgp_permutation_invariant(g, patterns, rng):
    expected = eval_bgp(g, patterns)
    shuffled = list(patterns)
    rng.shuffle(shuffled)
    assert eval_bgp(g, shuffled) == expected


@settings(max_examples=60, deadline=None)
@given(_graphs, _patterns, _patterns)
def test_join_is_commutative(g, p1, p2):
    a = match_pattern(g, p1)
    b = match_pattern(g, p2)
    assert join_mappings(a, b) == join_mappings(b, a)


# Objects drawn from the subjects too, so that a repeated variable in
# subject and object position (``?x <p> ?x``) can match.
_looped_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_SUBJECTS + _OBJECTS),
    ),
    max_size=30,
).map(Graph)

_looped_patterns = st.one_of(
    _patterns,
    st.builds(
        TriplePattern,
        _term_or_var(_SUBJECTS, ["x"]),
        _term_or_var(_PREDICATES, ["p"]),
        _term_or_var(_SUBJECTS + _OBJECTS, ["x"]),
    ),
    st.builds(
        TriplePattern,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_SUBJECTS),
    ),
    st.just(tp("?x", "?y", "?z")),
)


@settings(max_examples=150, deadline=None)
@given(_looped_graphs, _looped_patterns)
def test_has_match_and_count_match_the_reference(g, pattern):
    matches = match_pattern(g, pattern)
    assert has_match(g, pattern) == bool(matches)
    assert count_matches(g, pattern) == len(matches)


def test_has_match_on_repeated_concrete_and_open_patterns():
    g = Graph([triple("s0", "p", "s0"), triple("s0", "p", "s1"), triple("s1", "q", "o")])
    assert has_match(g, tp("?x", "p", "?x"))
    assert not has_match(g, tp("?x", "q", "?x"))
    assert has_match(g, tp("s1", "q", "o"))
    assert not has_match(g, tp("s1", "p", "o"))
    assert has_match(g, tp("?x", "?y", "?z"))
    assert not has_match(Graph(), tp("?x", "?y", "?z"))
    assert count_matches(g, tp("?x", "p", "?x")) == 1
    assert count_matches(g, tp("?x", "?y", "?z")) == 3


# -- N-Triples subset --------------------------------------------------------


def test_parse_ntriples_roundtrip():
    text = """
# a comment line
<http://example.org/s> <http://example.org/p> <http://example.org/o> .
<http://example.org/s> <http://example.org/p> "hello \\"quoted\\"" .

<http://example.org/s2> <http://example.org/p> "tab\\there" .
"""
    g = parse_ntriples(text)
    assert len(g) == 3
    assert triple("s", "p", "o") in g
    assert Triple(ex("s"), ex("p"), literal('hello "quoted"')) in g
    assert Triple(ex("s2"), ex("p"), literal("tab\there")) in g


def test_parse_ntriples_duplicates_collapse():
    line = "<http://example.org/s> <http://example.org/p> <http://example.org/o> ."
    assert len(parse_ntriples(line + "\n" + line)) == 1


def test_parse_ntriples_blank_node_is_error():
    with pytest.raises(NTriplesError, match="blank node"):
        parse_ntriples("_:b <http://example.org/p> <http://example.org/o> .")
    with pytest.raises(NTriplesError, match="blank node"):
        parse_ntriples("<http://example.org/s> <http://example.org/p> _:b .")


def test_parse_ntriples_malformed_line_reports_position():
    with pytest.raises(NTriplesError, match=":2:"):
        parse_ntriples("# fine\n<http://example.org/s> <p> missing-dot")


def test_graph_union_is_set_union():
    union = G_C1.union(G_C2)
    assert len(union) == 4
    assert triple("y1", "sameAs", "p1") in union

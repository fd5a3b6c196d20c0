"""Data plane tests: terms, graphs, matching, joins, reference evaluation."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedldf.rdf import (
    EMPTY_MAPPING,
    CompiledPattern,
    Graph,
    NTriplesError,
    SolutionMapping,
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
    union = Graph.union_all([G_C1, G_C2])
    assert eval_bgp(union, REFERENCE_BGP) == frozenset({REFERENCE_ANSWER})


def test_eval_bgp_rejects_empty():
    with pytest.raises(ValueError):
        eval_bgp(G_C1, [])


def test_eval_bgp_no_join_partner():
    union = Graph.union_all([G_C1, G_C2])
    got = eval_bgp(union, [tp("?x", "position", "president"), tp("?y", "successor", "?s")])
    assert got == frozenset()


def test_eval_bgp_permutation_invariant_on_reference():
    union = Graph.union_all([G_C1, G_C2])
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


# -- the compiled matcher against the reference ------------------------------

# One node pool for every position, so that a repeated variable anywhere
# (``?x ?p ?x``, ``?x ?x ?x``) can match, plus literal objects.
_NODES = [ex(f"n{i}") for i in range(3)]
_LITERALS = [literal("n0"), literal('say "n1"'), literal("back\\slash")]

_node_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_NODES),
        st.sampled_from(_NODES),
        st.sampled_from(_NODES + _LITERALS),
    ),
    max_size=40,
).map(Graph)

_any_patterns = st.builds(
    TriplePattern,
    _term_or_var(_NODES, ["x", "y"]),
    _term_or_var(_NODES, ["x", "p"]),
    _term_or_var(_NODES + _LITERALS, ["x", "y", "o"]),
)


def _assert_compiled_equals_reference(g, pattern):
    expected = match_pattern(g, pattern)
    got = CompiledPattern(g, pattern).mappings()
    assert got == expected
    for m in got:
        public = SolutionMapping(dict(m.items()))
        assert m == public and hash(m) == hash(public)
        assert m.domain == pattern.variables
    assert count_matches(g, pattern) == len(expected)
    assert has_match(g, pattern) == bool(expected)


@settings(max_examples=300, deadline=None)
@given(_node_graphs, _any_patterns)
def test_compiled_pattern_equals_the_reference(g, pattern):
    _assert_compiled_equals_reference(g, pattern)


# A graph where ``n0`` is the subject of many triples and the object of few,
# so a pattern holding both picks the object index and must still check
# the subject, and the other way round for ``n2``.
_SKEWED = Graph(
    [triple("n0", f"p{i}", f"o{i}") for i in range(6)]
    + [triple("n1", "p0", "n0"), triple("n0", "p1", "n0"), triple("n2", "p0", "n2")]
    + [triple(f"s{i}", "p2", "n2") for i in range(6)]
    + [triple("n0", "n0", "n0"), triple("n1", "n1", "n0"), triple("n1", "p0", '"n0"')]
)


@pytest.mark.parametrize(
    "pattern",
    [
        tp("?x", "?p", "?o"),
        tp("n0", "?p", "?o"),
        tp("?s", "p0", "?o"),
        tp("?s", "?p", "n0"),
        tp("?s", "?p", '"n0"'),
        tp("n0", "?p", "n0"),
        tp("n2", "?p", "n2"),
        tp("?s", "p0", "n0"),
        tp("n0", "p1", "?o"),
        tp("n0", "p1", "n0"),
        tp("n1", "p0", '"n0"'),
        tp("n1", "p1", "n0"),
        tp("?x", "?p", "?x"),
        tp("?x", "p0", "?x"),
        tp("?x", "?x", "?o"),
        tp("?x", "?x", "?x"),
        tp("?x", "?x", "n0"),
    ],
    ids=str,
)
def test_compiled_pattern_shapes(pattern):
    _assert_compiled_equals_reference(_SKEWED, pattern)


def test_compiled_pattern_checks_the_constant_its_index_does_not_hold():
    # ``n0`` heads 8 triples and ends 4, so the object index is chosen and
    # the subject is checked: (n1 p0 n0) and (n1 n1 n0) are in the object
    # list but must not match.
    pattern = tp("n0", "?p", "n0")
    assert len(_SKEWED._by_o[ex("n0")]) < len(_SKEWED._by_s[ex("n0")])
    assert CompiledPattern(_SKEWED, pattern).mappings() == frozenset(
        {sm(p="p1"), sm(p="n0")}
    )
    assert count_matches(_SKEWED, pattern) == 2


def test_private_constructor_equals_the_public_one():
    items = (("a", ex("n0")), ("b", literal("v")), ("c", ex("n1")))
    checked = SolutionMapping._checked(items)
    public = SolutionMapping({"c": ex("n1"), "a": ex("n0"), "b": literal("v")})
    assert checked == public and hash(checked) == hash(public)
    assert checked.items() == public.items()
    left, right = sm(x="n0", y="n1"), sm(z="n2", y="n1")
    assert left.merged(right) == SolutionMapping({**dict(left.items()), **dict(right.items())})
    assert left.merged(right).items() == (("x", ex("n0")), ("y", ex("n1")), ("z", ex("n2")))
    assert public.restrict(["c", "a", "zz"]) == SolutionMapping({"a": ex("n0"), "c": ex("n1")})
    assert public.restrict([]) == EMPTY_MAPPING
    assert hash(public.restrict([])) == hash(EMPTY_MAPPING)


# -- terms ------------------------------------------------------------------

EX_A = "http://example.org/a"


def test_parsed_graph_shares_one_term_per_lexical_form():
    text = "\n".join(
        [
            '<http://example.org/a> <http://example.org/p> <http://example.org/b> .',
            '<http://example.org/b> <http://example.org/p> <http://example.org/a> .',
            '<http://example.org/a> <http://example.org/q> "http://example.org/a" .',
            '<http://example.org/b> <http://example.org/q> "http://example.org/a" .',
            '<http://example.org/a> <http://example.org/q> "say \\"hi\\" \\\\" .',
            '<http://example.org/b> <http://example.org/q> "say \\"hi\\" \\\\" .',
        ]
    )
    g = parse_ntriples(text)
    by_value: dict[Term, list[Term]] = {}
    for t in g:
        for term in (t.s, t.p, t.o):
            by_value.setdefault(term, []).append(term)
    assert len(by_value) == 6  # a, b, p, q, and two literals
    for terms in by_value.values():
        assert all(term is terms[0] for term in terms)
    # A URI and a literal with the same lexical form stay two terms.
    assert uri(EX_A) in by_value and literal(EX_A) in by_value
    assert by_value[uri(EX_A)][0] is not by_value[literal(EX_A)][0]
    # A term built directly equals the shared one and hashes like it.
    direct = Term(TermKind.URI, EX_A)
    shared = by_value[direct][0]
    assert direct == shared and hash(direct) == hash(shared) and direct is not shared
    assert literal('say "hi" \\') in by_value


@pytest.mark.parametrize(
    "term, printed",
    [
        (uri(EX_A), "<http://example.org/a>"),
        (variable("x"), "?x"),
        (literal(""), '""'),
        (literal('a"b'), '"a\\"b"'),
        (literal("a\\b"), '"a\\\\b"'),
        (literal('\\"'), '"\\\\\\""'),
    ],
    ids=["uri", "variable", "empty", "quote", "backslash", "backslash-quote"],
)
def test_printed_term_is_the_same_on_every_call(term, printed):
    assert str(term) == printed
    assert str(term) == printed
    assert str(Term(term.kind, term.lexical)) == printed


_PICKLE_SCRIPT = """
import pickle, sys
from fedldf.rdf import SolutionMapping, literal, uri, variable

def values():
    return [uri("a"), literal("a"), variable("x"),
            SolutionMapping({"x": uri("a")}),
            SolutionMapping({"y": literal("b"), "x": uri("a")})]

path = sys.argv[2]
if sys.argv[1] == "dump":
    with open(path, "wb") as f:
        pickle.dump(values(), f)
else:
    with open(path, "rb") as f:
        loaded = pickle.load(f)
    for value, fresh in zip(loaded, values()):
        assert value == fresh and hash(value) == hash(fresh), value
        assert value in {fresh} and fresh in set([value]), value
    print("found", len(loaded))
"""


def test_pickled_terms_and_mappings_hash_under_the_loading_seed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = tmp_path / "values.pickle"

    def run(seed, *args):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, *args],
            env=env, capture_output=True, text=True, check=True,
        )

    run(1, "dump", str(path))
    assert run(2, "load", str(path)).stdout.split() == ["found", "5"]


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
    union = Graph.union_all([G_C1, G_C2])
    assert len(union) == 4
    assert triple("y1", "sameAs", "p1") in union

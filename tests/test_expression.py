"""Expression AST, interface languages, and evaluation over one graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedldf.expression import (
    And,
    DataBlock,
    Filter,
    InterfaceLanguage,
    Optional,
    Select,
    Union,
    UnsupportedExpressionError,
    Values,
    bgp_expression,
    bgp_patterns,
    evaluate_expression,
    expression_vars,
    in_language,
)
from fedldf.rdf import (
    EMPTY_MAPPING,
    Graph,
    SolutionMapping,
    Triple,
    TriplePattern,
    hash_join,
    join_mappings,
    literal,
    match_pattern,
    variable,
)

from helpers import ex, sm, tp, triple

TP1 = tp("?x", "position", "president")
TP2 = tp("?x", "party", "?party")
TP3 = tp("?y", "sameAs", "?x")

BGP12 = And(TP1, TP2)
VALUES_TP = Values(TP3, DataBlock(("y",), ((ex("y1"),),)))

TP_L = InterfaceLanguage.TP
TPV_L = InterfaceLanguage.TP_VALUES
CORE_L = InterfaceLanguage.CORE_SPARQL


def test_expression_vars_union():
    assert expression_vars(TP1) == {"x"}
    assert expression_vars(BGP12) == {"x", "party"}
    assert expression_vars(Union(TP1, TP3)) == {"x", "y"}
    assert expression_vars(Optional(TP1, TP2)) == {"x", "party"}
    assert expression_vars(Filter(TP2, "?party != ?x")) == {"x", "party"}
    assert expression_vars(Select(("x",), BGP12)) == {"x", "party"}


def test_values_vars_include_block_variables():
    block = DataBlock(("z",), ((ex("a"),),))
    assert expression_vars(Values(TP1, block)) == {"x", "z"}


def test_datablock_validation():
    with pytest.raises(ValueError):
        DataBlock(("a", "a"), ())
    with pytest.raises(ValueError):
        DataBlock(("a", "b"), ((ex("x"),),))
    from fedldf.rdf import variable

    with pytest.raises(ValueError):
        DataBlock(("a",), ((variable("v"),),))


def test_bgp_patterns_flattens_left_deep():
    chain = bgp_expression([TP1, TP2, TP3])
    assert chain == And(And(TP1, TP2), TP3)
    assert bgp_patterns(chain) == (TP1, TP2, TP3)
    assert bgp_patterns(Union(TP1, TP2)) is None
    assert bgp_patterns(And(TP1, Filter(TP2, "x"))) is None


# -- language membership -----------------------------------------------------


@pytest.mark.parametrize(
    "expr,langs",
    [
        (TP1, {TP_L: True, TPV_L: True, CORE_L: True}),
        (BGP12, {TP_L: False, TPV_L: False, CORE_L: True}),
        (VALUES_TP, {TP_L: False, TPV_L: True, CORE_L: True}),
        (Values(BGP12, DataBlock((), ())), {TP_L: False, TPV_L: False, CORE_L: True}),
        (Union(TP1, TP2), {TP_L: False, TPV_L: False, CORE_L: True}),
        (Optional(TP1, TP2), {TP_L: False, TPV_L: False, CORE_L: True}),
        (Filter(TP1, "?x != ?y"), {TP_L: False, TPV_L: False, CORE_L: True}),
        (Select(None, BGP12), {TP_L: False, TPV_L: False, CORE_L: True}),
    ],
)
def test_language_membership_matrix(expr, langs):
    for lang, expected in langs.items():
        assert in_language(expr, lang) is expected


def _small_expressions(depth: int):
    """Every AST shape up to the given depth over two fixed patterns."""
    if depth == 0:
        yield TP1
        yield TP3
        return
    block = DataBlock(("y",), ((ex("y1"),),))
    for left in _small_expressions(depth - 1):
        yield left
        yield Values(left, block)
        yield Filter(left, "?x != ?y")
        yield Select(None, left)
        for right in _small_expressions(depth - 1):
            yield And(left, right)
            yield Union(left, right)
            yield Optional(left, right)


def test_containment_implies_membership_exhaustively():
    """The languages nest: TP within TP_VALUES within CORE_SPARQL."""
    expressions = list(_small_expressions(2))
    assert len(expressions) > 100
    for smaller, larger in ((TP_L, TPV_L), (TPV_L, CORE_L)):
        for e in expressions:
            if in_language(e, smaller):
                assert in_language(e, larger), f"{smaller} member escaped {larger}: {e}"


# -- evaluation ---------------------------------------------------------------

G = Graph(
    [
        triple("p1", "position", "president"),
        triple("p1", "party", "dems"),
        triple("y1", "sameAs", "p1"),
        triple("y2", "sameAs", "p2"),
    ]
)


def test_evaluate_bgp_joins():
    assert evaluate_expression(G, BGP12) == frozenset({sm(x="p1", party="dems")})


def test_evaluate_union_is_set_union():
    got = evaluate_expression(G, Union(TP1, tp("?x", "party", "dems")))
    assert got == frozenset({sm(x="p1")})
    got2 = evaluate_expression(G, Union(TP3, TP1))
    assert got2 == frozenset({sm(y="y1", x="p1"), sm(y="y2", x="p2"), sm(x="p1")})


def test_evaluate_values_restricts_pattern():
    assert evaluate_expression(G, VALUES_TP) == frozenset({sm(y="y1", x="p1")})
    empty_block = Values(TP3, DataBlock(("y",), ()))
    assert evaluate_expression(G, empty_block) == frozenset()


def test_evaluate_values_with_no_variables_is_identity():
    identity = Values(TP3, DataBlock((), ((),)))
    assert evaluate_expression(G, identity) == evaluate_expression(G, TP3)


def test_evaluate_select_projects():
    got = evaluate_expression(G, Select(("x",), BGP12))
    assert got == frozenset({sm(x="p1")})
    assert evaluate_expression(G, Select(None, BGP12)) == evaluate_expression(G, BGP12)


def test_evaluate_optional_and_filter_unsupported():
    with pytest.raises(UnsupportedExpressionError):
        evaluate_expression(G, Optional(TP1, TP2))
    with pytest.raises(UnsupportedExpressionError):
        evaluate_expression(G, Filter(TP1, "true"))


# -- the simulator's fast paths against the naive reference --------------------


def _reference(graph, e):
    """Evaluation built from ``match_pattern`` and ``join_mappings`` only."""
    if isinstance(e, TriplePattern):
        return match_pattern(graph, e)
    if isinstance(e, And):
        return join_mappings(_reference(graph, e.left), _reference(graph, e.right))
    if isinstance(e, Union):
        return _reference(graph, e.left) | _reference(graph, e.right)
    if isinstance(e, Values):
        return join_mappings(_reference(graph, e.inner), e.block.mappings())
    if isinstance(e, Select):
        return frozenset(m.restrict(e.variables) for m in _reference(graph, e.inner))
    raise TypeError(e)


_NODES = [ex(f"n{i}") for i in range(4)]
_PREDICATES = [ex("p"), ex("q")]
_LITERALS = [literal("l"), literal('say "hi"'), literal("back\\slash")]
# ``d`` occurs only in VALUES blocks, never in a pattern.
_NAMES = ["a", "b", "c"]

_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES + _LITERALS),
    ),
    max_size=25,
).map(Graph)


def _slot(pool):
    return st.one_of(st.sampled_from(pool), st.sampled_from(_NAMES).map(variable))


_patterns = st.builds(
    TriplePattern, _slot(_NODES), _slot(_PREDICATES), _slot(_NODES + _LITERALS)
)


@st.composite
def _blocks(draw):
    names = draw(st.lists(st.sampled_from(_NAMES + ["d"]), max_size=3, unique=True))
    row = st.tuples(*(st.sampled_from(_NODES + _PREDICATES + _LITERALS) for _ in names))
    return DataBlock(tuple(names), tuple(draw(st.lists(row, max_size=5))))


def _compound(children):
    return st.one_of(
        st.builds(And, children, children),
        st.builds(Union, children, children),
        st.builds(Values, children, _blocks()),
        st.builds(Select, st.lists(st.sampled_from(_NAMES), unique=True).map(tuple), children),
    )


_expressions = st.recursive(
    st.one_of(_patterns, st.builds(Values, _patterns, _blocks())), _compound, max_leaves=5
)

# Conjunctions whose sides are UNIONs of branches binding different variables,
# so some shared variables are bound by only some mappings of a side.
_union_joins = st.builds(
    And,
    st.builds(Union, _patterns, _patterns),
    st.one_of(_patterns, st.builds(Union, _patterns, _patterns)),
)


@settings(max_examples=300, deadline=None)
@given(_graphs, st.one_of(_expressions, _union_joins))
def test_evaluate_expression_equals_the_reference(graph, e):
    assert evaluate_expression(graph, e) == _reference(graph, e)


@settings(max_examples=150, deadline=None)
@given(_graphs, _patterns, _blocks())
def test_values_over_a_pattern_equals_the_reference(graph, pattern, block):
    e = Values(pattern, block)
    assert evaluate_expression(graph, e) == _reference(graph, e)


def test_values_rows_binding_literals_into_subject_or_predicate_match_nothing():
    graph = Graph([triple("s", "p", "o"), triple("s", "p", '"lit"')])
    block = DataBlock(
        ("a", "b"),
        ((literal("s"), ex("p")), (ex("s"), literal("p")), (ex("s"), ex("p"))),
    )
    e = Values(tp("?a", "?b", "?c"), block)
    assert evaluate_expression(graph, e) == _reference(graph, e) == frozenset(
        {sm(a="s", b="p", c="o"), sm(a="s", b="p", c='"lit"')}
    )


def test_values_over_a_repeated_variable_and_an_absent_block_variable():
    graph = Graph([triple("n", "p", "n"), triple("n", "p", "m"), triple("m", "p", "m")])
    block = DataBlock(("x", "d"), ((ex("n"), ex("z")), (ex("k"), ex("z"))))
    e = Values(tp("?x", "p", "?x"), block)
    assert evaluate_expression(graph, e) == frozenset({sm(x="n", d="z")})
    assert evaluate_expression(graph, Values(TP1, DataBlock(("x",), ()))) == frozenset()


def test_conjunction_of_unions_with_different_domains():
    graph = Graph([triple("n0", "p", "n1"), triple("n0", "q", "n2"), triple("n2", "p", "n3")])
    # Only some left mappings bind ``b`` or ``c``, so neither is a key variable.
    e = And(Union(tp("?a", "p", "?b"), tp("?a", "q", "?c")), tp("?c", "p", "?b"))
    assert evaluate_expression(graph, e) == _reference(graph, e) == frozenset(
        {
            sm(a="n0", b="n1", c="n0"),
            sm(a="n2", b="n3", c="n2"),
            sm(a="n0", b="n3", c="n2"),
        }
    )


_mappings = st.dictionaries(
    st.sampled_from(_NAMES), st.sampled_from(_NODES[:2]), max_size=3
).map(SolutionMapping)


@settings(max_examples=300, deadline=None)
@given(st.lists(_mappings, max_size=6), st.lists(_mappings, max_size=6))
def test_hash_join_equals_join_mappings(left, right):
    assert hash_join(left, right) == join_mappings(left, right)


def test_hash_join_edge_cases():
    a = [sm(x="n0"), sm(x="n1")]
    b = [sm(y="n2"), sm(y="n3")]
    assert hash_join(a, b) == join_mappings(a, b)
    assert len(hash_join(a, b)) == 4
    assert hash_join([EMPTY_MAPPING], a) == frozenset(a)
    assert hash_join(a, [EMPTY_MAPPING]) == frozenset(a)
    assert hash_join([], a) == hash_join(a, []) == frozenset()
    # ``x`` is shared but bound by only one mapping on the left.
    mixed = [sm(x="n0", y="n2"), sm(y="n3")]
    assert hash_join(mixed, [sm(x="n1", y="n3"), sm(x="n0", y="n2")]) == join_mappings(
        mixed, [sm(x="n1", y="n3"), sm(x="n0", y="n2")]
    ) == frozenset({sm(x="n1", y="n3"), sm(x="n0", y="n2")})

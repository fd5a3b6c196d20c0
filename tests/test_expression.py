"""Expression AST, interface languages, and evaluation over one graph."""

from __future__ import annotations

import pytest

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
from fedldf.rdf import Graph

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

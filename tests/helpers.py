"""Shared constructors for tests: fixture vocabulary and tiny factories."""

from __future__ import annotations

from fedldf.expression import Expression
from fedldf.rdf import SolutionMapping, Triple, TriplePattern, literal, uri, variable
from fedldf.services import ServiceSim

EX = "http://example.org/"


def ex(name: str):
    return uri(EX + name)


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(_term(s), _term(p), _term(o))


def triple(s, p, o) -> Triple:
    return Triple(_term(s), _term(p), _term(o))


def _term(v):
    if not isinstance(v, str):
        return v
    if v.startswith("?"):
        return variable(v)
    if v.startswith('"'):
        return literal(v.strip('"'))
    if v.startswith("http://") or v.startswith("urn:"):
        return uri(v)
    return ex(v)


def drain(service: ServiceSim, expression: Expression) -> list[SolutionMapping]:
    """Fetch every page of an evaluation, in order."""
    out: list[SolutionMapping] = []
    page = service.evaluate(expression)
    out.extend(page.mappings)
    while page.next_page is not None:
        page = service.evaluate(expression, page.next_page)
        out.extend(page.mappings)
    return out


def sm(**bindings) -> SolutionMapping:
    """Solution mapping from keyword args, values go through _term."""
    return SolutionMapping({k: _term(v) for k, v in bindings.items()})


# The four patterns of the reference query, in source order.
TP_POSITION = tp("?x", "position", "president")
TP_PARTY = tp("?x", "party", "?party")
TP_SAMEAS = tp("?y", "sameAs", "?x")
TP_PREDECESSOR = tp("?y", "predecessor", "?predecessor")

REFERENCE_BGP = (TP_POSITION, TP_PARTY, TP_SAMEAS, TP_PREDECESSOR)

REFERENCE_ANSWER = sm(x="p1", party="dems", y="y1", predecessor="p0")

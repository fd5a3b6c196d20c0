"""Federation tests: manifest loading, ordering, and source selection."""

from __future__ import annotations

import json

import pytest

from fedldf.expression import InterfaceLanguage
from fedldf.federation import Federation, ManifestError, load_federation, select_sources
from fedldf.rdf import match_pattern
from fedldf.services import InterfaceSpec, ServiceSim, metering_phase

from helpers import (
    REFERENCE_BGP,
    TP_PARTY,
    TP_POSITION,
    TP_PREDECESSOR,
    TP_SAMEAS,
    tp,
)


def test_load_reference_manifest(fed_base):
    assert fed_base.order == ("c1", "c2")
    c1, c2 = fed_base.services
    assert c1.spec.language is InterfaceLanguage.CORE_SPARQL
    assert c1.spec.page_size == 10000
    assert c2.spec.language is InterfaceLanguage.TP
    assert c2.spec.page_size == 100 and c2.spec.block_size == 1
    assert len(c1.graph) == 3 and len(c2.graph) == 2


def test_interface_variants_differ_only_in_specs(fed_f1, fed_f2):
    assert [s.spec.name for s in fed_f1.services] == ["sparql", "sparql"]
    assert [s.spec.name for s in fed_f2.services] == ["tpf", "sparql"]
    assert fed_f1.service("c1").graph.triples == fed_f2.service("c1").graph.triples


def _write_manifest(tmp_path, doc) -> str:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _valid_entry(tmp_path, **overrides) -> dict:
    data = tmp_path / "d.nt"
    data.write_text("<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n")
    entry = {"uri": "c1", "interface": "tpf", "data": "d.nt"}
    entry.update(overrides)
    return entry


def test_manifest_rejects_unknown_keys(tmp_path):
    doc = {"services": [_valid_entry(tmp_path, extra=1)]}
    with pytest.raises(ManifestError, match="unknown keys"):
        load_federation(_write_manifest(tmp_path, doc))
    with pytest.raises(ManifestError, match="'services'"):
        load_federation(_write_manifest(tmp_path, {"services": [], "other": 1}))


def test_manifest_rejects_duplicate_uri(tmp_path):
    entry = _valid_entry(tmp_path)
    with pytest.raises(ManifestError, match="duplicate"):
        load_federation(_write_manifest(tmp_path, {"services": [entry, dict(entry)]}))


def test_manifest_rejects_unknown_interface(tmp_path):
    doc = {"services": [_valid_entry(tmp_path, interface="graphql")]}
    with pytest.raises(ManifestError, match="unknown interface"):
        load_federation(_write_manifest(tmp_path, doc))


def test_manifest_rejects_missing_data_file(tmp_path):
    doc = {"services": [{"uri": "c1", "interface": "tpf", "data": "absent.nt"}]}
    with pytest.raises(ManifestError, match="cannot read data"):
        load_federation(_write_manifest(tmp_path, doc))


def test_manifest_rejects_blank_nodes(tmp_path):
    data = tmp_path / "bad.nt"
    data.write_text("_:b <http://example.org/p> <http://example.org/o> .\n")
    doc = {"services": [{"uri": "c1", "interface": "tpf", "data": "bad.nt"}]}
    with pytest.raises(ManifestError, match="blank node"):
        load_federation(_write_manifest(tmp_path, doc))


def test_manifest_rejects_tpf_block_size(tmp_path):
    doc = {"services": [_valid_entry(tmp_path, block_size=5)]}
    with pytest.raises(ManifestError, match="fixed at 1"):
        load_federation(_write_manifest(tmp_path, doc))


def test_manifest_accepts_size_overrides(tmp_path):
    entry = _valid_entry(tmp_path, interface="brtpf", page_size=10, block_size=5)
    fed = load_federation(_write_manifest(tmp_path, {"services": [entry]}))
    assert fed.service("c1").spec.page_size == 10
    assert fed.service("c1").spec.block_size == 5


def test_manifest_rejects_bad_sizes(tmp_path):
    doc = {"services": [_valid_entry(tmp_path, page_size=0)]}
    with pytest.raises(ManifestError, match="positive integer"):
        load_federation(_write_manifest(tmp_path, doc))
    doc = {"services": [_valid_entry(tmp_path, page_size=True)]}
    with pytest.raises(ManifestError, match="positive integer"):
        load_federation(_write_manifest(tmp_path, doc))


def test_manifest_rejects_non_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("not json")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_federation(str(path))


def test_select_sources_reference_values(fed_base):
    sources = select_sources(fed_base, REFERENCE_BGP)
    assert sources[TP_POSITION] == frozenset({"c1"})
    assert sources[TP_PARTY] == frozenset({"c1"})
    assert sources[TP_SAMEAS] == frozenset({"c1", "c2"})
    assert sources[TP_PREDECESSOR] == frozenset({"c2"})


def test_select_sources_issues_one_ask_per_service_and_pattern(fed_base):
    select_sources(fed_base, REFERENCE_BGP)
    for svc in fed_base.services:
        assert svc.requests_by_phase == {"source_selection": len(REFERENCE_BGP)}
        assert all(r.kind == "ask" for r in svc.request_log)
    assert fed_base.total_requests() == len(fed_base.services) * len(REFERENCE_BGP)


def test_select_sources_empty_for_unmatched_pattern(fed_base):
    sources = select_sources(fed_base, [tp("?a", "nothing", "?b")])
    assert sources[tp("?a", "nothing", "?b")] == frozenset()


def test_relevance_agrees_with_matching(fed_base):
    sources = select_sources(fed_base, REFERENCE_BGP)
    for pattern in REFERENCE_BGP:
        for svc in fed_base.services:
            relevant = svc.uri in sources[pattern]
            assert relevant == bool(match_pattern(svc.graph, pattern))


def test_federation_rejects_duplicate_service_uris():
    from fedldf.rdf import Graph

    spec = InterfaceSpec.tpf()
    with pytest.raises(ManifestError, match="duplicate"):
        Federation([ServiceSim("c", spec, Graph()), ServiceSim("c", spec, Graph())])


def test_phase_context_restores(fed_base):
    c1, c2 = fed_base.services
    c1.ask(TP_POSITION)
    with metering_phase("planning"):
        c1.ask(TP_POSITION)
        with metering_phase("source_selection"):
            c1.ask(TP_POSITION)
            c2.ask(TP_POSITION)
        c2.ask(TP_POSITION)
    with pytest.raises(ValueError):
        with metering_phase("warmup"):
            pass
    c1.ask(TP_POSITION)
    assert [r.phase for r in c1.request_log] == [
        "execution",
        "planning",
        "source_selection",
        "execution",
    ]
    assert [r.phase for r in c2.request_log] == ["source_selection", "planning"]


def test_union_graph(fed_base):
    assert len(fed_base.union_graph()) == 4

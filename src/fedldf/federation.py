"""Federations: an ordered set of services queried as one virtual graph.

The manifest format is a strict JSON document:

    {"services": [
        {"uri": "c1", "interface": "sparql", "data": "c1.nt"},
        {"uri": "c2", "interface": "tpf", "data": "c2.nt", "page_size": 50}
    ]}

Relative data paths resolve against the manifest's directory.  Unknown
keys, duplicate uris, unknown interface tags and unreadable or unsupported
data files are all load errors; nothing is skipped silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .rdf import Graph, NTriplesError, TriplePattern, load_ntriples
from .services import PHASES, InterfaceSpec, ServiceSim, metering_phase


class ManifestError(Exception):
    pass


class Federation:
    """Ordered collection of services with distinct uris."""

    def __init__(self, services: Iterable[ServiceSim]):
        self.services: tuple[ServiceSim, ...] = tuple(services)
        self._by_uri: dict[str, ServiceSim] = {}
        for svc in self.services:
            if svc.uri in self._by_uri:
                raise ManifestError(f"duplicate service uri: {svc.uri}")
            self._by_uri[svc.uri] = svc

    def __len__(self) -> int:
        return len(self.services)

    def __iter__(self) -> Iterator[ServiceSim]:
        return iter(self.services)

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(svc.uri for svc in self.services)

    def service(self, uri: str) -> ServiceSim:
        svc = self._by_uri.get(uri)
        if svc is None:
            raise KeyError(f"no service {uri!r} in federation")
        return svc

    def ordered(self, uris: Iterable[str]) -> tuple[str, ...]:
        """The given uris in manifest order; downstream tie-breaks use this."""
        wanted = set(uris)
        return tuple(u for u in self.order if u in wanted)

    def union_graph(self) -> Graph:
        return Graph.union_all(svc.graph for svc in self.services)

    def reset_counters(self) -> None:
        for svc in self.services:
            svc.reset_counters()

    def requests_by_phase(self) -> dict[str, dict[str, int]]:
        """Per-phase, per-service request counts, zero-filled."""
        table: dict[str, dict[str, int]] = {p: {} for p in PHASES}
        for svc in self.services:
            for p in PHASES:
                table[p][svc.uri] = svc.requests_by_phase.get(p, 0)
        return table

    def total_requests(self) -> int:
        return sum(svc.total_requests() for svc in self.services)

    def polite_empty_total(self) -> int:
        return sum(svc.polite_empty_count for svc in self.services)


# Relevant sources per triple pattern, as found by source selection.
SourceMap = dict[TriplePattern, frozenset[str]]


def select_sources(federation: Federation, patterns: Sequence[TriplePattern]) -> SourceMap:
    """Ask every service about every pattern: exactly |services| * |patterns|
    requests, attributed to the source-selection phase."""
    with metering_phase("source_selection"):
        return {
            pattern: frozenset(svc.uri for svc in federation.services if svc.ask(pattern))
            for pattern in patterns
        }


_INTERFACE_BUILDERS = {
    "tpf": InterfaceSpec.tpf,
    "brtpf": InterfaceSpec.brtpf,
    "sparql": InterfaceSpec.sparql_endpoint,
}

_REQUIRED_KEYS = {"uri", "interface", "data"}
_OPTIONAL_KEYS = {"page_size", "block_size"}


def load_federation(path: str | Path) -> Federation:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or set(doc) != {"services"}:
        raise ManifestError("manifest must be an object with exactly a 'services' key")
    if not isinstance(doc["services"], list) or not doc["services"]:
        raise ManifestError("manifest 'services' must be a non-empty list")

    services = []
    for i, entry in enumerate(doc["services"]):
        if not isinstance(entry, dict):
            raise ManifestError(f"service #{i} must be an object")
        keys = set(entry)
        unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
        if unknown:
            raise ManifestError(f"service #{i} has unknown keys: {sorted(unknown)}")
        missing = _REQUIRED_KEYS - keys
        if missing:
            raise ManifestError(f"service #{i} is missing keys: {sorted(missing)}")
        tag = entry["interface"]
        builder = _INTERFACE_BUILDERS.get(tag)
        if builder is None:
            raise ManifestError(
                f"service #{i}: unknown interface {tag!r}, expected one of "
                f"{sorted(_INTERFACE_BUILDERS)}"
            )
        overrides = {}
        if "page_size" in entry:
            overrides["page_size"] = _positive_int(entry["page_size"], i, "page_size")
        if "block_size" in entry:
            if tag == "tpf":
                raise ManifestError(f"service #{i}: tpf block size is fixed at 1")
            overrides["block_size"] = _positive_int(entry["block_size"], i, "block_size")
        try:
            spec = builder(**overrides)
        except ValueError as exc:
            raise ManifestError(f"service #{i}: {exc}") from exc

        data_path = Path(entry["data"])
        if not data_path.is_absolute():
            data_path = path.parent / data_path
        try:
            graph = load_ntriples(data_path)
        except OSError as exc:
            raise ManifestError(f"service #{i}: cannot read data {data_path}: {exc}") from exc
        except NTriplesError as exc:
            raise ManifestError(f"service #{i}: {exc}") from exc
        services.append(ServiceSim(str(entry["uri"]), spec, graph))

    return Federation(services)


def _positive_int(value, index: int, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ManifestError(f"service #{index}: {key} must be a positive integer")
    return value

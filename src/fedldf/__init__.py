"""Federated query engine over heterogeneous Linked Data Fragment interfaces.

The package simulates federations of TPF, brTPF, and SPARQL endpoint
services in process, decomposes basic graph pattern queries per source,
plans cardinality-ordered joins, and executes them with streaming
operators under exact request accounting.
"""

from .rdf import (
    Graph,
    SolutionMapping,
    Term,
    Triple,
    TriplePattern,
    eval_bgp,
    join_mappings,
    literal,
    load_ntriples,
    match_pattern,
    uri,
    variable,
)
from .expression import (
    And,
    DataBlock,
    Filter,
    InterfaceLanguage,
    Optional,
    Select,
    Union,
    Values,
    bgp_expression,
    bgp_patterns,
    expression_vars,
    in_language,
)
from .parser import QuerySyntaxError, format_query, parse_query
from .services import InterfaceSpec, Page, ServiceSim
from .federation import Federation, ManifestError, SourceMap, load_federation, select_sources
from .decomposer import (
    Decomposition,
    DecompositionEntry,
    atomic_decomposition,
    decompose,
    decomposition_cost,
    decomposition_graph,
    density,
    exclusive_groups,
    prune_sources,
)
from .planner import AccessPlan, JoinOp, JoinPlan, plan
from .executor import ExecutionTrace, execute
from .harness import RunConfig, VARIANTS, dief_at_t, oracle_check, run

__version__ = "0.1.0"

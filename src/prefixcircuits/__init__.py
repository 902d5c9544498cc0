"""Parallel prefix circuits: generators, validation, metrics, and a
reversible carry-lookahead adder derived from the blocked zero-deficiency
family."""

from .classic import brent_kung, kogge_stone, ladner_fischer, serial, sklansky
from .core import (
    CircuitMetrics,
    CircuitStructureError,
    PrefixCircuit,
    evaluate,
    fib_depth_lower_bound,
    metrics,
    validate_prefix,
)
from .kronalg import (
    build,
    decomposition_check,
    kron,
    prefix_via_kron,
)
from .kronecker import (
    DepthTable,
    circuit_depth,
    edge_predicate,
    kronecker_circuit,
    kronecker_depth,
    kronecker_depth_bound,
    level_edges,
    min_depth_table,
    reblocked_circuit,
)
from .qadder import (
    AdderCheckReport,
    AdderResources,
    QuantumCircuit,
    build_adder,
    estimate_resources,
    netlist,
    resources,
    simulate,
    verify_adder,
)
from .serialization import SchemaError, export_dot, export_json, import_json

__version__ = "0.1.0"

__all__ = [
    "AdderCheckReport",
    "AdderResources",
    "CircuitMetrics",
    "CircuitStructureError",
    "DepthTable",
    "PrefixCircuit",
    "QuantumCircuit",
    "SchemaError",
    "brent_kung",
    "build",
    "build_adder",
    "circuit_depth",
    "decomposition_check",
    "edge_predicate",
    "estimate_resources",
    "evaluate",
    "export_dot",
    "export_json",
    "fib_depth_lower_bound",
    "import_json",
    "kogge_stone",
    "kron",
    "kronecker_circuit",
    "kronecker_depth",
    "kronecker_depth_bound",
    "ladner_fischer",
    "level_edges",
    "metrics",
    "min_depth_table",
    "netlist",
    "prefix_via_kron",
    "reblocked_circuit",
    "resources",
    "serial",
    "simulate",
    "sklansky",
    "validate_prefix",
    "verify_adder",
]

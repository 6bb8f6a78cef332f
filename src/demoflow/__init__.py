"""demoflow: DEMO transaction networks -> BPMN 2.0 collaborations, verified.

The package has three jobs:

- compile a declarative business-transaction network into a BPMN 2.0
  collaboration at one of three detail levels (happy flow, with dissent,
  complete with revocations),
- verify generated models by bounded token-play simulation against an
  executable transaction state machine, and
- audit existing BPMN models for how much of the complete transaction
  pattern they implement (explicit / implicit / not implemented).
"""

__version__ = "0.1.0"

from .compiler import CompileError, DetailLevel, LEVEL_ALPHABETS, compile_network
from .coverage import (
    ActStatus,
    CoverageMatrix,
    UnknownAnnotationKey,
    classify_acts,
    render_matrix,
)
from .engine import (
    Act,
    Bounds,
    Phase,
    Role,
    TransactionState,
    apply_act,
    enumerate_language,
    rollback_chain,
    run_trace,
)
from .model import BpmnModel, LintFinding, NodeKind, lint_model, parse_node_id
from .network import TransactionNetwork, load_network, parse_network, validate_network
from .simulator import (
    ConformanceReport,
    SimTrace,
    SimulationError,
    StateSpaceLimitExceeded,
    Verdict,
    check_composition,
    check_conformance,
    check_network_conformance,
    simulate_exhaustive,
    simulate_random,
)
from .xmlio import ModelFormatError, parse_model, serialize_model

__all__ = [
    "Act",
    "ActStatus",
    "Bounds",
    "BpmnModel",
    "CompileError",
    "ConformanceReport",
    "CoverageMatrix",
    "DetailLevel",
    "LEVEL_ALPHABETS",
    "LintFinding",
    "ModelFormatError",
    "NodeKind",
    "Phase",
    "Role",
    "SimTrace",
    "SimulationError",
    "StateSpaceLimitExceeded",
    "TransactionNetwork",
    "TransactionState",
    "UnknownAnnotationKey",
    "Verdict",
    "apply_act",
    "check_composition",
    "check_conformance",
    "check_network_conformance",
    "classify_acts",
    "compile_network",
    "enumerate_language",
    "lint_model",
    "load_network",
    "parse_model",
    "parse_network",
    "render_matrix",
    "rollback_chain",
    "run_trace",
    "serialize_model",
    "simulate_exhaustive",
    "simulate_random",
    "validate_network",
]

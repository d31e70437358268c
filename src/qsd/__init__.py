"""Optimal minimum-error quantum state discrimination with verifiable certificates.

Solve for the guessing probability of an ensemble, extract the dual
certificate that proves optimality, build the identical-ensemble steering
structure it induces, evaluate closed-form bounds, and simulate the two-party
steering protocol whose statistics saturate the no-signaling ceiling.
"""

from .bounds import BadPermutation, BoundReport, TooLarge, best_cyclic_bound, lower_bound
from .core import (
    CompletenessViolated,
    DensityMatrix,
    DimensionMismatch,
    InvalidPriors,
    InvalidProbability,
    NonFinite,
    NotHermitian,
    NotPsd,
    Povm,
    QsdError,
    StateEnsemble,
    TraceNotOne,
    born_probabilities,
    make_ensemble,
    trace_norm,
    validate_density,
    validate_povm,
)
from .helstrom import HelstromResult, WrongArity, helstrom
from .nosignaling import (
    InfeasibleCertificate,
    MalformedStatistics,
    SteeringStructure,
    decompositions_from_structure,
    detector_nosignaling_check,
    norm_identity_check,
    proposition_bound_check,
    slackness_check,
    steering_structure,
)
from .oracle import UnsupportedDimension, oracle_grid
from .solver import (
    DiscriminationResult,
    DualCertificate,
    KktReport,
    SolverOptions,
    certificate_from_povm,
    kkt_check,
    solve,
)
from .steering import (
    BipartitePureState,
    DetectorStatistics,
    MarginalMismatch,
    SteeringDecomposition,
    TargetMismatch,
    UnsteerableWeight,
    ghjw_povm,
    make_decomposition,
    marginal_indistinguishability_check,
    purify,
    simulate_protocol,
    steered_states,
)

__version__ = "0.1.0"

__all__ = [
    "BadPermutation",
    "BipartitePureState",
    "BoundReport",
    "CompletenessViolated",
    "DensityMatrix",
    "DetectorStatistics",
    "DimensionMismatch",
    "DiscriminationResult",
    "DualCertificate",
    "HelstromResult",
    "InfeasibleCertificate",
    "InvalidPriors",
    "InvalidProbability",
    "KktReport",
    "MalformedStatistics",
    "MarginalMismatch",
    "NonFinite",
    "NotHermitian",
    "NotPsd",
    "Povm",
    "QsdError",
    "SolverOptions",
    "StateEnsemble",
    "SteeringDecomposition",
    "SteeringStructure",
    "TargetMismatch",
    "TooLarge",
    "TraceNotOne",
    "UnsteerableWeight",
    "UnsupportedDimension",
    "WrongArity",
    "best_cyclic_bound",
    "born_probabilities",
    "certificate_from_povm",
    "decompositions_from_structure",
    "detector_nosignaling_check",
    "ghjw_povm",
    "helstrom",
    "kkt_check",
    "lower_bound",
    "make_decomposition",
    "make_ensemble",
    "marginal_indistinguishability_check",
    "norm_identity_check",
    "oracle_grid",
    "proposition_bound_check",
    "purify",
    "simulate_protocol",
    "slackness_check",
    "solve",
    "steered_states",
    "steering_structure",
    "trace_norm",
    "validate_density",
    "validate_povm",
]

"""No-signaling structures derived from a solved discrimination instance.

A converged dual certificate induces a family of identical ensembles: the
normalized dual operator decomposes N different ways as

    p_x rho_x + (1 - p_x) sigma_hat_x,    p_x = q_x / tr K,

with sigma_hat_x the normalized complementary state of rho_x.  Because all N
mixtures are literally the same operator, no measurement statistics on them
can reveal which decomposition was prepared, and the guessing probability is
pinned to 1 / sum_x p_x = tr K.  This module builds that structure and the
residual checks that certify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatch,
    Povm,
    QsdError,
    StateEnsemble,
    _frozen,
    psd_project,
    trace_norms,
    validate_density,
)
from .solver import DualCertificate
from .steering import make_decomposition

INFEASIBLE_TOL = 1e-6
ABSENT_TRACE = 1e-12


class InfeasibleCertificate(QsdError):
    """A complementary operator is negative beyond certificate tolerance."""


class MalformedStatistics(QsdError):
    """Detector statistics columns are not probability distributions."""


@dataclass(frozen=True)
class SteeringStructure:
    """Steering probabilities and identical-ensemble data of a certificate.

    p[x] is the weight with which decomposition x prepares rho_x; bound is
    the no-signaling ceiling 1 / sum_x p_x on the guessing probability.
    complementary[x] is the normalized partner state (None when rho_x
    saturates the ensemble and the partner has vanishing weight), and
    complementary_weights[x] the recorded weight 1 - p_x.  ensemble_residual
    is the worst trace-norm gap between any reconstructed decomposition and
    the shared state normalized_k.  sigma is the certificate's read-only
    (N, d, d) stack of unnormalized complementary operators K - q_x rho_x.
    """

    p: np.ndarray
    normalized_k: DensityMatrix
    complementary: tuple[DensityMatrix | None, ...]
    complementary_weights: np.ndarray
    bound: float
    ensemble_residual: float
    trace_k: float
    sigma: np.ndarray


def steering_structure(ensemble: StateEnsemble, certificate: DualCertificate) -> SteeringStructure:
    """Build the identical-ensemble structure from a converged certificate."""
    worst = min(certificate.dual_feasibility)
    if worst < -INFEASIBLE_TOL:
        raise InfeasibleCertificate(f"complementary operator eigenvalue {worst:.3e}")

    tr_k = certificate.trace_k
    p = ensemble.priors / tr_k
    normalized_k = _normalize_psd(certificate.k_operator / tr_k)

    traces = np.trace(certificate.sigma, axis1=1, axis2=2).real
    weights = traces / tr_k
    complementary = tuple(
        None if t < ABSENT_TRACE else _normalize_psd(sigma / t) for sigma, t in zip(certificate.sigma, traces)
    )
    # An absent partner contributes nothing to its decomposition.
    partners = np.array([np.zeros_like(normalized_k.matrix) if c is None else c.matrix for c in complementary])
    reconstructed = p[:, None, None] * ensemble.matrices + weights[:, None, None] * partners
    residual = trace_norms(reconstructed - normalized_k.matrix).max()

    return SteeringStructure(
        p=_frozen(p),
        normalized_k=normalized_k,
        complementary=complementary,
        complementary_weights=_frozen(weights),
        bound=float(1.0 / p.sum()),
        ensemble_residual=float(residual),
        trace_k=float(tr_k),
        sigma=certificate.sigma,
    )


def _normalize_psd(matrix: np.ndarray) -> DensityMatrix:
    # Certificate operators carry eigenvalue noise at the solver tolerance;
    # clip it before unit-trace validation.
    clipped = psd_project(matrix)
    return validate_density(clipped / clipped.trace().real)


def decompositions_from_structure(ensemble: StateEnsemble, structure: SteeringStructure):
    """One steering decomposition of the shared state per message.

    Decomposition x mixes rho_x (weight p_x) with its complementary state;
    when the complementary weight vanishes the decomposition is just rho_x.
    """
    out = []
    for x in range(len(ensemble)):
        if structure.complementary[x] is None:
            members = [(1.0, ensemble.states[x])]
        elif structure.p[x] < 1e-15:  # zero-prior state: the message carries only the partner
            members = [(1.0, structure.complementary[x])]
        else:
            members = [
                (float(structure.p[x]), ensemble.states[x]),
                (float(structure.complementary_weights[x]), structure.complementary[x]),
            ]
        out.append(make_decomposition(structure.normalized_k, members))
    return out


def proposition_bound_check(structure: SteeringStructure, solved_value: float) -> float:
    """Signed gap between the solved value and the no-signaling bound.

    At an optimum the bound is attained, so the residual vanishes within
    certificate tolerance.
    """
    return float(solved_value - structure.bound)


def slackness_check(structure: SteeringStructure, povm: Povm) -> list[float]:
    """tr[sigma_x M_x] per outcome, using the unnormalized complementary operators.

    All entries vanish at an optimum: the measurement never responds to the
    complementary states.
    """
    if len(povm) != len(structure.sigma):
        raise DimensionMismatch(f"POVM has {len(povm)} elements for {len(structure.sigma)} states")
    if povm.dim != structure.normalized_k.dim:
        raise DimensionMismatch(
            f"POVM dimension {povm.dim} != certificate dimension {structure.normalized_k.dim}"
        )
    return np.einsum("xij,xji->x", structure.sigma, povm.elements).real.tolist()


def norm_identity_check(structure: SteeringStructure, ensemble: StateEnsemble) -> float:
    """Worst violation of the pairwise norm identity of identical ensembles.

    For every pair (x, y) the weighted state difference and the weighted
    complementary difference must have equal trace norms, because both equal
    the difference of two decompositions of the same operator.
    """
    first, second = np.triu_indices(len(ensemble), k=1)
    states = structure.p[:, None, None] * ensemble.matrices
    partners = structure.sigma / structure.trace_k
    lhs = trace_norms(states[first] - states[second])
    rhs = trace_norms(partners[first] - partners[second])
    return float(np.abs(lhs - rhs).max())


def detector_nosignaling_check(stats, tolerance: float) -> tuple[float, bool]:
    """Sum of diagonal detector probabilities and the no-signaling verdict.

    stats may be a DetectorStatistics object or a bare N x N table whose
    entry (x, x') is the probability of answer x given message x'.  The sum
    of correct-answer probabilities exceeding 1 (beyond the caller-supplied
    statistical or numerical tolerance) would enable signaling.
    """
    table = getattr(stats, "probabilities", stats)
    if table is None:
        raise MalformedStatistics("statistics carry no probabilities (zero shots)")
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise MalformedStatistics(f"expected a square table, got shape {table.shape}")
    column_sums = table.sum(axis=0)
    off = float(np.abs(column_sums - 1.0).max())
    if off > tolerance:
        raise MalformedStatistics(f"column sums deviate from 1 by {off:.3e}")
    diagonal_sum = float(np.trace(table))
    return diagonal_sum, bool(diagonal_sum <= 1.0 + tolerance)

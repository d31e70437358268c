"""No-signaling structures derived from a solved discrimination instance.

A converged dual certificate induces a family of identical ensembles: the
normalized dual operator decomposes N different ways as

    p_x rho_x + (1 - p_x) sigma_hat_x,    p_x = q_x / tr K,

with sigma_hat_x the normalized complementary state of rho_x.  Because all N
mixtures are literally the same operator, no measurement statistics on them
can reveal which decomposition was prepared, and the guessing probability is
pinned to 1 / sum_x p_x = tr K.  This module builds that structure and the
residual checks that state it.

At an optimum the structure and the KKT conditions are one fact, so qsd
certify has no row for the structure: each of its checks restates the KKT
rows.  ensemble_residual is at most (2 d dual_residual + ABSENT_TRACE) / tr K,
the trace-norm effect of clipping each sigma_x's negative eigenvalues and
of dropping a partner of trace below ABSENT_TRACE.  norm_identity_check
holds up to rounding for any K, because steering_structure builds
sigma_x = K - q_x rho_x.  proposition_bound_check's value - tr K / sum_x q_x
equals (value - objective) - gap + tr K (1 - 1 / sum_x q_x), which certify's
value_recorded and gap rows bound while |1 - sum_x q_x| <= PRIOR_TOL.
qsd solve and simulate build the structure, and exit 3 when its gates
(INFEASIBLE_TOL here, steering.MARGINAL_TOL) refuse a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatch,
    NonFinite,
    Povm,
    QsdError,
    StateEnsemble,
    _eigh,
    _frozen,
    _trace_norms,
    hermitian_part,
    pair_indices,
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
    the shared state normalized_k.  sigma is the read-only (N, d, d) stack of
    unnormalized complementary operators K - q_x rho_x.
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
    """Build the identical-ensemble structure from a converged certificate.

    The complementary operators sigma_x = K - q_x rho_x are formed here from
    the certificate's K and the ensemble.  A certificate whose K is not d x d
    for the ensemble, or whose slackness or dual_feasibility does not have
    one entry per state, raises DimensionMismatch; one with a NaN or Inf in
    K or tr K raises NonFinite, both before any arithmetic on it.
    """
    expected = (ensemble.dim, ensemble.dim), (len(ensemble),), (len(ensemble),)
    shapes = tuple(np.shape(a) for a in (certificate.k_operator, certificate.slackness, certificate.dual_feasibility))
    if shapes != expected:
        raise DimensionMismatch(f"certificate (K, slackness, dual_feasibility) shapes {shapes}, expected {expected}")
    if not (np.isfinite(certificate.k_operator).all() and np.isfinite(certificate.trace_k)):
        raise NonFinite("certificate: NaN or Inf entries")
    worst = certificate.dual_feasibility.min()
    if worst < -INFEASIBLE_TOL:
        raise InfeasibleCertificate(f"complementary operator eigenvalue {worst:.3e}")

    tr_k = certificate.trace_k
    p = ensemble.priors / tr_k
    sigma = _frozen(certificate.k_operator - ensemble.weighted_stack())
    traces = np.trace(sigma, axis1=1, axis2=2).real
    weights = traces / tr_k
    present = traces >= ABSENT_TRACE
    # One stack [K / tr K; sigma_x / tr sigma_x for each present partner],
    # clipped and normalized in two batched steps.
    normalized = _normalize_psd(
        np.concatenate([certificate.k_operator[None] / tr_k, sigma[present] / traces[present, None, None]])
    )
    normalized_k = DensityMatrix(matrix=normalized[0])
    # An absent partner contributes nothing to its decomposition.
    partners = np.zeros_like(sigma)
    partners[present] = normalized[1:]
    complementary = tuple(DensityMatrix(matrix=m) if keep else None for m, keep in zip(_frozen(partners), present))
    reconstructed = p[:, None, None] * ensemble.matrices + weights[:, None, None] * partners
    residual = _trace_norms(reconstructed - normalized_k.matrix).max()

    return SteeringStructure(
        p=_frozen(p),
        normalized_k=normalized_k,
        complementary=complementary,
        complementary_weights=_frozen(weights),
        bound=float(1.0 / p.sum()),
        ensemble_residual=float(residual),
        trace_k=float(tr_k),
        sigma=sigma,
    )


def _normalize_psd(stack: np.ndarray) -> np.ndarray:
    """The read-only Hermitian parts of the stack, negative eigenvalues clipped and each matrix scaled to unit trace.

    Certificate operators carry eigenvalue noise at the solver tolerance;
    clipping removes it, so each result is a density matrix by construction.
    """
    w, v = _eigh(hermitian_part(stack))
    clipped = (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return _frozen(hermitian_part(clipped / np.trace(clipped, axis1=1, axis2=2).real[:, None, None]))


def decompositions_from_structure(ensemble: StateEnsemble, structure: SteeringStructure):
    """One steering decomposition of the shared state per message.

    Decomposition x mixes rho_x (weight p_x) with its complementary state
    (weight complementary_weights[x]), keeping each that exists with weight at
    least 1e-15; a lone member, such as rho_x when its partner vanishes or the
    partner of a zero-prior state, takes weight 1.
    """

    def members(x):
        pairs = ((structure.p[x], ensemble.states[x]), (structure.complementary_weights[x], structure.complementary[x]))
        kept = [(float(w), s) for w, s in pairs if s is not None and w >= 1e-15]
        return [(1.0, kept[0][1])] if len(kept) == 1 else kept

    return [make_decomposition(structure.normalized_k, members(x)) for x in range(len(ensemble))]


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
    first, second = pair_indices(len(ensemble))
    # The weighted states and the weighted partners as one (2, N, d, d) stack,
    # so that one _trace_norms call serves both sides.
    sides = np.stack([structure.p[:, None, None] * ensemble.matrices, structure.sigma / structure.trace_k])
    norms = _trace_norms(sides[:, first] - sides[:, second])
    return float(np.abs(norms[0] - norms[1]).max())


def detector_nosignaling_check(probabilities, tolerance: float) -> tuple[float, bool]:
    """Sum of diagonal detector probabilities and the no-signaling verdict.

    probabilities is an N x N table whose entry (x, x') is the probability
    of answer x given message x' (DetectorStatistics.probabilities, say).
    The sum of correct-answer probabilities exceeding 1 (beyond the
    caller-supplied statistical or numerical tolerance) would enable
    signaling.  MalformedStatistics names a table that is not square or
    whose columns do not sum to 1 within tolerance, a NaN entry included.
    """
    table = np.asarray(probabilities, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise MalformedStatistics(f"expected a square table, got shape {table.shape}")
    column_sums = table.sum(axis=0)
    off = float(np.abs(column_sums - 1.0).max())
    if not off <= tolerance:
        raise MalformedStatistics(f"column sums deviate from 1 by {off:.3e}")
    diagonal_sum = float(np.trace(table))
    return diagonal_sum, bool(diagonal_sum <= 1.0 + tolerance)

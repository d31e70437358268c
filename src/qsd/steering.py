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
    DensityMatrix,
    DimensionMismatch,
    Povm,
    QsdError,
    _frozen,
    born_table,
    hermitian_part,
    min_eigenvalue,
    trace_norm,
    validate_density,
)

RANK_CUTOFF = 1e-12
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
    """A pure state of system A x B with its Schmidt data.

    amplitudes[i, j] is the coefficient of |i>_A |j>_B; schmidt holds
    (coefficient, vector_a, vector_b) triples sorted by descending
    coefficient.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray
    schmidt: tuple[tuple[float, np.ndarray, np.ndarray], ...]

    def marginal_b(self) -> np.ndarray:
        return np.einsum("ij,ik->jk", self.amplitudes, self.amplitudes.conj())

    def marginal_a(self) -> np.ndarray:
        return np.einsum("ij,kj->ik", self.amplitudes, self.amplitudes.conj())


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
    vectors_b = v[:, keep]
    rank = len(keep)
    amplitudes = coefficients[:, None] * vectors_b.T
    schmidt = tuple(
        (float(coefficients[i]), _frozen(_basis_vector(rank, i)), _frozen(vectors_b[:, i].copy()))
        for i in range(rank)
    )
    return BipartitePureState(
        dim_a=rank,
        dim_b=rho.dim,
        amplitudes=_frozen(amplitudes),
        schmidt=schmidt,
    )


def _basis_vector(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def pure_components(decomposition: SteeringDecomposition, cutoff: float = RANK_CUTOFF):
    """Flatten a decomposition into (weight, unit vector, member index) triples.

    Mixed members are split along their eigenvectors; steering is defined on
    pure-state ensembles.
    """
    components = []
    for y, (r, tau) in enumerate(decomposition.members):
        w, v = tau.eigensystem()
        wmax = float(w.max())
        for k in range(len(w) - 1, -1, -1):
            if w[k] > cutoff * wmax:
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

    # In the Schmidt representation A's index i pairs with B's basis e_i; an
    # element steering to sqrt(w) |v> acts as w |u><u| with
    # u_i = conj(<e_i|v>) / c_i on the support of A's marginal.
    coefficients = np.array([c for c, _, _ in state.schmidt])
    basis_b = np.stack([vb for _, _, vb in state.schmidt], axis=1)  # dim_b x rank
    rank = len(coefficients)

    elements = []
    steers_to = []
    grouped: dict[int, np.ndarray] = {}
    for weight, vector, member in pure_components(decomposition):
        overlaps = basis_b.conj().T @ vector
        leak = float((vector.conj() @ vector).real) - float((np.abs(overlaps) ** 2).sum())
        if weight * leak > SUPPORT_TOL:
            raise UnsteerableWeight(
                f"member {member} has weight {weight * leak:.3e} outside the steerable support"
            )
        u = np.zeros(state.dim_a, dtype=complex)
        u[:rank] = overlaps.conj() / coefficients
        element = weight * np.outer(u, u.conj())
        grouped[member] = grouped.get(member, 0.0) + element

    for member in range(len(decomposition.members)):
        elements.append(hermitian_part(grouped[member]))
        steers_to.append(member)

    completion = np.eye(state.dim_a) - sum(elements)
    lowest = min_eigenvalue(completion)
    if lowest < -SUPPORT_TOL:
        raise UnsteerableWeight(f"completion element has eigenvalue {lowest:.3e}")
    if float(np.abs(completion).max()) > RANK_CUTOFF:
        elements.append(hermitian_part(completion))
        steers_to.append(-1)
    else:
        # Fold float-level residue into the last element to keep completeness exact.
        elements[-1] = hermitian_part(elements[-1] + completion)

    povm = Povm(elements=tuple(_frozen(m) for m in elements))
    return povm, tuple(steers_to)


def steered_states(state: BipartitePureState, povm: Povm) -> list[tuple[float, np.ndarray]]:
    """(probability, subnormalized B state) for each outcome of a measurement on A.

    The independent partial-trace oracle used to verify steering constructions.
    """
    out = []
    amplitudes = state.amplitudes
    for m in povm.elements:
        # tr_A[(M x I) |psi><psi|] = (M A)^T conj(A) for amplitude matrix A
        sub = np.einsum("ki,ij,kl->jl", m, amplitudes, amplitudes.conj())
        sub = hermitian_part(sub)
        out.append((float(sub.trace().real), sub))
    return out


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
    targets = [mixture_of(e) for e in ensembles]
    for other in targets[1:]:
        gap = trace_norm(other - targets[0])
        if gap > MARGINAL_TOL:
            raise TargetMismatch(f"steered marginals differ by {gap:.3e}")

    rng = np.random.default_rng(seed)
    elements = np.array(bob_povm.elements)
    counts = np.zeros((n, n), dtype=np.int64)
    for message, decomposition in enumerate(ensembles):
        components = pure_components(decomposition)
        weights = np.array([w for w, _, _ in components])
        vectors = np.array([v for _, v, _ in components])
        projectors = np.einsum("ki,kj->kij", vectors, vectors.conj())
        # Born distribution of the detector on each pure component, one row each.
        tables = np.maximum(born_table(projectors, elements).T, 0.0)
        tables /= tables.sum(axis=1, keepdims=True)
        joint = (weights / weights.sum())[:, None] * tables
        counts[:, message] = rng.multinomial(shots, joint.ravel()).reshape(joint.shape).sum(axis=0)
    return DetectorStatistics(counts=_frozen(counts), shots_per_message=int(shots))


def marginal_indistinguishability_check(ensembles) -> float:
    """Largest pairwise trace-norm gap between the mixtures of the decompositions.

    Zero (to tolerance) exactly when all messages prepare the same marginal,
    the premise that makes the protocol signal-free.
    """
    mixtures = [mixture_of(e) for e in ensembles]
    worst = 0.0
    for i in range(len(mixtures)):
        for j in range(i + 1, len(mixtures)):
            worst = max(worst, trace_norm(mixtures[i] - mixtures[j]))
    return worst

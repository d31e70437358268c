"""Validated quantum data types and the numerical substrate shared by all modules.

Everything downstream (two-state closed forms, the iterative solver, certificate
checks, steering simulation) works on the three types defined here: density
matrices, prior-weighted ensembles, and POVMs.  A family of N operators on
one d-dimensional space (an ensemble's states, a POVM's elements, a dual
certificate's complementary operators) is one complex (N, d, d) array, and
the batched routines here act on the whole family at once.  A single
Hermitian eigendecomposition backend (`numpy.linalg.eigh`) drives positivity
checks, trace norms, and operator square roots so that tolerances mean the
same thing in every module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# One tolerance regime for the whole package: absolute 1e-9 on eigenvalues and
# traces, Hermiticity scaled by the largest entry, 1e-12 on probability sums.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
PRIOR_TOL = 1e-12
PROB_CLAMP = 1e-9
# Numerical rank: eigenvalues at or below RANK_CUTOFF * max_eigenvalue count as zero.
RANK_CUTOFF = 1e-12


class QsdError(Exception):
    """Base class for all validation and computation errors in this package."""


class NonFinite(QsdError):
    """Input contains NaN or Inf entries."""


class NotHermitian(QsdError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPsd(QsdError):
    """Matrix has an eigenvalue below -PSD_TOL."""


class TraceNotOne(QsdError):
    """Trace differs from 1 beyond tolerance."""


class CompletenessViolated(QsdError):
    """POVM elements do not sum to the identity within tolerance."""


class DimensionMismatch(QsdError):
    """Operands act on spaces of different dimension or arity."""


class InvalidPriors(QsdError):
    """Prior probabilities are negative or do not sum to 1."""


class InvalidProbability(QsdError):
    """A Born-rule probability falls outside [0, 1] beyond float noise."""


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a square, finite complex128 array (a defensive copy)."""
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of a matrix or of each matrix in an (N, d, d) stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermiticity_error(a: np.ndarray) -> float:
    """Largest entrywise deviation |A_ij - conj(A_ji)| (over a stack too)."""
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0))


def check_hermitian(a: np.ndarray, context: str = "matrix") -> None:
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    err = hermiticity_error(a)
    if err > HERMITIAN_TOL * scale:
        raise NotHermitian(f"{context}: max |A_ij - conj(A_ji)| = {err:.3e}")


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, or of all matrices in a stack."""
    return float(np.linalg.eigvalsh(hermitian_part(a)).min())


def psd_sqrt_pinv(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix.

    Eigenvalues at or below RANK_CUTOFF * max_eigenvalue are treated as zero;
    their eigenvectors are left out of the result.  Only the lower triangle
    of a is read.
    """
    w, v = np.linalg.eigh(a)
    # eigh sorts w ascending: the kept eigenvalues are the tail w[k:].
    k = np.searchsorted(w, RANK_CUTOFF * max(w[-1], 0.0), side="right")
    kept = v[:, k:]
    return (kept / np.sqrt(w[k:])) @ kept.conj().T


def psd_project(a: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues of a Hermitian matrix to zero."""
    w, v = np.linalg.eigh(hermitian_part(a))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d quantum state: Hermitian, PSD, unit trace.

    Construct through validate_density; the stored array is read-only.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Eigenvalues (ascending) and eigenvectors of the state."""
        return np.linalg.eigh(self.matrix)


@dataclass(frozen=True)
class StateEnsemble:
    """A discrimination instance: N >= 2 states with prior probabilities."""

    priors: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def weighted(self, x: int) -> np.ndarray:
        """The prior-weighted operator of state x."""
        return self.priors[x] * self.states[x].matrix

    @property
    def matrices(self) -> np.ndarray:
        """The (N, d, d) stack of the density matrices rho_x (a fresh array)."""
        return np.array([s.matrix for s in self.states])

    def weighted_stack(self) -> np.ndarray:
        """The (N, d, d) stack of prior-weighted operators q_x rho_x."""
        return self.priors[:, None, None] * self.matrices

    def permuted(self, order) -> "StateEnsemble":
        """A new ensemble with states and priors jointly reordered."""
        order = list(order)
        return StateEnsemble(
            priors=_frozen(self.priors[order].copy()),
            states=tuple(self.states[i] for i in order),
        )


@dataclass(frozen=True)
class Povm:
    """A measurement: its N elements as one read-only complex (N, d, d) array.

    The constructor accepts any sequence of d x d matrices (or a stack),
    copies it and freezes the copy; elements[x] is element x.  It checks only
    that every element has the shape of the first.  validate_povm also checks
    Hermiticity, positivity and completeness; unvalidated instances carry
    measurements under test, such as a report's POVM in qsd certify.
    """

    elements: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(m) for m in self.elements]
        d = shapes[0][0] if shapes and shapes[0] else 0
        for x, shape in enumerate(shapes):
            if shape != (d, d):
                raise DimensionMismatch(f"POVM element {x} has shape {shape}, expected {(d, d)}")
        stack = np.array(self.elements, dtype=complex).reshape(len(shapes), d, d)
        object.__setattr__(self, "elements", _frozen(stack))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


def validate_density(matrix) -> DensityMatrix:
    """Validate a matrix as a quantum state or raise naming the violation.

    Checks, in order: Hermiticity (scaled tolerance), positive
    semidefiniteness (min eigenvalue >= -1e-9), unit trace (within 1e-9).
    """
    a = as_complex_matrix(matrix)
    check_hermitian(a, "density matrix")
    a = hermitian_part(a)
    lo = min_eigenvalue(a)
    if lo < -PSD_TOL:
        raise NotPsd(f"density matrix: min eigenvalue = {lo:.3e}")
    tr = float(a.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"density matrix: trace = {tr:.12g}")
    return DensityMatrix(matrix=_frozen(a))


def make_ensemble(priors, matrices) -> StateEnsemble:
    """Build a StateEnsemble from raw priors and matrices, validating both."""
    q = np.asarray(priors, dtype=float)
    if q.ndim != 1 or len(q) < 2:
        raise InvalidPriors(f"need at least 2 priors, got shape {q.shape}")
    if np.any(q < 0):
        raise InvalidPriors(f"negative prior: min = {q.min():.3e}")
    if abs(q.sum() - 1.0) > PRIOR_TOL:
        raise InvalidPriors(f"priors sum to {q.sum():.17g}, expected 1")
    states = tuple(s if isinstance(s, DensityMatrix) else validate_density(s) for s in matrices)
    if len(states) != len(q):
        raise DimensionMismatch(f"{len(q)} priors but {len(states)} states")
    d = states[0].dim
    for i, s in enumerate(states):
        if s.dim != d:
            raise DimensionMismatch(f"state {i} has dimension {s.dim}, expected {d}")
    return StateEnsemble(priors=_frozen(q.copy()), states=states)


def validate_povm(elements) -> Povm:
    """Validate a sequence or stack of matrices as a POVM or raise on the first violation."""
    if len(elements) == 0:
        raise DimensionMismatch("POVM needs at least one element")
    mats = [as_complex_matrix(e) for e in elements]
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionMismatch(f"element {i} has dimension {m.shape[0]}, expected {d}")
        check_hermitian(m, f"POVM element {i}")
        lo = min_eigenvalue(m)
        if lo < -PSD_TOL:
            raise NotPsd(f"POVM element {i}: min eigenvalue = {lo:.3e}")
    total = sum(mats)
    dev = float(np.abs(total - np.eye(d)).max())
    if dev > COMPLETENESS_TOL:
        raise CompletenessViolated(f"sum of elements deviates from identity by {dev:.3e}")
    return Povm(elements=hermitian_part(np.array(mats)))


def trace_norm(a) -> float:
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues.

    The input must be square and finite; its Hermiticity is asserted.
    """
    return float(trace_norms(as_complex_matrix(a)[None])[0])


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms of the Hermitian matrices in a (..., d, d) stack.

    One Hermiticity check over the stack and one batched eigvalsh.  The batch
    runs the same LAPACK routine per matrix, so each norm equals trace_norm
    of that matrix bit for bit.
    """
    check_hermitian(stack, "trace_norm input")
    return np.abs(np.linalg.eigvalsh(hermitian_part(stack))).sum(axis=-1)


def born_table(states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Unchecked Born table tr[states_y elements_x] of two (N, d, d) stacks.

    Entry (x, y) is the probability that element x clicks on state y.
    """
    return np.einsum("xij,yji->xy", elements, states).real


def _elements(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """povm.elements, after checking there is one element per state, of the states' dimension."""
    if len(povm) != len(ensemble):
        raise DimensionMismatch(f"POVM has {len(povm)} elements for {len(ensemble)} states")
    if povm.dim != ensemble.dim:
        raise DimensionMismatch(f"POVM dimension {povm.dim} != state dimension {ensemble.dim}")
    return povm.elements


def born_probabilities(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """Conditional probability table P(x|y) = tr[rho_y M_x].

    Entry (x, y) is the probability that element x clicks on state y; each
    column is a distribution.  Values within 1e-9 of the [0, 1] boundary are
    clamped onto it; larger excursions raise InvalidProbability.
    """
    table = born_table(ensemble.matrices, _elements(ensemble, povm))
    outside = (table < -PROB_CLAMP) | (table > 1.0 + PROB_CLAMP)
    if outside.any():
        x, y = np.argwhere(outside)[0]
        raise InvalidProbability(f"P({x}|{y}): value {table[x, y]:.12g} outside [0, 1]")
    return np.clip(table, 0.0, 1.0)


def guess_value(ensemble: StateEnsemble, povm: Povm) -> float:
    """Average success probability sum_x q_x tr[rho_x M_x] of a measurement."""
    table = born_probabilities(ensemble, povm)
    return float(ensemble.priors @ np.diag(table))

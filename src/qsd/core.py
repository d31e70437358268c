"""Validated quantum data types and the numerical substrate shared by all modules.

Everything downstream (two-state closed forms, the iterative solver, certificate
checks, steering simulation) works on the three types defined here: density
matrices, prior-weighted ensembles, and POVMs.  A family of N operators on
one d-dimensional space (an ensemble's states, a POVM's elements, a dual
certificate's complementary operators) is one complex (N, d, d) array, and
the batched routines here act on the whole family at once.

Every eigenproblem in the package, and the Anderson solve, runs through
three private kernels: _eigh, _eigvalsh and _solve.  Each calls the LAPACK
gufunc that numpy.linalg.eigh, eigvalsh or solve calls for complex128 and
float64 input (eigh_lo, eigvalsh_lo, solve1 of numpy.linalg._umath_linalg),
in the same floating-point state, so a failure raises numpy's LinAlgError
with numpy's message.  That state is one np.errstate per kernel, applied as
a decorator: it holds for the gufunc call alone, and the caller's state is
back when the kernel returns or raises.  numpy 2 saves the caller's state
per call, in a context variable; numpy 1.x saves it on the shared
np.errstate, so there, when two threads call one kernel at once, each under
a different np.errstate of its own, one of them can get the other's state
back.  numpy.linalg adds only shape and type checks and its Python
plumbing, which at d <= 4 cost more than LAPACK does; every stack passed
here is a square complex128 or float64 array that the library built or
validated, so each result equals numpy.linalg's bit for bit.  The gufuncs
are imported here and nowhere else, and nothing falls back to
numpy.linalg.

One tolerance regime holds for every family: states, POVM elements, a given
dual operator K and trace_norm inputs are all checked by _hermitian (finite,
no entry of a d x d matrix above MAX_ENTRY / d = sqrt(float max) / (2 d),
and Hermitian within HERMITIAN_TOL times each matrix's own largest entry, at
least 1) and, where positivity is required, by _positive (min eigenvalue >=
-PSD_TOL).  The entry bound keeps every later check finite: a product of
two entries is at most float max / (4 d^2), so no trace, slackness tr[sigma_x
M_x] or other sum of d^2 such terms can overflow.

Validation happens once, at the boundary.  The public constructors and
checks (make_ensemble, validate_density(ies), validate_povm, trace_norm(s),
and certificate_from_povm for a given K) validate what they are handed, and
_elements gates a measurement under test.  Inside the library, trace norms
of differences of stacks those routines built (the bounds, the steering
structure and its checks, the steering simulation) go through the unchecked
kernel _trace_norms.  Every such stack holds Hermitian parts (A + A^dagger)
/ 2, which are exactly Hermitian in floating point, and real multiples,
sums and differences of exactly Hermitian matrices stay exactly Hermitian,
so checking them again could only cost time: each norm equals trace_norms'
bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

# One tolerance regime for the whole package: absolute 1e-9 on eigenvalues and
# traces, Hermiticity scaled by each matrix's largest entry, 1e-12 on probability sums.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
PRIOR_TOL = 1e-12
PROB_CLAMP = 1e-9
# Numerical rank: eigenvalues at or below RANK_CUTOFF * max_eigenvalue count as zero.
RANK_CUTOFF = 1e-12
# A d x d matrix accepts entries of magnitude up to MAX_ENTRY / d, so that no
# product of two entries, nor a sum of d^2 of them, overflows.
MAX_ENTRY = np.sqrt(np.finfo(float).max) / 2


class QsdError(Exception):
    """Base class for all validation and computation errors in this package."""


class NonFinite(QsdError):
    """Input contains NaN or Inf entries, or a d x d matrix has entries above MAX_ENTRY / d."""


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integer(value) -> int | None:
    """value as a Python int if it is an integer, a numpy integer included, else None.

    bool and numpy.bool_ are not integers here.  They are refused before
    operator.index, which takes True as 1, and on numpy 1.x numpy.bool_ too.
    """
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of a matrix or of each matrix in an (N, d, d) stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _lapack_errstate(message: str) -> np.errstate:
    """The floating-point state numpy.linalg runs its gufuncs in, as a decorator: a LAPACK failure raises LinAlgError(message)."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack_errstate("Eigenvalues did not converge")
def _eigh(a: np.ndarray):
    """numpy.linalg.eigh of a complex128 or float64 (..., d, d) stack: ascending eigenvalues and eigenvectors."""
    return _umath_linalg.eigh_lo(a)


@_lapack_errstate("Eigenvalues did not converge")
def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh of a complex128 or float64 (..., d, d) stack: ascending eigenvalues."""
    return _umath_linalg.eigvalsh_lo(a)


@_lapack_errstate("Singular matrix")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve of a float64 or complex128 (m, m) system with a vector right-hand side b."""
    return _umath_linalg.solve1(a, b)


def psd_sqrt_pinv(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian PSD matrix.

    Eigenvalues at or below RANK_CUTOFF * max_eigenvalue are treated as zero;
    their eigenvectors are left out of the result.  Only the lower triangle
    of a is read.
    """
    w, v = _eigh(a)
    # eigh sorts w ascending: the kept eigenvalues are the tail w[k:].
    cutoff = RANK_CUTOFF * max(w[-1], 0.0)
    if w[0] > cutoff:  # full rank: every eigenvalue is kept
        return (v / np.sqrt(w)) @ v.conj().T
    k = np.searchsorted(w, cutoff, side="right")
    kept = v[:, k:]
    return (kept / np.sqrt(w[k:])) @ kept.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d quantum state: Hermitian, PSD, unit trace.

    Construct through validate_density or from a row of validate_densities;
    the stored array is read-only.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Eigenvalues (ascending) and eigenvectors of the state."""
        return _eigh(self.matrix)


@dataclass(frozen=True)
class StateEnsemble:
    """A discrimination instance: N >= 2 states with prior probabilities.

    priors and matrices, the (N, d, d) stack of the density matrices rho_x,
    are read-only arrays, validated by make_ensemble.  The constructor builds,
    once, the states (DensityMatrix views of the rows of matrices) and the
    read-only stack of q_x rho_x that weighted_stack() returns.
    """

    priors: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(DensityMatrix(matrix=m) for m in self.matrices))
        object.__setattr__(self, "_weighted", _frozen(self.priors[:, None, None] * self.matrices))

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def weighted_stack(self) -> np.ndarray:
        """The read-only (N, d, d) stack of prior-weighted operators q_x rho_x."""
        return self._weighted

    def permuted(self, order) -> "StateEnsemble":
        """A new ensemble with states and priors jointly reordered."""
        order = list(order)
        return StateEnsemble(priors=_frozen(self.priors[order]), matrices=_frozen(self.matrices[order]))


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
        e = self.elements
        if isinstance(e, np.ndarray) and e.ndim == 3 and len(e) and e.shape[1] == e.shape[2]:
            stack = np.array(e, dtype=complex)  # a non-empty square stack: every element has the first's shape
        else:
            shapes = [np.shape(m) for m in e]
            d = shapes[0][0] if shapes and shapes[0] else 0
            for x, shape in enumerate(shapes):
                if shape != (d, d):
                    raise DimensionMismatch(f"POVM element {x} has shape {shape}, expected {(d, d)}")
            stack = np.array(e, dtype=complex).reshape(len(shapes), d, d)
        object.__setattr__(self, "elements", _frozen(stack))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


def _reject(bad: np.ndarray, name: str, error: type[QsdError], detail) -> None:
    """Raise error naming the first matrix flagged in bad, one flag per matrix of a stack, if any.

    The message is "name x: detail(x)" for x the flat index of that matrix,
    or "name: detail(x)" when the stack holds one matrix.
    """
    if bad.any():
        x = int(bad.argmax())
        raise error(f"{name if bad.size == 1 else f'{name} {x}'}: {detail(x)}")


def _scale(stack: np.ndarray) -> np.ndarray:
    """Each matrix's largest |A_ij|, at least 1, in a complex (..., d, d) stack: NaN or Inf where an entry is (or |A_ij| overflows)."""
    return np.abs(stack).max(axis=(-2, -1), initial=1.0)


def _finite(stack: np.ndarray, name: str) -> None:
    """Check that no entry of a complex (..., d, d) stack is NaN or Inf or of magnitude above MAX_ENTRY / d.

    Raises NonFinite, naming the first offending matrix as _reject does.  A
    stack that passes costs one reduction; the per-matrix scan and its
    message run only when that fails.
    """
    bound = MAX_ENTRY / max(stack.shape[-1], 1)
    if not np.abs(stack).max(initial=0.0) <= bound:
        scale = _scale(stack)
        _reject(~(scale <= bound), name, NonFinite,
                lambda x: f"entry of magnitude {scale.flat[x]:.3e} overflows" if np.isfinite(scale.flat[x]) else "NaN or Inf entries")


def _hermitian(stack, name: str) -> np.ndarray:
    """The Hermitian parts of a (..., d, d) stack, as a new array, after checking it.

    Every entry must pass _finite (else NonFinite), and every matrix A be
    Hermitian within its own scale: max |A_ij - conj(A_ji)| <= HERMITIAN_TOL
    * max(1, max |A_ij|) (else NotHermitian).  Errors name the first
    offending matrix as _reject does.  Every scale is at least 1, so a stack
    whose largest deviation is within HERMITIAN_TOL passes on that one
    reduction.
    """
    a = np.asarray(stack, dtype=complex)
    _finite(a, name)
    adjoint = a.conj().swapaxes(-1, -2)
    deviation = np.abs(a - adjoint)
    if not deviation.max(initial=0.0) <= HERMITIAN_TOL:
        err = deviation.max(axis=(-2, -1), initial=0.0)
        _reject(err > HERMITIAN_TOL * _scale(a), name, NotHermitian, lambda x: f"max |A_ij - conj(A_ji)| = {err.flat[x]:.3e}")
    return 0.5 * (a + adjoint)  # hermitian_part(a), its adjoint formed once


def _positive(stack: np.ndarray, name: str) -> None:
    """Check every matrix of a Hermitian (..., d, d) stack for min eigenvalue >= -PSD_TOL (one batched eigvalsh).

    Raises NotPsd naming the first offending matrix as _reject does.
    """
    lowest = _eigvalsh(stack)[..., 0]
    _reject(lowest < -PSD_TOL, name, NotPsd, lambda x: f"min eigenvalue = {lowest.flat[x]:.3e}")


def validate_density(matrix) -> DensityMatrix:
    """Validate a matrix as a quantum state or raise naming the violation.

    The one-matrix case of validate_densities: checks, in order,
    finiteness, Hermiticity (scaled tolerance), positive semidefiniteness
    (min eigenvalue >= -1e-9), unit trace (within 1e-9).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    return DensityMatrix(matrix=validate_densities(a[None])[0])


def validate_densities(stack) -> np.ndarray:
    """Validate every matrix of an (N, d, d) stack as a quantum state, or raise naming the first violation.

    Each check runs over the whole stack before the next: finiteness and
    Hermiticity (_hermitian), positive semidefiniteness (_positive), unit
    trace (within 1e-9).  Returns the read-only stack of Hermitian parts, a
    new array; its rows are the matrices of DensityMatrix instances.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[2]:
        raise DimensionMismatch(f"expected an (N, d, d) stack with d >= 1, got shape {a.shape}")
    a = _hermitian(a, "density matrix")
    _positive(a, "density matrix")
    tr = np.trace(a, axis1=1, axis2=2).real
    _reject(np.abs(tr - 1.0) > TRACE_TOL, "density matrix", TraceNotOne, lambda x: f"trace = {tr[x]:.12g}")
    return _frozen(a)


def make_ensemble(priors, matrices) -> StateEnsemble:
    """Build a StateEnsemble from priors and matrices, validating both.

    The priors must be at least two finite, nonnegative numbers summing to 1.
    matrices may mix raw d x d matrices and DensityMatrix instances; all of
    them are validated as one stack by validate_densities, whose errors name
    the offending state by its index.  A DensityMatrix is unchanged by this.
    """
    q = np.asarray(priors, dtype=float)
    if q.ndim != 1 or len(q) < 2:
        raise InvalidPriors(f"need at least 2 priors, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise InvalidPriors(f"non-finite prior: {q[~np.isfinite(q)][0]}")
    if np.any(q < 0):
        raise InvalidPriors(f"negative prior: min = {q.min():.3e}")
    if abs(q.sum() - 1.0) > PRIOR_TOL:
        raise InvalidPriors(f"priors sum to {q.sum():.17g}, expected 1")
    raw = [s.matrix if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex) for s in matrices]
    if len(raw) != len(q):
        raise DimensionMismatch(f"{len(q)} priors but {len(raw)} states")
    for i, a in enumerate(raw):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"state {i}: expected a square matrix, got shape {a.shape}")
        if len(a) != len(raw[0]):
            raise DimensionMismatch(f"state {i} has dimension {len(a)}, expected {len(raw[0])}")
    return StateEnsemble(priors=_frozen(q.copy()), matrices=validate_densities(np.array(raw)))


def validate_povm(elements) -> Povm:
    """Validate a sequence or stack of matrices as a POVM or raise on the first violation.

    Povm's shape check runs first (at least one element, of dimension
    d >= 1), then each check over all elements before the next: finiteness
    and Hermiticity (_hermitian), positive semidefiniteness (_positive),
    completeness (within 1e-9).  An error names the first element that
    fails the first failing check.
    """
    stack = Povm(elements=elements).elements
    if not stack.size:
        raise DimensionMismatch(f"POVM needs at least one element of dimension >= 1, got shape {stack.shape}")
    hermitian = _hermitian(stack, "POVM element")
    _positive(hermitian, "POVM element")
    dev = float(np.abs(stack.sum(axis=0) - np.eye(stack.shape[-1])).max())
    if dev > COMPLETENESS_TOL:
        raise CompletenessViolated(f"sum of elements deviates from identity by {dev:.3e}")
    return Povm(elements=hermitian)


def trace_norm(a) -> float:
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues.

    The input must be square and finite; its Hermiticity is checked as in
    trace_norms.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    return float(trace_norms(a[None])[0])


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms of the Hermitian matrices in a (..., d, d) stack.

    The matrices must be square with d >= 1 (else DimensionMismatch).  Each
    is checked on its own by _hermitian, as trace_norm checks it alone, and
    one batched eigvalsh gives the norms.  The batch runs the same LAPACK
    routine per matrix, so each norm equals trace_norm of that matrix bit
    for bit.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.shape[-1]:
        raise DimensionMismatch(f"expected a (..., d, d) stack with d >= 1, got shape {a.shape}")
    return _trace_norms(_hermitian(a, "trace_norm input"))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Unchecked trace norms of an exactly Hermitian (..., d, d) stack the library built: |eigenvalues| summed."""
    return np.abs(_eigvalsh(stack)).sum(axis=-1)


@lru_cache(maxsize=32)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (first, second) of the pairs first < second of n items, built once per n."""
    first, second = np.triu_indices(n, k=1)
    return _frozen(first), _frozen(second)


def born_table(states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Unchecked Born table tr[states_y elements_x] of two (N, d, d) stacks.

    Entry (x, y) is the probability that element x clicks on state y.
    """
    return np.einsum("xij,yji->xy", elements, states).real


def _elements(ensemble: StateEnsemble, povm: Povm) -> np.ndarray:
    """povm.elements, after checking there is one finite element per state, of the states' dimension.

    A POVM that may be invalid otherwise (a stored report's, say) passes, so
    that its residuals can be measured; an entry that fails _finite raises
    NonFinite.
    """
    if len(povm) != len(ensemble):
        raise DimensionMismatch(f"POVM has {len(povm)} elements for {len(ensemble)} states")
    if povm.dim != ensemble.dim:
        raise DimensionMismatch(f"POVM dimension {povm.dim} != state dimension {ensemble.dim}")
    _finite(povm.elements, "POVM element")
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


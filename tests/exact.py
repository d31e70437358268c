"""Exact rational referee: a proved interval for the guessing probability of a solve.

Every float is a dyadic rational, so an instance and a solve's POVM and dual
operator can be read exactly and their certificates checked with no rounding
at all.  P below is the optimum of the guessing-probability SDP whose data
are the stored priors q_x and the exact Hermitian parts of the stored
states rho_x.

- Upper bound.  If K' = Herm K + delta I satisfies K' - q_x rho_x > 0 for
  every x, K' is dual-feasible and P <= tr K' = tr K + d delta.
- Lower bound.  If M'_x = Herm M_x + eta I > 0 for every x and
  s I - sum_x M'_x > 0, then {M'_x / s}, with the remainder R =
  I - sum_x M'_x / s added to outcome 0, is a POVM, so P >= sum_x
  q_x tr[rho_x M'_x] / s + q_0 tr[rho_0 R].  A stored state may sit off the
  PSD cone by round-off, so the last term is bounded below by
  -q_0 theta tr R, with rho_0 + theta I > 0.

Each "> 0" is an exact fraction-free LDL^dagger (Bareiss elimination) with
every pivot, a leading principal minor, positive.  A matrix is held as
integer rows of its real and imaginary parts over one power-of-two
denominator, and the bounds are fractions.Fraction values.  The floats only
propose the shifts: delta, eta and theta are max(0, -lambda_min) x 1.01 +
PAD of the matrices they shift, and s is 1 + max(0, lambda_max(sum_x M'_x)
- 1) x 1.01 + PAD.  The exact check decides, so a poor proposal can only
fail to prove a bound, never prove a wrong one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# The additive part of every proposed shift.
PAD = 1e-15


def rational(matrix) -> tuple[list[list[int]], list[list[int]], int]:
    """The exact Hermitian part (A + A^dagger) / 2 of a complex square matrix as (re, im, den), A = (re + i im) / den."""
    a = np.asarray(matrix, dtype=complex)
    n = len(a)
    pairs = [v.as_integer_ratio() for v in a.real.ravel().tolist() + a.imag.ravel().tolist()]
    den = max(q for _, q in pairs)
    ints = [p * (den // q) for p, q in pairs]
    re, im = ints[: n * n], ints[n * n :]
    return (
        [[re[i * n + j] + re[j * n + i] for j in range(n)] for i in range(n)],
        [[im[i * n + j] - im[j * n + i] for j in range(n)] for i in range(n)],
        2 * den,
    )


def identity(d: int):
    """The d x d identity as (re, im, den)."""
    return [[int(i == j) for j in range(d)] for i in range(d)], [[0] * d for _ in range(d)], 1


def combine(*terms):
    """sum_t c_t A_t, exactly, for (c_t, A_t) pairs of a float or Fraction c_t and an (re, im, den) A_t."""
    terms = [(Fraction(c), a) for c, a in terms]
    d = len(terms[0][1][0])
    den = max(c.denominator * a[2] for c, a in terms)
    re, im = [[0] * d for _ in range(d)], [[0] * d for _ in range(d)]
    for c, (a_re, a_im, a_den) in terms:
        f = c.numerator * (den // (c.denominator * a_den))
        for i in range(d):
            for j in range(d):
                re[i][j] += f * a_re[i][j]
                im[i][j] += f * a_im[i][j]
    return re, im, den


def trace(a) -> Fraction:
    re, _, den = a
    return Fraction(sum(row[i] for i, row in enumerate(re)), den)


def inner(a, b) -> Fraction:
    """tr[A B] of two Hermitian (re, im, den) matrices: sum_ij A_ij B_ji, which is real."""
    (a_re, a_im, a_den), (b_re, b_im, b_den) = a, b
    n = len(a_re)
    return Fraction(sum(a_re[i][j] * b_re[j][i] - a_im[i][j] * b_im[j][i] for i in range(n) for j in range(n)), a_den * b_den)


def positive_definite(a) -> bool:
    """Whether a Hermitian (re, im, den) matrix is positive definite.

    Fraction-free LDL^dagger (Bareiss): after step k the trailing entries
    are (k + 2) x (k + 2) minors, so every division is exact and the pivots
    are the leading principal minors, all positive exactly when the matrix
    is positive definite (Sylvester).  Reads the lower triangle only.
    """
    re, im = [row[:] for row in a[0]], [row[:] for row in a[1]]
    n = len(re)
    previous = 1
    for k in range(n):
        pivot = re[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            a_re, a_im = re[i][k], im[i][k]
            # A_ij <- (pivot A_ij - A_ik conj(A_jk)) / previous.
            for j in range(k + 1, i + 1):
                b_re, b_im = re[j][k], im[j][k]
                re[i][j] = (pivot * re[i][j] - a_re * b_re - a_im * b_im) // previous
                im[i][j] = (pivot * im[i][j] - a_im * b_re + a_re * b_im) // previous
        previous = pivot
    return True


def shift(values) -> float:
    """The proposed shift max(0, -min(values)) x 1.01 + PAD, for a matrix with these eigenvalues."""
    return max(0.0, -float(np.min(values))) * 1.01 + PAD


def upper_bound(ensemble, k, delta: float) -> Fraction | None:
    """tr K + d delta if Herm K + delta I - q_x rho_x is proved positive definite for every x, else None."""
    k, eye = rational(k), identity(ensemble.dim)
    for q, rho in zip(ensemble.priors.tolist(), ensemble.matrices):
        if not positive_definite(combine((1, k), (delta, eye), (-q, rational(rho)))):
            return None
    return trace(k) + ensemble.dim * Fraction(delta)


def lower_bound(ensemble, elements, eta: float, s: float, theta: float) -> Fraction | None:
    """The value bound of the POVM built from M'_x = Herm M_x + eta I (module docstring), or None if unproved."""
    eye = identity(ensemble.dim)
    shifted = [combine((1, rational(m)), (eta, eye)) for m in elements]
    remainder = combine((s, eye), *((-1, m) for m in shifted))
    rho_0 = rational(ensemble.matrices[0])
    if not all(map(positive_definite, shifted + [remainder, combine((1, rho_0), (theta, eye))])):
        return None
    value = sum(Fraction(q) * inner(rational(rho), m) for q, rho, m in zip(ensemble.priors.tolist(), ensemble.matrices, shifted))
    return (value - Fraction(ensemble.priors[0]) * Fraction(theta) * trace(remainder)) / Fraction(s)


def value_interval(ensemble, result) -> tuple[Fraction, Fraction] | None:
    """A proved (lower, upper) for the guessing probability from a solve's POVM and K; None if a side is unproved."""
    elements = result.povm.elements
    eta = shift(np.linalg.eigvalsh(elements)[:, 0])
    total = np.linalg.eigvalsh(elements.sum(axis=0))[-1] + len(elements) * eta
    s = 1.0 + max(0.0, total - 1.0) * 1.01 + PAD
    theta = shift(np.linalg.eigvalsh(ensemble.matrices[0])[0])
    lower = lower_bound(ensemble, elements, eta, s, theta)
    upper = upper_bound(ensemble, result.certificate.k_operator, shift(result.certificate.dual_feasibility))
    return None if lower is None or upper is None else (lower, upper)

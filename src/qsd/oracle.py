"""Exact qubit reference: an independent check on the iterative solver.

For qubits the dual problem min tr K subject to K >= q_x rho_x is solved in
closed form.  Write K = (P I + v.sigma) / 2 and rho_x = (I + r_x.sigma) / 2:
K - q_x rho_x is PSD exactly when P - q_x >= |v - q_x r_x|, so

    P_guess = min_v max_x (q_x + |v - q_x r_x|),

the radius of the smallest ball enclosing the balls B(q_x r_x, q_x).  This is
the no-signaling geometry of the problem: the optimal K, normalized, is the
one state that every weighted state q_x rho_x meets with a complementary
state.  The optimal v is either the centre of one ball or lies in the
affine hull of the centres of a support set of two to four balls, all
tangent to the enclosing ball.  Every such set is solved exactly, and the
candidate centre with the smallest covering radius is returned together
with its K.  Any N is handled; the number of sets grows as N^4.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import QsdError, StateEnsemble

# A support set has at most dim(R^3) + 1 members.
MAX_SUPPORT = 4
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class UnsupportedDimension(QsdError):
    """The exact reference only handles qubit ensembles."""


def oracle_grid(ensemble: StateEnsemble) -> float:
    """Exact optimal guessing probability of a qubit ensemble, for any N.

    The value is tr K of the dual operator returned by qubit_optimum, which
    satisfies K >= q_x rho_x for every x up to rounding: it certifies the
    optimum from above, and the enclosing-ball construction makes it exact.
    """
    return qubit_optimum(ensemble)[0]


def qubit_optimum(ensemble: StateEnsemble) -> tuple[float, np.ndarray]:
    """(P_guess, K): the optimal value and a dual operator attaining it.

    K = (P I + v.sigma) / 2 with v the centre of the smallest ball enclosing
    the balls B(q_x r_x, q_x); tr K = P.
    """
    if ensemble.dim != 2:
        raise UnsupportedDimension(f"exact reference requires qubits, got dimension {ensemble.dim}")
    radii = ensemble.priors
    centres = radii[:, None] * np.stack([bloch_vector(s.matrix) for s in ensemble.states])
    candidates = [centres]
    for size in range(2, min(MAX_SUPPORT, len(radii)) + 1):
        subsets = np.array(list(combinations(range(len(radii)), size)))
        candidates.append(_tangent_centres(centres[subsets], radii[subsets]))
    v = np.concatenate(candidates)
    v = v[np.isfinite(v).all(axis=1)]
    # Every candidate centre yields a valid K with its own covering radius;
    # the optimal support set's centre attains the minimum.
    cover = (radii + np.linalg.norm(v[:, None, :] - centres[None, :, :], axis=-1)).max(axis=1)
    best = int(np.argmin(cover))
    value = float(cover[best])
    k = 0.5 * (value * np.eye(2) + np.einsum("a,aij->ij", v[best], PAULI))
    return value, k


def _tangent_centres(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Centres v tangent to every ball of each support set, two roots per set.

    c is (m, k, 3) and s (m, k).  With v = c_0 + u and u in the span of the
    differences d_i = c_i - c_0, the conditions |v - c_i| = R - s_i reduce to
    the linear system u.d_i = (|d_i|^2 - s_i^2 + s_0^2) / 2 + R (s_i - s_0)
    and the quadratic |u|^2 = (R - s_0)^2 in R.  Degenerate sets give
    spurious or non-finite centres; the caller's covering radius discards
    them.
    """
    d = c[:, 1:] - c[:, :1]
    alpha = 0.5 * ((d**2).sum(axis=-1) - s[:, 1:] ** 2 + s[:, :1] ** 2)
    beta = s[:, 1:] - s[:, :1]
    dt = np.linalg.pinv(d @ d.swapaxes(-1, -2)) @ d  # (m, k-1, 3)
    u0 = np.einsum("mi,mia->ma", alpha, dt)
    u1 = np.einsum("mi,mia->ma", beta, dt)
    s0 = s[:, 0]
    # a R^2 + 2 h R + c0 = 0, solved in the cancellation-free form.
    a = (u1**2).sum(axis=-1) - 1.0
    h = (u0 * u1).sum(axis=-1) + s0
    c0 = (u0**2).sum(axis=-1) - s0**2
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(h + np.copysign(np.sqrt(np.maximum(h * h - a * c0, 0.0)), h))
        roots = np.stack([q / a, c0 / q], axis=1)  # (m, 2)
        v = c[:, :1] + u0[:, None, :] + roots[..., None] * u1[:, None, :]
    return v.reshape(-1, 3)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) Bloch components of a qubit operator's traceless part."""
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )

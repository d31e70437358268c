"""Seeded random states, ensembles and measurements for tests and experiments."""

from __future__ import annotations

import numpy as np

from .core import DensityMatrix, Povm, StateEnsemble, hermitian_part, make_ensemble, psd_sqrt_pinv, validate_density


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def ginibre(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g


def _ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """G G^dagger / tr(G G^dagger) for a dim x rank Ginibre matrix G, not yet validated."""
    g = ginibre(rng, dim, rank)
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_density(seed_or_rng, dim: int, rank: int | None = None) -> DensityMatrix:
    """Random mixed state from the Ginibre ensemble (full rank by default)."""
    return validate_density(_ginibre_state(_rng(seed_or_rng), dim, rank or dim))


def random_pure(seed_or_rng, dim: int) -> DensityMatrix:
    """Haar-random pure state as a density matrix."""
    return random_density(seed_or_rng, dim, rank=1)


def random_priors(seed_or_rng, n: int) -> np.ndarray:
    """Uniform sample from the probability simplex."""
    rng = _rng(seed_or_rng)
    e = rng.exponential(size=n)
    return e / e.sum()


def random_ensemble(seed_or_rng, n: int, dim: int, pure: bool = False) -> StateEnsemble:
    """n random pure or full-rank mixed states of dimension dim with random priors.

    The states are drawn as random_pure or random_density draws them, and
    validated as one stack by make_ensemble.
    """
    rng = _rng(seed_or_rng)
    states = [_ginibre_state(rng, dim, 1 if pure else dim) for _ in range(n)]
    return make_ensemble(random_priors(rng, n), states)


def random_povm(seed_or_rng, n: int, dim: int) -> Povm:
    """Random n-outcome POVM: Ginibre PSD elements symmetrically renormalized."""
    rng = _rng(seed_or_rng)
    g = np.array([ginibre(rng, dim, dim) for _ in range(n)])
    raw = g @ g.conj().swapaxes(-1, -2)
    inv_sqrt = psd_sqrt_pinv(raw.sum(axis=0))
    return Povm(elements=hermitian_part(inv_sqrt @ raw @ inv_sqrt))


def bloch_plane_state(theta: float, mixing: float = 0.0) -> DensityMatrix:
    """Qubit state with Bloch vector at angle theta in the X-Z plane.

    mixing in [0, 1) blends toward the maximally mixed state.
    """
    v = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)
    rho = (1.0 - mixing) * np.outer(v, v.conj()) + mixing * np.eye(2) / 2.0
    return validate_density(rho)


def random_planar_qubit_ensemble(seed_or_rng, n: int, max_mixing: float = 0.5) -> StateEnsemble:
    """Ensemble of qubit states with coplanar (X-Z) Bloch vectors."""
    rng = _rng(seed_or_rng)
    states = [
        bloch_plane_state(float(rng.uniform(0.0, 2.0 * np.pi)), float(rng.uniform(0.0, max_mixing)))
        for _ in range(n)
    ]
    return make_ensemble(random_priors(rng, n), states)

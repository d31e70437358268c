"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import make_ensemble
from qsd.rand import random_ensemble


def ket(*amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def projector(*amplitudes) -> np.ndarray:
    v = ket(*amplitudes)
    return np.outer(v, v.conj())


def trine_states() -> list[np.ndarray]:
    """Three symmetric pure qubit states at Bloch angles 0, 120, 240 degrees."""
    states = []
    for k in range(3):
        angle = 2.0 * np.pi * k / 3.0
        states.append(projector(np.cos(angle / 2.0), np.sin(angle / 2.0)))
    return states


def tetrahedron_states(angle: float = 0.0) -> list[np.ndarray]:
    """Four pure qubit states at the corners of a regular tetrahedron, turned by angle about Z."""
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return [(np.eye(2) + np.einsum("a,aij->ij", turn @ r, pauli)) / 2 for r in corners]


@pytest.fixture(scope="session")
def trine_ensemble():
    return make_ensemble([1.0 / 3.0] * 3, trine_states())


@pytest.fixture(scope="session")
def zero_plus_ensemble():
    """Equal-prior |0> vs |+>: the standard nonorthogonal two-state instance."""
    return make_ensemble([0.5, 0.5], [projector(1, 0), projector(1, 1)])


@pytest.fixture(scope="session")
def orthogonal_ensemble():
    return make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])


def orthogonal_instance(n: int, rng=None):
    """n mutually orthogonal pure states in dimension n with random priors."""
    rng = rng or np.random.default_rng(0)
    priors = rng.exponential(size=n)
    priors /= priors.sum()
    states = [np.diag([1.0 if i == x else 0.0 for i in range(n)]).astype(complex) for x in range(n)]
    return make_ensemble(priors, states)


def corpus_ensembles(seed: int, count: int = 200):
    """The acceptance corpus's draw order: N in 2..6, d in {2, 3, 4}, pure or mixed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([2, 3, 4]))
        yield random_ensemble(rng, n, d, pure=bool(rng.integers(2)))


def corpus_member(seed: int, index: int):
    """The index-th instance of corpus_ensembles(seed)."""
    return next(e for i, e in enumerate(corpus_ensembles(seed)) if i == index)

"""Exact qubit reference against closed forms and the solver."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import UnsupportedDimension, helstrom, make_ensemble, oracle_grid, solve
from qsd.oracle import qubit_optimum
from qsd.rand import bloch_plane_state, random_ensemble, random_planar_qubit_ensemble

from .conftest import projector, tetrahedron_states, trine_states


def test_orthogonal_pair():
    ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
    assert oracle_grid(ensemble) == pytest.approx(1.0, abs=1e-12)


def test_zero_plus(zero_plus_ensemble):
    assert oracle_grid(zero_plus_ensemble) == pytest.approx(0.5 * (1.0 + np.sqrt(0.5)), abs=1e-12)


def test_trine(trine_ensemble):
    assert oracle_grid(trine_ensemble) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rejects_qutrits():
    rng = np.random.default_rng(40)
    with pytest.raises(UnsupportedDimension):
        oracle_grid(random_ensemble(rng, 2, 3))


def test_two_state_tracks_helstrom():
    rng = np.random.default_rng(42)
    for _ in range(5):
        ensemble = random_ensemble(rng, 2, 2, pure=bool(rng.integers(2)))
        assert abs(oracle_grid(ensemble) - helstrom(ensemble).value) <= 1e-9


def test_three_state_planar_tracks_solver():
    rng = np.random.default_rng(43)
    for _ in range(3):
        ensemble = random_planar_qubit_ensemble(rng, 3)
        result = solve(ensemble)
        assert result.converged
        assert abs(oracle_grid(ensemble) - result.guess_probability) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_agrees_with_solver_for_any_number_of_states(n):
    rng = np.random.default_rng(4400 + n)
    for ensemble in (
        random_ensemble(rng, n, 2, pure=True),
        random_ensemble(rng, n, 2),
        random_planar_qubit_ensemble(rng, n),
    ):
        result = solve(ensemble)
        assert result.converged
        assert abs(oracle_grid(ensemble) - result.guess_probability) <= 1e-9


def _hostile_cases():
    trine = trine_states()
    diagonal = [np.diag([p, 1.0 - p]) for p in (0.9, 0.6, 0.2)]
    return {
        "duplicate-states": (make_ensemble([0.2, 0.2, 0.3, 0.3], trine[:2] + trine[1:]), None),
        "zero-prior": (
            make_ensemble([0.5, 0.0, 0.5], [projector(1, 0), projector(1, 1j), projector(1, 1)]),
            0.5 * (1.0 + np.sqrt(0.5)),
        ),
        "maximally-mixed": (make_ensemble([0.3, 0.3, 0.4], trine[:2] + [np.eye(2) / 2]), None),
        "orthogonal-pair": (make_ensemble([0.7, 0.3], [projector(1, 0), projector(0, 1)]), 1.0),
        # Commuting states: the optimum is classical, sum_i max_x q_x rho_x(i, i).
        "collinear-bloch": (make_ensemble([0.3, 0.3, 0.4], diagonal), 0.3 * 0.9 + 0.4 * 0.8),
        # Only the four-ball support set reaches the centre v = 0.
        "tetrahedron": (make_ensemble([0.25] * 4, tetrahedron_states()), 0.5),
        "collinear-planar": (
            make_ensemble([0.25, 0.25, 0.5], [bloch_plane_state(1.0, m) for m in (0.0, 0.3, 0.6)]),
            None,
        ),
    }


@pytest.mark.parametrize("case", sorted(_hostile_cases()))
def test_hostile_qubit_cases(case):
    ensemble, exact = _hostile_cases()[case]
    result = solve(ensemble)
    assert result.converged
    value = oracle_grid(ensemble)
    assert abs(value - result.guess_probability) <= 1e-9
    if exact is not None:
        assert value == pytest.approx(exact, abs=1e-12)


def test_dual_operator_certifies_the_value(trine_ensemble):
    rng = np.random.default_rng(45)
    ensembles = [trine_ensemble] + [ensemble for ensemble, _ in _hostile_cases().values()]
    ensembles += [random_ensemble(rng, int(rng.integers(2, 9)), 2, pure=bool(rng.integers(2))) for _ in range(10)]
    for ensemble in ensembles:
        value, k = qubit_optimum(ensemble)
        assert float(np.trace(k).real) == pytest.approx(value, abs=1e-15)
        for q, state in zip(ensemble.priors, ensemble.states):
            assert np.linalg.eigvalsh(k - q * state.matrix).min() >= -1e-12

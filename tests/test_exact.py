"""The exact referee (tests/exact.py): a proved value interval for every solve it can afford.

It runs on the acceptance corpus and on the hostile cases up to d = 16; the
two d = 32 cases take about 0.8 s each to prove and are left out.  Each
interval must hold its solve's guess_probability and be no wider than
2 d tol, and the exact references must lie in it.

Two families have a closed-form optimum at d >= 3.  Qubit ensembles on
orthogonal 2 x 2 blocks, hidden by one unitary, are optimal block by block:
P* = sum_b t_b P_b with P_b the block's exact qubit optimum; five of them
with 9-16 blocks (d 18-32) are checked against P* alone.  Symmetric pure
states U^j |psi> with equal priors are optimally measured by the
square-root measurement (Ban, Kurokawa, Momose & Hirota, Int. J. Theor.
Phys. 36, 1269, 1997).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qsd import SolverOptions, helstrom, make_ensemble, solve
from qsd.oracle import qubit_optimum
from qsd.rand import ginibre, random_ensemble, random_priors

from . import exact
from .conftest import corpus_ensembles
from .test_hostile import CASES, CASE_IDS, TAIL, solved_case

TOL = SolverOptions().kkt_tolerance
# The hostile cases up to d = 16: the d = 32 kinds take about 0.8 s each to prove.
REFEREED = [(case, name) for case, name in zip(CASES, CASE_IDS) if not case[0].startswith("d32-")]


@pytest.fixture(scope="module")
def corpus():
    """The acceptance corpus, each instance with its solve and its proved interval."""
    solved = [(ensemble, solve(ensemble)) for ensemble in corpus_ensembles(20260101)]
    return [(ensemble, result, exact.value_interval(ensemble, result)) for ensemble, result in solved]


def assert_refereed(ensemble, result, interval):
    assert result.converged
    assert interval is not None, "interval not proved"
    lower, upper = interval
    assert lower <= Fraction(result.guess_probability) <= upper
    assert upper - lower <= 2 * ensemble.dim * TOL


def test_every_acceptance_interval_is_proved_narrow_and_holds_the_value(corpus):
    assert len(corpus) == 200
    for ensemble, result, interval in corpus:
        assert_refereed(ensemble, result, interval)


@pytest.mark.parametrize("kind,index", [case for case, _ in REFEREED], ids=[name for _, name in REFEREED])
def test_hostile_interval_is_proved_narrow_and_holds_the_value(kind, index):
    ensemble, result = solved_case(kind, index)
    assert_refereed(ensemble, result, exact.value_interval(ensemble, result))


@pytest.mark.parametrize("name", TAIL)
def test_tail_interval_is_proved_narrow_and_holds_the_value(name):
    ensemble = TAIL[name][0]()
    result = solve(ensemble)
    assert_refereed(ensemble, result, exact.value_interval(ensemble, result))


def test_intervals_hold_the_exact_references(corpus):
    # Helstrom for two states, the smallest enclosing ball for qubits.
    pairs = qubits = 0
    for ensemble, _, (lower, upper) in corpus:
        references = []
        if len(ensemble) == 2:
            references.append(helstrom(ensemble).value)
            pairs += 1
        if ensemble.dim == 2:
            references.append(qubit_optimum(ensemble)[0])
            qubits += 1
        for value in references:
            assert lower - Fraction(1e-12) <= Fraction(value) <= upper + Fraction(1e-12)
    assert pairs > 20 and qubits > 50


def test_lowered_dual_operator_is_not_proved_feasible(corpus):
    # K - 10 tol I has trace below the solved value, so it cannot be
    # dual-feasible; the shift K's own residuals propose must not rescue it.
    for ensemble, result, _ in corpus[::10]:
        certificate = result.certificate
        delta = exact.shift(certificate.dual_feasibility)
        lowered = certificate.k_operator - 10 * TOL * np.eye(ensemble.dim)
        assert np.trace(lowered).real + ensemble.dim * delta < result.guess_probability
        assert exact.upper_bound(ensemble, certificate.k_operator, delta) is not None
        assert exact.upper_bound(ensemble, lowered, delta) is None


def test_enlarged_elements_are_not_proved_a_measurement(corpus):
    # Elements scaled by 1 + 10 tol sum past s I for an s that proves the
    # solved elements; the exact remainder check must refuse them.
    for ensemble, result, _ in corpus[::10]:
        elements = result.povm.elements
        eta = exact.shift(np.linalg.eigvalsh(elements)[:, 0])
        theta = exact.shift(np.linalg.eigvalsh(ensemble.matrices[0])[0])
        s = 1 + TOL
        assert exact.lower_bound(ensemble, elements, eta, s, theta) is not None
        assert exact.lower_bound(ensemble, elements * (1 + 10 * TOL), eta, s, theta) is None


def test_positive_definite_decides_exactly():
    # det [[1, i], [-i, 1 + 2^-52]] = 2^-52: definite, by a margin below
    # what a float eigenvalue resolves; without the 2^-52 it is singular.
    near = np.array([[1.0, 1j], [-1j, 1.0 + 2.0**-52]])
    assert exact.positive_definite(exact.rational(near))
    assert not exact.positive_definite(exact.rational(near - np.diag([0.0, 2.0**-52])))
    assert exact.positive_definite(exact.rational(np.diag([1.0, 2.0**-1074])))
    assert not exact.positive_definite(exact.rational(np.diag([1.0, 0.0])))


def test_positive_definite_agrees_with_clear_float_spectra():
    rng = np.random.default_rng(5)
    for d in (3, 6, 9):
        for margin in (-0.1, 0.1):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = g + g.conj().T
            h += (margin - np.linalg.eigvalsh(h)[0]) * np.eye(d)
            assert exact.positive_definite(exact.rational(h)) == (margin > 0)


def block_instance(seed: int, blocks: tuple[int, int] = (2, 8)):
    """(ensemble, P*): k qubit ensembles, k drawn from the inclusive range blocks, on orthogonal 2 x 2 blocks of d = 2k, hidden by one Haar unitary.

    Block b holds 2-5 pure or mixed qubit states with priors q_{b,x} and has
    weight t_b; the instance's priors are t_b q_{b,x}.  Measuring the block
    first loses nothing, and K = sum_b t_b K_b is dual-feasible with that
    trace, so P* = sum_b t_b P_b.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(blocks[0], blocks[1] + 1))
    blocks = [random_ensemble(rng, int(rng.integers(2, 6)), 2, pure=bool(rng.integers(2))) for _ in range(k)]
    weights = random_priors(rng, k)
    d = 2 * k
    q, r = np.linalg.qr(ginibre(rng, d, d))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    priors, states = [], []
    for b, (t, block) in enumerate(zip(weights, blocks)):
        for prior, rho in zip(block.priors, block.matrices):
            embedded = np.zeros((d, d), dtype=complex)
            embedded[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rho
            priors.append(t * prior)
            states.append(u @ embedded @ u.conj().T)
    return make_ensemble(priors, states), sum(t * qubit_optimum(block)[0] for t, block in zip(weights, blocks))


# Drawn with 9-16 blocks: d = 32, 28, 30, 32 and 20, 14-32 iterations and
# about 0.8 s of solves together.  The exact interval would cost 1-5 s a
# solve at d = 32.
LARGE_BLOCK_SEEDS = (3201, 3206, 3212, 3213, 3219)


@pytest.mark.parametrize("seed", [*range(2400, 2430), *LARGE_BLOCK_SEEDS])
def test_block_instance_value_is_the_sum_of_its_qubit_optima(seed):
    ensemble, optimum = block_instance(seed, (9, 16) if seed in LARGE_BLOCK_SEEDS else (2, 8))
    result = solve(ensemble)
    assert result.converged
    assert abs(result.guess_probability - optimum) <= 2 * ensemble.dim * TOL
    if ensemble.dim <= 8:
        lower, upper = exact.value_interval(ensemble, result)
        assert lower - Fraction(1e-12) <= Fraction(optimum) <= upper + Fraction(1e-12)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 5), (4, 4), (4, 6), (8, 12), (16, 7), (16, 24), (32, 48), (32, 16)])
def test_symmetric_pure_states_take_the_square_root_measurement_value(d, n):
    # psi_j = U^j psi with U = diag(exp(2 pi i k_m / n)).  The Gram matrix is
    # circulant with eigenvalues lambda_r = n sum_{m: k_m = r} |psi_m|^2, and
    # the square-root measurement, optimal here, guesses with (sum_r sqrt(lambda_r))^2 / n^2.
    rng = np.random.default_rng(100 * d + n)
    psi = ginibre(rng, d, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    k = rng.integers(0, n, size=d)
    states = [np.outer(v, v.conj()) for v in (np.exp(2j * np.pi * k * j / n) * psi for j in range(n))]
    eigenvalues = n * np.bincount(k, weights=np.abs(psi) ** 2, minlength=n)
    result = solve(make_ensemble([1 / n] * n, states))
    assert result.converged
    # The first step from the uniform POVM is the square-root measurement.
    assert result.iterations == 1
    assert abs(result.guess_probability - np.sqrt(eigenvalues).sum() ** 2 / n**2) <= 1e-12

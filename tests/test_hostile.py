"""Seeded hostile corpus: every instance must converge to a certified optimum.

"Converged" promises every KKT residual, the primal one included, within
1e-9.  The corpus targets the inputs where that promise is hardest to keep:
rank-deficient states, zero and 1e-12 priors, duplicate states, states
confined to a common subspace (so G is rank-deficient), many states on a
qubit, and dimensions 16 and 32.  The tail instances are those where an
optimal element vanishes while lambda_min(K - q_x rho_x) is barely positive,
which the plain accelerated map approaches only sublinearly.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from qsd import kkt_check, make_ensemble, solve
from qsd.rand import random_density, random_ensemble, random_priors, random_pure

from .conftest import corpus_member

TOL = 1e-9


def _rank_deficient(rng):
    d = int(rng.choice([3, 4]))
    ranks = rng.integers(1, d, size=int(rng.integers(2, 6)))
    return make_ensemble(random_priors(rng, len(ranks)), [random_density(rng, d, rank=int(r)) for r in ranks])


def _zero_prior(rng):
    ensemble = random_ensemble(rng, 4, 3, pure=bool(rng.integers(2)))
    priors = np.append(random_priors(rng, 3), 0.0)
    return make_ensemble(priors, [s.matrix for s in ensemble.states])


def _tiny_prior(rng):
    ensemble = random_ensemble(rng, 4, 3, pure=bool(rng.integers(2)))
    priors = random_priors(rng, 3)
    priors[0] -= 1e-12
    return make_ensemble(np.append(priors, 1e-12), [s.matrix for s in ensemble.states])


def _duplicates(rng):
    rho, other = random_density(rng, 3), random_pure(rng, 3)
    return make_ensemble(random_priors(rng, 4), [rho, rho, other, rho])


def _common_subspace(rng):
    # Mixed qutrit states embedded in d = 5 by a random isometry: every state,
    # and so G, lives on the same 3-dimensional subspace.
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    isometry, _ = np.linalg.qr(g)
    n = int(rng.integers(2, 5))
    states = [isometry @ random_density(rng, 3).matrix @ isometry.conj().T for _ in range(n)]
    return make_ensemble(random_priors(rng, n), states)


def _random(n, d, pure):
    return lambda rng: random_ensemble(rng, n, d, pure=pure)


KINDS = {
    "rank-deficient": (_rank_deficient, 5),
    "zero-prior": (_zero_prior, 3),
    "1e-12-prior": (_tiny_prior, 3),
    "duplicate-states": (_duplicates, 3),
    "common-subspace": (_common_subspace, 4),
    "n12-d2-pure": (_random(12, 2, True), 2),
    "n12-d2-mixed": (_random(12, 2, False), 2),
    "d16-mixed": (_random(4, 16, False), 2),
    "d16-pure": (_random(6, 16, True), 2),
    "d32-mixed": (_random(3, 32, False), 1),
    "d32-pure": (_random(4, 32, True), 1),
}
CASES = [(kind, i) for kind, (_, count) in KINDS.items() for i in range(count)]


CASE_IDS = [f"{kind}-{i}" for kind, i in CASES]


@functools.cache
def solved_case(kind, index):
    """The hostile instance (kind, index) and its solve, shared by every test that reads them."""
    rng = np.random.default_rng([7000 + list(KINDS).index(kind), index])
    ensemble = KINDS[kind][0](rng)
    return ensemble, solve(ensemble)


@pytest.mark.parametrize("kind,index", CASES, ids=CASE_IDS)
def test_hostile_instance_converges_with_every_residual_within_tolerance(kind, index):
    ensemble, result = solved_case(kind, index)
    assert result.converged, (kind, index, result.iterations, result.report)
    report = kkt_check(ensemble, result.povm, result.certificate.k_operator)
    assert report == result.report
    for field in ("primal_residual", "dual_residual", "slackness_residual", "gap"):
        assert abs(getattr(report, field)) <= TOL, (kind, index, field, getattr(report, field))


@pytest.mark.parametrize("kind,index", CASES, ids=CASE_IDS)
def test_hostile_gap_is_round_off(kind, index):
    # The iteration's stop rule leaves the gap out because K is built from the iterate.
    ensemble, result = solved_case(kind, index)
    assert abs(result.report.gap) <= len(ensemble) * ensemble.dim**2 * np.finfo(float).eps


def _files_n8_d8():
    # The benchmark's generated N = 8, d = 8 file instance, drawn after its 4 x 4 one.
    rng = np.random.default_rng(20260101)
    random_ensemble(rng, 4, 4)
    return random_ensemble(rng, 8, 8)


# name: (instance, (N, d)).  Without the active-set step seed 1 #35 runs out of
# the 10000-iteration budget, seed 5 #37 takes 2193 iterations and the N = 8
# instance 252.
TAIL = {
    "corpus-seed1-35": (lambda: corpus_member(1, 35), (5, 3)),
    "corpus-seed5-37": (lambda: corpus_member(5, 37), (4, 3)),
    "files-gen-n8-d8": (_files_n8_d8, (8, 8)),
}


@pytest.mark.parametrize("name", TAIL)
def test_vanishing_element_instance_converges_quickly(name):
    build, shape = TAIL[name]
    ensemble = build()
    assert (len(ensemble), ensemble.dim) == shape
    result = solve(ensemble)
    assert result.converged, (name, result.iterations, result.report)
    assert result.iterations <= 100, (name, result.iterations)
    for field in ("primal_residual", "dual_residual", "slackness_residual", "gap"):
        assert abs(getattr(result.report, field)) <= TOL, (name, field, getattr(result.report, field))

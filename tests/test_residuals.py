"""The stacked KKT residual routine against a plain per-matrix loop.

kkt_check and certificate_from_povm evaluate every state at once on
(N, d, d) stacks.  The loop below is the reference: one matrix at a time, in
the textbook order.  Summation order differs between the two, so they must
agree to an absolute tolerance fixed beforehand from complex128 rounding at
d <= 16 (operators of norm <= 1: about d * 1e-16 per trace or eigenvalue).
"""

from __future__ import annotations

import numpy as np
import pytest

from qsd import (
    DimensionMismatch,
    NotHermitian,
    Povm,
    certificate_from_povm,
    kkt_check,
    make_ensemble,
    validate_povm,
)
from qsd.rand import random_density, random_ensemble, random_povm, random_pure

TOL = 1e-12


def reference(ensemble, elements, k) -> dict:
    """Per-matrix loop of every residual kkt_check and the certificate report."""
    d = ensemble.dim
    herm = max(float(np.abs(m - m.conj().T).max()) for m in elements)
    neg = max(max(0.0, -float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())) for m in elements)
    comp = float(np.abs(sum(elements) - np.eye(d)).max())
    slackness, feasibility = [], []
    objective = 0.0
    for x, m in enumerate(elements):
        w = ensemble.priors[x] * ensemble.states[x].matrix
        sigma = k - w
        slackness.append(float(np.trace(sigma @ m).real))
        feasibility.append(float(np.linalg.eigvalsh(sigma).min()))
        objective += float(np.trace(w @ m).real)
    return {
        "primal": max(herm, neg, comp),
        "dual": max(0.0, -min(feasibility)),
        "slackness": max(abs(s) for s in slackness),
        "gap": float(k.trace().real) - objective,
        "per_state_slackness": slackness,
        "per_state_feasibility": feasibility,
    }


def reference_k(ensemble, elements) -> np.ndarray:
    r = sum(ensemble.priors[x] * ensemble.states[x].matrix @ m for x, m in enumerate(elements))
    return 0.5 * (r + r.conj().T)


def _case_zero_prior(rng):
    states = [random_density(rng, 3) for _ in range(3)]
    return make_ensemble([0.5, 0.5, 0.0], states), random_povm(rng, 3, 3).elements


def _case_tiny_prior(rng):
    states = [random_density(rng, 3) for _ in range(3)]
    return make_ensemble([0.4, 0.6 - 1e-12, 1e-12], states), random_povm(rng, 3, 3).elements


def _case_duplicate_states(rng):
    rho = random_density(rng, 3)
    return make_ensemble([0.25, 0.25, 0.5], [rho, rho, random_pure(rng, 3)]), random_povm(rng, 3, 3).elements


def _case_rank_deficient(rng):
    states = [random_density(rng, 4, rank=r) for r in (1, 2, 3, 2)]
    return make_ensemble([0.1, 0.2, 0.3, 0.4], states), random_povm(rng, 4, 4).elements


def _case_many_qubit_states(rng):
    return random_ensemble(rng, 12, 2), random_povm(rng, 12, 2).elements


def _case_dimension_16(rng):
    return random_ensemble(rng, 3, 16), random_povm(rng, 3, 16).elements


def _case_unvalidated_povm(rng):
    # The kind of POVM certify decodes from a report: non-Hermitian, slightly
    # negative and incomplete.
    ensemble = random_ensemble(rng, 4, 3)
    noise = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    elements = tuple(m + 1e-3 * z for m, z in zip(random_povm(rng, 4, 3).elements, noise))
    return ensemble, elements


CASES = {
    "zero-prior": _case_zero_prior,
    "1e-12-prior": _case_tiny_prior,
    "duplicate-states": _case_duplicate_states,
    "rank-deficient": _case_rank_deficient,
    "n12-d2": _case_many_qubit_states,
    "d16": _case_dimension_16,
    "unvalidated-povm": _case_unvalidated_povm,
}


def _dual_operators(rng, ensemble, elements):
    """The POVM's own K and a perturbed K, which is dual infeasible and not tight."""
    own = reference_k(ensemble, elements)
    d = ensemble.dim
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return {"own": own, "perturbed": own + 0.01 * (z + z.conj().T)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kkt_check_matches_reference_loop(case):
    rng = np.random.default_rng(sorted(CASES).index(case) + 400)
    ensemble, elements = CASES[case](rng)
    povm = Povm(elements=tuple(elements))
    for label, k in _dual_operators(rng, ensemble, elements).items():
        expected = reference(ensemble, elements, k)
        report = kkt_check(ensemble, povm, k)
        for field in ("primal", "dual", "slackness", "gap"):
            got = getattr(report, field if field == "gap" else f"{field}_residual")
            assert abs(got - expected[field]) <= TOL, (case, label, field, got, expected[field])


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_matches_reference_loop(case):
    rng = np.random.default_rng(sorted(CASES).index(case) + 500)
    ensemble, elements = CASES[case](rng)
    povm = Povm(elements=tuple(elements))
    k_operator = certificate_from_povm(ensemble, povm).k_operator
    np.testing.assert_allclose(k_operator, reference_k(ensemble, elements), rtol=0, atol=TOL)
    for label, k in _dual_operators(rng, ensemble, elements).items():
        expected = reference(ensemble, elements, k)
        certificate = certificate_from_povm(ensemble, povm, k)
        np.testing.assert_array_equal(certificate.k_operator, k)
        np.testing.assert_allclose(certificate.slackness, expected["per_state_slackness"], rtol=0, atol=TOL)
        np.testing.assert_allclose(certificate.dual_feasibility, expected["per_state_feasibility"], rtol=0, atol=TOL)
        assert certificate.trace_k == float(k.trace().real), label


def test_default_certificate_uses_the_povm_dual_operator():
    rng = np.random.default_rng(600)
    ensemble = random_ensemble(rng, 5, 3)
    povm = validate_povm(random_povm(rng, 5, 3).elements)
    a = certificate_from_povm(ensemble, povm)
    np.testing.assert_allclose(a.k_operator, reference_k(ensemble, povm.elements), rtol=0, atol=TOL)
    b = certificate_from_povm(ensemble, povm, a.k_operator)
    np.testing.assert_array_equal(a.k_operator, b.k_operator)
    np.testing.assert_array_equal(a.slackness, b.slackness)
    np.testing.assert_array_equal(a.dual_feasibility, b.dual_feasibility)


def test_per_state_certificate_fields_are_read_only_float_arrays():
    ensemble = random_ensemble(601, 4, 3)
    certificate = certificate_from_povm(ensemble, random_povm(602, 4, 3))
    for values in (certificate.slackness, certificate.dual_feasibility):
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.shape == (4,)
        assert not values.flags.writeable


@pytest.mark.parametrize("check", [certificate_from_povm, kkt_check])
def test_caller_k_is_checked_and_copied(check):
    ensemble = random_ensemble(603, 3, 2)
    povm = random_povm(604, 3, 2)
    with pytest.raises(DimensionMismatch):
        check(ensemble, povm, np.eye(3))
    with pytest.raises(NotHermitian):
        check(ensemble, povm, np.array([[0.0, 1.0], [0.0, 0.0]]))
    k = certificate_from_povm(ensemble, povm).k_operator.copy()
    result = check(ensemble, povm, k)
    assert k.flags.writeable
    if check is certificate_from_povm:
        assert not np.shares_memory(result.k_operator, k)
        np.testing.assert_array_equal(result.k_operator, k)

"""Identical ensembles, steering probabilities and the no-signaling bound."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import (
    InfeasibleCertificate,
    MalformedStatistics,
    certificate_from_povm,
    decompositions_from_structure,
    detector_nosignaling_check,
    make_ensemble,
    norm_identity_check,
    proposition_bound_check,
    slackness_check,
    solve,
    steering_structure,
    trace_norm,
    validate_povm,
)
from qsd.rand import random_ensemble, random_povm

from .conftest import projector


def structure_of(ensemble):
    result = solve(ensemble)
    assert result.converged
    return result, steering_structure(ensemble, result.certificate)


class TestSteeringStructure:
    def test_orthogonal_pair(self, orthogonal_ensemble):
        result, structure = structure_of(orthogonal_ensemble)
        assert structure.trace_k == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(structure.p, [0.5, 0.5], atol=1e-9)
        assert structure.bound == pytest.approx(1.0, abs=1e-9)

    def test_zero_plus(self, zero_plus_ensemble):
        result, structure = structure_of(zero_plus_ensemble)
        assert structure.trace_k == pytest.approx(0.8535533905932737, abs=1e-8)
        np.testing.assert_allclose(structure.p, [0.5857864376269049] * 2, atol=1e-8)
        assert structure.bound == pytest.approx(0.8535533905932737, abs=1e-8)

    def test_trine(self, trine_ensemble):
        result, structure = structure_of(trine_ensemble)
        np.testing.assert_allclose(structure.p, [0.5] * 3, atol=1e-8)
        assert structure.bound == pytest.approx(2 / 3, abs=1e-8)

    def test_bound_times_sum_p_is_one(self, trine_ensemble):
        _, structure = structure_of(trine_ensemble)
        assert structure.bound * structure.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ensemble_residual_small(self, trine_ensemble):
        _, structure = structure_of(trine_ensemble)
        assert structure.ensemble_residual <= 1e-8

    def test_steering_probabilities_are_probabilities(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            ensemble = random_ensemble(rng, int(rng.integers(2, 6)), int(rng.choice([2, 3])))
            _, structure = structure_of(ensemble)
            assert np.all(structure.p >= 0.0)
            assert np.all(structure.p <= 1.0 + 1e-9)
            assert np.all(structure.complementary_weights >= -1e-9)

    def test_sigma_stacks_are_readonly(self, trine_ensemble):
        result, structure = structure_of(trine_ensemble)
        for sigma in (result.certificate.sigma, structure.sigma):
            assert sigma.shape == (3, 2, 2)
            with pytest.raises(ValueError):
                sigma[0, 0, 0] = 1.0

    def test_infeasible_certificate_rejected(self, trine_ensemble):
        uniform = validate_povm([np.eye(2) / 3] * 3)
        certificate = certificate_from_povm(trine_ensemble, uniform)
        with pytest.raises(InfeasibleCertificate):
            steering_structure(trine_ensemble, certificate)

    def test_dominant_state_has_absent_complementary(self):
        # q1 rho1 = 0.4 I majorizes q2 rho2, so never guessing state 2 is
        # optimal and sigma_1 vanishes.
        ensemble = make_ensemble([0.8, 0.2], [np.eye(2) / 2, projector(1, 1j)])
        result, structure = structure_of(ensemble)
        assert result.guess_probability == pytest.approx(0.8, abs=1e-9)
        assert structure.complementary[0] is None
        assert structure.p[0] == pytest.approx(1.0, abs=1e-9)
        assert structure.complementary[1] is not None
        decompositions = decompositions_from_structure(ensemble, structure)
        assert len(decompositions[0].members) == 1


class TestPropositionBound:
    def test_orthogonal_exact(self, orthogonal_ensemble):
        result, structure = structure_of(orthogonal_ensemble)
        assert abs(proposition_bound_check(structure, result.guess_probability)) <= 1e-12

    def test_zero_plus(self, zero_plus_ensemble):
        result, structure = structure_of(zero_plus_ensemble)
        assert abs(proposition_bound_check(structure, result.guess_probability)) <= 1e-8

    def test_trine(self, trine_ensemble):
        result, structure = structure_of(trine_ensemble)
        assert abs(proposition_bound_check(structure, result.guess_probability)) <= 1e-8


class TestSlackness:
    def test_orthogonal_optimum(self, orthogonal_ensemble):
        result, structure = structure_of(orthogonal_ensemble)
        assert max(abs(s) for s in slackness_check(structure, result.povm)) <= 1e-12

    def test_two_state_optimum(self, zero_plus_ensemble):
        result, structure = structure_of(zero_plus_ensemble)
        assert max(abs(s) for s in slackness_check(structure, result.povm)) <= 1e-9

    def test_uniform_povm_on_trine_leaks(self, trine_ensemble):
        # tr[sigma_x I/3] = (tr K - 1/3) / 3 = 1/9 for the converged certificate.
        _, structure = structure_of(trine_ensemble)
        uniform = validate_povm([np.eye(2) / 3] * 3)
        values = slackness_check(structure, uniform)
        assert max(values) > 0.05
        np.testing.assert_allclose(values, [1 / 9] * 3, atol=1e-7)

    def test_saturation_form(self, trine_ensemble):
        # sum_x p_x tr[rho_x M_x] = 1 at the optimum.
        result, structure = structure_of(trine_ensemble)
        total = sum(
            structure.p[x]
            * float(np.trace(trine_ensemble.states[x].matrix @ result.povm.elements[x]).real)
            for x in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestNormIdentity:
    def test_symmetric_orthogonal_pair(self, orthogonal_ensemble):
        _, structure = structure_of(orthogonal_ensemble)
        assert norm_identity_check(structure, orthogonal_ensemble) <= 1e-12

    def test_zero_plus(self, zero_plus_ensemble):
        _, structure = structure_of(zero_plus_ensemble)
        assert norm_identity_check(structure, zero_plus_ensemble) <= 1e-8

    def test_trine_all_pairs(self, trine_ensemble):
        _, structure = structure_of(trine_ensemble)
        assert norm_identity_check(structure, trine_ensemble) <= 1e-8


class TestDetectorCheck:
    def test_identical_columns_pass(self):
        column = np.array([0.2, 0.5, 0.3])
        table = np.tile(column[:, None], (1, 3))
        total, ok = detector_nosignaling_check(table, 1e-9)
        assert ok and total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_table_passes(self):
        table = np.full((4, 4), 0.25)
        total, ok = detector_nosignaling_check(table, 1e-9)
        assert ok and total == pytest.approx(1.0, abs=1e-12)

    def test_perfect_diagonal_signals(self):
        total, ok = detector_nosignaling_check(np.eye(3), 1e-9)
        assert total == pytest.approx(3.0) and not ok

    def test_malformed_columns(self):
        with pytest.raises(MalformedStatistics):
            detector_nosignaling_check(np.full((2, 2), 0.6), 1e-9)

    def test_born_statistics_of_steered_ensembles_pass(self, trine_ensemble):
        # Any valid detector on the (identical) steered mixtures is safe.
        rng = np.random.default_rng(50)
        _, structure = structure_of(trine_ensemble)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        mixtures = [sum(w * s.matrix for w, s in d.members) for d in decompositions]
        for _ in range(10):
            povm = random_povm(rng, 3, 2)
            table = np.array(
                [[float(np.trace(mix @ m).real) for mix in mixtures] for m in povm.elements]
            )
            total, ok = detector_nosignaling_check(table, 1e-8)
            assert ok

    def test_no_signaling_for_any_povm_on_any_instance(self):
        # sum_x p_x tr[rho_x M_x] <= 1 for every valid POVM, optimal or not.
        rng = np.random.default_rng(51)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            d = int(rng.choice([2, 3]))
            ensemble = random_ensemble(rng, n, d)
            _, structure = structure_of(ensemble)
            for _ in range(100):
                povm = random_povm(rng, n, d)
                total = sum(
                    structure.p[x]
                    * float(np.trace(ensemble.states[x].matrix @ povm.elements[x]).real)
                    for x in range(n)
                )
                assert total <= 1.0 + 1e-8


class TestDecompositions:
    def test_members_mix_to_shared_state(self, trine_ensemble):
        _, structure = structure_of(trine_ensemble)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        for decomposition in decompositions:
            mixture = sum(w * s.matrix for w, s in decomposition.members)
            assert trace_norm(mixture - structure.normalized_k.matrix) <= 1e-8

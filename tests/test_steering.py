"""Purification, remote state preparation and protocol sampling."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import (
    DimensionMismatch,
    MarginalMismatch,
    TargetMismatch,
    UnsteerableWeight,
    decompositions_from_structure,
    ghjw_povm,
    make_decomposition,
    marginal_indistinguishability_check,
    purify,
    simulate_protocol,
    solve,
    steered_states,
    steering_structure,
    trace_norm,
    validate_density,
    validate_povm,
)
from qsd.core import born_table, hermitian_part
from qsd.rand import random_density, random_ensemble
from qsd.steering import mixture_of, pure_components

from .conftest import projector


class TestPurify:
    def test_pure_state_purifies_trivially(self):
        psi = purify(validate_density(projector(1, 0)))
        assert psi.dim_a == 1
        assert psi.coefficients.tolist() == pytest.approx([1.0], abs=1e-12)

    def test_maximally_mixed_qubit(self):
        psi = purify(validate_density(np.eye(2) / 2))
        assert psi.dim_a == 2
        coefficients = psi.coefficients.tolist()
        assert coefficients == pytest.approx([1 / np.sqrt(2)] * 2, abs=1e-12)

    def test_rank_two_qutrit(self):
        psi = purify(validate_density(np.diag([0.7, 0.3, 0.0])))
        assert psi.dim_a == 2
        assert psi.dim_b == 3
        coefficients = psi.coefficients.tolist()
        assert coefficients == pytest.approx([np.sqrt(0.7), np.sqrt(0.3)], abs=1e-12)

    def test_normalization_and_sorted_coefficients(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            rho = random_density(rng, int(rng.integers(2, 5)))
            psi = purify(rho)
            assert float((np.abs(psi.amplitudes) ** 2).sum()) == pytest.approx(1.0, abs=1e-12)
            coefficients = psi.coefficients.tolist()
            assert coefficients == sorted(coefficients, reverse=True)
            assert sum(c**2 for c in coefficients) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_recovers_input(self):
        rng = np.random.default_rng(71)
        for rank in (1, 2, 3):
            rho = random_density(rng, 3, rank=rank)
            psi = purify(rho)
            assert psi.dim_a == rank
            assert trace_norm(psi.marginal_b() - rho.matrix) <= 1e-10


class TestGhjwPovm:
    def test_computational_decomposition_of_mixed_qubit(self):
        target = validate_density(np.eye(2) / 2)
        psi = purify(target)
        decomposition = make_decomposition(
            target, [(0.5, projector(1, 0)), (0.5, projector(0, 1))]
        )
        povm, steers = ghjw_povm(psi, decomposition)
        validate_povm(povm.elements)
        collapsed = steered_states(psi, povm)
        for i, member in enumerate(steers):
            if member < 0:
                continue
            weight, tau = decomposition.members[member]
            prob, sub = collapsed[i]
            assert prob == pytest.approx(weight, abs=1e-9)
            assert trace_norm(sub - weight * tau.matrix) <= 1e-9

    def test_x_basis_decomposition_of_mixed_qubit(self):
        target = validate_density(np.eye(2) / 2)
        psi = purify(target)
        decomposition = make_decomposition(
            target, [(0.5, projector(1, 1)), (0.5, projector(1, -1))]
        )
        povm, steers = ghjw_povm(psi, decomposition)
        for i, member in enumerate(steers):
            if member < 0:
                continue
            weight, tau = decomposition.members[member]
            prob, sub = steered_states(psi, povm)[i]
            assert trace_norm(sub - weight * tau.matrix) <= 1e-9

    def test_certificate_decomposition_of_trine(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        psi = purify(structure.normalized_k)
        decomposition = decompositions_from_structure(trine_ensemble, structure)[0]
        povm, steers = ghjw_povm(psi, decomposition)
        prob, sub = steered_states(psi, povm)[steers.index(0)]
        assert prob == pytest.approx(0.5, abs=1e-8)
        assert trace_norm(sub - 0.5 * trine_ensemble.states[0].matrix) <= 1e-8

    def test_mixed_members_are_steered_whole(self):
        rng = np.random.default_rng(72)
        target = random_density(rng, 3)
        w, v = target.eigensystem()
        part = validate_density((v * w) @ v.conj().T / w.sum())  # same state, roundabout
        decomposition = make_decomposition(target, [(0.6, part), (0.4, part)])
        psi = purify(target)
        povm, steers = ghjw_povm(psi, decomposition)
        for i, member in enumerate(steers):
            if member < 0:
                continue
            weight, tau = decomposition.members[member]
            prob, sub = steered_states(psi, povm)[i]
            assert trace_norm(sub - weight * tau.matrix) <= 1e-9

    def test_marginal_mismatch_rejected(self):
        psi = purify(validate_density(projector(1, 0)))
        other = validate_density(np.eye(2) / 2)
        decomposition = make_decomposition(other, [(1.0, other)])
        with pytest.raises(MarginalMismatch):
            ghjw_povm(psi, decomposition)

    def test_pure_target_trivial_decomposition(self):
        target = validate_density(projector(1, 1j))
        psi = purify(target)
        povm, steers = ghjw_povm(psi, make_decomposition(target, [(1.0, target)]))
        assert len(povm) == 1 and steers == (0,)
        prob, sub = steered_states(psi, povm)[0]
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(sub - target.matrix) <= 1e-12


def ghjw_per_component(state, decomposition):
    """Reference GHJW construction: one rank-one term per pure component of each member.

    An element steering B to sqrt(w) |v> acts on A as w |u><u| with
    u_i = conj(<b_i|v>) / c_i for Schmidt coefficients c_i and vectors b_i.
    """
    grouped = {}
    for weight, vector, member in pure_components(decomposition):
        u = (state.basis_b.conj().T @ vector).conj() / state.coefficients
        grouped[member] = grouped.get(member, 0.0) + weight * np.outer(u, u.conj())
    elements = [hermitian_part(grouped[y]) for y in range(len(decomposition.members))]
    steers_to = list(range(len(elements)))
    completion = np.eye(state.dim_a) - sum(elements)
    if float(np.abs(completion).max()) > 1e-12:
        elements.append(hermitian_part(completion))
        steers_to.append(-1)
    else:
        elements[-1] = hermitian_part(elements[-1] + completion)
    return np.array(elements), tuple(steers_to)


def certificate_decompositions():
    """The certificate decompositions of a mixed N = 4, d = 4 ensemble: 6-8 pure components each."""
    ensemble = random_ensemble(np.random.default_rng(74), 4, 4)
    structure = steering_structure(ensemble, solve(ensemble).certificate)
    decompositions = decompositions_from_structure(ensemble, structure)
    assert all(6 <= len(pure_components(d)) <= 8 for d in decompositions)
    return structure.normalized_k, decompositions


def rank_deficient_decompositions():
    """A rank-2 state on C^4 as a mixture of three mixed states within its support."""
    rng = np.random.default_rng(75)
    isometry = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    weights = rng.dirichlet(np.ones(3))
    members = [validate_density(isometry @ random_density(rng, 2).matrix @ isometry.conj().T) for _ in weights]
    target = validate_density(sum(w * m.matrix for w, m in zip(weights, members)))
    assert purify(target).dim_a == 2
    return target, [make_decomposition(target, zip(weights, members))]


class TestGhjwMatchesPerComponentConstruction:
    @pytest.mark.parametrize("case", [certificate_decompositions, rank_deficient_decompositions])
    def test_elements_and_steering_agree(self, case):
        target, decompositions = case()
        psi = purify(target)
        for decomposition in decompositions:
            povm, steers = ghjw_povm(psi, decomposition)
            expected, expected_steers = ghjw_per_component(psi, decomposition)
            assert steers == expected_steers
            assert float(np.abs(povm.elements - expected).max()) <= 1e-12


class TestMakeDecomposition:
    def test_rejects_weights_not_summing_to_one(self):
        state = validate_density(np.eye(2) / 2)
        with pytest.raises(UnsteerableWeight):
            make_decomposition(state, [(0.7, state), (0.4, state)])

    def test_rejects_nonpositive_weights(self):
        state = validate_density(np.eye(2) / 2)
        with pytest.raises(UnsteerableWeight):
            make_decomposition(state, [(1.2, state), (-0.2, state)])

    def test_rejects_wrong_mixture(self):
        state = validate_density(np.eye(2) / 2)
        with pytest.raises(MarginalMismatch):
            make_decomposition(state, [(1.0, validate_density(projector(1, 0)))])


class TestSimulateProtocol:
    def make_orthogonal_setup(self):
        ensemble_states = [projector(1, 0), projector(0, 1)]
        from qsd import make_ensemble

        ensemble = make_ensemble([0.6, 0.4], ensemble_states)
        result = solve(ensemble)
        structure = steering_structure(ensemble, result.certificate)
        decompositions = decompositions_from_structure(ensemble, structure)
        return ensemble, result, structure, decompositions

    def test_orthogonal_diagonal_matches_steering_probabilities(self):
        _, result, structure, decompositions = self.make_orthogonal_setup()
        shots = 100000
        stats = simulate_protocol(decompositions, result.povm, shots, seed=5)
        sigma = 3.0 * np.sqrt(0.25 / shots)
        table = stats.probabilities
        for x in range(2):
            assert abs(table[x, x] - structure.p[x]) <= 3 * sigma
        assert abs(stats.diagonal_sum() - 1.0) <= 3.0 * np.sqrt(2 / (4 * shots)) * 3

    def test_uniform_detector_gives_uniform_statistics(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        uniform = validate_povm([np.eye(2) / 3] * 3)
        stats = simulate_protocol(decompositions, uniform, 60000, seed=6)
        np.testing.assert_allclose(stats.probabilities, np.full((3, 3), 1 / 3), atol=0.02)

    def test_zero_shots_flags_undefined_probabilities(self):
        _, result, _, decompositions = self.make_orthogonal_setup()
        stats = simulate_protocol(decompositions, result.povm, 0, seed=0)
        assert stats.counts.sum() == 0
        assert stats.probabilities is None
        with pytest.raises(ValueError):
            stats.diagonal_sum()

    def test_negative_shots_rejected(self):
        _, result, _, decompositions = self.make_orthogonal_setup()
        with pytest.raises(ValueError):
            simulate_protocol(decompositions, result.povm, -1, seed=0)

    def test_target_mismatch_rejected(self):
        state_a = validate_density(np.eye(2) / 2)
        state_b = validate_density(np.diag([0.9, 0.1]))
        dec_a = make_decomposition(state_a, [(1.0, state_a)])
        dec_b = make_decomposition(state_b, [(1.0, state_b)])
        povm = validate_povm([np.eye(2) / 2] * 2)
        with pytest.raises(TargetMismatch):
            simulate_protocol([dec_a, dec_b], povm, 10, seed=0)

    def test_detector_arity_mismatch(self):
        _, result, _, decompositions = self.make_orthogonal_setup()
        with pytest.raises(DimensionMismatch):
            simulate_protocol(decompositions, validate_povm([np.eye(2) / 3] * 3), 10, seed=0)

    def test_counts_columns_sum_to_shots(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        stats = simulate_protocol(decompositions, result.povm, 5000, seed=7)
        np.testing.assert_array_equal(stats.counts.sum(axis=0), [5000] * 3)

    def test_seed_reproducibility(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        a = simulate_protocol(decompositions, result.povm, 2000, seed=11)
        b = simulate_protocol(decompositions, result.povm, 2000, seed=11)
        c = simulate_protocol(decompositions, result.povm, 2000, seed=12)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_statistics_converge_to_analytic_mixture_probabilities(self):
        _, result, _, decompositions = self.make_orthogonal_setup()
        shots = 200000
        stats = simulate_protocol(decompositions, result.povm, shots, seed=8)
        analytic = np.array(
            [
                [float(np.trace(mixture_of(d) @ m).real) for d in decompositions]
                for m in result.povm.elements
            ]
        )
        np.testing.assert_allclose(stats.probabilities, analytic, atol=5 * np.sqrt(0.25 / shots))

    def test_mixed_ensemble_frequencies_match_born_table_of_mixtures(self):
        ensemble = random_ensemble(np.random.default_rng(74), 4, 4)
        result = solve(ensemble)
        decompositions = decompositions_from_structure(ensemble, steering_structure(ensemble, result.certificate))
        assert all(6 <= len(pure_components(d)) <= 8 for d in decompositions)
        shots = 200000
        stats = simulate_protocol(decompositions, result.povm, shots, seed=9)
        mixtures = np.array([mixture_of(d) for d in decompositions])
        expected = np.clip(born_table(mixtures, np.array(result.povm.elements)), 0.0, 1.0)
        sigma = np.sqrt(expected * (1.0 - expected) / shots)
        assert np.all(np.abs(stats.probabilities - expected) <= 5.0 * sigma + 1.0 / shots)

    def test_billion_shots_allocate_no_per_shot_arrays(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        stats = simulate_protocol(decompositions, result.povm, 10**9, seed=10)
        np.testing.assert_array_equal(stats.counts.sum(axis=0), [10**9] * 3)

    def test_empirical_no_signaling_between_messages(self, trine_ensemble):
        # Message choice cannot shift the detector's outcome distribution.
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        rng = np.random.default_rng(73)
        from qsd.rand import random_povm

        shots = 50000
        threshold = 5.0 * np.sqrt(1.0 / shots)
        for trial in range(3):
            povm = random_povm(rng, 3, 2)
            stats = simulate_protocol(decompositions, povm, shots, seed=100 + trial)
            table = stats.probabilities
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.abs(table[:, i] - table[:, j]).max() <= threshold


class TestMarginalCheck:
    def test_two_decompositions_of_identity_agree(self):
        mixed = validate_density(np.eye(2) / 2)
        z_basis = make_decomposition(mixed, [(0.5, projector(1, 0)), (0.5, projector(0, 1))])
        x_basis = make_decomposition(mixed, [(0.5, projector(1, 1)), (0.5, projector(1, -1))])
        assert marginal_indistinguishability_check([z_basis, x_basis]) <= 1e-12

    def test_certificate_structures_agree(self, trine_ensemble):
        result = solve(trine_ensemble)
        structure = steering_structure(trine_ensemble, result.certificate)
        decompositions = decompositions_from_structure(trine_ensemble, structure)
        assert marginal_indistinguishability_check(decompositions) <= 1e-8

    def test_perturbed_weight_is_detected(self):
        balanced = make_decomposition(
            validate_density(np.eye(2) / 2), [(0.5, projector(1, 0)), (0.5, projector(0, 1))]
        )
        tilted_target = validate_density(np.diag([0.51, 0.49]))
        tilted = make_decomposition(
            tilted_target, [(0.51, projector(1, 0)), (0.49, projector(0, 1))]
        )
        residual = marginal_indistinguishability_check([balanced, tilted])
        assert residual == pytest.approx(0.02, abs=1e-12)

"""Identical ensembles, steering probabilities and the no-signaling bound."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from qsd import (
    DimensionMismatch,
    InfeasibleCertificate,
    NonFinite,
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
    validate_density,
    validate_povm,
)
from qsd.core import trace_norms
from qsd.nosignaling import ABSENT_TRACE
from qsd.rand import random_ensemble, random_povm

from .conftest import corpus_ensembles, projector
from .test_hostile import CASE_IDS, CASES, solved_case


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
        _, structure = structure_of(trine_ensemble)
        assert structure.sigma.shape == (3, 2, 2)
        with pytest.raises(ValueError):
            structure.sigma[0, 0, 0] = 1.0

    def test_infeasible_certificate_rejected(self, trine_ensemble):
        uniform = validate_povm([np.eye(2) / 3] * 3)
        certificate = certificate_from_povm(trine_ensemble, uniform)
        with pytest.raises(InfeasibleCertificate):
            steering_structure(trine_ensemble, certificate)

    @pytest.mark.parametrize(
        "field, index, bad",
        [
            ("k_operator", (0, 0), np.inf),
            ("k_operator", (0, 1), np.nan),
            ("trace_k", None, np.nan),
        ],
        ids=["inf-in-k", "nan-in-k", "nan-trace"],
    )
    def test_non_finite_certificate_rejected_before_any_arithmetic(self, trine_ensemble, field, index, bad):
        certificate = solve(trine_ensemble).certificate
        value = bad
        if index is not None:
            value = getattr(certificate, field).copy()
            value[index] = bad
        broken = dataclasses.replace(certificate, **{field: value})
        with pytest.raises(NonFinite, match="^certificate: NaN or Inf entries$"):
            steering_structure(trine_ensemble, broken)

    def test_certificate_of_another_dimension_is_a_dimension_mismatch(self):
        # K is 2 x 2 for a qutrit ensemble: subtracting the states from it
        # would fail to broadcast.
        certificate = solve(random_ensemble(1, 3, 2)).certificate
        message = r"shapes \(\(2, 2\), \(3,\), \(3,\)\), expected \(\(3, 3\), \(3,\), \(3,\)\)$"
        with pytest.raises(DimensionMismatch, match=message):
            steering_structure(random_ensemble(2, 3, 3), certificate)

    def test_certificate_of_another_arity_is_a_dimension_mismatch(self):
        # A 3-state certificate of the same dimension: K alone would give a
        # structure for all four states, with no rows to gate the fourth.
        certificate = solve(random_ensemble(1, 3, 2)).certificate
        message = r"shapes \(\(2, 2\), \(3,\), \(3,\)\), expected \(\(2, 2\), \(4,\), \(4,\)\)$"
        with pytest.raises(DimensionMismatch, match=message):
            steering_structure(random_ensemble(2, 4, 2), certificate)
        for field in ("slackness", "dual_feasibility"):
            short = dataclasses.replace(certificate, **{field: getattr(certificate, field)[:2]})
            with pytest.raises(DimensionMismatch, match=r"\(2,\).*, expected \(\(2, 2\), \(3,\), \(3,\)\)$"):
                steering_structure(random_ensemble(1, 3, 2), short)

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


class TestStackedNormalisation:
    """The normalised K and partner states, clipped and validated as one stack."""

    @staticmethod
    def assert_matches_per_matrix_reference(ensemble, certificate):
        def normalize(matrix):
            w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2)
            clipped = (v * np.maximum(w, 0.0)) @ v.conj().T
            return validate_density(clipped / clipped.trace().real).matrix

        structure = steering_structure(ensemble, certificate)
        np.testing.assert_allclose(
            structure.normalized_k.matrix, normalize(certificate.k_operator / certificate.trace_k), rtol=0, atol=1e-14
        )
        stack = certificate.k_operator - ensemble.weighted_stack()
        traces = np.trace(stack, axis1=1, axis2=2).real
        for partner, sigma, t in zip(structure.complementary, stack, traces):
            assert (partner is None) == (t < ABSENT_TRACE)
            if partner is not None:
                np.testing.assert_allclose(partner.matrix, normalize(sigma / t), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,index", CASES, ids=CASE_IDS)
    def test_hostile_corpus(self, kind, index):
        ensemble, result = solved_case(kind, index)
        self.assert_matches_per_matrix_reference(ensemble, result.certificate)

    def test_fresh_corpus(self):
        for ensemble in corpus_ensembles(1, 40):
            self.assert_matches_per_matrix_reference(ensemble, solve(ensemble).certificate)


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

    @pytest.mark.parametrize(
        ("elements", "message"),
        [
            ([np.eye(2) / 2] * 2, "^POVM has 2 elements for 3 states$"),
            ([np.eye(3) / 3] * 3, "^POVM dimension 3 != certificate dimension 2$"),
        ],
        ids=["count", "dimension"],
    )
    def test_povm_of_another_shape_is_a_dimension_mismatch(self, trine_ensemble, elements, message):
        _, structure = structure_of(trine_ensemble)
        with pytest.raises(DimensionMismatch, match=message):
            slackness_check(structure, validate_povm(elements))


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

    @staticmethod
    def assert_matches_two_call_form(ensemble, certificate):
        # The reference: separate trace_norms calls over the state and the
        # partner pair stacks.
        structure = steering_structure(ensemble, certificate)
        first, second = np.triu_indices(len(ensemble), k=1)
        states = structure.p[:, None, None] * ensemble.matrices
        partners = structure.sigma / structure.trace_k
        lhs = trace_norms(states[first] - states[second])
        rhs = trace_norms(partners[first] - partners[second])
        assert norm_identity_check(structure, ensemble) == float(np.abs(lhs - rhs).max())

    @pytest.mark.parametrize("kind,index", CASES, ids=CASE_IDS)
    def test_hostile_corpus_matches_the_two_call_form(self, kind, index):
        ensemble, result = solved_case(kind, index)
        self.assert_matches_two_call_form(ensemble, result.certificate)

    def test_acceptance_corpus_matches_the_two_call_form(self):
        for ensemble in corpus_ensembles(20260101):
            self.assert_matches_two_call_form(ensemble, solve(ensemble).certificate)


@functools.cache
def forged_structures():
    """(ensemble, certificate, structure, value) for honest and forged K on every 10th acceptance instance.

    Each instance is solved as drawn and with q_0 raised by 9e-13, which
    make_ensemble accepts (PRIOR_TOL).  Besides the solve's own K, each gets
    K + H for a random Hermitian H of spectral radius r and K +- r I, for r
    in 1e-12, 1e-9 and 1e-6.  K - 1e-6 I sits at the steering layer's
    INFEASIBLE_TOL gate: it falls below it, has no structure and is left out
    here unless every sigma_x of the solve is PSD to the last bit, as for
    seven of these 40 solves, each returned after 0 steps at the exact
    closed form judged before the first step.
    """
    rng = np.random.default_rng(2200)
    cases = []
    for drawn in list(corpus_ensembles(20260101))[::10]:
        priors = drawn.priors.copy()
        priors[0] += 9e-13
        for ensemble in (drawn, make_ensemble(priors, drawn.matrices)):
            result = solve(ensemble)
            k, d = result.certificate.k_operator, ensemble.dim
            forged = [k]
            for radius in (1e-12, 1e-9, 1e-6):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                h = z + z.conj().T
                forged += [k + radius / np.abs(np.linalg.eigvalsh(h)).max() * h, k + radius * np.eye(d), k - radius * np.eye(d)]
            for operator in forged:
                certificate = certificate_from_povm(ensemble, result.povm, operator)
                try:
                    structure = steering_structure(ensemble, certificate)
                except InfeasibleCertificate:
                    continue
                cases.append((ensemble, certificate, structure, result.guess_probability))
    return cases


class TestKktRowsImplyTheStructure:
    """The three checks qsd certify has no row for restate its KKT rows, at any K.

    This is the paper's theorem in the direction certify relies on: the
    no-signaling structure adds no condition the KKT point does not meet.
    """

    def test_norm_identity_holds_to_rounding(self):
        cases = forged_structures()
        assert len(cases) == 367
        for ensemble, _, structure, _ in cases:
            assert norm_identity_check(structure, ensemble) <= 1e-14

    def test_bound_residual_is_the_value_and_gap_rows(self):
        # value - tr K / sum_x q_x = (value - objective) - gap + tr K (1 - 1 / sum_x q_x).
        for ensemble, certificate, structure, value in forged_structures():
            gap = certificate.trace_k - certificate.objective
            expected = (value - certificate.objective) - gap + certificate.trace_k * (1.0 - 1.0 / ensemble.priors.sum())
            assert abs(proposition_bound_check(structure, value) - expected) <= 2e-15

    def test_ensemble_residual_is_bounded_by_the_dual_row(self):
        # Clipping sigma_x's negative eigenvalues (at most dual_residual each) and
        # renormalising moves each decomposition by at most 2 d dual_residual / tr K;
        # a partner dropped below ABSENT_TRACE moves it by at most its trace more.
        for ensemble, certificate, structure, _ in forged_structures():
            dual = max(0.0, -float(certificate.dual_feasibility.min()))
            assert structure.ensemble_residual <= (2 * ensemble.dim * dual + ABSENT_TRACE) / structure.trace_k


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

    def test_nan_entry_is_malformed(self):
        with pytest.raises(MalformedStatistics, match="^column sums deviate from 1 by nan$"):
            detector_nosignaling_check([[np.nan, 0.5], [0.5, 0.5]], 0.1)

    @pytest.mark.parametrize("table", [np.full((2, 3), 0.5), np.ones(1)], ids=["2x3", "vector"])
    def test_table_that_is_not_square_is_malformed(self, table):
        # Each column sums to 1, so only the shape check rejects it.
        with pytest.raises(MalformedStatistics, match="^expected a square table, got shape"):
            detector_nosignaling_check(table, 1e-9)

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

    def test_zero_prior_message_is_its_partner_alone(self):
        ensemble = make_ensemble([0.5, 0.5, 0.0], [projector(1, 0), projector(1, 1), np.eye(2) / 2])
        _, structure = structure_of(ensemble)
        assert structure.p[2] == 0.0
        ((weight, state),) = decompositions_from_structure(ensemble, structure)[2].members
        assert weight == 1.0
        assert state is structure.complementary[2]

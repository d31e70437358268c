"""Validation, trace norm, Born-rule arithmetic and the pseudo-inverse square root."""

from __future__ import annotations

import hashlib
import re
import sys
from collections import Counter

import numpy as np
import pytest

from qsd import (
    CompletenessViolated,
    DimensionMismatch,
    InvalidPriors,
    InvalidProbability,
    NonFinite,
    NotHermitian,
    NotPsd,
    Povm,
    StateEnsemble,
    TraceNotOne,
    best_cyclic_bound,
    born_probabilities,
    bounds,
    certificate_from_povm,
    decompositions_from_structure,
    lower_bound,
    make_ensemble,
    norm_identity_check,
    nosignaling,
    simulate_protocol,
    solve,
    steering,
    steering_structure,
    trace_norm,
    validate_density,
    validate_povm,
)
from qsd.core import _trace_norms, pair_indices, psd_sqrt_pinv, trace_norms, validate_densities
from qsd.rand import random_density, random_ensemble, random_povm, random_priors, random_pure
from qsd.steering import marginal_indistinguishability_check

from .conftest import corpus_ensembles, projector, trine_states


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        dm = validate_density(np.eye(2) / 2)
        assert dm.dim == 2
        np.testing.assert_allclose(dm.matrix, np.eye(2) / 2)

    def test_trace_short_of_one(self):
        with pytest.raises(TraceNotOne, match="0.9"):
            validate_density(np.diag([0.9, 0.0]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPsd, match="-1"):
            validate_density(np.diag([1.1, -0.1]))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 3)))

    def test_zero_by_zero_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"got shape \(0, 0\)"):
            validate_density(np.zeros((0, 0)))

    def test_stored_matrix_is_readonly(self):
        dm = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0


class TestValidateDensities:
    GOOD = (np.eye(2) / 2, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (np.array([[0.5, 1.0], [0.0, 0.5]]), NotHermitian, "density matrix 1: max"),
            (np.diag([1.1, -0.1]), NotPsd, "density matrix 1: min eigenvalue = -1"),
            (np.diag([0.9, 0.0]), TraceNotOne, "density matrix 1: trace = 0.9"),
        ],
        ids=["not-hermitian", "negative", "wrong-trace"],
    )
    def test_one_bad_member_is_named(self, bad, error, match):
        with pytest.raises(error, match=match):
            validate_densities(np.array([self.GOOD[0], bad, self.GOOD[1]]))

    def test_non_finite_member(self):
        with pytest.raises(NonFinite):
            validate_densities(np.array([self.GOOD[0], np.diag([np.inf, 0.0])]))

    def test_not_a_stack_of_square_matrices(self):
        with pytest.raises(DimensionMismatch):
            validate_densities(np.ones((2, 2, 3)))

    def test_zero_dimensional_members_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"d >= 1, got shape \(2, 0, 0\)"):
            validate_densities(np.zeros((2, 0, 0)))

    def test_members_match_validate_density(self):
        stack = np.array([random_density(np.random.default_rng(x), 3).matrix for x in range(4)])
        validated = validate_densities(stack)
        assert not validated.flags.writeable
        assert not np.shares_memory(validated, stack)
        for member, matrix in zip(validated, stack):
            np.testing.assert_array_equal(member, validate_density(matrix).matrix)


class TestStateEnsemble:
    """One validated read-only stack per ensemble, built by make_ensemble in one validation call."""

    def test_stacks_are_built_once_and_read_only(self):
        ensemble = random_ensemble(np.random.default_rng(30), 4, 3)
        assert ensemble.matrices is ensemble.matrices
        assert ensemble.weighted_stack() is ensemble.weighted_stack()
        for stack in (ensemble.matrices, ensemble.weighted_stack()):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        for x, state in enumerate(ensemble.states):
            np.testing.assert_array_equal(ensemble.matrices[x], state.matrix)
            np.testing.assert_array_equal(ensemble.weighted_stack()[x], ensemble.priors[x] * state.matrix)

    def test_constructor_keeps_the_stack_and_reads_states_off_its_rows(self):
        ensemble = random_ensemble(np.random.default_rng(33), 3, 2)
        rebuilt = StateEnsemble(ensemble.priors, ensemble.matrices)
        assert rebuilt.matrices is ensemble.matrices
        for x, state in enumerate(rebuilt.states):
            assert np.shares_memory(state.matrix, rebuilt.matrices)

    @pytest.mark.parametrize(
        "priors, match",
        [
            ([np.nan, 0.5], "non-finite prior"),
            ([np.inf, 0.5], "non-finite prior"),
            ([1.0], "at least 2 priors"),
            ([1.5, -0.5], "negative prior"),
        ],
        ids=["nan", "inf", "one-prior", "negative"],
    )
    def test_bad_priors_rejected(self, priors, match):
        with pytest.raises(InvalidPriors, match=match):
            make_ensemble(priors, [np.eye(2) / 2] * len(priors))

    def test_permuted_ensemble_has_its_own_stacks(self):
        ensemble = random_ensemble(np.random.default_rng(31), 3, 2)
        permuted = ensemble.permuted([2, 0, 1])
        np.testing.assert_array_equal(permuted.matrices, ensemble.matrices[[2, 0, 1]])
        np.testing.assert_array_equal(permuted.weighted_stack(), ensemble.weighted_stack()[[2, 0, 1]])

    # sha256 of matrices then priors, as random_ensemble drew them before it
    # validated the states as one stack (numpy 2.4.6, OpenBLAS, x86-64).
    PINNED = [
        ((11, 4, 3, False), "afd9eae955695d063b8d6b8d2b223103a96ebc10c07a71c53522187eaa3bc1af"),
        ((12, 5, 2, True), "6fc980ea1a7dc6bb8dc5ea915ac11bb381f54107177c341635a733c7449af571"),
        ((13, 3, 8, False), "1219b53a2a064eebae8da60e116043533c2136b3a7734add700d866b83b29f9d"),
    ]

    @pytest.mark.parametrize("args, digest", PINNED, ids=["mixed-n4-d3", "pure-n5-d2", "mixed-n3-d8"])
    def test_random_ensemble_draws_are_pinned(self, args, digest):
        ensemble = random_ensemble(*args)
        data = np.ascontiguousarray(ensemble.matrices).tobytes() + ensemble.priors.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("pure", [False, True])
    def test_random_ensemble_matches_one_state_at_a_time(self, pure):
        # The same draws in the same order as random_density / random_pure per state.
        rng = np.random.default_rng(32)
        states = [random_pure(rng, 3) if pure else random_density(rng, 3) for _ in range(4)]
        priors = random_priors(rng, 4)
        ensemble = random_ensemble(np.random.default_rng(32), 4, 3, pure)
        np.testing.assert_array_equal(ensemble.matrices, np.array([s.matrix for s in states]))
        np.testing.assert_array_equal(ensemble.priors, priors)

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (np.array([[0.5, 1.0], [0.0, 0.5]]), NotHermitian, "density matrix 2: max"),
            (np.diag([1.1, -0.1]), NotPsd, "density matrix 2: min eigenvalue"),
            (np.diag([0.9, 0.0]), TraceNotOne, "density matrix 2: trace = 0.9"),
            (np.diag([np.nan, 1.0]), NonFinite, "NaN"),
        ],
        ids=["not-hermitian", "negative", "wrong-trace", "non-finite"],
    )
    def test_mixed_inputs_name_the_bad_state(self, bad, error, match):
        with pytest.raises(error):
            validate_density(bad)
        good = [validate_density(np.eye(2) / 2), projector(1, 0), validate_density(projector(0, 1))]
        with pytest.raises(error, match=match):
            make_ensemble([0.25] * 4, [good[0], good[1], bad, good[2]])

    def test_density_matrix_inputs_are_kept_bit_for_bit(self):
        states = [random_density(np.random.default_rng(x), 3) for x in range(3)]
        ensemble = make_ensemble([0.2, 0.3, 0.5], [states[0], states[1].matrix, states[2]])
        np.testing.assert_array_equal(ensemble.matrices, np.array([s.matrix for s in states]))

    @pytest.mark.parametrize(
        "matrices, match",
        [
            ([np.eye(2) / 2, np.eye(3) / 3], "state 1 has dimension 3, expected 2"),
            ([validate_density(np.eye(3) / 3), np.eye(2) / 2], "state 1 has dimension 2, expected 3"),
            ([np.eye(2) / 2, validate_density(np.eye(3) / 3)], "state 1 has dimension 3, expected 2"),
            ([np.eye(2) / 2, np.ones((2, 3)) / 4], "state 1: expected a square matrix"),
        ],
        ids=["raw", "density-first", "density-second", "not-square"],
    )
    def test_mixed_dimensions_rejected(self, matrices, match):
        with pytest.raises(DimensionMismatch, match=match):
            make_ensemble([0.5, 0.5], matrices)

    def test_prior_count_must_match(self):
        with pytest.raises(DimensionMismatch, match="3 priors but 2 states"):
            make_ensemble([0.2, 0.3, 0.5], [np.eye(2) / 2, np.eye(2) / 2])


class TestValidatePovm:
    def test_computational_projectors(self):
        povm = validate_povm([projector(1, 0), projector(0, 1)])
        assert len(povm) == 2

    def test_uniform_pair(self):
        assert len(validate_povm([np.eye(2) / 2, np.eye(2) / 2])) == 2

    def test_completeness_violated(self):
        with pytest.raises(CompletenessViolated):
            validate_povm([np.eye(2), np.eye(2)])

    def test_negative_element_names_index(self):
        with pytest.raises(NotPsd, match="element 1"):
            validate_povm([np.diag([1.0, 1.1]), np.diag([0.0, -0.1])])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            validate_povm([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("elements", [[], [np.zeros((0, 0))], np.zeros((2, 0, 0))], ids=["none", "one-0x0", "stack-0x0"])
    def test_empty_or_zero_dimensional_elements_are_a_dimension_mismatch(self, elements):
        with pytest.raises(DimensionMismatch, match="at least one element of dimension >= 1"):
            validate_povm(elements)

    def test_each_check_runs_over_all_elements_before_the_next(self):
        # Element 0 is Hermitian but not PSD; element 1 is not Hermitian.
        not_psd, not_hermitian = np.diag([1.0, -0.1]), np.array([[0.0, 0.1], [0.0, 1.1]])
        with pytest.raises(NotHermitian, match="POVM element 1"):
            validate_povm([not_psd, not_hermitian])


class TestPovm:
    def test_ragged_element_names_its_index(self):
        with pytest.raises(DimensionMismatch, match="POVM element 1"):
            Povm(elements=(np.eye(2), np.eye(3), np.eye(2)))

    def test_elements_are_a_readonly_complex_copy(self):
        raw = [projector(1, 0), projector(0, 1)]
        povm = Povm(elements=raw)
        assert povm.elements.shape == (2, 2, 2)
        assert povm.elements.dtype == complex
        assert not povm.elements.flags.writeable
        raw[0][0, 0] = 5.0
        np.testing.assert_array_equal(povm.elements[0], projector(1, 0))
        stack = np.array([projector(1, 0), projector(0, 1)], dtype=complex)
        copied = Povm(elements=stack)
        stack[1] = 0.0
        np.testing.assert_array_equal(copied.elements[1], projector(0, 1))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (0, 3, 3), (2, 0, 0), (2, 3, 4)])
    def test_a_stack_reads_as_the_list_of_its_elements(self, shape):
        # Same stored stack (an empty one is (0, 0, 0)) or the same message.
        stack = np.arange(np.prod(shape), dtype=complex).reshape(shape)
        try:
            expected = Povm(elements=list(stack)).elements
        except DimensionMismatch as error:
            with pytest.raises(DimensionMismatch, match=f"^{re.escape(str(error))}$"):
                Povm(elements=stack)
        else:
            got = Povm(elements=stack).elements
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)


class TestTraceNorm:
    def test_diag_plus_minus_one(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-15)

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_half_projector_difference(self):
        # 0.5|0><0| - 0.5|+><+| = [[1/4, -1/4], [-1/4, -1/4]]; eigenvalues
        # via the explicit 2x2 formula are +/- sqrt(1/8).
        a = 0.5 * projector(1, 0) - 0.5 * projector(1, 1)
        expected = 2.0 * np.sqrt(((1 / 4 - (-1 / 4)) / 2) ** 2 + (1 / 4) ** 2)
        assert expected == pytest.approx(0.7071067811865476, abs=1e-15)
        assert trace_norm(a) == pytest.approx(expected, abs=1e-12)

    def test_non_hermitian_input_is_rejected(self):
        with pytest.raises(NotHermitian):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            trace_norm(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_sign_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = random_density(rng, d).matrix - random_density(rng, d).matrix
            b = random_density(rng, d).matrix - random_density(rng, d).matrix
            assert trace_norm(a) == pytest.approx(trace_norm(-a), abs=1e-12)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9

    def test_stacked_norms_equal_single_trace_norms_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n, d in ((2, 2), (5, 3), (8, 5)):
            stack = random_ensemble(rng, n, d).weighted_stack()
            first, second = (a.ravel() for a in np.indices((n, n)))
            pairs = stack[first] - stack[second]
            assert trace_norms(pairs).tolist() == [trace_norm(m) for m in pairs]
            # A stack minus one matrix, as in the identical-ensemble residual.
            shifted = stack - random_density(rng, d).matrix
            assert trace_norms(shifted).tolist() == [trace_norm(m) for m in shifted]

    @pytest.mark.parametrize("n", [0, 1, 2, 6])
    def test_pair_indices_are_the_upper_triangle_built_once(self, n):
        first, second = pair_indices(n)
        expected = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(first, expected[0])
        np.testing.assert_array_equal(second, expected[1])
        assert not first.flags.writeable and not second.flags.writeable
        assert pair_indices(n)[0] is first

    def test_zero_by_zero_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"got shape \(0, 0\)"):
            trace_norm(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(2, 0, 0), (0, 0), (3,), (2, 2, 3)], ids=["stack-0x0", "0x0", "vector", "not-square"])
    def test_stacked_norms_reject_stacks_not_of_square_nonempty_matrices(self, shape):
        with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(str(shape))}"):
            trace_norms(np.zeros(shape))

    def test_stacked_norms_check_hermiticity(self):
        stack = np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NotHermitian):
            trace_norms(stack)

    def test_stacked_norms_reject_non_finite_entries(self):
        stack = np.array([np.zeros((2, 2)), np.diag([np.nan, 0.0])])
        with pytest.raises(NonFinite, match="trace_norm input 1"):
            trace_norms(stack)

    def test_stacked_norms_reject_overflowing_entries(self):
        stack = np.array([np.zeros((2, 2)), np.diag([1e308, 0.0])])
        with pytest.raises(NonFinite, match="^trace_norm input 1: entry of magnitude 1.000e\\+308 overflows$"):
            trace_norms(stack)
        with pytest.raises(NonFinite):
            validate_density(np.diag([1e308, 0.0]))

    def test_stacked_norms_judge_each_matrix_on_its_own_scale(self):
        small = np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            trace_norm(small)
        with pytest.raises(NotHermitian, match="trace_norm input 1"):
            trace_norms(np.array([1e4 * np.eye(2), small]))
        # The same deviation passes on a matrix whose largest entry admits it
        # (1e-6 <= 1e-9 * 1e4), beyond the whole-stack shortcut at 1e-9.
        np.testing.assert_allclose(trace_norms(np.array([1e4 * np.eye(2) + small, np.eye(2)])), [2e4, 2.0], rtol=1e-12)

    def test_density_difference_within_two(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            t = trace_norm(random_density(rng, d).matrix - random_density(rng, d).matrix)
            assert 0.0 <= t <= 2.0 + 1e-12


class TestBornProbabilities:
    def test_orthogonal_projectors_give_identity(self):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
        povm = validate_povm([projector(1, 0), projector(0, 1)])
        np.testing.assert_allclose(born_probabilities(ensemble, povm), np.eye(2), atol=1e-12)

    def test_uniform_povm(self):
        rng = np.random.default_rng(7)
        ensemble = random_ensemble(rng, 3, 3)
        povm = validate_povm([np.eye(3) / 3] * 3)
        np.testing.assert_allclose(born_probabilities(ensemble, povm), np.full((3, 3), 1 / 3), atol=1e-12)

    def test_trine_square_root_measurement(self):
        # SRM elements are the trine projectors scaled by 2/3; brute-force
        # trace evaluation gives 2/3 on the diagonal and 1/6 off it.
        states = trine_states()
        ensemble = make_ensemble([1 / 3] * 3, states)
        povm = validate_povm([2 / 3 * s for s in states])
        expected = np.full((3, 3), 1 / 6) + np.eye(3) / 2
        np.testing.assert_allclose(born_probabilities(ensemble, povm), expected, atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            table = born_probabilities(random_ensemble(rng, n, d), random_povm(rng, n, d))
            np.testing.assert_allclose(table.sum(axis=0), np.ones(n), atol=1e-9)
            assert np.all(table >= 0.0) and np.all(table <= 1.0)

    def test_arity_mismatch(self):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
        with pytest.raises(DimensionMismatch):
            born_probabilities(ensemble, validate_povm([np.eye(2) / 3] * 3))

    def test_dimension_mismatch(self):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
        with pytest.raises(DimensionMismatch, match="^POVM dimension 3 != state dimension 2$"):
            born_probabilities(ensemble, validate_povm([np.eye(3) / 2] * 2))

    def test_clamps_float_noise_only(self):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
        noisy = Povm(elements=(projector(1, 0) * (1 + 5e-10), projector(0, 1)))
        table = born_probabilities(ensemble, noisy)
        assert table[0, 0] == 1.0
        broken = Povm(elements=(projector(1, 0) * 1.1, projector(0, 1)))
        with pytest.raises(InvalidProbability):
            born_probabilities(ensemble, broken)


class TestObjective:
    """A measurement's guess value sum_x q_x tr[rho_x M_x], read as its certificate's objective."""

    def test_orthogonal_is_perfect(self):
        ensemble = make_ensemble([0.3, 0.7], [projector(1, 0), projector(0, 1)])
        povm = validate_povm([projector(1, 0), projector(0, 1)])
        assert certificate_from_povm(ensemble, povm).objective == pytest.approx(1.0, abs=1e-12)

    def test_uniform_povm_gives_one_over_n(self):
        rng = np.random.default_rng(9)
        for n in (2, 4):
            ensemble = random_ensemble(rng, n, 3)
            povm = validate_povm([np.eye(3) / n] * n)
            assert certificate_from_povm(ensemble, povm).objective == pytest.approx(1.0 / n, abs=1e-12)

    def test_trine_square_root_measurement(self):
        states = trine_states()
        ensemble = make_ensemble([1 / 3] * 3, states)
        povm = validate_povm([2 / 3 * s for s in states])
        assert certificate_from_povm(ensemble, povm).objective == pytest.approx(2 / 3, abs=1e-12)


class TestPsdSqrtPinv:
    """psd_sqrt_pinv against a plain per-eigenvalue reference with the same rank policy."""

    @staticmethod
    def reference(a, cutoff=1e-12):
        w, v = np.linalg.eigh(a)
        out = np.zeros_like(a, dtype=complex)
        for lam, vec in zip(w, v.T):
            if lam > cutoff * max(w.max(), 0.0):
                out += np.outer(vec, vec.conj()) / np.sqrt(lam)
        return out

    @staticmethod
    def with_spectrum(rng, spectrum):
        g = rng.standard_normal((len(spectrum),) * 2) + 1j * rng.standard_normal((len(spectrum),) * 2)
        u, _ = np.linalg.qr(g)
        a = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
        return 0.5 * (a + a.conj().T)

    @pytest.mark.parametrize(
        "spectrum",
        [
            (0.0, 0.0, 0.3, 1.0),  # rank-deficient
            (1e-13, 1e-11, 0.5, 1.0),  # one eigenvalue under the cutoff, one over
            (1e-12, 2e-12, 5e-13, 3e-12),  # full rank at 1e-12 scale: kept, the policy is relative
            (-1e-17, 1e-12, 0.2, 1.0),  # rounding noise below zero
        ],
    )
    def test_matches_reference(self, spectrum):
        a = self.with_spectrum(np.random.default_rng(700), spectrum)
        expected = self.reference(a)
        got = psd_sqrt_pinv(a)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_full_rank_boundary(self):
        # An eigenvalue at exactly RANK_CUTOFF times the largest counts as zero;
        # one just above it keeps the matrix full rank.
        np.testing.assert_array_equal(psd_sqrt_pinv(np.diag([1e-12, 1.0])), np.diag([0.0, 1.0]))
        above = np.nextafter(1e-12, 1.0)
        np.testing.assert_array_equal(psd_sqrt_pinv(np.diag([above, 1.0])), np.diag([1.0 / np.sqrt(above), 1.0]))

    def test_exact_zeros_on_the_kernel(self):
        np.testing.assert_array_equal(psd_sqrt_pinv(np.zeros((3, 3))), np.zeros((3, 3)))
        np.testing.assert_array_equal(psd_sqrt_pinv(np.diag([4.0, 0.0, 1e-14])), np.diag([0.5, 0.0, 0.0]))
        np.testing.assert_array_equal(psd_sqrt_pinv(1e-12 * np.diag([4.0, 1.0])), np.diag([5e5, 1e6]))


def test_unchecked_trace_norms_of_library_stacks_match_the_checked_routine(monkeypatch):
    """On the acceptance corpus, every internal caller's stack passes trace_norms' checks and gets the same bits."""
    calls = Counter()

    def compared(stack):
        calls[sys._getframe(1).f_code.co_name] += 1
        norms = _trace_norms(stack)
        assert norms.tobytes() == trace_norms(stack).tobytes()
        return norms

    for module in (bounds, nosignaling, steering):
        monkeypatch.setattr(module, "_trace_norms", compared)
    for ensemble in corpus_ensembles(20260101):
        result = solve(ensemble)
        structure = steering_structure(ensemble, result.certificate)
        norm_identity_check(structure, ensemble)
        lower_bound(ensemble)
        best_cyclic_bound(ensemble)
        decompositions = decompositions_from_structure(ensemble, structure)
        marginal_indistinguishability_check(decompositions)
        simulate_protocol(decompositions, result.povm, 10, seed=0)
    callers = (
        "lower_bound",
        "best_cyclic_bound",
        "steering_structure",
        "norm_identity_check",
        "marginal_indistinguishability_check",
    )
    assert sorted(calls) == sorted(callers) and min(calls.values()) >= 100

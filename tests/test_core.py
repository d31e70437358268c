"""Validation, trace norm, Born-rule arithmetic and the pseudo-inverse square root."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import (
    CompletenessViolated,
    DimensionMismatch,
    InvalidProbability,
    NonFinite,
    NotHermitian,
    NotPsd,
    Povm,
    TraceNotOne,
    born_probabilities,
    guess_value,
    make_ensemble,
    trace_norm,
    validate_density,
    validate_povm,
)
from qsd.core import psd_sqrt_pinv, trace_norms
from qsd.rand import random_density, random_ensemble, random_povm

from .conftest import projector, trine_states


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

    def test_stored_matrix_is_readonly(self):
        dm = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0


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

    def test_stacked_norms_check_hermiticity(self):
        stack = np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NotHermitian):
            trace_norms(stack)

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

    def test_clamps_float_noise_only(self):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
        noisy = Povm(elements=(projector(1, 0) * (1 + 5e-10), projector(0, 1)))
        table = born_probabilities(ensemble, noisy)
        assert table[0, 0] == 1.0
        broken = Povm(elements=(projector(1, 0) * 1.1, projector(0, 1)))
        with pytest.raises(InvalidProbability):
            born_probabilities(ensemble, broken)


class TestGuessValue:
    def test_orthogonal_is_perfect(self):
        ensemble = make_ensemble([0.3, 0.7], [projector(1, 0), projector(0, 1)])
        povm = validate_povm([projector(1, 0), projector(0, 1)])
        assert guess_value(ensemble, povm) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_povm_gives_one_over_n(self):
        rng = np.random.default_rng(9)
        for n in (2, 4):
            ensemble = random_ensemble(rng, n, 3)
            povm = validate_povm([np.eye(3) / n] * n)
            assert guess_value(ensemble, povm) == pytest.approx(1.0 / n, abs=1e-12)

    def test_trine_square_root_measurement(self):
        states = trine_states()
        ensemble = make_ensemble([1 / 3] * 3, states)
        povm = validate_povm([2 / 3 * s for s in states])
        assert guess_value(ensemble, povm) == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_weighted_diagonal_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            ensemble = random_ensemble(rng, n, d)
            povm = random_povm(rng, n, d)
            table = born_probabilities(ensemble, povm)
            assert guess_value(ensemble, povm) == float(ensemble.priors @ np.diag(table))


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

    def test_exact_zeros_on_the_kernel(self):
        np.testing.assert_array_equal(psd_sqrt_pinv(np.zeros((3, 3))), np.zeros((3, 3)))
        np.testing.assert_array_equal(psd_sqrt_pinv(np.diag([4.0, 0.0, 1e-14])), np.diag([0.5, 0.0, 0.0]))
        np.testing.assert_array_equal(psd_sqrt_pinv(1e-12 * np.diag([4.0, 1.0])), np.diag([5e5, 1e6]))

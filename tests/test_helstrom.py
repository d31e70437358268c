"""Two-state closed form and its achieving measurement."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import WrongArity, certificate_from_povm, helstrom, make_ensemble, trace_norm, validate_povm
from qsd.rand import random_ensemble

from .conftest import projector

ZERO_PLUS_VALUE = 0.5 * (1.0 + 0.7071067811865476)  # trace-norm oracle from test_core


def test_orthogonal_states_discriminate_perfectly(orthogonal_ensemble):
    result = helstrom(orthogonal_ensemble)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert certificate_from_povm(orthogonal_ensemble, result.povm).objective == pytest.approx(1.0, abs=1e-12)


def test_identical_states_are_a_coin_flip():
    rho = projector(1, 1j)
    ensemble = make_ensemble([0.5, 0.5], [rho, rho])
    assert helstrom(ensemble).value == pytest.approx(0.5, abs=1e-12)


def test_zero_plus_value(zero_plus_ensemble):
    result = helstrom(zero_plus_ensemble)
    assert result.value == pytest.approx(ZERO_PLUS_VALUE, abs=1e-12)
    assert result.value == pytest.approx(0.8535534, abs=1e-7)


def test_wrong_arity():
    ensemble = make_ensemble([1 / 3] * 3, [np.eye(2) / 2] * 3)
    with pytest.raises(WrongArity):
        helstrom(ensemble)


def test_value_consistent_with_operator():
    rng = np.random.default_rng(20)
    for _ in range(20):
        ensemble = random_ensemble(rng, 2, int(rng.choice([2, 3])))
        result = helstrom(ensemble)
        expected = 0.5 * (1.0 + trace_norm(result.helstrom_operator))
        assert result.value == pytest.approx(expected, abs=1e-12)


def test_random_instances_value_range_and_attainment():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = int(rng.choice([2, 3]))
        pure = bool(rng.integers(2))
        ensemble = random_ensemble(rng, 2, d, pure=pure)
        result = helstrom(ensemble)
        assert max(ensemble.priors) - 1e-12 <= result.value <= 1.0 + 1e-12
        validate_povm(result.povm.elements)
        assert certificate_from_povm(ensemble, result.povm).objective == pytest.approx(result.value, abs=1e-9)


def test_swapping_states_preserves_value():
    rng = np.random.default_rng(22)
    for _ in range(20):
        ensemble = random_ensemble(rng, 2, 3)
        swapped = ensemble.permuted([1, 0])
        assert helstrom(ensemble).value == pytest.approx(helstrom(swapped).value, abs=1e-12)

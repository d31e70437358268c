"""Cyclic lower bound and its ordering optimization."""

from __future__ import annotations

import re
from functools import cache
from itertools import permutations

import numpy as np
import pytest

from qsd import (
    BadPermutation,
    TooLarge,
    best_cyclic_bound,
    helstrom,
    lower_bound,
    make_ensemble,
    solve,
    trace_norm,
)
from qsd.bounds import _orderings
from qsd.rand import random_ensemble

from .conftest import projector, tetrahedron_states

TRINE_BOUND = (1.0 + 1.5 * (np.sqrt(3) / 3)) / 3  # pair norms sqrt(3)/3 each


def test_identical_states_give_one_over_n():
    rho = np.eye(2) / 2
    for n in (2, 4):
        ensemble = make_ensemble([1 / n] * n, [rho] * n)
        report = lower_bound(ensemble)
        assert report.lower_bound == pytest.approx(1 / n, abs=1e-12)
        assert all(t == pytest.approx(0.0, abs=1e-12) for t in report.pair_terms)


def test_two_state_bound_equals_helstrom(zero_plus_ensemble):
    report = lower_bound(zero_plus_ensemble)
    assert report.lower_bound == pytest.approx(0.8535533905932737, abs=1e-12)
    assert report.lower_bound == pytest.approx(helstrom(zero_plus_ensemble).value, abs=1e-12)


def test_trine_bound_value(trine_ensemble):
    report = lower_bound(trine_ensemble)
    assert TRINE_BOUND == pytest.approx(0.6220084679281462, abs=1e-15)
    assert report.lower_bound == pytest.approx(TRINE_BOUND, abs=1e-12)
    np.testing.assert_allclose(report.pair_terms, [np.sqrt(3) / 3] * 3, atol=1e-12)


def test_report_is_self_consistent(trine_ensemble):
    report = lower_bound(trine_ensemble)
    n = len(report.pair_terms)
    assert report.lower_bound == (1.0 + 0.5 * sum(report.pair_terms)) / n
    assert all(0.0 <= t <= 2.0 for t in report.pair_terms)


@pytest.mark.parametrize(
    "ordering",
    [[0, 1, 1], [0, 1.7, 2], ["0", "1", "2"], [0, True, 2], [0, np.True_, 2]],
    ids=["repeated", "float", "text", "bool", "numpy-bool"],
)
def test_bad_permutation(trine_ensemble, ordering):
    with pytest.raises(BadPermutation, match=rf"^{re.escape(str(tuple(ordering)))} is not a permutation of 0\.\.2$"):
        lower_bound(trine_ensemble, ordering=ordering)


def test_numpy_integer_ordering_is_read_as_indices(trine_ensemble):
    assert lower_bound(trine_ensemble, ordering=np.array([2, 0, 1])).ordering == (2, 0, 1)


def test_explicit_ordering_changes_pairing():
    rng = np.random.default_rng(60)
    ensemble = random_ensemble(rng, 4, 2)
    default = lower_bound(ensemble)
    rotated = lower_bound(ensemble, ordering=[1, 2, 3, 0])
    # same cycle, so same value
    assert rotated.lower_bound == pytest.approx(default.lower_bound, abs=1e-12)


class TestBestCyclic:
    def test_two_states_single_cycle(self, zero_plus_ensemble):
        assert best_cyclic_bound(zero_plus_ensemble).lower_bound == pytest.approx(
            lower_bound(zero_plus_ensemble).lower_bound, abs=1e-15
        )

    def test_symmetric_trine_keeps_input_order(self, trine_ensemble):
        report = best_cyclic_bound(trine_ensemble)
        assert report.lower_bound == pytest.approx(TRINE_BOUND, abs=1e-12)
        assert report.ordering == (0, 1, 2)

    def test_asymmetric_four_states_beats_or_matches_input_order(self):
        ensemble = make_ensemble(
            [0.4, 0.3, 0.2, 0.1],
            [projector(1, 0), projector(1, 1), projector(0, 1), projector(1, -1)],
        )
        best = best_cyclic_bound(ensemble)
        base = lower_bound(ensemble)
        assert best.lower_bound >= base.lower_bound - 1e-15
        # exhaustive: the three distinct 4-cycles
        cycles = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
        brute = max(lower_bound(ensemble, c).lower_bound for c in cycles)
        assert best.lower_bound == pytest.approx(brute, abs=1e-15)

    def test_matches_per_ordering_enumeration_bit_for_bit(self):
        rng = np.random.default_rng(63)
        ensembles = [
            random_ensemble(rng, n, int(rng.integers(2, 6)), pure=pure)
            for n in range(3, 9)
            for pure in (False, True)
            for _ in range(3)
        ]
        for ensemble in ensembles + [make_ensemble([0.25] * 4, tetrahedron_states(2.1))]:
            report = best_cyclic_bound(ensemble)
            value, ordering, terms = _enumerated_best_cyclic(ensemble)
            assert (report.lower_bound, report.ordering, report.pair_terms) == (value, ordering, terms)

    def test_tie_rule_keeps_lexicographically_smallest_ordering(self):
        # Every cycle of a tetrahedron has the same value; at this angle rounding
        # puts (0, 2, 1, 3) one ulp above (0, 1, 2, 3), inside the 1e-15 tie band.
        ensemble = make_ensemble([0.25] * 4, tetrahedron_states(2.1))
        values = [_cycle_report(ensemble, c)[0] for c in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]]
        assert max(values) - min(values) <= 1e-15
        assert best_cyclic_bound(ensemble).ordering == (0, 1, 2, 3)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ordering_table_lists_one_ordering_per_cycle_in_lexicographic_order(self, n):
        expected = [(0,) + rest for rest in permutations(range(1, n)) if rest[0] < rest[-1]]
        table = _orderings(n)
        assert [tuple(row) for row in table.tolist()] == expected
        assert not table.flags.writeable

    def test_too_many_states(self):
        rng = np.random.default_rng(61)
        ensemble = random_ensemble(rng, 9, 2)
        with pytest.raises(TooLarge):
            best_cyclic_bound(ensemble)


def test_dominance_against_solver():
    rng = np.random.default_rng(62)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([2, 3, 4]))
        ensemble = random_ensemble(rng, n, d, pure=bool(rng.integers(2)))
        report = lower_bound(ensemble)
        result = solve(ensemble)
        assert result.converged
        assert report.lower_bound <= result.guess_probability + 1e-9
        assert 1.0 / n - 1e-12 <= report.lower_bound <= 1.0 + 1e-12


def _cycle_report(ensemble, order, norm=None):
    norm = norm or (lambda a, b: trace_norm(ensemble.weighted_stack()[a] - ensemble.weighted_stack()[b]))
    n = len(order)
    terms = tuple(norm(order[i], order[(i + 1) % n]) for i in range(n))
    return (1.0 + 0.5 * sum(terms)) / n, order, terms


def _enumerated_best_cyclic(ensemble):
    """Reference: trace_norm per pair of every ordering, first-found winner within 1e-15 ties.

    trace_norm is memoized per ordered pair only to keep the N = 8 cases fast;
    it returns the same float on every call.
    """
    norm = cache(lambda a, b: trace_norm(ensemble.weighted_stack()[a] - ensemble.weighted_stack()[b]))
    n = len(ensemble)
    best = _cycle_report(ensemble, tuple(range(n)), norm)
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        candidate = _cycle_report(ensemble, (0,) + rest, norm)
        if candidate[0] > best[0] + 1e-15 or (abs(candidate[0] - best[0]) <= 1e-15 and candidate[1] < best[1]):
            best = candidate
    return best

"""Fixed-point solver, dual operator and KKT certification."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from qsd import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    Povm,
    SolverOptions,
    born_probabilities,
    certificate_from_povm,
    helstrom,
    kkt_check,
    make_ensemble,
    solve,
    solver,
    steering_structure,
    validate_povm,
)
from qsd.core import MAX_ENTRY, hermitian_part
from qsd.oracle import oracle_grid
from qsd.rand import random_density, random_ensemble

from .conftest import corpus_ensembles, corpus_member, orthogonal_instance, projector, tetrahedron_states, trine_states


def iterate_stacks(monkeypatch) -> list[int]:
    """Record the number of states in the stack of each _iterate call, nested reduced solves included."""
    iterate, stacks = solver._iterate, []

    def recording(weighted, *args, **kwargs):
        stacks.append(len(weighted))
        return iterate(weighted, *args, **kwargs)

    monkeypatch.setattr(solver, "_iterate", recording)
    return stacks


class TestSolve:
    def test_orthogonal_states_any_priors(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 4):
            result = solve(orthogonal_instance(n, rng))
            assert result.converged
            assert result.guess_probability == pytest.approx(1.0, abs=1e-9)

    def test_matches_helstrom_on_two_states(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            d = int(rng.choice([2, 3, 4]))
            ensemble = random_ensemble(rng, 2, d, pure=bool(rng.integers(2)))
            result = solve(ensemble)
            assert abs(result.guess_probability - helstrom(ensemble).value) <= 1e-6

    def test_trine(self, trine_ensemble):
        result = solve(trine_ensemble)
        assert result.converged
        assert result.guess_probability == pytest.approx(2 / 3, abs=1e-6)

    def test_returned_povm_is_valid_and_value_recorded_exactly(self, trine_ensemble):
        result = solve(trine_ensemble)
        validate_povm(result.povm.elements)
        # The recorded value is the certificate's primal objective, the number its gap is measured against.
        assert result.guess_probability == result.certificate.objective
        assert result.guess_probability == result.certificate.trace_k - result.report.gap
        assert result.guess_probability == certificate_from_povm(trine_ensemble, result.povm).objective

    def test_zero_prior_state_gets_zero_element(self):
        ensemble = make_ensemble([0.5, 0.5, 0.0], [projector(1, 0), projector(1, 1), np.eye(2) / 2])
        result = solve(ensemble)
        assert result.converged
        np.testing.assert_array_equal(result.povm.elements[2], np.zeros((2, 2)))
        two_state = make_ensemble([0.5, 0.5], [projector(1, 0), projector(1, 1)])
        assert result.guess_probability == pytest.approx(helstrom(two_state).value, abs=1e-8)

    def test_deterministic_for_fixed_seed(self, trine_ensemble):
        a = solve(trine_ensemble)
        b = solve(trine_ensemble)
        assert a.guess_probability == b.guess_probability
        for ma, mb in zip(a.povm.elements, b.povm.elements):
            np.testing.assert_array_equal(ma, mb)

    def test_budget_exhaustion_flags_not_converged(self):
        result = solve(random_ensemble(54, 4, 3), SolverOptions(max_iterations=2))  # needs 70
        assert not result.converged
        assert result.iterations == 2
        validate_povm(result.povm.elements)
        assert result.report.max_residual() > 0

    def test_duplicate_states_allowed(self):
        rho = projector(1, 2j)
        ensemble = make_ensemble([0.25, 0.25, 0.5], [rho, rho, projector(1, 0)])
        result = solve(ensemble)
        assert result.converged
        assert 0.5 - 1e-12 <= result.guess_probability <= 1.0

    def test_single_live_state_is_trivial(self):
        ensemble = make_ensemble([1.0, 0.0], [projector(1, 0), projector(1, 1)])
        result = solve(ensemble)
        assert result.converged
        assert result.iterations == 1  # the uniform start maps to M_0 = I in one step
        assert result.guess_probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(result.povm.elements[0], np.eye(2))
        np.testing.assert_array_equal(result.povm.elements[1], np.zeros((2, 2)))

    def test_iterate_that_drifts_from_completeness_is_an_error(self, trine_ensemble, monkeypatch):
        iterate = solver._iterate

        def drifting(*args, **kwargs):
            elements, evaluation, at, steps = iterate(*args, **kwargs)
            return elements * (1 + 1e-8), evaluation, at, steps

        monkeypatch.setattr(solver, "_iterate", drifting)
        with pytest.raises(solver.CompletenessDrift, match="^iterate left the POVM set: primal residual 1.000e-08$"):
            solve(trine_ensemble)

    def test_iterate_with_a_negative_element_is_an_error(self, trine_ensemble, monkeypatch):
        # Complete (the elements sum to I) but M_0 and M_1 have eigenvalue -1/6.
        tilt = np.diag([0.5, -0.5])
        complete = np.array([np.eye(2) / 3 + tilt, np.eye(2) / 3 - tilt, np.eye(2) / 3], dtype=complex)
        monkeypatch.setattr(solver, "_iterate", lambda weighted, *args, **kwargs: (complete, solver._residual(weighted, complete)[1], 1, 1))
        with pytest.raises(solver.CompletenessDrift, match="^iterate left the POVM set: primal residual 1.667e-01$"):
            solve(trine_ensemble)

    def test_iterate_with_a_nan_entry_is_an_error(self, trine_ensemble, monkeypatch):
        # Not NonFinite, the input-error type certificate_from_povm would raise on it.
        # The trine's optimum uses all three states, so the check before the
        # first step fails and _iterate is reached.
        iterate = solver._iterate

        def corrupted(*args, **kwargs):
            elements, evaluation, at, steps = iterate(*args, **kwargs)
            elements = elements.copy()
            elements[0, 0, 0] = np.nan
            return elements, evaluation, at, steps

        monkeypatch.setattr(solver, "_iterate", corrupted)
        with pytest.raises(solver.CompletenessDrift, match="^iterate left the POVM set: NaN or Inf entries$"):
            solve(trine_ensemble)

    def test_no_finite_residual_returns_the_uniform_start(self, monkeypatch):
        # A NaN residual fails the check before the first step, so the loop
        # runs from the uniform start, whose elements are exactly I/4 here.
        def no_finite_residual(weighted, elements):
            nan = np.full(len(weighted), np.nan)
            return np.nan, (np.full(weighted.shape[1:], np.nan), nan, nan)

        monkeypatch.setattr(solver, "_residual", no_finite_residual)
        result = solve(make_ensemble([0.25] * 4, tetrahedron_states()), SolverOptions(max_iterations=3))
        assert result.iterations == 3
        assert not result.converged
        np.testing.assert_array_equal(result.povm.elements, np.array([np.eye(2) / 4] * 4))


class TestAcceleration:
    """The Anderson step on square-root factors: the tail converges and every iterate stays a POVM."""

    def test_slowest_acceptance_instance_converges_quickly(self):
        # The plain fixed-point map needs 7004 iterations on this pure N = 5, d = 2 instance.
        ensemble = corpus_member(20260101, 103)
        assert (len(ensemble), ensemble.dim) == (5, 2)
        result = solve(ensemble)
        assert result.converged
        assert result.iterations <= 100

    def test_stalled_pure_instance_now_converges(self):
        # The plain map stops at a residual of 2.25e-9 on this pure N = 4, d = 4 instance.
        ensemble = corpus_member(1, 90)
        assert (len(ensemble), ensemble.dim) == (4, 4)
        assert solve(ensemble).converged

    def test_every_truncated_iterate_is_a_valid_povm(self):
        # Mixed; converges after 32 iterations.  It drops to a 4-state reduced
        # solve at iteration 1, so from iteration 2 on it runs inside nested
        # reduced solves.
        ensemble = random_ensemble(np.random.default_rng(40), 6, 3)
        for k in range(1, 16):
            result = solve(ensemble, SolverOptions(max_iterations=k))
            assert result.iterations == k
            validate_povm(result.povm.elements)


class TestAndersonWeights:
    """The direct solve on the normalised Gram matrix, and its least-squares fallback."""

    @staticmethod
    def plain_history(pushes):
        """An Anderson ring fed by the first steps of the plain map, and the (factor, image) pairs pushed."""
        weighted = random_ensemble(np.random.default_rng(3), 4, 3).weighted_stack()
        factors = np.repeat(np.eye(3, dtype=complex)[None] / 2, 4, axis=0)
        anderson, pairs = solver._Anderson(factors.shape), []
        for _ in range(pushes):
            image = solver._step(weighted, factors)
            anderson.push(factors, image)
            pairs.append((factors, image))
            factors = image
        return anderson, pairs

    def test_direct_solve_matches_least_squares_weights(self):
        anderson, pairs = self.plain_history(5)
        m = min(anderson.stored, solver.ANDERSON_MEMORY)
        assert m == 4
        assert np.linalg.cond(anderson.gram[:m, :m]) < 1e3
        # The reference weights: lstsq on the unnormalised differences' Gram matrix.
        f = np.array([(image - factors).reshape(-1).view(float) for factors, image in pairs])
        g = np.array([image.reshape(-1) for _, image in pairs])
        df, dg = np.diff(f, axis=0), np.diff(g, axis=0)
        gamma = np.linalg.lstsq(df @ df.T, df @ f[-1], rcond=None)[0]
        reference = solver._complete((g[-1] - gamma @ dg).reshape(pairs[0][0].shape))
        candidate = anderson.candidate()
        assert np.abs(candidate - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_repeated_pair_yields_no_candidate_without_a_warning(self):
        anderson, pairs = self.plain_history(3)
        assert anderson.candidate() is not None
        anderson.push(*pairs[-1])  # a zero difference; pytest turns any warning into an error
        assert anderson.candidate() is None


class TestActiveSetStep:
    """The try-and-verify drop of states whose optimal element vanishes."""

    TARGET = SolverOptions().kkt_tolerance / solver.POLISH_FACTOR

    @staticmethod
    def force_drop(monkeypatch, ensemble, state):
        """Make the first iteration drop state from the full stack, whatever its residuals say.

        No pair is judged before the first step, as on a tie whose supports
        span three or more states, so the solve reaches that iteration even
        where the best pair's closed form would end it at step 0.
        """
        calls = []

        def vanishing(feas, residual):
            calls.append(len(feas))
            return (np.arange(len(feas)) == state) & (len(feas) == len(ensemble))

        monkeypatch.setattr(solver, "FIRST_DROP_CHECK", 1)
        monkeypatch.setattr(solver, "_vanishing", vanishing)
        monkeypatch.setattr(solver, "_best_pair", lambda weighted: None)
        return calls

    @staticmethod
    def skewed_trine():
        # The optimal element of state 2 vanishes; those of states 0 and 1 have trace 1.
        return make_ensemble([0.5, 0.3, 0.2], trine_states())

    @pytest.mark.parametrize("state", [0, 1])
    def test_wrong_drop_on_the_trine_is_rejected(self, monkeypatch, state):
        ensemble = self.skewed_trine()
        calls = self.force_drop(monkeypatch, ensemble, state)
        stacks = iterate_stacks(monkeypatch)
        result = solve(ensemble)
        assert len(ensemble) in calls
        assert min(stacks) > 2  # a drop that keeps two states starts no reduced solve
        assert result.converged
        assert abs(result.guess_probability - oracle_grid(ensemble)) <= 1e-9
        assert np.trace(result.povm.elements[state]).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("state", [0, 1])
    def test_wrong_drop_on_two_states_is_rejected(self, monkeypatch, state):
        # A two-state solve ends at its closed form before the first step,
        # so before any drop check, and the pair gets a third state, I/3 at
        # prior 0.01, whose element vanishes at the optimum.  Dropping state
        # 0 or 1 would keep a pair that the full stack rejects; no reduced
        # solve runs on it, and the loop goes on to the optimum.
        pair = random_ensemble(np.random.default_rng(5), 2, 3)
        weighted = 0.99 * pair.weighted_stack()
        k = np.einsum("xij,xjk->ik", weighted, helstrom(pair).povm.elements)
        assert np.linalg.eigvalsh(hermitian_part(k))[0] > 0.01 / 3  # K >= 0.01 I / 3: the third element vanishes
        ensemble = make_ensemble([*0.99 * pair.priors, 0.01], [*pair.matrices, np.eye(3) / 3])
        calls = self.force_drop(monkeypatch, ensemble, state)
        result = solve(ensemble)
        assert len(ensemble) in calls
        assert result.converged
        assert abs(result.guess_probability - 0.99 * helstrom(pair).value) <= 1e-9
        assert np.trace(result.povm.elements[state]).real > 0.1

    def test_accepted_drop_meets_the_stop_rule(self, monkeypatch):
        # A live state's element is exactly zero only after an accepted drop;
        # the solve's own residual on the full stack must then meet the stop
        # rule.  Both the solver's own drops and forced ones, right and wrong,
        # are tried.
        ensembles = [self.skewed_trine()] + list(corpus_ensembles(1, 40))
        runs = [(e, None) for e in ensembles] + [(e, x) for e in ensembles[:6] for x in range(len(e))]
        accepted = 0
        for ensemble, state in runs:
            with monkeypatch.context() as patch:
                if state is not None:
                    self.force_drop(patch, ensemble, state)
                result = solve(ensemble)
            assert result.converged
            if not result.povm.elements.any(axis=(1, 2)).all():
                accepted += 1
                residual, _ = solver._residual(ensemble.weighted_stack(), result.povm.elements)
                assert residual <= self.TARGET
        assert accepted >= 5

    def test_cut_short_drop_attempt_keeps_its_progress(self):
        # The drop at iteration 1 starts a reduced solve of four of the six
        # states, which drops again at its own first step, to three, and
        # meets the stop rule at iteration 33.  A budget that ends inside it
        # still returns its best iterate, so the residual keeps falling as
        # the budget grows.
        ensemble = random_ensemble(24, 6, 4)
        results = {k: solve(ensemble, SolverOptions(max_iterations=k)) for k in range(1, 34)}
        residuals = [r.report.max_residual() for r in results.values()]
        assert all(later <= earlier for earlier, later in zip(residuals, residuals[1:]))
        assert results[28].report.max_residual() < 1e-3 * results[2].report.max_residual()
        assert results[33].converged
        assert not results[33].povm.elements.any(axis=(1, 2)).all()

    def test_wrong_drop_is_given_up_early(self):
        # The drops at iterations 8 and 18 are wrong.  Their reduced solves
        # give up once K visibly violates a dropped state's constraint, after
        # 1 and 3 steps; run to their end they make the solve take 58
        # iterations.
        ensemble = corpus_member(20260101, 15)
        assert (len(ensemble), ensemble.dim) == (4, 4)
        result = solve(ensemble)
        assert result.converged
        assert result.iterations <= 50

    def test_reduced_solve_that_misses_its_limit_ends_in_bounded_steps(self, monkeypatch):
        # A wrong drop of states 0, 2 and 3 of acceptance #29, read off a
        # round-off residual at iteration 20 of a solve at tolerance 1e-12:
        # the kept pair starts from one complete element and one near zero,
        # and the map then sits at a residual of 2.6e-2 for the rest of the
        # budget.  The reduced solve gives up after the parent's 20 steps.
        # The starting elements are those of a default solve polished to
        # tolerance / 1e4, where this start was found.
        ensemble = corpus_member(20260101, 29)
        weighted = ensemble.weighted_stack()
        with monkeypatch.context() as m:
            m.setattr(solver, "POLISH_FACTOR", 1e4)
            elements = solve(ensemble).povm.elements
        keep = np.array([False, True, False, False, True])
        w, v = np.linalg.eigh(elements[keep])
        factors = solver._complete((v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2))
        reduced, _, _, used = solver._iterate(weighted[keep], factors, 9980, 1e-12, weighted[~keep], 1e-16, 20)
        assert used <= 20
        assert solver._residual(weighted[keep], reduced)[0] > 1e-3

    def test_reduced_solve_that_stalls_above_tolerance_ends_in_bounded_steps(self, monkeypatch):
        # With the first check at iteration 3, fresh seed 8 #192 drops state
        # 1 there.  The reduced solve of states 0, 2 and 3 gets below the
        # parent's residual at once and then stalls at 9e-6, above
        # tolerance, from step 10.  It ends after STALL_LIMIT steps without
        # improvement and the parent goes on to converge; without that exit
        # it runs out the remaining 9997 steps.
        monkeypatch.setattr(solver, "FIRST_DROP_CHECK", 3)
        ensemble = corpus_member(8, 192)
        assert (len(ensemble), ensemble.dim) == (4, 2)
        iterate, calls = solver._iterate, []

        def recording(*args, **kwargs):
            if len(args) > 4:
                calls.append(args)
            return iterate(*args, **kwargs)

        monkeypatch.setattr(solver, "_iterate", recording)
        assert solve(ensemble).converged
        weighted, _, budget, _, _, limit, patience = calls[0]
        np.testing.assert_array_equal(weighted, ensemble.weighted_stack()[[0, 2, 3]])
        assert (budget, patience) == (9997, 3)
        assert limit == pytest.approx(9.8e-4, rel=0.01)
        _, _, _, used = iterate(*calls[0])
        assert used <= solver.STALL_LIMIT + 20

    @pytest.mark.parametrize(
        "seed, index, shape, tolerance, bound",
        [
            (20260101, 29, (5, 4), 1e-12, 100),
            (20260101, 29, (5, 4), 1e-13, 300),
            (2, 192, (5, 3), 1e-13, 100),
            (1, 3, (2, 2), 1e-15, 100),
        ],
        ids=["1e-12-100", "1e-13-300", "seed2-192-1e-13-100", "seed1-3-below-floor-1e-15-100"],
    )
    def test_tight_tolerance_ends_in_bounded_steps(self, seed, index, shape, tolerance, bound):
        # tolerance / POLISH_FACTOR lies below round-off at 1e-13, so the stop
        # rule asks for 4 d eps instead (at 1e-12 it asks for 1e-14, 2.8x that
        # floor at d = 4); the stall exit still ends a solve that stalls above
        # that floor, and no drop is read off a residual at round-off level.
        # Without the floor, fresh seed 2 #192's reduced solve, started by a
        # correct drop, polishes until its own stall exit: 484 steps, not 5.
        # Below the floor (1.8e-15 at d = 2) the stop rule asks for tolerance
        # itself: a floor above it stops seed 1 #3 at 1.4e-15, unconverged.
        ensemble = corpus_member(seed, index)
        assert (len(ensemble), ensemble.dim) == shape
        result = solve(ensemble, SolverOptions(kkt_tolerance=tolerance))
        assert result.converged
        assert result.iterations <= bound

    def test_stall_below_the_floor_ends_in_bounded_steps(self):
        # At 1e-15, below the 4 d eps floor (3.6e-15 at d = 4), acceptance
        # #157 stalls at 3.0e-15.  The stall exit waits for the floor there,
        # not for the tolerance, and ends the solve after 592 steps; waiting
        # for the tolerance, it ran out the 10000-step budget.  Neither
        # converges, as the stop rule asks for the tolerance itself.
        ensemble = corpus_member(20260101, 157)
        assert (len(ensemble), ensemble.dim) == (3, 4)
        result = solve(ensemble, SolverOptions(kkt_tolerance=1e-15))
        assert not result.converged
        assert result.iterations <= 1000
        assert result.report.max_residual() <= 4 * ensemble.dim * solver.EPS


class TestClosedFormStep:
    """A support of one or two states is judged at its closed-form measurement, never by a reduced solve."""

    def test_median_acceptance_path_ends_at_the_kept_pair(self, monkeypatch):
        # States 1 and 3 are the pair with the largest Helstrom value, and
        # their Helstrom measurement meets the stop rule before any step.
        # Reduced solves on three and then two states took 3 iterations.
        ensemble = random_ensemble(0, 4, 3)
        stacks = iterate_stacks(monkeypatch)
        result = solve(ensemble)
        assert result.converged
        assert (result.iterations, stacks) == (0, [])
        np.testing.assert_array_equal(result.povm.elements[[0, 2]], np.zeros((2, 3, 3)))
        kept = ensemble.priors[[1, 3]]
        pair = make_ensemble(kept / kept.sum(), ensemble.matrices[[1, 3]])
        np.testing.assert_allclose(result.povm.elements[[1, 3]], helstrom(pair).povm.elements, rtol=0, atol=1e-12)

    def test_dominant_state_takes_the_identity(self, monkeypatch):
        # 0.7 I/2 >= 0.15 rho for every state rho, so K = 0.35 I and M_0 = I.
        # The pairs (0, 1) and (0, 2) tie at 1.4, and W_0 - W_x is positive
        # definite for both, so state 0 alone is judged before the first step
        # and gets I exactly; a reduced solve on it took 2 iterations.
        ensemble = make_ensemble([0.7, 0.15, 0.15], [np.eye(2) / 2, projector(1, 0), projector(1, 1)])
        stacks = iterate_stacks(monkeypatch)
        result = solve(ensemble)
        assert result.converged
        assert (result.iterations, stacks) == (0, [])
        np.testing.assert_array_equal(result.povm.elements, [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        assert result.guess_probability == 0.7

    def test_skewed_trine_ends_at_its_kept_pair(self, monkeypatch):
        # States 0 and 1 are the best pair, and the optimal element of state
        # 2 vanishes: their Helstrom measurement (the priors renormalised,
        # which moves no eigenvector), with an exactly zero element for state
        # 2, meets the stop rule on the full stack before any step.
        ensemble = TestActiveSetStep.skewed_trine()
        stacks = iterate_stacks(monkeypatch)
        result = solve(ensemble)
        assert result.converged
        assert (result.iterations, stacks) == (0, [])
        pair = make_ensemble([0.5 / 0.8, 0.3 / 0.8], trine_states()[:2])
        np.testing.assert_allclose(result.povm.elements[:2], helstrom(pair).povm.elements, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(result.povm.elements[2], np.zeros((2, 2)))
        assert abs(result.guess_probability - oracle_grid(ensemble)) <= 1e-9

    def test_no_reduced_solve_keeps_two_states_or_fewer(self, monkeypatch):
        # Where a drop would keep one or two states, a reduced solve on them
        # costs iterations: acceptance #42 takes 11 with it instead of 9, and
        # the acceptance corpus 812 instead of 789.
        stacks = iterate_stacks(monkeypatch)
        reduced = []
        for ensemble in corpus_ensembles(20260101, 50):
            stacks.clear()
            assert solve(ensemble).converged
            reduced += stacks[1:]
        assert len(reduced) >= 10
        assert min(reduced) > 2


class TestBestPairCheck:
    """Three or more live states: the best pair's closed form is judged before the first step."""

    @staticmethod
    def full_scan(weighted):
        """The reference: every pair's Helstrom value tr W_a + tr W_b + ||W_a - W_b||_1, one eigh each.

        Each best pair gives a support: the pair, or one of its states alone
        when W_a - W_b is definite.  The result is the union of those
        supports, or None when it holds more than two states.
        """
        traces = np.einsum("xii->x", weighted).real
        pairs = list(zip(*np.triu_indices(len(weighted), k=1)))
        spectra = [np.linalg.eigh(weighted[a] - weighted[b])[0] for a, b in pairs]
        values = [traces[a] + traces[b] + np.abs(w).sum() for (a, b), w in zip(pairs, spectra)]
        union = set()
        for (a, b), w, value in zip(pairs, spectra, values):
            if value == max(values):
                union.update((a,) if w[0] > 0 else (b,) if w[-1] < 0 else (a, b))
        return tuple(sorted(union)) if len(union) <= 2 else None

    @staticmethod
    def ladder_draws():
        """The scale ladder's instances, drawn as the benchmark's ladder workload draws them."""
        rng = np.random.default_rng(20260101)
        for n, d in ((8, 8), (16, 16), (32, 16), (8, 32)):
            for pure in (False, True):
                yield random_ensemble(rng, n, d, pure=pure)

    def test_pruned_scan_picks_the_full_scans_pair(self):
        from .test_hostile import CASES, solved_case

        ensembles = [*corpus_ensembles(20260101), *(solved_case(*case)[0] for case in CASES), *self.ladder_draws()]
        scanned = 0
        for ensemble in ensembles:
            weighted = ensemble.weighted_stack()[ensemble.priors >= solver.ZERO_PRIOR]
            if len(weighted) > 2:
                best = solver._best_pair(weighted)
                assert (best if best is None else tuple(best[0])) == self.full_scan(weighted)
                scanned += 1
        assert scanned == 158 + 25 + 8  # the instances with three or more live states

    @pytest.mark.parametrize(
        "priors, states, steps",
        [
            ([1 / 16] * 16, [np.eye(2) / 2] * 16, 1),
            ([0.35, 0.35, 0.15, 0.15], [np.eye(2) / 2, np.eye(2) / 2, projector(1, 0), projector(0, 1)], 0),
            ([0.4, 0.1, 0.1, 0.4], [np.diag([0.6, 0.4]), projector(1, 0), projector(0, 1), np.diag([0.6, 0.4])], 0),
        ],
        ids=["halves", "duplicated-dominant", "dominant-twins"],
    )
    def test_exact_ties_keep_relabelling_equivariance(self, monkeypatch, priors, states, steps):
        # The best pairs tie with different supports.  On the halves those
        # span all sixteen states, so no support is judged and the loop,
        # which treats every state alike, ends at step 1; judging the first
        # of the tied pairs would single out one labelling (M_0 = M_1 = I/2).
        # Twin dominant states tie on their own pair and on their pairs with
        # every other state, whose supports together are the twins: their
        # closed form gives each twin I/2 and ends the solve before any step.
        # Without that union the loop ran 6-10 steps on them, and relabelled
        # duplicated-dominant POVMs differed by up to 3.7e-11.
        ensemble = make_ensemble(priors, states)
        stacks = iterate_stacks(monkeypatch)
        base = solve(ensemble)
        assert base.converged
        assert base.iterations == steps
        assert bool(stacks) == bool(steps)
        rng = np.random.default_rng(49)
        for _ in range(10):
            order = list(rng.permutation(len(ensemble)))
            permuted = solve(ensemble.permuted(order))
            assert permuted.iterations == steps
            np.testing.assert_array_equal(permuted.povm.elements, base.povm.elements[order])

    def test_closed_forms_are_judged_only_before_the_first_step(self, monkeypatch):
        # The loop judges no closed form: each solve of the acceptance corpus
        # forms exactly one, before any _iterate call.
        closed_form, iterate, calls = solver._closed_form, solver._iterate, []

        def recording_closed_form(*args):
            calls.append("closed form")
            return closed_form(*args)

        def recording_iterate(*args, **kwargs):
            calls.append("iterate")
            return iterate(*args, **kwargs)

        monkeypatch.setattr(solver, "_closed_form", recording_closed_form)
        monkeypatch.setattr(solver, "_iterate", recording_iterate)
        for ensemble in corpus_ensembles(20260101):
            calls.clear()
            assert solve(ensemble).converged
            assert calls[0] == "closed form"
            assert "closed form" not in calls[1:]


class TestHelstromStart:
    """Two live states: their Helstrom measurement is judged before the first step and ends the solve there.

    It is the best pair's closed form (_closed_form on _helstrom_factors),
    and it meets the stop rule by itself, so the solve takes no step.  The
    loop, from the uniform start, runs only when no pair is judged.
    """

    def test_two_state_acceptance_instances_take_no_step(self):
        pairs = [ensemble for ensemble in corpus_ensembles(20260101) if len(ensemble) == 2]
        assert len(pairs) == 42  # 185 iterations from the uniform start
        for ensemble in pairs:
            result = solve(ensemble)
            assert result.converged
            assert result.iterations == 0
            assert abs(result.guess_probability - helstrom(ensemble).value) <= 1e-12

    def test_a_zero_prior_leaves_a_live_pair(self):
        pair = random_ensemble(np.random.default_rng(5), 2, 3)  # 8 iterations from the uniform start
        ensemble = make_ensemble([pair.priors[0], 0.0, pair.priors[1]], [pair.matrices[0], np.eye(3) / 3, pair.matrices[1]])
        result = solve(ensemble)
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.povm.elements[1], np.zeros((3, 3)))
        assert abs(result.guess_probability - helstrom(pair).value) <= 1e-12

    def test_an_unjudged_pair_runs_from_the_uniform_start(self, monkeypatch):
        # The one two-state path left in the loop.  At 1e-13 the stop rule
        # sits at its round-off floor, so the value is helstrom's within
        # 1e-12 (at 1e-9 the 42 pairs take 185 iterations and end up to
        # 1.1e-11 from it).
        monkeypatch.setattr(solver, "_best_pair", lambda weighted: None)
        iterate, starts = solver._iterate, []

        def recording(weighted, factors, *args, **kwargs):
            starts.append(factors)
            return iterate(weighted, factors, *args, **kwargs)

        monkeypatch.setattr(solver, "_iterate", recording)
        pairs = [ensemble for ensemble in corpus_ensembles(20260101) if len(ensemble) == 2]
        for ensemble in pairs:
            starts.clear()
            result = solve(ensemble, SolverOptions(kkt_tolerance=1e-13))
            assert result.converged
            assert result.iterations >= 1
            np.testing.assert_array_equal(starts[0], [np.eye(ensemble.dim) / np.sqrt(2)] * 2)
            assert abs(result.guess_probability - helstrom(ensemble).value) <= 1e-12

    @staticmethod
    def start(ensemble):
        weighted = ensemble.weighted_stack()
        w, v = np.linalg.eigh(weighted[0] - weighted[1])
        factors = solver._helstrom_factors(w, v, np.abs(weighted).max())
        return factors @ factors.conj().swapaxes(-1, -2)

    @pytest.mark.parametrize(
        "ensemble",
        [
            random_ensemble(np.random.default_rng(5), 2, 3),
            make_ensemble([0.5, 0.5], [projector(1, 0), projector(1, 1)]),
            # W_0 - W_1 = diag(1/2, -1/2, 0): the null space is split evenly.
            make_ensemble([0.5, 0.5], [projector(1, 0, 0), projector(0, 1, 0)]),
            # Two Haar-random pure qutrits: W_0 - W_1 has rank 2, and its third
            # eigenvalue is round-off (1.3e-17), which must not pick a side.
            random_ensemble(np.random.default_rng(7), 2, 3, pure=True),
        ],
        ids=["mixed-qutrits", "zero-plus", "null-eigenvalue", "pure-qutrits"],
    )
    def test_swapping_the_states_swaps_the_start(self, ensemble):
        start = self.start(ensemble)
        np.testing.assert_allclose(self.start(ensemble.permuted([1, 0])), start[::-1], rtol=0, atol=1e-14)
        # Off the null space the start is helstrom's projective measurement,
        # and on it each element is half the identity.
        gamma = ensemble.weighted_stack()[0] - ensemble.weighted_stack()[1]
        w, v = np.linalg.eigh(gamma)
        live, null = v[:, np.abs(w) > 1e-12], v[:, np.abs(w) <= 1e-12]
        np.testing.assert_allclose(
            live.conj().T @ start @ live, live.conj().T @ helstrom(ensemble).povm.elements @ live, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(null.conj().T @ start @ null, [np.eye(null.shape[1]) / 2] * 2, rtol=0, atol=1e-12)

    def test_identical_states_at_equal_priors_start_at_half_the_identity(self):
        rho = random_density(6, 3).matrix
        ensemble = make_ensemble([0.5, 0.5], [rho, rho])
        np.testing.assert_allclose(self.start(ensemble), [np.eye(3) / 2] * 2, rtol=0, atol=1e-15)
        result = solve(ensemble)
        assert result.iterations == 0
        np.testing.assert_allclose(result.povm.elements, [np.eye(3) / 2] * 2, rtol=0, atol=1e-12)


class TestReturnedCertificate:
    """The certificate a solve returns is the one certificate_from_povm builds for its POVM."""

    @staticmethod
    def ensembles():
        yield from corpus_ensembles(20260101)
        yield from corpus_ensembles(3)
        for ensemble in corpus_ensembles(20260101, 40):
            priors = ensemble.priors.copy()
            priors[0] = 0.0
            yield make_ensemble(priors / priors.sum(), ensemble.matrices)

    def test_certificate_and_report_are_those_of_the_returned_povm(self):
        # The loop's evaluation of its best iterate is the certificate, so the
        # elements it evaluated must be the ones returned, exactly Hermitian.
        solves = 0
        for ensemble in self.ensembles():
            result = solve(ensemble)
            rebuilt = certificate_from_povm(ensemble, result.povm)
            for name in (f.name for f in dataclasses.fields(rebuilt)):
                assert np.array_equal(getattr(result.certificate, name), getattr(rebuilt, name)), name
            assert result.report == kkt_check(ensemble, result.povm, result.certificate.k_operator)
            elements = result.povm.elements
            assert np.array_equal(elements, elements.conj().swapaxes(-1, -2))
            solves += 1
        assert solves == 440

    def test_solve_evaluates_the_dual_side_only_in_its_loop(self, monkeypatch):
        # Every K and every batched eigvalsh of sigma is formed by one of the
        # loop's _residual calls; a zero-prior state's row needs only its own
        # eigenvalues.
        calls = dict.fromkeys(("_residual", "_dual", "_residuals"), 0)
        for name in calls:
            original = getattr(solver, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(solver, name, counted)
        zero_prior = make_ensemble([0.5, 0.3, 0.2, 0.0], [*trine_states(), np.eye(2) / 2])
        for ensemble in (corpus_member(20260101, 55), corpus_member(20260101, 29), zero_prior):
            calls.update(dict.fromkeys(calls, 0))
            assert solve(ensemble).converged
            assert calls["_residual"] > 0
            assert calls == dict.fromkeys(calls, calls["_residual"])


class TestSolverOptions:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverOptions(kkt_tolerance=0.0)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)

    @pytest.mark.parametrize(
        "options",
        [
            {"kkt_tolerance": np.inf},
            {"kkt_tolerance": np.nan},
            {"kkt_tolerance": True},
            {"max_iterations": True},
            {"max_iterations": np.True_},
            {"max_iterations": 2.5},
        ],
        ids=[
            "tolerance-inf",
            "tolerance-nan",
            "tolerance-bool",
            "iterations-bool",
            "iterations-numpy-bool",
            "iterations-float",
        ],
    )
    def test_rejects_non_finite_tolerance_and_non_integer_budget(self, options):
        with pytest.raises(ValueError):
            SolverOptions(**options)

    @pytest.mark.parametrize("tolerance", ["1e-9", 1j, None, [1e-9]], ids=["str", "complex", "none", "list"])
    def test_non_real_tolerance_is_a_value_error(self, tolerance):
        with pytest.raises(ValueError, match="kkt_tolerance must be positive and finite"):
            SolverOptions(kkt_tolerance=tolerance)

    def test_accepts_numpy_integer_budget(self):
        assert SolverOptions(max_iterations=np.int64(5)) == SolverOptions(max_iterations=5)


class TestDualOperator:
    def test_orthogonal_with_matching_projectors(self):
        ensemble = orthogonal_instance(3)
        povm = validate_povm([np.diag([1.0 if i == x else 0.0 for i in range(3)]) for x in range(3)])
        k = certificate_from_povm(ensemble, povm).k_operator
        expected = ensemble.weighted_stack().sum(axis=0)
        np.testing.assert_allclose(k, expected, atol=1e-12)
        assert k.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_uniform_povm(self):
        rng = np.random.default_rng(33)
        ensemble = random_ensemble(rng, 4, 3)
        povm = validate_povm([np.eye(3) / 4] * 4)
        k = certificate_from_povm(ensemble, povm).k_operator
        expected = ensemble.weighted_stack().sum(axis=0) / 4
        np.testing.assert_allclose(k, expected, atol=1e-12)
        assert k.trace().real == pytest.approx(0.25, abs=1e-12)

    def test_trace_equals_value_at_helstrom_optimum(self, zero_plus_ensemble):
        result = helstrom(zero_plus_ensemble)
        k = certificate_from_povm(zero_plus_ensemble, result.povm).k_operator
        assert k.trace().real == pytest.approx(0.8535533905932737, abs=1e-9)

    def test_trace_matches_objective_generally(self):
        rng = np.random.default_rng(34)
        from qsd.rand import random_povm

        for _ in range(20):
            n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            ensemble = random_ensemble(rng, n, d)
            povm = random_povm(rng, n, d)
            certificate = certificate_from_povm(ensemble, povm)
            assert certificate.k_operator.trace().real == pytest.approx(certificate.objective, abs=1e-12)


class TestKktCheck:
    def test_orthogonal_optimum_is_exact(self):
        ensemble = orthogonal_instance(3)
        povm = validate_povm([np.diag([1.0 if i == x else 0.0 for i in range(3)]) for x in range(3)])
        report = kkt_check(ensemble, povm, certificate_from_povm(ensemble, povm).k_operator)
        assert report.max_residual() <= 1e-12

    def test_solver_certificate_within_tolerance(self):
        rng = np.random.default_rng(35)
        ensemble = random_ensemble(rng, 2, 3)
        result = solve(ensemble)
        report = kkt_check(ensemble, result.povm, result.certificate.k_operator)
        assert result.converged
        assert report.slackness_residual <= 1e-9
        assert report.dual_residual <= 1e-9
        assert abs(report.gap) <= 1e-9

    def test_uniform_povm_on_trine_is_visibly_suboptimal(self, trine_ensemble):
        # K = I/6, so sigma_x = I/6 - rho_x/3 has smallest eigenvalue -1/6.
        povm = validate_povm([np.eye(2) / 3] * 3)
        report = kkt_check(trine_ensemble, povm, certificate_from_povm(trine_ensemble, povm).k_operator)
        assert report.dual_residual > 0.01
        assert report.dual_residual == pytest.approx(1 / 6, abs=1e-12)

    def test_rejects_non_hermitian_k(self, trine_ensemble):
        povm = validate_povm([np.eye(2) / 3] * 3)
        with pytest.raises(NotHermitian):
            kkt_check(trine_ensemble, povm, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_k(self, trine_ensemble):
        result = solve(trine_ensemble)
        k = result.certificate.k_operator.copy()
        k[0, 0] = np.nan
        with pytest.raises(NonFinite, match="dual operator"):
            kkt_check(trine_ensemble, result.povm, k)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_entries_at_the_bound_go_through_every_check_without_overflow(self, d, sign):
        ensemble = random_ensemble(d, 3, d)
        bound = MAX_ENTRY / d
        k = sign * bound * np.ones((d, d))
        povm = Povm(elements=bound * np.ones((3, d, d)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            certificate = certificate_from_povm(ensemble, povm, k)
            report = kkt_check(ensemble, povm, k)
        assert caught == []
        assert np.isfinite(certificate.slackness).all() and np.isfinite(certificate.trace_k)
        assert np.isfinite(report.max_residual())
        above = np.nextafter(bound, np.inf)
        with pytest.raises(NonFinite, match="^dual operator: entry of magnitude .* overflows$"):
            kkt_check(ensemble, povm, np.full((d, d), above))
        with pytest.raises(NonFinite, match="^POVM element 0: entry of magnitude .* overflows$"):
            kkt_check(ensemble, Povm(elements=np.full((3, d, d), above)), k)

    @pytest.mark.parametrize("huge", [1e308, -1.7976931348623157e308, 1e308j], ids=["real", "negative", "imaginary"])
    def test_rejects_overflowing_k_and_povm_before_any_arithmetic(self, trine_ensemble, huge):
        # Entries above MAX_ENTRY / d could overflow in the checks' sums and products.
        result = solve(trine_ensemble)
        k = result.certificate.k_operator.copy()
        k[1, 1] = huge
        with pytest.raises(NonFinite, match="^dual operator: entry of magnitude .* overflows$"):
            kkt_check(trine_ensemble, result.povm, k)
        elements = result.povm.elements.copy()
        elements[1, 0, 1] = huge
        for routine in (certificate_from_povm, born_probabilities):
            with pytest.raises(NonFinite, match="^POVM element 1: entry of magnitude .* overflows$"):
                routine(trine_ensemble, Povm(elements=elements))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_povm(self, trine_ensemble, bad):
        elements = solve(trine_ensemble).povm.elements.copy()
        elements[1, 0, 1] = bad
        povm = Povm(elements=elements)
        for routine in (certificate_from_povm, born_probabilities):
            with pytest.raises(NonFinite, match="^POVM element 1: NaN or Inf entries$"):
                routine(trine_ensemble, povm)

    def test_nan_residual_is_not_within_tolerance(self, trine_ensemble):
        assert not solver.KktReport(0.0, 0.0, np.nan, 0.0).within(1.0)
        result = solve(trine_ensemble)
        feasibility = result.certificate.dual_feasibility.copy()
        feasibility[1] = np.nan
        certificate = dataclasses.replace(result.certificate, dual_feasibility=feasibility)
        report = kkt_check(trine_ensemble, result.povm, certificate)
        assert np.isnan(report.dual_residual)
        assert not report.within(1.0)

    @pytest.mark.parametrize("position", range(4))
    def test_max_residual_is_nan_when_any_residual_is(self, position):
        values = [1e-12, 2e-12, 3e-12, -4e-12]
        values[position] = np.nan
        report = solver.KktReport(*values)
        assert np.isnan(report.max_residual())
        assert not report.within(1.0)

    @pytest.mark.parametrize(
        "values",
        [(1e-12, 2e-12, 3e-12, -4e-12), (5e-12, 2e-12, 3e-12, 4e-12), (0.0, 0.0, 0.0, -0.0), (1.0, np.inf, 0.0, -np.inf)],
    )
    def test_max_residual_is_the_largest_residual_and_gap_magnitude(self, values):
        report = solver.KktReport(*values)
        assert report.max_residual() == np.max([*values[:3], abs(values[3])])
        assert type(report.max_residual()) is float

    def test_rejects_wrong_dimension(self, trine_ensemble):
        povm = validate_povm([np.eye(2) / 3] * 3)
        with pytest.raises(DimensionMismatch):
            kkt_check(trine_ensemble, povm, np.eye(3))

    def test_solve_report_matches_an_independent_kkt_check_bit_for_bit(self):
        rng = np.random.default_rng(46)
        zero_prior = make_ensemble([0.5, 0.5, 0.0], [projector(1, 0), projector(1, 1), np.eye(2) / 2])
        for ensemble in (random_ensemble(rng, 4, 3), zero_prior):
            result = solve(ensemble)
            assert result.report == kkt_check(ensemble, result.povm, result.certificate.k_operator)

    def test_certificate_is_read_as_it_stands(self, monkeypatch):
        ensemble = random_ensemble(np.random.default_rng(47), 4, 3)
        povm = solve(ensemble).povm
        certificate = certificate_from_povm(ensemble, povm, certificate_from_povm(ensemble, povm).k_operator)
        expected = kkt_check(ensemble, povm, certificate.k_operator)
        monkeypatch.setattr(solver, "_residuals", None)  # the dual side is not evaluated again
        assert kkt_check(ensemble, povm, certificate) == expected

    def test_primal_violation_alone_is_not_within_tolerance(self):
        # Orthogonal states in d = 3 leave |2> unused: moving weight there
        # from M_1 to M_0 makes M_1 negative while K, slackness and gap stay exact.
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0, 0), projector(0, 1, 0)])
        unused = projector(0, 0, 1)
        povm = Povm(elements=(projector(1, 0, 0) + (1 + 1e-6) * unused, projector(0, 1, 0) - 1e-6 * unused))
        report = kkt_check(ensemble, povm, certificate_from_povm(ensemble, povm).k_operator)
        assert report.primal_residual == pytest.approx(1e-6, rel=1e-6)
        assert max(report.dual_residual, report.slackness_residual, abs(report.gap)) <= 1e-15
        assert not report.within(1e-9)
        assert report.within(1e-5)


class TestSolverProperties:
    def test_certificate_and_bounds_on_random_instances(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            d = int(rng.choice([2, 3, 4]))
            ensemble = random_ensemble(rng, n, d, pure=bool(rng.integers(2)))
            result = solve(ensemble)
            assert result.converged
            # strong-duality sandwich
            assert abs(result.certificate.trace_k - result.guess_probability) <= 1e-9
            # dual feasibility
            assert min(result.certificate.dual_feasibility) >= -1e-9
            # guessing the most likely state is always available; a converged
            # iterate may sit below that by at most dim * dual infeasibility
            # (K + delta I is dual feasible, so the optimum is within d*delta)
            slack = d * max(0.0, -min(result.certificate.dual_feasibility)) + 1e-12
            assert result.guess_probability >= max(ensemble.priors) - slack

    def test_returned_iterate_not_worse_than_recent(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            d = int(rng.choice([2, 3, 4]))
            ensemble = random_ensemble(rng, n, d)
            full = solve(ensemble)
            earlier = solve(ensemble, SolverOptions(max_iterations=max(1, full.iterations - 10)))
            assert full.report.max_residual() <= earlier.report.max_residual() + 1e-15

    def test_prior_permutation_equivariance(self):
        # The uniform start treats every state alike, so relabelling the
        # states relabels the iterates: the POVMs agree to round-off.
        rng = np.random.default_rng(38)
        for _ in range(45):
            n = int(rng.integers(2, 6))
            d = int(rng.choice([2, 3, 4]))
            ensemble = random_ensemble(rng, n, d)
            order = list(rng.permutation(n))
            base = solve(ensemble)
            permuted = solve(ensemble.permuted(order))
            assert abs(base.guess_probability - permuted.guess_probability) <= 1e-12
            np.testing.assert_allclose(permuted.povm.elements, base.povm.elements[order], rtol=0, atol=1e-12)

    def test_unitary_frame_covariance(self):
        # rho_x -> U rho_x U^dagger carries every iterate to U M_x U^dagger.
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            d = int(rng.choice([2, 3, 4]))
            ensemble = random_ensemble(rng, n, d, pure=bool(rng.integers(2)))
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            rotated = make_ensemble(ensemble.priors, hermitian_part(u @ ensemble.matrices @ u.conj().T))
            base = solve(ensemble)
            turned = solve(rotated)
            assert abs(base.guess_probability - turned.guess_probability) <= 1e-10
            np.testing.assert_allclose(turned.povm.elements, u @ base.povm.elements @ u.conj().T, rtol=0, atol=1e-10)

    def test_appending_a_fixed_state_keeps_the_value(self):
        # P(rho_x (x) tau) = P(rho_x): the receiver can ignore tau, and the
        # partial trace against tau of any joint POVM is a POVM.  Every 10th
        # acceptance instance, so d <= 8.
        tau = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        tol = SolverOptions().kkt_tolerance
        for ensemble in list(corpus_ensembles(20260101))[::10]:
            joint = make_ensemble(ensemble.priors, [np.kron(rho, tau) for rho in ensemble.matrices])
            base, extended = solve(ensemble), solve(joint)
            assert base.converged and extended.converged
            assert abs(extended.guess_probability - base.guess_probability) <= 2 * tol

    def test_appending_a_zero_prior_state_changes_nothing(self):
        # A state of prior 0 gets the zero element and never enters the
        # iteration, so the solve is the same run bit for bit.
        for ensemble in list(corpus_ensembles(20260101))[::10]:
            zero = np.zeros((ensemble.dim, ensemble.dim))
            zero[0, 0] = 1.0
            extended = make_ensemble(np.append(ensemble.priors, 0.0), [*ensemble.matrices, zero])
            base, padded = solve(ensemble), solve(extended)
            assert padded.guess_probability == base.guess_probability
            assert padded.iterations == base.iterations

    @pytest.mark.parametrize("t", [0.3, 0.5])
    def test_splitting_a_state_keeps_only_its_larger_copy(self, t):
        # Two copies of rho_x at priors t q_x and (1 - t) q_x: the optimum measures
        # only the heavier copy, so the split instance's value is Z times that of
        # the instance with q_x scaled by max(t, 1 - t) and renormalised by Z.
        tol = SolverOptions().kkt_tolerance
        keep = max(t, 1 - t)
        for ensemble in list(corpus_ensembles(20260101))[::10]:
            q, x = ensemble.priors, int(np.argmax(ensemble.priors))
            split_priors = np.append(q, (1 - t) * q[x])
            split_priors[x] = t * q[x]
            merged_priors = q.copy()
            merged_priors[x] *= keep
            z = 1 - q[x] + keep * q[x]
            split = solve(make_ensemble(split_priors, [*ensemble.matrices, ensemble.matrices[x]]))
            merged = solve(make_ensemble(merged_priors / z, ensemble.matrices))
            assert split.converged and merged.converged
            assert abs(split.guess_probability - z * merged.guess_probability) <= 2 * tol

    def test_certificate_sigma_is_constructed_exactly(self):
        # The certificate stores K alone; the steering structure forms its
        # sigma_x = K - q_x rho_x from it by one exact subtraction.
        rng = np.random.default_rng(39)
        ensemble = random_ensemble(rng, 3, 3)
        result = solve(ensemble)
        sigma = steering_structure(ensemble, result.certificate).sigma
        for x in range(3):
            expected = result.certificate.k_operator - ensemble.weighted_stack()[x]
            np.testing.assert_array_equal(sigma[x], expected)

    def test_concurrent_solves_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(44)
        ensembles = [random_ensemble(rng, int(rng.integers(2, 5)), 3) for _ in range(8)]
        serial = [solve(e) for e in ensembles]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(solve, ensembles))
        for a, b in zip(serial, parallel):
            assert a.guess_probability == b.guess_probability
            for ma, mb in zip(a.povm.elements, b.povm.elements):
                np.testing.assert_array_equal(ma, mb)

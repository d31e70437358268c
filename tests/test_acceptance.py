"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The random corpora use frozen seeds, so the suite is deterministic.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from qsd import (
    decompositions_from_structure,
    detector_nosignaling_check,
    ghjw_povm,
    helstrom,
    lower_bound,
    make_ensemble,
    norm_identity_check,
    oracle_grid,
    purify,
    simulate_protocol,
    solve,
    steered_states,
    steering_structure,
    trace_norm,
    validate_povm,
)
from qsd.cli import main
from qsd.rand import random_ensemble, random_planar_qubit_ensemble
from qsd.serialize import dump_json, ensemble_to_doc

from .conftest import corpus_ensembles, trine_states


def report_line(number: int, name: str, detail: str) -> None:
    print(f"criterion {number} ({name}): PASS  [{detail}]")


@pytest.fixture(scope="module")
def corpus():
    """200 solved instances, N in 2..6 and d in {2,3,4}, shared by criteria 2-5."""
    return [(ensemble, solve(ensemble)) for ensemble in corpus_ensembles(20260101)]


@pytest.fixture(scope="module")
def trine():
    ensemble = make_ensemble([1 / 3] * 3, trine_states())
    return ensemble, solve(ensemble)


def test_criterion_1_helstrom_agreement():
    """500 random two-state instances match the closed form to 1e-6 in under 30 s."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        d = int(rng.choice([2, 3, 4]))
        ensemble = random_ensemble(rng, 2, d, pure=bool(rng.integers(2)))
        gap = abs(solve(ensemble).guess_probability - helstrom(ensemble).value)
        worst = max(worst, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(1, "Helstrom agreement", f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_nosignaling_bound_attained(corpus, trine):
    """The solved value equals the no-signaling ceiling 1/sum(p) on every converged instance."""
    worst = 0.0
    instances = list(corpus) + [trine]
    for ensemble, result in instances:
        if not result.converged:
            continue
        structure = steering_structure(ensemble, result.certificate)
        gap = abs(result.guess_probability - structure.bound)
        worst = max(worst, gap)
        assert gap <= 1e-8
    report_line(2, "no-signaling bound attained", f"max |value - bound| {worst:.2e}")


def test_criterion_3_kkt_certificates(corpus):
    """All 200 instances converge with certificate residuals within 1e-9."""
    worst_slack = worst_feas = worst_gap = 0.0
    for ensemble, result in corpus:
        assert result.converged
        certificate = result.certificate
        worst_slack = max(worst_slack, max(abs(s) for s in certificate.slackness))
        worst_feas = min(worst_feas, min(certificate.dual_feasibility))
        worst_gap = max(worst_gap, abs(certificate.trace_k - result.guess_probability))
        assert max(abs(s) for s in certificate.slackness) <= 1e-9
        assert min(certificate.dual_feasibility) >= -1e-9
        assert abs(certificate.trace_k - result.guess_probability) <= 1e-9
    report_line(
        3,
        "KKT certificates",
        f"slackness {worst_slack:.1e}, feasibility {worst_feas:.1e}, gap {worst_gap:.1e}",
    )


def test_recorded_value_is_the_objective_the_gap_is_measured_against(corpus):
    """On every instance the recorded value is exactly tr K less the reported gap."""
    for ensemble, result in corpus:
        assert result.certificate.trace_k - result.report.gap == result.guess_probability
        assert result.guess_probability == result.certificate.objective


def test_gap_is_round_off_because_k_is_built_from_the_iterate(corpus):
    """tr K equals the objective up to N d^2 eps: the identity that lets the iteration skip the gap."""
    for ensemble, result in corpus:
        assert abs(result.report.gap) <= len(ensemble) * ensemble.dim**2 * np.finfo(float).eps


def test_criterion_4_identical_ensembles(corpus, trine):
    """Every decomposition reproduces the shared state; pairwise norm identity holds."""
    worst_ensemble = worst_norm = 0.0
    for ensemble, result in list(corpus) + [trine]:
        if not result.converged:
            continue
        structure = steering_structure(ensemble, result.certificate)
        norm_residual = norm_identity_check(structure, ensemble)
        worst_ensemble = max(worst_ensemble, structure.ensemble_residual)
        worst_norm = max(worst_norm, norm_residual)
        assert structure.ensemble_residual <= 1e-8
        assert norm_residual <= 1e-8
    report_line(4, "identical ensembles", f"ensemble {worst_ensemble:.1e}, norm identity {worst_norm:.1e}")


def test_criterion_5_lower_bound(corpus, trine):
    """Cyclic bound never exceeds the optimum; exact for N = 2; trine values pinned."""
    worst_excess = -np.inf
    for ensemble, result in corpus:
        report = lower_bound(ensemble)
        excess = report.lower_bound - result.guess_probability
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-9
        if len(ensemble) == 2:
            assert abs(report.lower_bound - helstrom(ensemble).value) <= 1e-12
    trine_ensemble, trine_result = trine
    trine_bound = lower_bound(trine_ensemble).lower_bound
    assert trine_bound == pytest.approx(0.6220085, abs=1e-6)
    assert trine_result.guess_probability == pytest.approx(2 / 3, abs=1e-6)
    report_line(
        5,
        "lower bound",
        f"max bound-value {worst_excess:.1e}, trine bound {trine_bound:.7f} vs optimum {trine_result.guess_probability:.7f}",
    )


def test_criterion_6_oracle_equivalence():
    """The exact qubit reference agrees with the solver within 1e-9 on 20 instances."""
    rng = np.random.default_rng(1006)
    worst = 0.0
    for index in range(20):
        if index % 2 == 0:
            ensemble = random_ensemble(rng, 2, 2, pure=bool(rng.integers(2)))
        else:
            ensemble = random_planar_qubit_ensemble(rng, 3)
        result = solve(ensemble)
        assert result.converged
        gap = abs(oracle_grid(ensemble) - result.guess_probability)
        worst = max(worst, gap)
        assert gap <= 1e-9
    report_line(6, "oracle equivalence", f"max |oracle - solve| {worst:.2e} over 20 instances")


def test_criterion_7_steering_correctness(corpus):
    """GHJW measurements reproduce 50 certificate decompositions under partial trace."""
    checked = 0
    worst = 0.0
    for ensemble, result in corpus:
        if checked >= 50:
            break
        if not result.converged:
            continue
        structure = steering_structure(ensemble, result.certificate)
        psi = purify(structure.normalized_k)
        for decomposition in decompositions_from_structure(ensemble, structure):
            if checked >= 50:
                break
            povm, steers = ghjw_povm(psi, decomposition)
            validate_povm(povm.elements)
            collapsed = steered_states(psi, povm)
            for outcome, member in enumerate(steers):
                if member < 0:
                    continue
                weight, tau = decomposition.members[member]
                _, sub = collapsed[outcome]
                residual = trace_norm(sub - weight * tau.matrix)
                worst = max(worst, residual)
                assert residual <= 1e-9
            checked += 1
    assert checked >= 50
    report_line(7, "steering correctness", f"max partial-trace residual {worst:.1e} over {checked} decompositions")


def test_criterion_8_empirical_nosignaling():
    """20 million-shot simulations stay within the statistical no-signaling band."""
    rng = np.random.default_rng(1008)
    shots = 10**6
    start = time.perf_counter()
    worst = 0.0
    for index in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.choice([2, 3]))
        ensemble = random_ensemble(rng, n, d, pure=bool(rng.integers(2)))
        result = solve(ensemble)
        assert result.converged
        structure = steering_structure(ensemble, result.certificate)
        decompositions = decompositions_from_structure(ensemble, structure)
        stats = simulate_protocol(decompositions, result.povm, shots, seed=9000 + index)
        threshold = 3.0 * np.sqrt(n / (4.0 * shots))
        diagonal, _ = detector_nosignaling_check(stats.probabilities, threshold)
        worst = max(worst, abs(diagonal - 1.0) / threshold)
        assert diagonal <= 1.0 + threshold
        assert abs(diagonal - 1.0) <= threshold
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(8, "empirical no-signaling", f"worst |sum-1| at {worst:.2f} of 3-sigma, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    """Re-running any command with identical inputs yields byte-identical reports."""
    ensemble = make_ensemble([1 / 3] * 3, trine_states())
    instance = tmp_path / "trine.json"
    instance.write_text(dump_json(ensemble_to_doc(ensemble)))
    for args in (
        ["solve", str(instance)],
        ["bound", str(instance), "--best-cyclic"],
        ["simulate", str(instance), "--shots", "20000", "--seed", "5"],
    ):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())  # well-formed
    report_line(9, "determinism", "solve, bound and simulate reports byte-identical on re-run")

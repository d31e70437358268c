"""Workload inputs and the per-pass pipelines, with an output check per operation.

Inputs are pinned in difficulty and fresh in bytes.  Each workload draws its
base instances once from BASE_SEED; --seed then draws, per instance, a
Haar-random unitary frame U (rho -> U rho U^dagger) and a random state order.
The optimum and the fixed-point map are covariant under both, so iteration
counts stay within one of the base instance's count and the cost of a pass
stays put across seeds, while the solver never sees the same matrices twice.
Drawing fresh base instances per seed instead moved the 200-instance corpus
pass between 5.8 s and 16.8 s over seeds 1-4, because a few instances take
thousands of iterations, and three of eight fresh corpora held an instance
that exhausts the 10000-iteration budget.

All calls into qsd go through module attributes (qsd.solve, qsd.cli.main, ...)
so that the traced pass sees the span-recording wrappers.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qsd
import qsd.cli
import qsd.serialize
from qsd.core import hermitian_part
from qsd.rand import random_ensemble

BASE_SEED = 20260101

KKT_TOL = 1e-9  # the solver's default certificate tolerance
HELSTROM_TOL = 1e-6  # acceptance criterion 1
BOUND_TOL = 1e-9  # acceptance criterion 5
STEERING_TOL = 1e-8  # acceptance criteria 2 and 4
GHJW_TOL = 1e-9  # acceptance criterion 7
ORACLE_BELOW = 1e-3  # the grid oracle's stated accuracy
ORACLE_ABOVE = 1e-9  # the oracle value is attained by a valid POVM

LADDER = ((8, 8), (16, 16), (32, 16), (8, 32))
SMOKE_LADDER = ((3, 4), (4, 6))
FILES_GENERATED = ((4, 4), (8, 8))
SMOKE_FILES_GENERATED = ((3, 3),)
SHOTS = 1_000_000
SMOKE_SHOTS = 10_000
CORPUS_SIZE = 200
SMOKE_CORPUS_SIZE = 12

# The host-speed probe: a fixed slice of small-matrix numpy work, about the
# size of one corpus solve iteration times 100, run between the operations of
# a pass.  PROBE_REF_S is its time at full speed on the reference machine
# (see "Steadiness" in README.md).
PROBE_ITERATIONS = 100
PROBE_REF_S = 1.9e-3
_PROBE_RNG = np.random.default_rng(BASE_SEED)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((4, 4)) + 1j * _PROBE_RNG.standard_normal((4, 4))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.conj().T
_PROBE_SHIFT = 1e-3 * np.eye(4)


def probe() -> float:
    """Seconds for one slice of the host-speed probe."""
    a = _PROBE_MATRIX
    start = perf_counter()
    for _ in range(PROBE_ITERATIONS):
        w, v = np.linalg.eigh(a)
        b = (v * np.sqrt(np.abs(w))) @ v.conj().T
        a = 0.5 * (b + b.conj().T) + _PROBE_SHIFT
    return perf_counter() - start


@dataclass
class PassResult:
    """What one pass measured and what its output checks found.

    A pass is cut into segments (an instance, or one operation on a file),
    each ended by lap(), which runs the probe.  A segment's time is divided by
    its speed factor: the mean of the probes on either side of it over
    PROBE_REF_S, 1 at full speed.  So segments, wall_s, certified_ms and
    cli_s are seconds at reference host speed; raw_wall_s is the plain wall
    time without the probes.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    segments: list = field(default_factory=list)
    certified_ms: dict = field(default_factory=dict)  # instance id -> ms
    cli_s: dict = field(default_factory=dict)  # command -> {file: seconds}
    probes: list = field(default_factory=list)
    _mark: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    # instance id -> (iterations, sha256 of its solve report): must repeat exactly
    fingerprints: dict = field(default_factory=dict)

    def begin(self) -> None:
        self.probes.append(probe())
        self._mark = perf_counter()

    def lap(self) -> float:
        """End a segment: add its time at reference speed and return its speed factor."""
        raw = perf_counter() - self._mark
        self.probes.append(probe())
        factor = (self.probes[-2] + self.probes[-1]) / (2 * PROBE_REF_S)
        self.raw_wall_s += raw
        self.segments.append(raw / factor)
        self.wall_s += raw / factor
        self._mark = perf_counter()
        return factor

    def check(self, instance: str, operation: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{instance} {operation}: {failure}")

    def fingerprint(self, instance: str, iterations: int, report_text: str) -> None:
        digest = hashlib.sha256(report_text.encode()).hexdigest()
        self.fingerprints[instance] = (int(iterations), digest)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reframe(ensemble, rng: np.random.Generator):
    """The same instance in a random unitary frame and a random state order."""
    u = _haar_unitary(rng, ensemble.dim)
    order = rng.permutation(len(ensemble))
    states = [hermitian_part(u @ ensemble.states[x].matrix @ u.conj().T) for x in order]
    return qsd.make_ensemble(ensemble.priors[order], states)


def _corpus_base(size: int):
    # The acceptance corpus: same generator calls as tests/test_acceptance.py.
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for index in range(size):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([2, 3, 4]))
        out.append((f"c{index:03d}-n{n}-d{d}", random_ensemble(rng, n, d, pure=bool(rng.integers(2)))))
    return out


def _ladder_base(points):
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for n, d in points:
        for pure in (False, True):
            name = f"n{n}-d{d}-{'pure' if pure else 'mixed'}"
            out.append((name, random_ensemble(rng, n, d, pure=pure)))
    return out


def _files_base(points):
    rng = np.random.default_rng(BASE_SEED)
    return [(f"gen-n{n}-d{d}", random_ensemble(rng, n, d)) for n, d in points]


@dataclass
class Inputs:
    """A workload's generated inputs: named ensembles, or instance file paths."""

    instances: list
    files: list
    work: Path | None
    shots: int


def make_inputs(workload: str, seed: int, root: Path, work: Path, smoke: bool) -> Inputs:
    """Generate, validate and (for files) write the workload's inputs."""
    rng = np.random.default_rng(seed)
    if workload == "corpus":
        base = _corpus_base(SMOKE_CORPUS_SIZE if smoke else CORPUS_SIZE)
        return Inputs([(name, _reframe(e, rng)) for name, e in base], [], None, 0)
    if workload == "ladder":
        base = _ladder_base(SMOKE_LADDER if smoke else LADDER)
        return Inputs([(name, _reframe(e, rng)) for name, e in base], [], None, 0)
    if workload == "files":
        work.mkdir(parents=True, exist_ok=True)
        paths = sorted((root / "instances").glob("*.json"))
        for name, ensemble in _files_base(SMOKE_FILES_GENERATED if smoke else FILES_GENERATED):
            path = work / f"{name}.json"
            doc = qsd.serialize.ensemble_to_doc(_reframe(ensemble, rng))
            path.write_text(qsd.serialize.dump_json(doc), encoding="utf-8")
            paths.append(path)
        for path in paths:
            qsd.serialize.parse_instance(path.read_text(encoding="utf-8"))
        return Inputs([], paths, work, SMOKE_SHOTS if smoke else SHOTS)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs: Inputs, tracer=None) -> PassResult:
    """One full pass over the workload's inputs; tracer labels spans by instance."""
    out = PassResult()
    # Every pass starts from the same collector state, so a full collection
    # lands on the same call in every pass and on every seed.
    gc.collect()
    out.begin()
    if workload == "files":
        _files_pass(inputs, out, tracer)
    else:
        for name, ensemble in inputs.instances:
            if tracer is not None:
                tracer.instance = name
            if workload == "corpus":
                _corpus_instance(name, ensemble, out)
            else:
                _ladder_instance(name, ensemble, out)
            out.certified_ms[name] /= out.lap()
    return out


def _certified_solve(ensemble):
    """solve followed by an independent kkt_check: the time to a checked certificate."""
    start = perf_counter()
    result = qsd.solve(ensemble)
    report = qsd.kkt_check(ensemble, result.povm, result.certificate.k_operator)
    return result, report, (perf_counter() - start) * 1e3


def _solve_failure(converged: bool, iterations: int, residuals: dict) -> str | None:
    # KktReport.within ignores the primal residual, so every residual is checked here.
    if not converged:
        return f"not converged after {iterations} iterations"
    worst = max(residuals, key=lambda k: abs(residuals[k]))
    if abs(residuals[worst]) > KKT_TOL:
        return f"{worst} residual {abs(residuals[worst]):.3e} above {KKT_TOL:.0e}"
    return None


def _residuals(report) -> dict:
    return {
        "primal": report.primal_residual,
        "dual": report.dual_residual,
        "slackness": report.slackness_residual,
        "gap": report.gap,
    }


def _steering_failure(ensemble, result) -> str | None:
    try:
        structure = qsd.steering_structure(ensemble, result.certificate)
        norm = qsd.norm_identity_check(structure, ensemble)
        gap = qsd.proposition_bound_check(structure, result.guess_probability)
    except qsd.QsdError as exc:
        return f"{type(exc).__name__}: {exc}"
    for what, value in (("ensemble", structure.ensemble_residual), ("norm identity", norm), ("bound", gap)):
        if abs(value) > STEERING_TOL:
            return f"{what} residual {abs(value):.3e} above {STEERING_TOL:.0e}"
    return None


def _corpus_instance(name: str, ensemble, out: PassResult) -> None:
    result, report, out.certified_ms[name] = _certified_solve(ensemble)
    residuals = _residuals(report)
    out.check(name, "solve", _solve_failure(result.converged, result.iterations, residuals))
    doc = {
        "guess_probability": result.guess_probability,
        "converged": result.converged,
        "iterations": result.iterations,
        "trace_k": result.certificate.trace_k,
        "residuals": residuals,
    }
    if result.converged:
        out.check(name, "steering", _steering_failure(ensemble, result))
    bound = qsd.lower_bound(ensemble)
    excess = bound.lower_bound - result.guess_probability
    out.check(name, "lower_bound", f"bound exceeds value by {excess:.3e}" if excess > BOUND_TOL else None)
    doc["lower_bound"] = bound.lower_bound
    if len(ensemble) == 2:
        value = qsd.helstrom(ensemble).value
        off = abs(value - result.guess_probability)
        out.check(name, "helstrom", f"off Helstrom by {off:.3e}" if off > HELSTROM_TOL else None)
        doc["helstrom"] = value
    doc["matrices"] = {
        "povm": [qsd.serialize.encode_matrix(m) for m in result.povm.elements],
        "k_operator": qsd.serialize.encode_matrix(result.certificate.k_operator),
    }
    out.fingerprint(name, result.iterations, qsd.serialize.dump_json(doc))


def _ladder_instance(name: str, ensemble, out: PassResult) -> None:
    result, report, out.certified_ms[name] = _certified_solve(ensemble)
    residuals = _residuals(report)
    out.check(name, "solve", _solve_failure(result.converged, result.iterations, residuals))
    if result.converged:
        try:
            structure = qsd.steering_structure(ensemble, result.certificate)
            failure = None
            if structure.ensemble_residual > STEERING_TOL:
                failure = f"ensemble residual {structure.ensemble_residual:.3e} above {STEERING_TOL:.0e}"
        except qsd.QsdError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        out.check(name, "steering", failure)
    # The solve report is never serialized here: hash the exact value and residuals instead.
    out.fingerprint(name, result.iterations, repr((result.guess_probability, residuals)))


def _cli(argv) -> tuple[int, str, float]:
    """qsd.cli.main in-process: (exit code, captured stdout, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = qsd.cli.main(argv)
    seconds = perf_counter() - start
    return code, stdout.getvalue() + stderr.getvalue(), seconds


def _exit_failure(code: int, text: str) -> str | None:
    return None if code == 0 else f"exit {code}: {text.strip()[-200:]}"


def _files_pass(inputs: Inputs, out: PassResult, tracer) -> None:
    out.cli_s = {command: {} for command in ("solve", "certify", "bound", "simulate")}
    for path in inputs.files:
        name = path.stem
        if tracer is not None:
            tracer.instance = name
        solve_out = inputs.work / f"{name}.solve.json"
        bound_out = inputs.work / f"{name}.bound.json"
        simulate_out = inputs.work / f"{name}.simulate.json"
        solve_out.unlink(missing_ok=True)

        code, text, solve_s = _cli(["solve", str(path), "--output", str(solve_out)])
        solve_s /= out.lap()
        out.cli_s["solve"][name] = solve_s
        failure = _exit_failure(code, text)
        value = None
        report_text = solve_out.read_text(encoding="utf-8") if solve_out.exists() else ""
        if report_text:
            result = json.loads(report_text)["result"]
            value = result["guess_probability"]
            failure = failure or _solve_failure(result["converged"], result["iterations"], result["residuals"])
            out.fingerprint(name, result["iterations"], report_text)
        out.check(name, "cli solve", failure or (None if report_text else "no report written"))
        if not report_text:
            continue

        code, text, certify_s = _cli(["certify", str(path), str(solve_out)])
        certify_s /= out.lap()
        out.cli_s["certify"][name] = certify_s
        out.certified_ms[name] = (solve_s + certify_s) * 1e3
        passed = "certification PASSED" in text
        out.check(name, "cli certify", _exit_failure(code, text) or (None if passed else "not PASSED"))

        code, text, seconds = _cli(["bound", str(path), "--best-cyclic", "--output", str(bound_out)])
        out.cli_s["bound"][name] = seconds / out.lap()
        failure = _exit_failure(code, text)
        if not failure:
            result = json.loads(bound_out.read_text(encoding="utf-8"))["result"]
            excess = max(result["lower_bound"], result["best_cyclic"]["lower_bound"]) - value
            failure = f"bound exceeds value by {excess:.3e}" if excess > BOUND_TOL else None
        out.check(name, "cli bound", failure)

        code, text, seconds = _cli(
            ["simulate", str(path), "--shots", str(inputs.shots), "--output", str(simulate_out)]
        )
        out.cli_s["simulate"][name] = seconds / out.lap()
        failure = _exit_failure(code, text)
        if not failure and not json.loads(simulate_out.read_text(encoding="utf-8"))["result"]["nosignaling_ok"]:
            failure = "nosignaling_ok is false"  # the CLI still exits 0 here
        out.check(name, "cli simulate", failure)

        ensemble, _ = qsd.serialize.parse_instance(path.read_text(encoding="utf-8"))
        out.check(name, "ghjw", _ghjw_failure(ensemble, report_text))
        if ensemble.dim == 2 and len(ensemble) <= 3:
            oracle = qsd.oracle_grid(ensemble)
            failure = None
            if not value - ORACLE_BELOW <= oracle <= value + ORACLE_ABOVE:
                failure = f"oracle {oracle:.12f} outside [value - 1e-3, value + 1e-9] for value {value:.12f}"
            out.check(name, "oracle", failure)
        out.lap()


def _ghjw_failure(ensemble, report_text: str) -> str | None:
    """Rebuild the steering construction from the solve report and check it by partial trace."""
    try:
        report = qsd.serialize.parse_report(report_text)
        povm = qsd.Povm(
            elements=tuple(qsd.serialize.decode_matrix(m, "matrices.povm") for m in report["matrices"]["povm"])
        )
        structure = qsd.steering_structure(ensemble, qsd.certificate_from_povm(ensemble, povm))
        psi = qsd.purify(structure.normalized_k)
        worst = 0.0
        for decomposition in qsd.decompositions_from_structure(ensemble, structure):
            measurement, steers = qsd.ghjw_povm(psi, decomposition)
            for member, (_, sub) in zip(steers, qsd.steered_states(psi, measurement)):
                if member >= 0:
                    weight, tau = decomposition.members[member]
                    worst = max(worst, qsd.trace_norm(sub - weight * tau.matrix))
    except qsd.QsdError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"partial-trace residual {worst:.3e} above {GHJW_TOL:.0e}" if worst > GHJW_TOL else None

"""Command-line surface: solve, bound, certify and simulate instance files.

Exit codes form the scripting contract: 0 success, 1 input, parse or usage
error, 2 solver did not converge, 3 certification failed.  Reports carry no
timestamps, so identical inputs and seeds produce byte-identical files.
Set QSD_LOG=debug (or info, warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from .bounds import best_cyclic_bound, lower_bound
from .core import COMPLETENESS_TOL, Povm, QsdError, born_table
from .nosignaling import (
    decompositions_from_structure,
    detector_nosignaling_check,
    norm_identity_check,
    proposition_bound_check,
    steering_structure,
)
from .serialize import (
    REPORT_VERSION,
    decode_matrix,
    dump_json,
    encode_matrix,
    instance_hash,
    parse_instance,
    parse_report,
    FormatError,
    _is_number,
)
from .solver import SolverOptions, certificate_from_povm, kkt_check, solve
from .steering import MAX_SHOTS, simulate_protocol

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_CERTIFICATION = 3

log = logging.getLogger("qsd")


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (QsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _configure_logging() -> None:
    level_name = os.environ.get("QSD_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, logging.INFO)
        logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s %(levelname)s %(message)s")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit EXIT_INPUT on a usage error: argparse's own 2 would read as "not converged"."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsd", description="Optimal quantum state discrimination with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance and emit a certificate report")
    p_solve.add_argument("instance")
    _solver_flags(p_solve)
    _output_flag(p_solve)
    p_solve.set_defaults(handler=cmd_solve)

    p_bound = sub.add_parser("bound", help="evaluate the cyclic lower bound")
    p_bound.add_argument("instance")
    p_bound.add_argument("--best-cyclic", action="store_true", help="also maximize over cyclic orderings")
    _output_flag(p_bound)
    p_bound.set_defaults(handler=cmd_bound)

    p_certify = sub.add_parser("certify", help="re-verify a solve report against its instance")
    p_certify.add_argument("instance")
    p_certify.add_argument("report")
    _tolerance_flag(p_certify, "; a report's own options.kkt_tolerance can only tighten it")
    p_certify.set_defaults(handler=cmd_certify)

    p_sim = sub.add_parser("simulate", help="sample the steering protocol with the optimal detector")
    p_sim.add_argument("instance")
    p_sim.add_argument("--shots", type=int, default=100000)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for sampling (default 0)")
    _solver_flags(p_sim)
    _output_flag(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    return parser


def _solver_flags(parser) -> None:
    _tolerance_flag(parser)
    parser.add_argument("--max-iter", type=_int_at_least(1), default=10000, help="iteration budget (default 10000)")


def _tolerance_flag(parser, note: str = "") -> None:
    parser.add_argument("--tolerance", type=_tolerance, default=1e-9, help=f"certificate tolerance (default 1e-9){note}")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _int_at_least(minimum: int):
    """An argparse type: an integer >= minimum, or a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _output_flag(parser) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")


def _read_text(path: str) -> str:
    """The text of a UTF-8 instance or report file, or a FormatError naming a path that cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _write_report(doc: dict, output) -> None:
    text = dump_json(doc)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _options(args) -> SolverOptions:
    return SolverOptions(max_iterations=args.max_iter, kkt_tolerance=args.tolerance)


def cmd_solve(args) -> int:
    ensemble, labels = parse_instance(_read_text(args.instance))
    opts = _options(args)
    result = solve(ensemble, opts)
    log.info("solve: value=%.12g converged=%s iterations=%d", result.guess_probability, result.converged, result.iterations)

    doc = {
        "version": REPORT_VERSION,
        "command": "solve",
        "instance": _instance_echo(ensemble, labels),
        "options": _options_block(opts),
        "result": {
            "guess_probability": result.guess_probability,
            "converged": result.converged,
            "iterations": result.iterations,
            "trace_k": result.certificate.trace_k,
            "residuals": _residual_block(result.report),
        },
        "matrices": {
            "povm": [encode_matrix(m) for m in result.povm.elements],
            "k_operator": encode_matrix(result.certificate.k_operator),
            "sigma": [encode_matrix(s) for s in result.certificate.sigma],
        },
    }
    if result.converged:
        structure = steering_structure(ensemble, result.certificate)
        doc["result"]["steering"] = {
            "p": list(structure.p),
            "bound": structure.bound,
            "complementary_weights": list(structure.complementary_weights),
            "ensemble_residual": structure.ensemble_residual,
            "proposition_residual": proposition_bound_check(structure, result.guess_probability),
            "norm_identity_residual": norm_identity_check(structure, ensemble),
        }
    _write_report(doc, args.output)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_bound(args) -> int:
    ensemble, labels = parse_instance(_read_text(args.instance))
    report = lower_bound(ensemble)
    doc = {
        "version": REPORT_VERSION,
        "command": "bound",
        "instance": _instance_echo(ensemble, labels),
        "result": {
            "lower_bound": report.lower_bound,
            "ordering": list(report.ordering),
            "pair_terms": list(report.pair_terms),
        },
    }
    if args.best_cyclic:
        best = best_cyclic_bound(ensemble)
        doc["result"]["best_cyclic"] = {
            "lower_bound": best.lower_bound,
            "ordering": list(best.ordering),
            "pair_terms": list(best.pair_terms),
        }
    _write_report(doc, args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    ensemble, labels = parse_instance(_read_text(args.instance))
    report = parse_report(_read_text(args.report))
    if report.get("command") != "solve":
        raise FormatError(f'certify needs a solve report, got command {report.get("command")!r}')

    echoed = _section(report, "instance")
    actual_hash = instance_hash(ensemble, labels)
    if echoed.get("hash") != actual_hash:
        raise FormatError(f'instance hash mismatch: report has {echoed.get("hash")!r}, instance is {actual_hash}')

    recorded = _number(_section(report, "options"), "kkt_tolerance", 1e-9, "options")
    if not 0.0 < recorded < np.inf:
        raise FormatError(f"options.kkt_tolerance: expected a positive finite number, got {recorded!r}")
    # The report cannot loosen the check it is put to, only tighten it.
    tolerance = min(args.tolerance, recorded)
    certificate_tolerance = 10.0 * tolerance
    matrices = _section(report, "matrices")
    try:
        elements = tuple(decode_matrix(m, "matrices.povm") for m in matrices["povm"])
        k = decode_matrix(matrices["k_operator"], "matrices.k_operator")
    except (KeyError, TypeError):
        raise FormatError("report is missing POVM or dual operator matrices") from None
    value = _number(_section(report, "result"), "guess_probability", np.nan, "result")

    povm = Povm(elements=elements)  # deliberately unvalidated: residuals are reported
    certificate = certificate_from_povm(ensemble, povm, k)
    checks = kkt_check(ensemble, povm, certificate)
    rows = [
        ("povm_validity", checks.primal_residual, COMPLETENESS_TOL),
        ("dual_feasibility", checks.dual_residual, tolerance),
        ("slackness", checks.slackness_residual, tolerance),
        ("gap", abs(checks.gap), tolerance),
        ("value_recorded", abs(value - certificate.objective) if np.isfinite(value) else np.inf, 1e-12),
    ]
    try:
        structure = steering_structure(ensemble, certificate)
        rows.append(("ensemble_identity", structure.ensemble_residual, certificate_tolerance))
        rows.append(("norm_identity", norm_identity_check(structure, ensemble), certificate_tolerance))
        rows.append(("proposition_bound", abs(proposition_bound_check(structure, value)), certificate_tolerance))
    except QsdError as exc:
        rows.append(("ensemble_identity", np.inf, certificate_tolerance))
        log.warning("steering structure unavailable: %s", exc)

    for name, residual, limit in rows:
        print(f"{name:20s} {residual: .3e}  (tolerance {limit:.1e})  {'ok' if residual <= limit else 'FAIL'}")
    ok = all(residual <= limit for _, residual, limit in rows)
    print(f"certification {'PASSED' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _section(report: dict, key: str) -> dict:
    """The report's object-valued field key ({} when absent)."""
    section = report.get(key, {})
    if not isinstance(section, dict):
        raise FormatError(f"{key}: expected an object, got {section!r}")
    return section


def _number(section: dict, key: str, default: float, context: str) -> float:
    """The numeric field key of a report section (default when absent)."""
    value = section.get(key, default)
    if not _is_number(value):
        raise FormatError(f"{context}.{key}: expected a number, got {value!r}")
    return float(value)


def cmd_simulate(args) -> int:
    if not 0 < args.shots <= MAX_SHOTS:
        print(f"error: shots must be positive and at most {MAX_SHOTS}", file=sys.stderr)
        return EXIT_INPUT
    ensemble, labels = parse_instance(_read_text(args.instance))
    opts = _options(args)
    result = solve(ensemble, opts)
    if not result.converged:
        print("error: solver did not converge; cannot build steering decompositions", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    structure = steering_structure(ensemble, result.certificate)
    decompositions = decompositions_from_structure(ensemble, structure)
    stats = simulate_protocol(decompositions, result.povm, args.shots, args.seed)
    analytic = born_table(np.array([e.mixture for e in decompositions]), result.povm.elements)
    threshold = 3.0 * float(np.sqrt(len(ensemble) / (4.0 * args.shots)))
    diag, ok = detector_nosignaling_check(stats, threshold)
    log.info("simulate: diagonal sum=%.6f threshold=%.2e ok=%s", diag, threshold, ok)

    doc = {
        "version": REPORT_VERSION,
        "command": "simulate",
        "instance": _instance_echo(ensemble, labels),
        "options": {**_options_block(opts), "seed": args.seed, "shots": args.shots},
        "result": {
            "guess_probability": result.guess_probability,
            "shots_per_message": stats.shots_per_message,
            "counts": [[int(c) for c in row] for row in stats.counts],
            "probabilities": [[float(p) for p in row] for row in stats.probabilities],
            "analytic_probabilities": [[float(p) for p in row] for row in analytic],
            "diagonal_sum": diag,
            "statistical_threshold": threshold,
            "nosignaling_ok": ok,
        },
    }
    _write_report(doc, args.output)
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _instance_echo(ensemble, labels) -> dict:
    return {"hash": instance_hash(ensemble, labels), "dimension": ensemble.dim, "num_states": len(ensemble)}


def _options_block(opts: SolverOptions) -> dict:
    return {"kkt_tolerance": opts.kkt_tolerance, "max_iterations": opts.max_iterations}


def _residual_block(report) -> dict:
    return {
        "primal": report.primal_residual,
        "dual": report.dual_residual,
        "slackness": report.slackness_residual,
        "gap": report.gap,
    }


if __name__ == "__main__":
    sys.exit(main())

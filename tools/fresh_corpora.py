"""Solve the fresh corpora and summarise the solver's iterations and residuals.

    python tools/fresh_corpora.py

The corpora are drawn as tests/conftest.corpus_ensembles draws the
acceptance corpus (200 instances each, N in 2..6, d in {2, 3, 4}, pure or
mixed), from seeds 1 to 8 instead of 20260101, and solved at the default
kkt_tolerance 1e-9; seeds 1 and 2 are solved again at 1e-13, where the stop
rule sits at its round-off floor.  Prints one line per seed and tolerance
and then the totals: the instances that converged, the total, median and
maximum iteration counts, the worst KKT residual (primal, dual, slackness
and gap) and the worst steering ensemble_residual of the solved
certificates.  After each sweep's totals it prints one sha256 over every
solve of the sweep, in order: its iteration count, its POVM elements' bytes
and its K's bytes.  The digest is always printed (there is no flag): run the
tool on two trees to show that a change to the solver moves no bit.  Exits
1 if any instance does not converge, has a residual above its tolerance,
has an ensemble_residual above 10 x its tolerance or takes more than 150
iterations, and 0 otherwise.  The iteration cap sits well above the largest
counts seen (60 at 1e-9 and 96 at 1e-13, of 6899 and 2415 in all) and far
below the budget, so a
reduced solve that eats the budget, or a stop rule below round-off, fails
here before it leaves an instance unconverged.  The steering gate only
watches the headroom the solver's polish (solver.POLISH_FACTOR) was chosen
from: the worst ensemble_residual reads about 5e-11 at 1e-9.  qsd certify
has no row for it, since the KKT rows bound it.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qsd import SolverOptions, solve, steering_structure  # noqa: E402
from tests.conftest import corpus_ensembles  # noqa: E402

# (kkt_tolerance, seeds) of each sweep.
SWEEPS = ((1e-9, range(1, 9)), (1e-13, range(1, 3)))
ITERATION_LIMIT = 150
# The polish headroom the steering gate watches: 10 x the tolerance.
ENSEMBLE_LIMIT = 10


def summary(label: str, tolerance: float, iterations: list[int], converged: int, worst: float, ensemble: float) -> str:
    return (
        f"{label:8s} at {tolerance:.0e}  converged {converged}/{len(iterations)}  iterations total {sum(iterations)}"
        f" median {statistics.median(iterations):g} max {max(iterations)}  worst residual {worst:.2e}"
        f"  worst ensemble_residual {ensemble:.2e}"
    )


def main() -> int:
    ok = True
    for tolerance, seeds in SWEEPS:
        options = SolverOptions(kkt_tolerance=tolerance)
        iterations, converged, worst, ensemble_worst = [], 0, 0.0, 0.0
        digest = hashlib.sha256()
        for seed in seeds:
            seed_iterations, seed_converged, seed_worst, seed_ensemble = [], 0, 0.0, 0.0
            for ensemble in corpus_ensembles(seed):
                result = solve(ensemble, options)
                digest.update(result.iterations.to_bytes(8, "little"))
                digest.update(result.povm.elements.tobytes())
                digest.update(result.certificate.k_operator.tobytes())
                seed_iterations.append(result.iterations)
                seed_converged += result.converged
                seed_worst = max(seed_worst, result.report.max_residual())
                seed_ensemble = max(seed_ensemble, steering_structure(ensemble, result.certificate).ensemble_residual)
            print(summary(f"seed {seed}", tolerance, seed_iterations, seed_converged, seed_worst, seed_ensemble))
            iterations += seed_iterations
            converged += seed_converged
            worst = max(worst, seed_worst)
            ensemble_worst = max(ensemble_worst, seed_ensemble)
        print(summary("all", tolerance, iterations, converged, worst, ensemble_worst))
        print(f"sha256   at {tolerance:.0e}  {digest.hexdigest()}")
        ok = (
            ok
            and converged == len(iterations)
            and worst <= tolerance
            and ensemble_worst <= ENSEMBLE_LIMIT * tolerance
            and max(iterations) <= ITERATION_LIMIT
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

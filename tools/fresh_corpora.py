"""Solve the fresh corpora and summarise the solver's iterations and residuals.

    python tools/fresh_corpora.py

The corpora are drawn as tests/conftest.corpus_ensembles draws the
acceptance corpus (200 instances each, N in 2..6, d in {2, 3, 4}, pure or
mixed), from seeds 1 to 8 instead of 20260101.  Prints one line per seed and
then the totals: the instances that converged, the total, median and maximum
iteration counts, and the worst KKT residual (primal, dual, slackness and
gap).  Exits 1 if any instance does not converge, has a residual above
1e-9 or takes more than 150 iterations, and 0 otherwise.  The iteration cap
sits well above the largest count seen (82) and far below the budget, so a
reduced solve that eats the budget fails here before it leaves an instance
unconverged.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qsd import solve  # noqa: E402
from tests.conftest import corpus_ensembles  # noqa: E402

SEEDS = range(1, 9)
RESIDUAL_LIMIT = 1e-9
ITERATION_LIMIT = 150


def summary(label: str, iterations: list[int], converged: int, worst: float) -> str:
    return (
        f"{label:8s} converged {converged}/{len(iterations)}  iterations total {sum(iterations)}"
        f" median {statistics.median(iterations):g} max {max(iterations)}  worst residual {worst:.2e}"
    )


def main() -> int:
    iterations, converged, worst = [], 0, 0.0
    for seed in SEEDS:
        seed_iterations, seed_converged, seed_worst = [], 0, 0.0
        for ensemble in corpus_ensembles(seed):
            result = solve(ensemble)
            seed_iterations.append(result.iterations)
            seed_converged += result.converged
            seed_worst = max(seed_worst, result.report.max_residual())
        print(summary(f"seed {seed}", seed_iterations, seed_converged, seed_worst))
        iterations += seed_iterations
        converged += seed_converged
        worst = max(worst, seed_worst)
    print(summary("all", iterations, converged, worst))
    ok = converged == len(iterations) and worst <= RESIDUAL_LIMIT and max(iterations) <= ITERATION_LIMIT
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

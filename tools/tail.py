"""Solve the solver's pinned heavy-tail instances and summarise their iterations.

    python tools/tail.py

The groups are the instances an active-set rule has to be measured on
besides the fresh corpora (tools/fresh_corpora.py):

  - blocks 2400-2499: tests/test_exact.block_instance with 2-8 qubit blocks
    (d 4-16; seed 2412 is the slowest);
  - blocks 3200-3229: the same generator with 9-16 blocks (d 18-32);
  - ladder: the benchmark's ladder draws (perfbench/workloads._ladder_base)
    in their base frame;
  - gen-n8-d8: the benchmark's generated N = 8, d = 8 instance file
    (perfbench/workloads._files_base), in its base frame;
  - random_ensemble(384, 6, 4): a full-rank mixed N = 6, d = 4 instance far
    slower than any fresh corpus draw;
  - fresh seed 9 #190: the slowest of fresh seeds 9-40, whose reduced solve
    stalls after a correct drop.

Each is solved at the default kkt_tolerance.  Prints one line per group
(instances, converged, total and maximum iterations, worst KKT residual)
and then one sha256 over every solve in order: its iteration count, its
POVM elements' bytes and its K's bytes, as tools/fresh_corpora.py does.
Exits 1 if any instance does not converge, and 0 otherwise.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import FILES_GENERATED, LADDER, _files_base, _ladder_base  # noqa: E402
from qsd import solve  # noqa: E402
from qsd.rand import random_ensemble  # noqa: E402
from tests.conftest import corpus_member  # noqa: E402
from tests.test_exact import block_instance  # noqa: E402


def groups():
    """(label, ensembles) of each pinned group, in the order they are solved."""
    yield "blocks 2400-2499", (block_instance(seed)[0] for seed in range(2400, 2500))
    yield "blocks 3200-3229", (block_instance(seed, (9, 16))[0] for seed in range(3200, 3230))
    yield "ladder", (ensemble for _, ensemble in _ladder_base(LADDER))
    yield "gen-n8-d8", (ensemble for name, ensemble in _files_base(FILES_GENERATED) if name == "gen-n8-d8")
    yield "random_ensemble(384, 6, 4)", [random_ensemble(384, 6, 4)]
    yield "fresh seed 9 #190", [corpus_member(9, 190)]


def main() -> int:
    ok = True
    digest = hashlib.sha256()
    for label, ensembles in groups():
        iterations, converged, worst = [], 0, 0.0
        for ensemble in ensembles:
            result = solve(ensemble)
            digest.update(result.iterations.to_bytes(8, "little"))
            digest.update(result.povm.elements.tobytes())
            digest.update(result.certificate.k_operator.tobytes())
            iterations.append(result.iterations)
            converged += result.converged
            worst = max(worst, result.report.max_residual())
        print(
            f"{label:28s} converged {converged}/{len(iterations)}  iterations total {sum(iterations)}"
            f" max {max(iterations)}  worst residual {worst:.2e}"
        )
        ok = ok and converged == len(iterations)
    print(f"sha256   {digest.hexdigest()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

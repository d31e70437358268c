"""Smoke test of the benchmark on shrunk workloads (about 20 s).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced with --smoke.  The test asserts that
the last line carries exactly the metrics BENCHMARK.json names, each with its
unit, that every metric named for the workload is in the written result, and
that failed_frac is computed from the operations attempted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7

SOLVER_LAYERS = (
    "solver.iterations", "solver.iterations_p50", "solver.iterations_max", "solver.us_per_iter",
    "solver.solve_s", "solver.kkt_check_s", "solver.certificate_s", "solver.converged_frac",
    "solver.max_kkt_residual", "core.make_ensemble_s", "nosignaling.structure_s", "trace_overhead_s",
)
EXPECTED = {
    ("corpus", 0): ("failed_frac",),
    ("ladder", 0): ("failed_frac",),
    ("files", 0): ("failed_frac", "cli_solve_s", "cli_certify_s", "cli_bound_s", "cli_simulate_s"),
    ("corpus", 1): SOLVER_LAYERS + (
        "nosignaling.checks_s", "bounds.lower_bound_s", "helstrom.helstrom_s", "serialize.dump_json_s",
        "serialize.report_bytes",
    ),
    ("ladder", 1): SOLVER_LAYERS + tuple(
        f"solver.{kind}.n{n}-d{d}-{mix}"
        for kind in ("iterations", "us_per_iter") for n, d in ((3, 4), (4, 6)) for mix in ("mixed", "pure")
    ),
    ("files", 1): SOLVER_LAYERS + (
        "nosignaling.decompositions_s", "nosignaling.checks_s", "steering.purify_s", "steering.ghjw_s",
        "steering.simulate_s", "steering.shots_per_s", "bounds.lower_bound_s", "bounds.best_cyclic_s",
        "oracle.oracle_grid_s", "serialize.parse_instance_s", "serialize.dump_json_s",
        "serialize.instance_hash_s", "serialize.report_bytes", "cli.solve.self_s", "cli.certify.self_s",
        "cli.bound.self_s", "cli.simulate.self_s",
    ),
}


def _run(script: Path, out: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ("corpus", "ladder", "files"))
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    done = _run(HERE / "run.py", tmp_path, workload, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1

    gated = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in gated}
    for metric in gated:
        emitted = last["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))

    result = json.loads((tmp_path / f"{workload}-seed{SEED}-trace{trace}.json").read_text(encoding="utf-8"))
    for name in EXPECTED[(workload, trace)]:
        assert result["metrics"][name]["unit"], name
        assert f"{name} " in done.stdout, name
    assert result["metrics"]["failed_frac"]["value"] == result["failed"] / result["attempted"]
    assert result["environment"]["seed"] == SEED


def test_refuses_to_run_without_the_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files present, it exits non-zero."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path / "perfbench" / "run.py", tmp_path / "out", "corpus", 0)
    assert done.returncode != 0
    assert done.stdout == ""

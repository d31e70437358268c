"""qsd benchmark: certified-solve latency, CLI wall time and per-layer spans.

    python3 perfbench/run.py --workload corpus --seed 20260101 --seconds 55 --trace 0

Run from any directory; the package is imported from src/ next to this
directory.  --trace 0 measures untraced passes and reports the end-to-end
metrics; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the gated metrics
(those named in BENCHMARK.json).  The full result, with the environment and
every failed operation, is written to <out>/<workload>-seed<seed>-trace<t>.json
and the traced spans to <out>/spans-<workload>-seed<seed>.jsonl.

Exit codes: 0 measured, 2 the qsd sources are missing, 3 a determinism check
failed (iteration counts or report hashes differ between passes).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "ladder", "files")
SETUP_REPEATS = 11
MIN_PASSES = 2  # the determinism check compares two passes

# The metrics BENCHMARK.json gates: each is measured on every workload.
END_TO_END = ("setup_s", "wall_s", "certified_ms_p50", "certified_ms_p95", "peak_rss_mb")
PER_LAYER = (
    "solver.iterations",
    "solver.iterations_p50",
    "solver.iterations_max",
    "solver.us_per_iter",
    "solver.solve_s",
    "solver.kkt_check_s",
    "solver.certificate_s",
    "solver.self_s",
    "solver.converged_frac",
    "solver.max_kkt_residual",
    "nosignaling.structure_s",
    "core.make_ensemble_s",
    "trace_overhead_s",
)

IMPORT_PROBE = "import time; t = time.perf_counter(); import qsd; print(time.perf_counter() - t)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every input (for the smoke test)")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="directory for results and spans")
    args = parser.parse_args(argv)

    if not (SRC / "qsd" / "__init__.py").is_file() or not (ROOT / "instances").is_dir():
        print(f"error: qsd sources not found: expected {SRC}/qsd and {ROOT}/instances", file=sys.stderr)
        return 2
    env = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # after the thread cap, which numpy reads when it loads

    args.out.mkdir(parents=True, exist_ok=True)
    work = args.out / f"files-seed{args.seed}"

    setups = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        before = workloads.probe()
        start = perf_counter()
        inputs = workloads.make_inputs(args.workload, args.seed, ROOT, work, args.smoke)
        seconds = _import_seconds(env) + perf_counter() - start
        factor = (before + workloads.probe()) / (2 * workloads.PROBE_REF_S)
        setups.append(seconds / factor)

    runner = Runner(args, inputs, workloads)
    if args.trace:
        runner.measure_traced(work)
    else:
        runner.measure()
    mismatch = runner.determinism_error()
    if mismatch:
        print(f"error: determinism check failed: {mismatch}", file=sys.stderr)
        return 3

    result = runner.result(setups, _environment(args, env))
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    _print_human(result, path)
    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {key: result["metrics"][name][key] for key in ("value", "unit")} for name in gated},
    }))
    return 0


class Runner:
    """Measured passes of one workload and the metrics drawn from them."""

    def __init__(self, args, inputs, workloads) -> None:
        self.args = args
        self.inputs = inputs
        self.workloads = workloads
        self.untraced = []
        self.traced = []  # (PassResult, layer metrics)
        self.make_ensemble_s = None

    def _budget_left(self, start: float, next_pass: float) -> bool:
        return perf_counter() - start + next_pass <= self.args.seconds

    def measure(self) -> None:
        start = perf_counter()
        while len(self.untraced) < MIN_PASSES or self._budget_left(start, max(_elapsed(p) for p in self.untraced)):
            self.untraced.append(self.workloads.run_pass(self.args.workload, self.inputs))

    def measure_traced(self, work: Path) -> None:
        tracer = tracing.Tracer()
        tracer.instance = "setup"
        with tracing.traced(tracer):
            self.workloads.make_inputs(self.args.workload, self.args.seed, ROOT, work, self.args.smoke)
        self.make_ensemble_s = sum(s.seconds for s in tracer.spans if s.name == "core.make_ensemble")

        spans_path = self.args.out / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        spans_path.write_text("", encoding="utf-8")
        start = perf_counter()
        pair = 0.0
        while not self.traced or self._budget_left(start, pair):
            plain = self.workloads.run_pass(self.args.workload, self.inputs)
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                spanned = self.workloads.run_pass(self.args.workload, self.inputs, tracer)
            tracer.write(spans_path, len(self.traced))
            layers = tracing.layer_metrics(tracer.spans, per_instance=self.args.workload == "ladder")
            self.untraced.append(plain)
            self.traced.append((spanned, layers))
            pair = max(pair, _elapsed(plain) + _elapsed(spanned))

    def passes(self):
        return self.untraced + [p for p, _ in self.traced]

    def determinism_error(self) -> str | None:
        first, *rest = self.passes()
        for index, other in enumerate(rest, start=2):
            for instance, (iterations, digest) in first.fingerprints.items():
                if other.fingerprints.get(instance) != (iterations, digest):
                    return f"{instance} differs between pass 1 and pass {index}"
        return None

    def result(self, setups: list, env: dict) -> dict:
        passes = self.passes()
        attempted = sum(p.attempted for p in passes)
        failures = [f for p in passes for f in p.failures]
        walls = [p.wall_s for p in self.untraced]
        # Times are at reference host speed, each segment or instance taken at
        # its median over the untraced passes: see "Steadiness" in README.md.
        median_ms = _medians([p.certified_ms for p in self.untraced])
        certified = list(median_ms.values())
        wall = sum(statistics.median(segment) for segment in zip(*(p.segments for p in self.untraced)))
        median = f"median of {len(walls)} untraced passes, at reference host speed"
        probes = [seconds for p in self.untraced for seconds in p.probes]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s", f"median of {len(setups)} set-ups, at reference host speed"),
            "wall_s": _metric(wall, "s", f"sum over segments of each one's {median}"),
            "certified_ms_p50": _metric(_percentile(certified, 50), "ms", f"n={len(certified)}, each the {median}"),
            "certified_ms_p95": _metric(_percentile(certified, 95), "ms", f"n={len(certified)}, each the {median}"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", "this process"),
            "failed_frac": _metric(len(failures) / attempted, "ratio", f"{len(failures)} of {attempted} operations"),
            "raw_wall_s": _metric(
                statistics.median(p.raw_wall_s for p in self.untraced), "s", "wall_s as timed, without the probes"
            ),
            "host_speed": _metric(
                self.workloads.PROBE_REF_S / statistics.median(probes), "ratio",
                f"reference probe time / median of {len(probes)} probes; 1 at full speed",
            ),
        }
        for command in passes[0].cli_s:
            seconds = sum(_medians([p.cli_s[command] for p in self.untraced]).values())
            metrics[f"cli_{command}_s"] = _metric(seconds, "s", f"sum over files of each one's {median}")
        if self.traced:
            names = dict.fromkeys(name for _, layers in self.traced for name in layers)
            for name in names:
                values = [layers[name][0] for _, layers in self.traced if name in layers]
                unit = next(layers[name][1] for _, layers in self.traced if name in layers)
                value = statistics.median(values)
                if unit == "count" and float(value).is_integer():
                    value = int(value)
                metrics[name] = _metric(value, unit, f"median of {len(values)} traced passes")
            metrics["core.make_ensemble_s"] = _metric(self.make_ensemble_s, "s", "one traced set-up")
            overhead = statistics.median(p.wall_s for p, _ in self.traced) - statistics.median(walls)
            metrics["trace_overhead_s"] = _metric(overhead, "s", "median traced minus median untraced pass")
        first = passes[0]
        return {
            "workload": self.args.workload,
            "environment": env,
            "seconds": self.args.seconds,
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:100],
            "metrics": metrics,
            "pass_walls_s": {"untraced": walls, "traced": [p.wall_s for p, _ in self.traced]},
            "pass_raw_walls_s": {"untraced": [p.raw_wall_s for p in self.untraced]},
            "certified_ms": median_ms,
            "iterations": {instance: its for instance, (its, _) in first.fingerprints.items()},
            "report_sha256": {instance: digest for instance, (_, digest) in first.fingerprints.items()},
        }


def _medians(samples: list) -> dict:
    """Per key, the median of its values over a list of same-keyed dicts."""
    return {key: statistics.median(sample[key] for sample in samples) for key in samples[0]}


def _elapsed(p) -> float:
    """A pass's raw wall time, probes included: what it takes out of the budget."""
    return p.raw_wall_s + sum(p.probes)


def _metric(value, unit: str, note: str) -> dict:
    return {"value": value, "unit": unit, "note": note}


def _percentile(samples, q: int) -> float:
    """The q-th percentile, interpolated linearly between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _pin_blas_threads() -> dict:
    """Cap OpenBLAS at the CPUs this process may use; returns the child environment."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _import_seconds(env: dict) -> float:
    """A fresh interpreter's `import qsd`, timed inside that interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def _environment(args, env: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f'{blas.get("name", "unknown")} {blas.get("version", "")}'.strip(),
        "blas_threads": _blas_threads(int(env["OPENBLAS_NUM_THREADS"])),
        "machine": platform.machine(),
    }


def _blas_threads(fallback: int) -> int:
    """The thread count the loaded OpenBLAS reports, or the cap that was set."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for library in libraries:
            lib = ctypes.CDLL(library)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    except OSError:
        pass
    return fallback


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (absent outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_human(result: dict, path: Path) -> None:
    env = result["environment"]
    print(f"# qsd benchmark: workload={result['workload']} seed={env['seed']} seconds={result['seconds']}")
    print("# " + " ".join(f"{key}={value}" for key, value in env.items() if key not in ("workload", "seed")))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}  ({metric['note']})")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"# result written to {path}")


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the tailbounds CLI.

Run from the repository root:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 15 --trace 0

One process does everything.  It imports the package from ``src/`` and
generates the workload's inputs from ``--seed`` several times, checking that
the files come out byte-identical.  It then calls ``tailbounds.cli.main(argv)``
once to warm up, and repeatedly for ``--seconds`` seconds, and checks every
output.  With ``--trace 0`` the calls run untraced and one more call runs
under tracemalloc; the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced calls alternate (see tracing.py) and the per-layer
metrics are printed, with the trace overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give each metric with its unit and a
provenance record: sizes, input and output sha256, Python and numpy
versions, nproc and the BLAS thread count.  The spans of a traced run are
written to ``.bench_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracing import BuildPeak, Tracer, invocation_metrics, median_metrics, split_invocations
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11
MIN_SAMPLES = 20
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s.p50": "s",
    "run_s.tail": "s",
    "work_per_s": "1/s",
    "peak_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def import_package():
    """Import tailbounds afresh from src/ (dropping any loaded copy); return its cli module."""
    for name in [n for n in sys.modules if n == "tailbounds" or n.startswith("tailbounds.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("tailbounds.cli")
    if Path(cli.__file__).resolve().parent != SRC / "tailbounds":
        raise RuntimeError(f"imported tailbounds from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed: int, workdir: Path):
    """Import, generate and write the inputs SETUP_REPEATS times.

    Returns (median set-up seconds, cli module, input digests, oracle data).
    Raises if two repetitions write different bytes.
    """
    times, digests = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_package()
        files, data = workload.inputs(seed, workload.size)
        for name, content in files.items():
            (workdir / name).write_bytes(content)
        times.append(time.perf_counter() - start)
        written = {
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in files
        }
        if digests is not None and written != digests:
            raise RuntimeError("the same seed produced different input bytes")
        digests = written
    return statistics.median(times), cli, digests, data


def invoke(cli, argv, workdir: Path, outputs) -> tuple:
    """One timed cli.main call; returns (seconds, Outcome)."""
    for name in outputs:
        (workdir / name).unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    files = {
        name: (workdir / name).read_bytes() if (workdir / name).exists() else None
        for name in outputs
    }
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), files)


def digest(outcome: Outcome) -> str:
    h = hashlib.sha256()
    h.update(f"{outcome.code}\n".encode())
    h.update(outcome.stdout.encode())
    h.update(outcome.stderr.encode())
    for name in sorted(outcome.files):
        h.update(name.encode())
        h.update(outcome.files[name] or b"<missing>")
    return h.hexdigest()


class Checker:
    """Counts invocations and failures; each distinct output is checked once."""

    def __init__(self, workload, data):
        self.workload, self.data = workload, data
        self.reference = None
        self.problems: dict = {}
        self.attempted = self.failed = 0

    def record(self, outcome: Outcome) -> None:
        key = digest(outcome)
        if key not in self.problems:
            self.problems[key] = self.workload.check(outcome, self.workload.size, self.data)
        if self.reference is None:
            self.reference = key
        self.attempted += 1
        if self.problems[key] or key != self.reference:
            self.failed += 1

    def report(self) -> list:
        lines = [f"{key[:12]}: {p}" for key, problems in self.problems.items() for p in problems]
        if len(self.problems) > 1:
            lines.append(f"{len(self.problems)} distinct outputs; first was {self.reference[:12]}")
        return lines


def tail(times: list) -> tuple:
    """(percentile, value): the highest whole percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = len(ordered)
    percentile = math.floor(100 * (k - TAIL_BEYOND) / k)
    rank = max(1, math.ceil(percentile * k / 100))
    return percentile, ordered[rank - 1]


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run(workload, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    setup_s, cli, input_digests, data = set_up(workload, seed, workdir)
    argv = workload.argv(workdir, seed, workload.size)
    checker = Checker(workload, data)

    _, outcome = invoke(cli, argv, workdir, workload.outputs)  # warm-up
    checker.record(outcome)

    times, traced_times = [], []
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_SAMPLES:
        elapsed, outcome = invoke(cli, argv, workdir, workload.outputs)
        times.append(elapsed)
        checker.record(outcome)
        if tracer is not None:
            tracer.invocation = len(traced_times)
            with tracer.patch:
                elapsed, outcome = invoke(cli, argv, workdir, workload.outputs)
            traced_times.append(elapsed)
            checker.record(outcome)

    peak = BuildPeak()
    (_, outcome), peak_bytes = peak.run(
        lambda: invoke(cli, argv, workdir, workload.outputs)
    )
    checker.record(outcome)

    work = workload.work(workload.size)
    percentile, tail_value = tail(times)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "run_s.p50": statistics.median(times),
            "run_s.tail": tail_value,
            "work_per_s": work * len(times) / sum(times),
            "peak_mb": peak_bytes / 1e6,
        }
        units = END_TO_END_UNITS
    else:
        per_invocation = [
            invocation_metrics(spans) for spans in split_invocations(tracer.spans).values()
        ]
        metrics = median_metrics(per_invocation)
        metrics["covop.build.peak_mb"] = max(peak.build_peaks, default=0) / 1e6
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        units = {name: per_layer_unit(name) for name in metrics}
        trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()))
        expected = workload.seed_counts(workload.size)
        varying = [
            name
            for name in per_invocation[0]
            if per_layer_unit(name) == "count" and len({m[name] for m in per_invocation}) > 1
        ]

    provenance = {
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.size,
        "work_per_invocation": f"{work} {workload.unit}",
        "samples": len(times),
        "run_s.tail_percentile": percentile,
        "fail_frac": checker.failed / checker.attempted,
        "input_sha256": input_digests,
        "output_sha256": checker.reference,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        provenance["traced_samples"] = len(traced_times)
        provenance["seed_commit_counts"] = expected
        provenance["counts_varying_between_invocations"] = varying
        provenance["trace_file"] = str(trace_path.relative_to(ROOT))
    return {
        "metrics": metrics,
        "units": units,
        "provenance": provenance,
        "problems": checker.report(),
        "attempted": checker.attempted,
        "failed": checker.failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tailbounds" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tailbounds package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)

    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:.6g} {result['units'][name]}")
    print(f"{'fail_frac':40s} {result['provenance']['fail_frac']:.6g} ratio")
    print(json.dumps({"provenance": result["provenance"]}))
    for problem in result["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

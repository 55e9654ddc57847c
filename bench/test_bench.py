"""Tests of the benchmark itself, on small inputs.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import math
import sys

import pytest

import run
from tracing import END, PARENT, START, Tracer, invocation_metrics, self_times, split_invocations
from workloads import WORKLOADS, Outcome

SMALL = {
    "exact-sweep": {"n": 200, "dim": 3, "grid": 10},
    "hilbert-reduce": {"n": 100, "grid": 50},
    "mc-grid": {"dim": 3, "grid": 3, "draws": 100},
    "quantize-ball": {"samples": 50},
}


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    return run.import_package()


@pytest.fixture(params=sorted(SMALL))
def traced_pair(request, cli, tmp_path):
    """(workload, untraced outcome, traced outcome, tracer) for one small workload."""
    workload = WORKLOADS[request.param].with_size(**SMALL[request.param])
    files, data = workload.inputs(3, workload.size)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = workload.argv(tmp_path, 3, workload.size)
    _, plain = run.invoke(cli, argv, tmp_path, workload.outputs)
    tracer = Tracer()
    with tracer.patch:
        _, traced = run.invoke(cli, argv, tmp_path, workload.outputs)
    assert workload.check(plain, workload.size, data) == []
    return workload, plain, traced, tracer


def test_traced_output_is_byte_identical(traced_pair):
    _, plain, traced, _ = traced_pair
    assert run.digest(traced) == run.digest(plain)


def test_child_spans_nest_within_parents(traced_pair):
    spans = traced_pair[3].spans
    assert spans[0][PARENT] == -1 and spans[0][0] == "cli.main"
    for span in spans[1:]:
        parent = spans[span[PARENT]]
        assert parent[START] <= span[START] <= span[END] <= parent[END]


def test_self_times_and_children_cover_the_root(traced_pair):
    spans = traced_pair[3].spans
    root = spans[0][END] - spans[0][START]
    own = self_times(spans)
    assert min(own) >= -1e-9
    assert math.isclose(sum(own), root, rel_tol=1e-9, abs_tol=1e-12)


def test_counts_match_the_seed_commit_formulas(traced_pair):
    workload, _, _, tracer = traced_pair
    (spans,) = split_invocations(tracer.spans).values()
    metrics = invocation_metrics(spans)
    for name, expected in workload.seed_counts(workload.size).items():
        assert metrics[name] == expected, name


def test_patch_reaches_every_importing_module(cli):
    patch = Tracer().patch
    for namespace in ("tailbounds", "tailbounds.covop", "tailbounds.bounds",
                      "tailbounds.hilbert", "tailbounds.cli"):
        assert f"{namespace}.build" in patch.bindings()
    original = cli.build
    with patch:
        assert cli.build is not original
    assert cli.build is original


def test_exact_sweep_oracle_rejects_a_changed_lhs(cli, tmp_path):
    workload = WORKLOADS["exact-sweep"].with_size(**SMALL["exact-sweep"])
    files, data = workload.inputs(5, workload.size)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    _, outcome = run.invoke(cli, workload.argv(tmp_path, 5, workload.size), tmp_path, ())
    lines = outcome.stdout.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("grenander,"))
    cells = lines[index].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[index] = ",".join(cells)
    tampered = Outcome(outcome.code, "\n".join(lines) + "\n", outcome.stderr, outcome.files)
    assert workload.check(outcome, workload.size, data) == []
    assert any("grenander lhs" in p for p in workload.check(tampered, workload.size, data))


def test_same_seed_gives_identical_inputs():
    for workload in WORKLOADS.values():
        small = workload.with_size(**SMALL[workload.name])
        assert small.inputs(7, small.size)[0] == small.inputs(7, small.size)[0]
        assert small.inputs(7, small.size)[0] != small.inputs(8, small.size)[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 61)]
    percentile, value = run.tail(times)
    assert percentile == 83
    assert sum(t > value for t in times) >= run.TAIL_BEYOND

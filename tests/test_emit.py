"""The CLI's emit against the dict route it replaced (conftest.dict_route_main).

verify, sweep and mc now write their report text one inequality's rows at a
time from _evaluate_grid's columns.  Before, every row of every inequality
was a dict, all of them were sorted by sort_rows and formatted into one
text.  Both routes must give the same exit code, stdout, stderr and --out
bytes.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tailbounds.bounds
import tailbounds.cli
from tailbounds import DiscreteMeasure, PNormSpace, Sampler, build, save_measure, save_operator
from tailbounds.measure import GAUSSIAN

from conftest import dict_route_main


def _pairs(dim: int, p: float = 2.0, seed: int = 0) -> DiscreteMeasure:
    """A measure of +-x pairs of equal weight: exactly centered."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((12, dim))
    weights = np.tile(rng.uniform(0.5, 1.5, 12), 2)
    atoms = np.concatenate([half, -half])
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights / weights.sum())


@pytest.fixture
def inputs(tmp_path) -> dict:
    rng = np.random.default_rng(5)
    measures = {
        "pairs": _pairs(3),
        "line": _pairs(1),
        "cubic": _pairs(3, p=3.0),
        "uncentered": DiscreteMeasure(
            PNormSpace(3, 2.0), rng.standard_normal((20, 3)) + 0.5, np.full(20, 0.05)
        ),
        "planar": DiscreteMeasure(
            PNormSpace(3, 2.0),
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
            [0.25] * 4,
        ),
        "dual": DiscreteMeasure(PNormSpace(3, 2.0), rng.standard_normal((9, 3)),
                                np.full(9, 1.0 / 9.0), "dual"),
    }
    paths = {}
    for name, measure in measures.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_measure(measure, paths[name])
    sampler = Sampler(PNormSpace(2, 2.0), GAUSSIAN, seed=3, cov_factor=[[1.0, 0.0], [0.5, 2.0]])
    paths["sampler"] = str(tmp_path / "sampler.json")
    with open(paths["sampler"], "w") as fh:
        json.dump(sampler.to_dict(), fh)
    operators = {
        "operator": _pairs(2),
        "singular": DiscreteMeasure(  # rank one: both atoms on one line
            PNormSpace(2, 2.0), [[1.0, 2.0], [-1.0, -2.0]], [0.5, 0.5]
        ),
    }
    for name, measure in operators.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_operator(build(measure), paths[name])
    paths["out"] = str(tmp_path / "report.out")
    return paths


GRID = ("--grid", "0.05:20:17,log")

CASES = {
    "verify-all": ("verify", "--input", "pairs", "--inequality", "all", *GRID),
    "sweep-all": ("sweep", "--input", "pairs", "--inequality", "all", *GRID),
    "verify-one": ("verify", "--input", "pairs", "--inequality", "rao_inverse",
                   "--epsilon", "0.7"),
    "verify-line-all": ("verify", "--input", "line", "--inequality", "all", *GRID),
    "verify-dual-input": ("verify", "--input", "pairs", "--inequality", "banach_dual",
                          "--dual-input", "dual", *GRID),
    "skip-uncentered": ("verify", "--input", "uncentered", "--inequality", "all", *GRID),
    "skip-uncentered-chen": ("verify", "--input", "uncentered", "--inequality", "chen", *GRID),
    "skip-singular": ("verify", "--input", "planar", "--inequality", "all", *GRID),
    "skip-scalar-dim-3": ("verify", "--input", "pairs", "--inequality", "scalar", *GRID),
    "skip-chen-p-3": ("verify", "--input", "cubic", "--inequality", "chen", *GRID),
    "p-3-all": ("verify", "--input", "cubic", "--inequality", "all", *GRID),
    "mc-norm": ("mc", "--input", "sampler", "--statistic", "norm", "--draws", "300", *GRID),
    "mc-quad": ("mc", "--input", "sampler", "--statistic", "quad_S", "--operator", "operator",
                "--draws", "300", *GRID),
    "mc-mahalanobis": ("mc", "--input", "sampler", "--statistic", "mahalanobis_S",
                       "--operator", "operator", "--draws", "300", *GRID),
    "mc-skip-singular": ("mc", "--input", "sampler", "--statistic", "mahalanobis_S",
                         "--operator", "singular", "--draws", "300", *GRID),
}


def _argv(case: str, inputs: dict, fmt: str, out: bool) -> list:
    argv = [inputs.get(arg, arg) for arg in CASES[case]] + ["--format", fmt]
    return argv + ["--out", inputs["out"]] if out else argv


def _outcome(capsys, inputs, call) -> tuple:
    """One run's exit code, stdout, stderr and --out bytes; the file is removed."""
    code = call()
    captured = capsys.readouterr()
    out = Path(inputs["out"])
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def _both(capsys, inputs, argv, monkeypatch, epsilons=None) -> tuple:
    """(new, old) outcomes: exit code, stdout, stderr and the --out bytes."""
    if epsilons is not None:
        monkeypatch.setattr(tailbounds.cli, "_epsilons_from_args", lambda args: tuple(epsilons))
    new = _outcome(capsys, inputs, lambda: tailbounds.cli.main(argv))
    monkeypatch.undo()
    old = _outcome(capsys, inputs, lambda: dict_route_main(argv, epsilons))
    return new, old


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_emit_matches_the_dict_route(inputs, capsys, monkeypatch, case, fmt, out):
    new, old = _both(capsys, inputs, _argv(case, inputs, fmt, out), monkeypatch)
    assert new == old
    code, stdout, stderr, written = new
    assert (code, stderr) == (0, "")
    text = written if out else stdout.encode()
    assert text.startswith(b"inequality," if fmt == "csv" else b"[")
    assert (b"skipped: " in text) == ("skip" in case)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["verify-all", "skip-uncentered", "skip-singular", "mc-norm",
                                  "mc-skip-singular"])
def test_unsorted_epsilons_with_repeats_match_the_dict_route(inputs, capsys, monkeypatch, case,
                                                             fmt):
    epsilons = [3.0, 0.2, 1.0, 3.0, 0.05, 1.0, 7.5, 0.2]
    new, old = _both(capsys, inputs, _argv(case, inputs, fmt, False), monkeypatch, epsilons)
    assert new == old
    assert new[0] == 0


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["verify-all", "skip-uncentered", "mc-quad"])
def test_forced_violations_match_the_dict_route(inputs, capsys, monkeypatch, case, fmt, out):
    # the evaluators hold every bound, so a negative slack forces failing rows
    argv = _argv(case, inputs, fmt, out)
    monkeypatch.setattr(tailbounds.bounds, "HOLDS_SLACK", -1.0)
    new = _outcome(capsys, inputs, lambda: tailbounds.cli.main(argv))
    old = _outcome(capsys, inputs, lambda: dict_route_main(argv))
    assert new == old
    code, _, stderr, _ = new
    assert code == 2 and stderr.startswith("violation: ")
    lines = stderr.splitlines()
    assert all(line.startswith("violation: inequality=") for line in lines)
    assert len(lines) < 17 * (8 if case != "mc-quad" else 1)  # some rows hold


def test_empty_report_is_an_empty_json_list(capsys):
    config = tailbounds.cli.argparse.Namespace(fmt="json", out=None)
    assert tailbounds.cli._finish_rows(config, []) == 0
    assert capsys.readouterr().out == "[]\n"


def test_verify_all_peak_is_the_prepared_state(tmp_path, capsys):
    """verify --inequality all on a 10000 x 8 measure in the benchmark's
    compact layout: the block reader and the per-grid emit leave the peak
    to the measure's arrays and sorted statistics (1.9 MB); reading the
    whole file and formatting every row at once took it to 3.8 MB."""
    rng = np.random.default_rng(3)
    half = rng.standard_normal((5000, 8))
    weights = np.tile(rng.uniform(0.5, 1.5, 5000), 2)
    measure = DiscreteMeasure(
        PNormSpace(8, 2.0), np.concatenate([half, -half]), weights / weights.sum()
    )
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure.to_dict()) + "\n")
    argv = ["verify", "--input", str(path), "--inequality", "all", "--format", "csv",
            "--grid", "0.1:100:400,log"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = tailbounds.cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 1 + 7 * 400
    assert peak < 2.2e6

"""The four benchmark workloads: seeded inputs, command lines and output checks.

Inputs are written by this file with numpy and json only, so they do not
depend on the code under test.  Every check here is independent of the
package too: it parses the output with the standard library and, for
exact-sweep, re-derives two inequalities with numpy norms and math.fsum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# unit roundoff of float64
U = 2.0**-53
# Atoms whose statistic is within this relative distance of epsilon may fall
# on either side: the package and the oracle round the norm differently.
NEAR_RTOL = 1e-13
# Tail sums of at most 2**20 weights in [0, 1]: pairwise and exact sums agree
# far inside this.
LHS_ATOL = 1e-13

EXACT_INEQUALITIES = (
    "banach_dual",
    "banach_mahalanobis",
    "chen",
    "euclidean",
    "grenander",
    "rao_forward",
    "rao_inverse",
)


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation produced."""

    code: int
    stdout: str
    stderr: str
    files: dict  # output file name -> bytes, or None when it was not written


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what one unit of work_per_s is
    size: dict
    inputs: Callable  # (seed, size) -> ({file name: bytes}, oracle data)
    argv: Callable  # (workdir, seed, size) -> argument list for cli.main
    outputs: tuple  # files the invocation writes into the workdir
    work: Callable  # size -> work units per invocation
    check: Callable  # (outcome, size, oracle data) -> list of problems
    seed_counts: Callable  # size -> per-layer counts the seed commit produces

    def with_size(self, **changes) -> "Workload":
        return Workload(**{**self.__dict__, "size": {**self.size, **changes}})


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def _json_bytes(document: dict) -> bytes:
    return (json.dumps(document) + "\n").encode()


def _centered_pairs(rng, n: int, dim: int) -> np.ndarray:
    """n atoms as +-x pairs of anisotropic gaussians: the mean is exactly zero."""
    half = rng.standard_normal((n // 2, dim)) * rng.uniform(0.5, 2.0, dim)
    return np.concatenate([half, -half])


def _measure_input(atoms: np.ndarray) -> tuple:
    n, dim = atoms.shape
    weights = np.full(n, 1.0 / n)
    document = {
        "dim": dim,
        "p": 2.0,
        "role": "primal",
        "atoms": atoms.tolist(),
        "weights": weights.tolist(),
    }
    return {"measure.json": _json_bytes(document)}, {"atoms": atoms, "weights": weights}


def _grid(size: dict) -> str:
    lo, hi = size["eps"]
    return f"{lo}:{hi}:{size['grid']},log"


def _common_problems(outcome: Outcome) -> list:
    problems = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}")
    if outcome.stderr:
        problems.append(f"stderr: {outcome.stderr[:200]!r}")
    return problems


# -- exact-sweep -------------------------------------------------------------


def _exact_sweep_inputs(seed: int, size: dict):
    rng = _rng(seed, "exact-sweep")
    return _measure_input(_centered_pairs(rng, size["n"], size["dim"]))


def _exact_sweep_argv(workdir: Path, seed: int, size: dict) -> list:
    return [
        "verify", "--input", str(workdir / "measure.json"), "--inequality", "all",
        "--format", "csv", "--grid", _grid(size),
    ]


def _tail_oracle(stat: np.ndarray, weights: np.ndarray, epsilons) -> list:
    """[(lower, upper)] of P{stat >= eps}, atoms near eps allowed either side.

    Sums are exact (math.fsum) over chunks between thresholds and then over
    chunk sums, so the only rounding is one fsum per chunk boundary.
    """
    order = np.argsort(-stat, kind="stable")
    descending, ordered = -stat[order], weights[order]
    cuts = []
    for eps in epsilons:
        strict = np.searchsorted(descending, -eps * (1.0 + NEAR_RTOL), side="right")
        loose = np.searchsorted(descending, -eps * (1.0 - NEAR_RTOL), side="right")
        cuts.append((int(strict), int(loose)))
    points = sorted({0, *(c for pair in cuts for c in pair)})
    prefix = {0: 0.0}
    chunks = []
    for a, b in zip(points, points[1:]):
        chunks.append(math.fsum(ordered[a:b].tolist()))
        prefix[b] = math.fsum(chunks)
    return [(prefix[strict], prefix[loose]) for strict, loose in cuts]


def _check_tail_rows(rows, stat, weights, moment, problems, name):
    epsilons = [row["epsilon"] for row in rows]
    for (lower, upper), row in zip(_tail_oracle(stat, weights, epsilons), rows):
        eps = row["epsilon"]
        if not (lower - LHS_ATOL <= row["lhs"] <= upper + LHS_ATOL):
            problems.append(f"{name} lhs {row['lhs']!r} outside [{lower!r}, {upper!r}] at {eps}")
        rhs = moment / eps**2
        # the package sums the moment in another order: allow the recursive
        # summation bound n*u on each of its terms
        if abs(row["rhs"] - rhs) > 4.0 * len(stat) * U * rhs:
            problems.append(f"{name} rhs {row['rhs']!r} differs from {rhs!r} at {eps}")


def _exact_sweep_check(outcome: Outcome, size: dict, data: dict) -> list:
    problems = _common_problems(outcome)
    rows = list(csv.DictReader(io.StringIO(outcome.stdout)))
    grid = size["grid"]
    if len(rows) != len(EXACT_INEQUALITIES) * grid:
        return problems + [f"{len(rows)} rows, expected {len(EXACT_INEQUALITIES) * grid}"]
    by_name: dict = {}
    for row in rows:
        if row["method"].startswith("skipped:"):
            problems.append(f"skipped row {row['inequality']} at {row['epsilon']}")
            continue
        if row["holds"] != "true":
            problems.append(f"violation {row['inequality']} at {row['epsilon']}")
        by_name.setdefault(row["inequality"], []).append(
            {key: float(row[key]) for key in ("epsilon", "lhs", "rhs")}
        )
    if problems:
        return problems
    expected_grid = np.geomspace(*size["eps"], grid)
    for name in EXACT_INEQUALITIES:
        epsilons = [row["epsilon"] for row in by_name.get(name, [])]
        if len(epsilons) != grid or not np.allclose(epsilons, expected_grid, rtol=1e-12, atol=0):
            problems.append(f"{name}: epsilons do not match the requested grid")
    if problems:
        return problems

    atoms, weights = data["atoms"], data["weights"]
    center = np.array([math.fsum((weights * column).tolist()) for column in atoms.T])
    for name, points in (("grenander", atoms), ("euclidean", atoms - center)):
        stat = np.linalg.norm(points, axis=1)
        moment = math.fsum((weights * stat**2).tolist())
        _check_tail_rows(by_name[name], stat, weights, moment, problems, name)
    return problems


def _exact_sweep_counts(size: dict) -> dict:
    # chen, rao_forward, rao_inverse, banach_dual, banach_mahalanobis build once each
    return {"covop.build.calls": 5, "measure.draws": 0}


# -- hilbert-reduce ----------------------------------------------------------


def _hilbert_reduce_inputs(seed: int, size: dict):
    rng = _rng(seed, "hilbert-reduce")
    return _measure_input(_centered_pairs(rng, size["n"], size["dim"]))


def _hilbert_reduce_argv(workdir: Path, seed: int, size: dict) -> list:
    return ["reduce", "--input", str(workdir / "measure.json"), "--grid", _grid(size)]


def _hilbert_reduce_check(outcome: Outcome, size: dict, data: dict) -> list:
    problems = _common_problems(outcome)
    try:
        document = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    if document.get("failures") != []:
        problems.append(f"failures: {document.get('failures')!r}")
    if len(document.get("equivalence", ())) != size["grid"]:
        problems.append(f"{len(document.get('equivalence', ()))} epsilon entries")
    if (document.get("n_atoms"), document.get("dim")) != (size["n"], size["dim"]):
        problems.append("n_atoms or dim do not match the input")
    return problems


def _hilbert_reduce_counts(size: dict) -> dict:
    # 3 builds up front, then 4 per epsilon in bound_equivalence
    return {"covop.build.calls": 4 * size["grid"] + 3, "measure.draws": 0}


# -- mc-grid -----------------------------------------------------------------


def _mc_grid_inputs(seed: int, size: dict):
    rng = _rng(seed, "mc-grid")
    dim = size["dim"]
    factor = np.tril(0.3 * rng.standard_normal((dim, dim)), -1) + np.diag(
        rng.uniform(0.5, 1.5, dim)
    )
    covariance = factor @ factor.T
    covariance = (covariance + covariance.T) / 2.0
    sampler = {
        "dim": dim,
        "p": size["p"],
        "family": "gaussian",
        "seed": seed,
        "mean": [0.0] * dim,
        "cov_factor": factor.tolist(),
    }
    operator = {
        "dim": dim,
        "p": size["p"],
        "matrix": covariance.tolist(),
        # E||X||_2^2; mahalanobis_S does not read the operator's moment
        "second_moment": float(np.trace(covariance)),
    }
    files = {"sampler.json": _json_bytes(sampler), "operator.json": _json_bytes(operator)}
    return files, {}


def _mc_grid_argv(workdir: Path, seed: int, size: dict) -> list:
    return [
        "mc", "--input", str(workdir / "sampler.json"),
        "--operator", str(workdir / "operator.json"), "--statistic", "mahalanobis_S",
        "--grid", _grid(size), "--draws", str(size["draws"]), "--seed", str(seed),
    ]


def _mc_grid_check(outcome: Outcome, size: dict, data: dict) -> list:
    problems = _common_problems(outcome)
    try:
        rows = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    if len(rows) != size["grid"]:
        return problems + [f"{len(rows)} rows, expected {size['grid']}"]
    previous = 1.0
    for row in rows:
        if row["method"] != "monte-carlo" or row["inequality"] != "banach_mahalanobis":
            problems.append(f"unexpected row {row['inequality']} {row['method']}")
            continue
        if row["holds"] is not True:
            problems.append(f"violation at {row['epsilon']}")
        if not (0.0 <= row["lhs"] <= previous):
            problems.append(f"lhs {row['lhs']!r} not in [0, {previous!r}] at {row['epsilon']}")
        previous = row["lhs"]
    return problems


def _mc_grid_counts(size: dict) -> dict:
    # every epsilon redraws the sample and re-inverts the operator
    return {
        "covop.build.calls": 0,
        "covop.invert.calls": size["grid"],
        "measure.draws": size["grid"] * size["draws"],
    }


# -- quantize-ball -----------------------------------------------------------


def _quantize_ball_inputs(seed: int, size: dict):
    sampler = {
        "dim": size["dim"],
        "p": size["p"],
        "family": "uniform-ball",
        "seed": seed,
        "radius": 1.0,
    }
    return {"sampler.json": _json_bytes(sampler)}, {}


def _quantize_ball_argv(workdir: Path, seed: int, size: dict) -> list:
    return [
        "quantize", "--input", str(workdir / "sampler.json"),
        "--samples", str(size["samples"]), "--resolution", str(size["resolution"]),
        "--out", str(workdir / "quantized.json"), "--seed", str(seed),
    ]


def _quantize_ball_check(outcome: Outcome, size: dict, data: dict) -> list:
    problems = _common_problems(outcome)
    if outcome.stdout:
        problems.append("stdout is not empty")
    measure_bytes = outcome.files.get("quantized.json")
    report_bytes = outcome.files.get("quantized.json.report.json")
    if measure_bytes is None or report_bytes is None:
        return problems + ["output measure or report missing"]
    report = json.loads(report_bytes)
    measure = json.loads(measure_bytes)
    n = size["samples"]
    if report["n_samples"] != n:
        problems.append(f"report n_samples {report['n_samples']}")
    for part in ("quantization", "halved"):
        stats = report[part]
        if stats["shrink_ok"] is not True:
            problems.append(f"{part}: shrink_ok is false")
        if not stats["max_error"] <= stats["error_bound"]:
            problems.append(f"{part}: max_error above error_bound")
    if report["cauchy"]["holds"] is not True:
        problems.append("cauchy estimate does not hold")
    weights = measure["weights"]
    if abs(math.fsum(weights) - 1.0) > 1e-12:
        problems.append(f"weights sum to {math.fsum(weights)!r}")
    counts = [w * n for w in weights]
    if any(abs(c - round(c)) > 1e-6 for c in counts) or sum(round(c) for c in counts) != n:
        problems.append("weights are not counts over n_samples")
    if len(measure["atoms"]) != len(weights) or measure["dim"] != size["dim"]:
        problems.append("atoms and weights do not match")
    return problems


def _quantize_ball_counts(size: dict) -> dict:
    # quantize, the raw draws, then the coarse and fine couplings
    return {"covop.build.calls": 2, "measure.draws": 4 * size["samples"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-sweep",
            why=(
                "read path: verify --inequality all on an exactly centered p=2 measure; "
                "a few large builds, tail enumeration at every epsilon and the JSON "
                "load, with no draws"
            ),
            unit="report rows",
            size={"n": 10_000, "dim": 8, "grid": 400, "eps": (0.1, 100.0)},
            inputs=_exact_sweep_inputs,
            argv=_exact_sweep_argv,
            outputs=(),
            work=lambda size: len(EXACT_INEQUALITIES) * size["grid"],
            check=_exact_sweep_check,
            seed_counts=_exact_sweep_counts,
        ),
        Workload(
            name="hilbert-reduce",
            why=(
                "the covop layer used differently: many tiny rebuilds and inversions "
                "where per-call overhead dominates; the only workload reaching hilbert"
            ),
            unit="epsilon entries",
            size={"n": 2000, "dim": 3, "grid": 20, "eps": (0.05, 20.0)},
            inputs=_hilbert_reduce_inputs,
            argv=_hilbert_reduce_argv,
            outputs=(),
            work=lambda size: size["grid"],
            check=_hilbert_reduce_check,
            seed_counts=_hilbert_reduce_counts,
        ),
        Workload(
            name="mc-grid",
            why=(
                "sampling dominated: mc mahalanobis_S on a gaussian sampler, p=3, with "
                "the p=3 operator-norm bracket once per epsilon and no build"
            ),
            unit="draws evaluated",
            size={"dim": 8, "p": 3.0, "grid": 10, "draws": 2000, "eps": (1.0, 50.0)},
            inputs=_mc_grid_inputs,
            argv=_mc_grid_argv,
            outputs=(),
            work=lambda size: size["grid"] * size["draws"],
            check=_mc_grid_check,
            seed_counts=_mc_grid_counts,
        ),
        Workload(
            name="quantize-ball",
            why=(
                "write path: quantize --out on a uniform-ball sampler, which draws the "
                "same sample 4 times on the per-index path a vectorized sampler bypasses"
            ),
            unit="samples quantized",
            size={"dim": 4, "p": 3.0, "samples": 2000, "resolution": 0.01},
            inputs=_quantize_ball_inputs,
            argv=_quantize_ball_argv,
            outputs=("quantized.json", "quantized.json.report.json"),
            work=lambda size: size["samples"],
            check=_quantize_ball_check,
            seed_counts=_quantize_ball_counts,
        ),
    )
}

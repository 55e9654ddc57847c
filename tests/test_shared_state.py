"""Each CLI run computes its expensive state once and reuses it for every epsilon.

The commands build the operator once, invert it once and draw the sample
once per run.  These tests hold that to two things: the output is bitwise
what separate per-epsilon calls give, each of which builds its own state,
and the build / invert / draw counts of one run are the shared ones.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import tailbounds.bounds
import tailbounds.cli
import tailbounds.covop
import tailbounds.hilbert
import tailbounds.measure
from tailbounds import (
    CovarianceOperator,
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    bound_equivalence,
    build,
    cauchy_estimate,
    hilbert_covariance,
    invert,
    inverse_norm_pair,
    isometry_pushforward_moment,
    load_operator,
    mc_tail,
    quantize,
    quantize_points,
    riesz,
    save_measure,
    save_operator,
    sweep,
    verify_ST_equals_SH,
)
from tailbounds.bounds import rows_to_csv, rows_to_json, sort_rows
from tailbounds.cli import main, parse_grid
from tailbounds.measure import GAUSSIAN, UNIFORM_BALL
from tailbounds.space import ROLE_DUAL, conjugate_exponent, p_norm, p_norm_rows

from conftest import report_to_row

GRID = "0.2:6:7,log"
MODULES = (
    tailbounds.bounds, tailbounds.cli, tailbounds.covop, tailbounds.hilbert, tailbounds.measure,
)


def centered_pairs(dim: int, p: float, pairs: int = 20, seed: int = 4) -> DiscreteMeasure:
    """+-x pairs, so the mean is exactly zero and every centered bound applies."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((pairs, dim)) * rng.uniform(0.5, 2.0, dim)
    atoms = np.concatenate([half, -half])
    return DiscreteMeasure(PNormSpace(dim, p), atoms, np.full(2 * pairs, 0.5 / pairs))


def count_calls(monkeypatch, name: str, home=tailbounds.covop) -> list:
    """Count calls of home.<name> made through every module that binds it."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_draws(monkeypatch) -> list:
    """(first draw, count) of each block the one draw path yields, in order."""
    original = Sampler._blocks
    blocks = []

    def counted(self, start, stop):
        for block in original(self, start, stop):
            blocks.append((start, len(block)))
            start += len(block)
            yield block

    monkeypatch.setattr(Sampler, "_blocks", counted)
    return blocks


def drawn_once_in_order(n_draws: int) -> list:
    """count_draws' record of draws 0 to n_draws - 1, each drawn once, in order."""
    chunk = tailbounds.measure._CHUNK_DRAWS
    return [(start, min(chunk, n_draws - start)) for start in range(0, n_draws, chunk)]


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "p, names",
    [
        (2.0, ("banach_dual", "banach_mahalanobis", "chen", "euclidean", "grenander",
               "rao_forward", "rao_inverse")),
        (3.0, ("banach_dual", "banach_mahalanobis")),
    ],
)
def test_verify_all_matches_per_epsilon_sweeps(p, names, tmp_path, capsys, monkeypatch):
    measure = centered_pairs(3, p)
    path = tmp_path / "m.json"
    save_measure(measure, path)
    builds = count_calls(monkeypatch, "build")
    inverts = count_calls(monkeypatch, "invert")
    accumulations = count_calls(monkeypatch, "accumulate_outer")
    quadratics = count_calls(monkeypatch, "_quadratic_values")
    code, out, err = run(
        capsys, "verify", "--input", path, "--inequality", "all", "--grid", GRID,
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert (len(builds), len(inverts), len(accumulations)) == (1, 1, 1)
    # (S x, x), which banach_dual on the measure's own functionals shares with
    # rao_forward at p = 2, and (S^-1 x, x) inside mahalanobis
    assert len(quadratics) == 2

    monkeypatch.undo()
    pstar = replace(measure, role=ROLE_DUAL)
    rows = [
        report_to_row(sweep(name, measure, [eps], pstar=pstar)[0])
        for name in names
        for eps in parse_grid(GRID)
    ]
    assert out == rows_to_csv(sort_rows(rows))


def test_verify_all_singular_inverts_once(tmp_path, capsys, monkeypatch):
    # rank 2 in 3-d: centered, but every inverse-based bound is skipped
    atoms = np.vstack([np.eye(3)[:2], -np.eye(3)[:2]])
    path = tmp_path / "singular.json"
    save_measure(DiscreteMeasure(PNormSpace(3, 2.0), atoms, np.full(4, 0.25)), path)
    inverts = count_calls(monkeypatch, "invert")
    code, out, err = run(
        capsys, "verify", "--input", path, "--inequality", "all", "--grid", GRID,
    )
    assert (code, err) == (0, "")
    assert len(inverts) == 1
    methods = {}
    for row in json.loads(out):
        methods.setdefault(row["inequality"], set()).add(row["method"])
    for name in ("chen", "rao_inverse", "banach_mahalanobis"):
        assert methods[name] == {"skipped: not positive definite"}
    for name in ("banach_dual", "euclidean", "grenander", "rao_forward"):
        assert methods[name] == {"exact-enumeration"}


def _entry(result) -> dict:
    entry = {}
    for side in ("forward", "inverse"):
        banach = getattr(result, f"{side}_banach")
        hilbert = getattr(result, f"{side}_hilbert")
        entry[side] = {
            "banach_lhs": banach.lhs,
            "hilbert_lhs": hilbert.lhs,
            "banach_rhs": banach.rhs,
            "hilbert_rhs": hilbert.rhs,
            "rhs_deviation": getattr(result, f"{side}_rhs_deviation"),
            "lhs_deviation": getattr(result, f"{side}_lhs_deviation"),
            "boundary": getattr(result, f"{side}_boundary"),
        }
    return entry


def test_reduce_matches_per_epsilon_calls(tmp_path, capsys, monkeypatch):
    measure = centered_pairs(3, 2.0)
    path = tmp_path / "m.json"
    save_measure(measure, path)
    builds = count_calls(monkeypatch, "build")
    inverts = count_calls(monkeypatch, "invert")
    accumulations = count_calls(monkeypatch, "accumulate_outer")
    quadratics = count_calls(monkeypatch, "_quadratic_values")
    code, out, err = run(capsys, "reduce", "--input", path, "--grid", GRID, "--seed", 9)
    assert (code, err) == (0, "")
    assert (len(builds), len(inverts), len(accumulations)) == (1, 1, 1)
    # the forward pair shares one (S x, x); the Riesz image is the measure itself
    assert len(quadratics) == 2

    monkeypatch.undo()
    document = json.loads(out)
    transport = riesz(measure.space)
    # the printed fields against the second-route computations they stand for
    gap = np.abs(build(measure).matrix - hilbert_covariance(measure, transport)).max()
    assert document["matrix_max_abs_gap"] == gap
    lhs, rhs, equal = isometry_pushforward_moment(measure, transport)
    assert document["moment_transport"] == {"lhs": lhs, "rhs": rhs, "equal": equal}
    assert document["operator_identity_max_relative_gap"] == verify_ST_equals_SH(
        measure, transport, seed=9
    )
    direct, alternate = inverse_norm_pair(measure, transport)
    assert (document["inverse_norm_direct"], document["inverse_norm_alternate"]) == (
        direct, alternate,
    )
    grid = parse_grid(GRID)
    assert [entry["epsilon"] for entry in document["equivalence"]] == list(grid)
    expected = [_entry(bound_equivalence(measure, eps)) for eps in grid]
    assert [{k: e[k] for k in ("forward", "inverse")} for e in document["equivalence"]] == expected


@pytest.fixture
def mc_inputs(tmp_path):
    sampler = Sampler(
        space=PNormSpace(3, 2.0),
        family=GAUSSIAN,
        seed=1,
        mean=np.zeros(3),
        cov_factor=np.diag([1.0, 0.7, 1.4]),
    )
    sampler_path = tmp_path / "s.json"
    sampler_path.write_text(json.dumps(sampler.to_dict()))
    operator_path = tmp_path / "op.json"
    save_operator(build(centered_pairs(3, 2.0)), operator_path)
    return sampler, sampler_path, operator_path


@pytest.mark.parametrize("statistic", ["norm", "quad_S", "mahalanobis_S"])
def test_mc_matches_per_epsilon_calls(statistic, mc_inputs, capsys, monkeypatch):
    sampler, sampler_path, operator_path = mc_inputs
    args = ["mc", "--input", sampler_path, "--statistic", statistic, "--grid", GRID,
            "--draws", 300, "--seed", 6]
    if statistic != "norm":
        args += ["--operator", operator_path]
    blocks = count_draws(monkeypatch)
    inverts = count_calls(monkeypatch, "invert")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert blocks == drawn_once_in_order(300)
    assert len(inverts) == (statistic == "mahalanobis_S")

    monkeypatch.undo()
    rows = []
    for eps in parse_grid(GRID):
        operator = None if statistic == "norm" else load_operator(operator_path)
        if statistic == "mahalanobis_S":
            operator = invert(operator)
        rows.append(report_to_row(mc_tail(sampler, statistic, operator, eps, 300, seed=6)))
    assert out == rows_to_json(sort_rows(rows))


def test_mc_singular_operator_skips_every_epsilon(mc_inputs, tmp_path, capsys, monkeypatch):
    _, sampler_path, _ = mc_inputs
    singular = CovarianceOperator(np.diag([1.0, 0.5, 0.0]), PNormSpace(3, 2.0), 1.5)
    operator_path = tmp_path / "singular.json"
    save_operator(singular, operator_path)
    inverts = count_calls(monkeypatch, "invert")
    code, out, err = run(
        capsys, "mc", "--input", sampler_path, "--statistic", "mahalanobis_S",
        "--operator", operator_path, "--grid", GRID, "--draws", 300,
    )
    assert (code, err) == (0, "")
    assert len(inverts) == 1
    rows = json.loads(out)
    assert [row["epsilon"] for row in rows] == list(parse_grid(GRID))
    for row in rows:
        assert row["inequality"] == "banach_mahalanobis"
        assert row["method"] == "skipped: not positive definite"
        assert row["holds"] is True
        assert row["lhs"] is None and row["rhs"] is None


def test_mc_mismatched_singular_operator_is_an_input_error(
    mc_inputs, tmp_path, capsys, monkeypatch
):
    """A dimension mismatch is refused before the operator is inverted or the
    sample drawn, whether the operator is definite or not."""
    _, sampler_path, _ = mc_inputs
    singular = CovarianceOperator(np.diag([1.0, 0.5, 0.0, 2.0]), PNormSpace(4, 2.0), 3.5)
    operator_path = tmp_path / "singular4.json"
    save_operator(singular, operator_path)
    blocks = count_draws(monkeypatch)
    inverts = count_calls(monkeypatch, "invert")
    code, out, err = run(
        capsys, "mc", "--input", sampler_path, "--statistic", "mahalanobis_S",
        "--operator", operator_path, "--grid", GRID, "--draws", 300,
    )
    assert (code, out, err) == (1, "", "error: sampler and operator dimensions differ\n")
    assert (blocks, inverts) == ([], [])


def test_quantize_matches_separately_drawn_outputs(tmp_path, capsys, monkeypatch):
    sampler = Sampler(space=PNormSpace(3, 3.0), family=UNIFORM_BALL, seed=2)
    sampler_path = tmp_path / "s.json"
    sampler_path.write_text(json.dumps(sampler.to_dict()))
    out_path = tmp_path / "q.json"
    blocks = count_draws(monkeypatch)
    accumulations = count_calls(monkeypatch, "accumulate_outer")
    code, out, err = run(
        capsys, "quantize", "--input", sampler_path, "--samples", 400,
        "--resolution", 0.05, "--seed", 8, "--out", out_path,
    )
    assert (code, out, err) == (0, "", "")
    assert blocks == drawn_once_in_order(400)
    assert accumulations == []  # the Cauchy check sums S_n f - S_m f from its terms

    monkeypatch.undo()
    # the seed-commit report: every measure and every error check draws anew
    sampler = replace(sampler, seed=8)
    p, dim = 3.0, 3
    functional = np.random.default_rng(8).standard_normal(dim)
    functional /= p_norm(functional, conjugate_exponent(p))

    def error_stats(resolution):
        raw = sampler.draw_block(0, 400)
        grid = quantize_points(raw, resolution)
        return {
            "resolution": resolution,
            "max_error": float(p_norm_rows(grid - raw, p).max()),
            "error_bound": resolution * dim ** (1.0 / p),
            "shrink_ok": bool(np.all(np.abs(grid) <= np.abs(raw))),
        }

    coarse = quantize(sampler, 400, 0.05, merge=False)
    fine = quantize(sampler, 400, 0.025, merge=False)
    lhs, rhs, holds = cauchy_estimate(coarse, fine, functional)
    report = {
        "n_samples": 400,
        "quantization": error_stats(0.05),
        "halved": error_stats(0.025),
        "cauchy": {"functional": functional.tolist(), "lhs": lhs, "rhs": rhs, "holds": holds},
    }
    assert (tmp_path / "q.json.report.json").read_text() == json.dumps(report, indent=2) + "\n"
    expected_path = tmp_path / "expected.json"
    save_measure(quantize(sampler, 400, 0.05), expected_path)
    assert out_path.read_bytes() == expected_path.read_bytes()


def test_verify_all_at_p3_constructs_the_measure_once(tmp_path, capsys, monkeypatch):
    """The default dual sample is the loaded measure's own atoms: its q-norm
    moment is taken from them, with no second, validated measure."""
    path = tmp_path / "m.json"
    save_measure(centered_pairs(3, 3.0), path)
    original = DiscreteMeasure.__post_init__
    constructed = []

    def counted(self):
        constructed.append(self.role)
        original(self)

    monkeypatch.setattr(DiscreteMeasure, "__post_init__", counted)
    code, out, err = run(
        capsys, "verify", "--input", path, "--inequality", "all", "--grid", GRID,
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert constructed == ["primal"]


def test_verify_all_takes_the_atom_norms_and_moment_once(tmp_path, capsys, monkeypatch):
    """At p = 2, build, grenander and the default dual sample (the same atoms
    read as functionals) share one set of atom norms and one second moment."""
    measure = centered_pairs(3, 2.0)
    path = tmp_path / "m.json"
    save_measure(measure, path)
    original = tailbounds.measure.p_norm_rows
    norm_rows = []

    def counted(rows, p):
        norm_rows.append(np.array(rows))
        return original(rows, p)

    for module in MODULES:
        if getattr(module, "p_norm_rows", None) is original:
            monkeypatch.setattr(module, "p_norm_rows", counted)
    code, out, err = run(
        capsys, "verify", "--input", path, "--inequality", "all", "--grid", GRID,
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    # one pass: the mean is exactly zero, so euclidean reads grenander's norms
    # of its own centered state; the Mahalanobis clamp meets no negative value
    assert len(norm_rows) == 1
    assert np.array_equal(norm_rows[0], measure.atoms)


def uncentered_pairs(dim: int, p: float) -> DiscreteMeasure:
    measure = centered_pairs(dim, p)
    return replace(measure, atoms=measure.atoms + np.linspace(0.25, 1.0, dim))


@pytest.mark.parametrize(
    "measure, sorts, constructed",
    [
        # grenander's norms, also euclidean's, then (S x, x) and (S^-1 x, x)
        (centered_pairs(3, 2.0), 3, ["primal"]),
        # euclidean sorts the norms of the measure's centered copy
        (uncentered_pairs(3, 2.0), 4, ["primal", "primal"]),
    ],
    ids=["centered", "uncentered"],
)
def test_verify_all_sorts_each_statistic_once(
    measure, sorts, constructed, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "m.json"
    save_measure(measure, path)
    sorts_made = count_calls(monkeypatch, "_grid_tails", tailbounds.measure)
    original = DiscreteMeasure.__post_init__
    roles = []

    def counted(self):
        roles.append(self.role)
        original(self)

    monkeypatch.setattr(DiscreteMeasure, "__post_init__", counted)
    code, out, err = run(
        capsys, "verify", "--input", path, "--inequality", "all", "--grid", GRID,
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert (len(sorts_made), roles) == (sorts, constructed)

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailbounds.cli
from tailbounds import (
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    build,
    invert,
    mc_tail,
    save_measure,
    sweep,
)
from tailbounds.bounds import report_to_row, rows_from_csv
from tailbounds.cli import UsageError, _finish_rows, main, parse_grid
from tailbounds.covop import save_operator
from tailbounds.errors import ShapeError
from tailbounds.measure import GAUSSIAN


# stdout digests of the runs in test_golden_output_digests; each also
# depends on the numpy build (see the test)
MC_GAUSSIAN_SHA256 = "cbc10b989761f1fc8c033a699b21351f263f0fb67cc9c7397f7d4838a1cc68ca"
QUANTIZE_BALL3_SHA256 = "0cc28115cb8495747f9c9c1e2b15d910adabc8af5736972a625b997331905e2d"
VERIFY_ALL_P2_SHA256 = "4d3be1e2f03d074fe933992ade47e011a73b4b060da0237ec0a5a4f445cef856"
REDUCE_SHA256 = "2e442ba6ab15f68f92afa6de55bfe5074fa7e0ccd57443736812d15c0c535f51"


def signs_measure(dim: int = 2, p: float = 2.0) -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights)


@pytest.fixture
def signs_path(tmp_path):
    path = tmp_path / "signs.json"
    save_measure(signs_measure(), path)
    return str(path)


@pytest.fixture
def sampler_path(tmp_path):
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=0,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    path = tmp_path / "sampler.json"
    path.write_text(json.dumps(sampler.to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_holds(signs_path, capsys):
    code, out, err = run(
        capsys, "verify", "--input", signs_path, "--epsilon", "2.0", "--format", "csv"
    )
    assert code == 0
    assert err == ""
    rows = rows_from_csv(out)
    # scalar needs dim 1 and is silently inapplicable under "all"
    assert {row["inequality"] for row in rows} == {
        "euclidean",
        "grenander",
        "chen",
        "rao_forward",
        "rao_inverse",
        "banach_dual",
        "banach_mahalanobis",
    }
    assert all(row["holds"] for row in rows)


def test_verify_explicit_inapplicable_emits_skip_rows(signs_path, capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--input",
        signs_path,
        "--inequality",
        "scalar",
        "--epsilon",
        "1.0",
        "--format",
        "csv",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "skipped: needs dim = 1"
    assert rows[0]["holds"] is True
    assert np.isnan(rows[0]["lhs"]) and np.isnan(rows[0]["rhs"])


def test_verify_rank_deficient_skips_pd_inequalities(tmp_path, capsys):
    planar = DiscreteMeasure(
        PNormSpace(3, 2.0),
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
        [0.25] * 4,
    )
    path = tmp_path / "planar.json"
    save_measure(planar, path)
    code, out, _ = run(
        capsys,
        "verify",
        "--input",
        str(path),
        "--inequality",
        "banach_mahalanobis",
        "--epsilon",
        "1.0",
        "--format",
        "csv",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert rows[0]["method"] == "skipped: not positive definite"


def test_verify_uncentered_chen_skips(tmp_path, capsys):
    shifted = DiscreteMeasure(
        PNormSpace(2, 2.0), [[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5]
    )
    path = tmp_path / "shifted.json"
    save_measure(shifted, path)
    # banach_mahalanobis needs only an invertible S, so it is evaluated here
    for inequality, method in (
        ("chen", "skipped: not centered"),
        ("banach_mahalanobis", "exact-enumeration"),
    ):
        code, out, _ = run(
            capsys,
            "verify",
            "--input",
            str(path),
            "--inequality",
            inequality,
            "--epsilon",
            "1.0",
            "--format",
            "csv",
        )
        assert code == 0
        row = rows_from_csv(out)[0]
        assert (row["method"], row["holds"]) == (method, True)


def test_verify_bad_weights_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 1,
                "p": 2.0,
                "role": "primal",
                "atoms": [[0.0], [1.0]],
                "weights": [0.5, 0.4],
            }
        )
    )
    code, _, err = run(capsys, "verify", "--input", str(path), "--epsilon", "1.0")
    assert code == 1
    assert "0.9" in err


def test_verify_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(path), "--epsilon", "1.0")
    assert code == 1
    assert err != ""


def test_verify_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--input", "/nonexistent.json", "--epsilon", "1.0")
    assert code == 1
    assert err != ""


def test_verify_requires_epsilon_or_grid(signs_path, capsys):
    code, _, err = run(capsys, "verify", "--input", signs_path)
    assert code == 1
    assert "--epsilon" in err or "--grid" in err


def test_unknown_inequality_exit_1(signs_path, capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--input",
        signs_path,
        "--inequality",
        "markov",
        "--epsilon",
        "1.0",
    )
    assert code == 1
    assert "markov" in err


def test_byte_identical_reruns(signs_path, tmp_path, capsys):
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "verify",
                "--input",
                signs_path,
                "--grid",
                "0.5:4:5,log",
                "--format",
                fmt,
                "--out",
                str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


def test_sweep_alias_matches_verify(signs_path, capsys):
    code_v, out_v, _ = run(
        capsys, "verify", "--input", signs_path, "--grid", "1:4:3,lin", "--format", "csv"
    )
    code_s, out_s, _ = run(
        capsys, "sweep", "--input", signs_path, "--grid", "1:4:3,lin", "--format", "csv"
    )
    assert code_v == code_s == 0
    assert out_v == out_s


def test_parse_grid():
    assert parse_grid("1:4:3,lin") == (1.0, 2.5, 4.0)
    log = parse_grid("0.1:10:3,log")
    assert log[0] == pytest.approx(0.1) and log[2] == pytest.approx(10.0)
    assert log[1] == pytest.approx(1.0, rel=1e-12)
    assert parse_grid("2:2:1,lin") == (2.0,)
    for bad in ("1:4:3", "1:4,log", "4:1:3,lin", "0:1:3,log", "1:4:0,lin",
                "1:4:10001,log", "a:b:c,lin", "1:1:3,log"):
        with pytest.raises(UsageError):
            parse_grid(bad)
    # an infinite end is refused by the range check, before any grid is made
    for infinite in ("1:inf:3,lin", "1:inf:3,log"):
        with pytest.raises(UsageError, match=r"^grid needs 0 < start <= stop, got 1\.0\.\.inf$"):
            parse_grid(infinite)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--epsilon", "nan"), "epsilon values must be positive, got nan"),
        (("--epsilon", "inf"), "epsilon values must be positive, got inf"),
        (("--epsilon", "-1"), "epsilon values must be positive, got -1.0"),
        (("--epsilon", "1.0", "--seed", "-1"), "seed must be a nonnegative integer, got -1"),
        (("--grid", "1:inf:3,lin"), "grid needs 0 < start <= stop, got 1.0..inf"),
        (("--grid", "1:inf:3,log"), "grid needs 0 < start <= stop, got 1.0..inf"),
    ],
)
def test_bad_epsilon_or_seed_exit_1(signs_path, capsys, flags, message):
    code, out, err = run(capsys, "verify", "--input", signs_path, *flags)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_mc_norm_statistic(sampler_path, capsys):
    code, out, _ = run(
        capsys,
        "mc",
        "--input",
        sampler_path,
        "--statistic",
        "norm",
        "--epsilon",
        "1.0",
        "--draws",
        "500",
        "--format",
        "csv",
    )
    assert code == 0
    row = rows_from_csv(out)[0]
    assert row["method"] == "monte-carlo"
    assert 0.0 <= row["lhs"] <= 1.0
    assert row["holds"]


def test_mc_quad_requires_operator(sampler_path, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "mc",
        "--input",
        sampler_path,
        "--statistic",
        "quad_S",
        "--epsilon",
        "1.0",
    )
    assert code == 1
    assert "--operator" in err

    op_path = tmp_path / "op.json"
    save_operator(build(signs_measure()), op_path)
    code, out, _ = run(
        capsys,
        "mc",
        "--input",
        sampler_path,
        "--statistic",
        "quad_S",
        "--operator",
        str(op_path),
        "--epsilon",
        "0.25",
        "--draws",
        "400",
        "--format",
        "csv",
    )
    assert code == 0
    assert rows_from_csv(out)[0]["inequality"] == "banach_dual"


def test_mc_determinism(sampler_path, capsys):
    args = (
        "mc", "--input", sampler_path, "--statistic", "norm",
        "--epsilon", "1.0", "--draws", "300", "--format", "csv",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_quantize_writes_measure_and_report(sampler_path, tmp_path, capsys):
    out = tmp_path / "quantized.json"
    code, _, _ = run(
        capsys,
        "quantize",
        "--input",
        sampler_path,
        "--samples",
        "300",
        "--resolution",
        "0.2",
        "--out",
        str(out),
    )
    assert code == 0

    from tailbounds import load_measure, second_moment

    snapped = load_measure(out)
    assert abs(float(snapped.weights.sum()) - 1.0) <= 1e-12
    assert second_moment(snapped) > 0.0

    report = json.loads((tmp_path / "quantized.json.report.json").read_text())
    assert report["n_samples"] == 300
    q = report["quantization"]
    assert q["max_error"] <= q["error_bound"]
    assert q["shrink_ok"]
    # halving the resolution halves the guarantee
    assert report["halved"]["error_bound"] == pytest.approx(q["error_bound"] / 2.0)
    assert report["halved"]["max_error"] <= report["halved"]["error_bound"]
    assert report["cauchy"]["holds"]
    assert report["cauchy"]["lhs"] <= report["cauchy"]["rhs"] * (1.0 + 1e-10)


def test_quantize_deterministic(sampler_path, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys,
            "quantize",
            "--input",
            sampler_path,
            "--samples",
            "200",
            "--resolution",
            "0.1",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.report.json").read_bytes() == (
        tmp_path / "b.json.report.json"
    ).read_bytes()


@pytest.fixture
def ball_quantize_args(tmp_path):
    """A quantize run of 600 uniform-ball draws over three 256-atom blocks."""
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"dim": 4, "p": 3.0, "family": "uniform-ball", "seed": 1}))
    return ("quantize", "--input", str(ball), "--samples", "600", "--resolution", "0.01",
            "--seed", "2")


def test_quantize_out_file_is_the_stdout_text(ball_quantize_args, tmp_path, capsys):
    code, out, err = run(capsys, *ball_quantize_args)
    assert code == 0
    path = tmp_path / "m.json"
    assert run(capsys, *ball_quantize_args, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()
    assert (tmp_path / "m.json.report.json").read_bytes() == err.encode()


def test_quantize_stdout_does_not_build_to_dict(ball_quantize_args, capsys, monkeypatch):
    expected = run(capsys, *ball_quantize_args)

    def refuse(self):
        raise AssertionError("the writer built to_dict()")

    monkeypatch.setattr(DiscreteMeasure, "to_dict", refuse)
    assert run(capsys, *ball_quantize_args) == expected


def test_quantize_zero_samples_exit_1(sampler_path, capsys):
    code, _, err = run(
        capsys,
        "quantize",
        "--input",
        sampler_path,
        "--samples",
        "0",
        "--resolution",
        "0.1",
    )
    assert code == 1
    assert err != ""


def test_reduce_signs_measure(signs_path, capsys):
    code, out, err = run(
        capsys, "reduce", "--input", signs_path, "--grid", "0.3:3:4,log"
    )
    assert code == 0
    assert err == ""
    document = json.loads(out)
    assert document["failures"] == []
    assert document["matrix_max_abs_gap"] <= 1e-14
    assert document["operator_identity_max_relative_gap"] <= 1e-14
    assert document["inverse_norm_direct"] == document["inverse_norm_alternate"]
    assert document["moment_transport"]["equal"]
    for entry in document["equivalence"]:
        assert entry["forward"]["rhs_deviation"] <= 1e-14
        assert entry["inverse"]["rhs_deviation"] <= 1e-14


def test_reduce_rejects_p_not_2(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_measure(signs_measure(p=1.0), path)
    code, _, err = run(capsys, "reduce", "--input", str(path), "--epsilon", "1.0")
    assert code == 1
    assert "p = 2" in err


def test_reduce_failed_identity_exits_2(signs_path, capsys, monkeypatch):
    monkeypatch.setattr(tailbounds.cli, "verify_ST_equals_SH", lambda *args, **kwargs: 1.0)
    code, out, err = run(capsys, "reduce", "--input", signs_path, "--grid", "0.3:3:4,log")
    assert code == 2
    assert json.loads(out)["failures"] == ["quadratic forms differ by 1.0 relative"]
    assert err == "violation: quadratic forms differ by 1.0 relative\n"


def dual_functionals(dim: int) -> DiscreteMeasure:
    rng = np.random.default_rng(dim)
    atoms = rng.standard_normal((5, dim))
    return DiscreteMeasure(PNormSpace(dim, 2.0), atoms, np.full(5, 0.2), role="dual")


def test_verify_banach_dual_reads_the_dual_input(signs_path, tmp_path, capsys):
    dual_path = tmp_path / "dual.json"
    save_measure(dual_functionals(2), dual_path)
    grid = "0.1:2:5,log"
    args = ("verify", "--input", signs_path, "--inequality", "banach_dual", "--grid", grid)
    code, out, err = run(capsys, *args, "--dual-input", str(dual_path))
    assert (code, err) == (0, "")
    reports = sweep("banach_dual", signs_measure(), parse_grid(grid), pstar=dual_functionals(2))
    assert json.loads(out) == [report_to_row(report) for report in reports]
    # without --dual-input the measure's own atoms are the functionals
    assert run(capsys, *args)[1] != out


def test_verify_rejects_mismatched_inputs(signs_path, tmp_path, capsys):
    dual_path = tmp_path / "dual3.json"
    save_measure(dual_functionals(3), dual_path)
    code, out, err = run(
        capsys, "verify", "--input", signs_path, "--inequality", "banach_dual",
        "--epsilon", "1.0", "--dual-input", str(dual_path),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: dual measure lives on PNormSpace(dim=3")

    # a primal-role --dual-input is refused before its moment is taken
    primal_path = tmp_path / "primal.json"
    save_measure(DiscreteMeasure(PNormSpace(2, 2.0), [[1e200, 0.0]], [1.0]), primal_path)
    code, out, err = run(
        capsys, "verify", "--input", signs_path, "--inequality", "banach_dual",
        "--epsilon", "1.0", "--dual-input", str(primal_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: banach_dual needs a dual-role measure of functionals\n"

    code, out, err = run(capsys, "verify", "--input", str(dual_path), "--epsilon", "1.0")
    assert (code, out, err) == (1, "", "error: verify expects a primal measure as input\n")

    sampler = Sampler(space=PNormSpace(2, 2.0), family=GAUSSIAN, seed=0)
    operator = build(signs_measure(3))
    for statistic, given in (("quad_S", operator), ("mahalanobis_S", invert(operator))):
        with pytest.raises(ShapeError, match="sampler and operator dimensions differ"):
            mc_tail(sampler, statistic, given, 1.0, 100)


def test_violation_rows_exit_2(capsys):
    # the evaluators cannot produce a failing row, so the exit-2 wiring is
    # driven with a fabricated one
    config = argparse.Namespace(fmt="csv", out=None)
    row = {
        "inequality": "grenander",
        "epsilon": 1.0,
        "lhs": 0.9,
        "ci_halfwidth": 0.0,
        "rhs": 0.5,
        "holds": False,
        "slack": -0.4,
        "method": "exact-enumeration",
    }
    assert _finish_rows(config, [row]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("violation:")
    assert "grenander" in captured.err


def test_usage_errors_exit_1(capsys):
    assert main(["orbit"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    code = main(["verify", "--epsilon", "1.0"])  # --input missing
    assert code == 1
    err = capsys.readouterr().err
    assert "--input" in err


def test_repeated_main_calls_match_fresh_processes(signs_path, capsys):
    # one process builds the parser once and parses every later call with it
    calls = [
        (0, ("verify", "--input", signs_path, "--epsilon", "1.5", "--format", "csv")),
        (0, ("verify", "--input", signs_path, "--grid", "0.5:2:4,lin")),
        (1, ("verify", "--input", signs_path, "--grid", "2:1:3,lin")),  # a usage error
    ]
    src = str(Path(tailbounds.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for expected, argv in calls:
        in_process = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "tailbounds", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert in_process == (expected, fresh.stdout, fresh.stderr), argv
        assert fresh.returncode == expected, argv


def test_flags_a_command_would_ignore_are_usage_errors(signs_path, sampler_path, tmp_path, capsys):
    quantize = ("quantize", "--input", sampler_path, "--samples", "10", "--resolution", "0.5")
    reduce = ("reduce", "--input", signs_path, "--epsilon", "1.0")
    for command in (quantize, reduce):
        assert run(capsys, *command)[0] == 0
        code, out, err = run(capsys, *command, "--format", "csv")
        assert (code, out) == (1, "")
        assert "--format" in err

    op_path = tmp_path / "op.json"
    save_operator(build(signs_measure()), op_path)
    code, out, err = run(
        capsys, "mc", "--input", sampler_path, "--statistic", "norm",
        "--operator", str(op_path), "--epsilon", "1.0", "--draws", "100",
    )
    assert (code, out) == (1, "")
    assert "--operator" in err


@pytest.mark.parametrize("epsilon", ["1e-200", "1e200"])
def test_epsilon_whose_power_leaves_the_float_range_exits_1(signs_path, capsys, epsilon):
    code, out, err = run(capsys, "verify", "--input", signs_path, "--epsilon", epsilon)
    assert (code, out) == (1, "")
    assert err.startswith("error: epsilon**2 leaves the float range") and err.count("\n") == 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_output_digests(tmp_path, capsys):
    """Pinned stdout of one gaussian `mc` run, one uniform-ball `quantize` run,
    and one `verify --inequality all` and one `reduce` run on a small p = 2
    measure of +-x pairs with no repeated atom.

    Both samplers draw whole 256-draw chunks, each from numpy's Generator on
    its own Philox key (see tests/test_measure.py::test_stream_chunk_oracle),
    so a change to the stream changes a digest here and has to be declared
    as an output change.  Every digest is fixed per numpy build: the draws
    rest on numpy's Generator algorithms and float64 operations, and the
    verify and reduce runs on numpy's einsum and LAPACK's eigh, whose last
    bits can differ between builds.  On a new numpy build, check a mismatch
    against the chunk oracle before calling it a stream change.
    """
    gaussian = tmp_path / "gaussian.json"
    gaussian.write_text(json.dumps({
        "dim": 3, "p": 2.0, "family": "gaussian", "seed": 0,
        "mean": [0.5, -0.25, 0.0], "cov_factor": [[1.0, 0.0], [0.5, 2.0], [-1.0, 0.25]],
    }))
    code, out, err = run(
        capsys, "mc", "--input", str(gaussian), "--statistic", "norm",
        "--grid", "0.5:4:6,log", "--draws", "400", "--seed", "3", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert _digest(out) == MC_GAUSSIAN_SHA256

    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"dim": 2, "p": 3.0, "family": "uniform-ball", "radius": 1.5}))
    code, out, err = run(
        capsys, "quantize", "--input", str(ball), "--samples", "200", "--resolution", "0.05",
        "--seed", "4",
    )
    assert code == 0
    assert _digest(out) == QUANTIZE_BALL3_SHA256

    rng = np.random.default_rng(11)
    half = rng.standard_normal((12, 3)) * [1.0, 0.5, 2.0]
    weights = np.tile(rng.uniform(0.5, 1.5, 12), 2)  # -x weighs what x does: mean 0
    pairs = DiscreteMeasure(
        PNormSpace(3, 2.0), np.concatenate([half, -half]), weights / weights.sum()
    )
    path = tmp_path / "pairs.json"
    save_measure(pairs, path)
    code, out, err = run(
        capsys, "verify", "--input", str(path), "--inequality", "all",
        "--grid", "0.1:10:9,log", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert _digest(out) == VERIFY_ALL_P2_SHA256
    code, out, err = run(
        capsys, "reduce", "--input", str(path), "--grid", "0.1:10:9,log", "--seed", "2"
    )
    assert (code, err) == (0, "")
    assert _digest(out) == REDUCE_SHA256

import argparse
import json

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

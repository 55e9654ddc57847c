"""quantize walks its sample once, in blocks of draw chunks, and keeps only the
coarse grid indices.

The reference below is the whole-sample route the command took before: one
draw_block array, the merged measure and two coupled measures of it, and the
Cauchy sums taken over whole arrays.  Every run is compared with it on exit
code, stdout, stderr and both written files.
"""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tailbounds.covop
from tailbounds import DiscreteMeasure, Sampler, cauchy_estimate, quantize
from tailbounds.cli import UsageError, _build_parser, main
from tailbounds.covop import CHECK_SLACK, _row_blocks
from tailbounds.errors import TailboundsError
from tailbounds.measure import (
    _exact_sum, _measure_json, load_sampler, quantize_draws, save_measure,
)
from tailbounds.space import PNormSpace, conjugate_exponent, dual_norm, p_norm, p_norm_rows

SAMPLERS = {
    # gaussian chunks are column-major
    "gaussian": {
        "dim": 8, "p": 2.0, "family": "gaussian", "seed": 3, "mean": [0.5] * 8,
        "cov_factor": [[(7 * i + 3 * j) % 5 * 0.3 - 0.6 for j in range(8)] for i in range(8)],
    },
    "ball-3": {"dim": 4, "p": 3.0, "family": "uniform-ball", "seed": 1, "radius": 2.0},
    "ball-inf": {"dim": 3, "p": "inf", "family": "uniform-ball", "seed": 1},
    "symmetric-atoms": {
        "dim": 2, "p": 1.0, "family": "symmetric-atoms", "seed": 0,
        "atoms": [[1.0, 0.5], [0.3, -2.0], [0.0, 0.25]],
    },
}


def whole_cauchy(coarse: DiscreteMeasure, fine: DiscreteMeasure, f) -> tuple:
    """cauchy_estimate as it summed whole arrays, with one exact sum per side."""
    p, fc = coarse.space.p, np.asarray(f, dtype=float)
    terms = (coarse.atoms @ fc) * coarse.atoms.T - (fine.atoms @ fc) * fine.atoms.T
    lhs = p_norm(_exact_sum(coarse.weights * terms), p)
    gaps = p_norm_rows(coarse.atoms - fine.atoms, p)
    sizes = p_norm_rows(coarse.atoms, p) + p_norm_rows(fine.atoms, p)
    rhs = dual_norm(f, p) * _exact_sum(coarse.weights * (sizes * gaps))
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_SLACK)


def reference_quantize(config) -> int:
    """The whole-sample quantize command: the sample drawn as one array, the
    merged measure and both couplings built from it."""
    sampler = replace(load_sampler(config.input), seed=config.seed)
    delta = config.resolution
    n = config.n_samples
    if n < 1:
        raise ValueError(f"n_samples must be positive, got {n}")
    raw = sampler.draw_block(0, n)
    snapped = quantize_draws(sampler.space, raw, delta)
    coarse = quantize_draws(sampler.space, raw, delta, merge=False)
    fine = quantize_draws(sampler.space, raw, delta / 2.0, merge=False)

    p = sampler.space.p
    dim = sampler.space.dim
    rng = np.random.default_rng(config.seed)
    functional = rng.standard_normal(dim)
    functional /= p_norm(functional, conjugate_exponent(p))

    def error_stats(coupled, resolution: float) -> dict:
        return {
            "resolution": resolution,
            "max_error": float(p_norm_rows(coupled.atoms - raw, p).max()),
            "error_bound": resolution * dim ** (1.0 / p),
            "shrink_ok": bool(np.all(np.abs(coupled.atoms) <= np.abs(raw))),
        }

    lhs, rhs, holds = whole_cauchy(coarse, fine, functional)
    report = {
        "n_samples": n,
        "quantization": error_stats(coarse, delta),
        "halved": error_stats(fine, delta / 2.0),
        "cauchy": {"functional": functional.tolist(), "lhs": lhs, "rhs": rhs, "holds": holds},
    }
    report_text = json.dumps(report, indent=2) + "\n"
    if config.out:
        save_measure(snapped, config.out)
        with open(config.out + ".report.json", "w") as fh:
            fh.write(report_text)
    else:
        sys.stdout.writelines(_measure_json(snapped))
        sys.stderr.write(report_text)
    ok = (
        report["quantization"]["shrink_ok"]
        and report["halved"]["shrink_ok"]
        and report["quantization"]["max_error"] <= report["quantization"]["error_bound"]
        and report["halved"]["max_error"] <= report["halved"]["error_bound"]
        and holds
    )
    return 0 if ok else 2


def reference_main(argv) -> int:
    """cli.main with the whole-sample quantize command."""
    try:
        return reference_quantize(_build_parser().parse_args(argv))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (TailboundsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def outcome(run, capsys, tmp_path, argv, out: bool):
    """(exit code, stdout, stderr, measure file, report file) of one run."""
    path = tmp_path / "q.json"
    report = tmp_path / "q.json.report.json"
    for written in (path, report):
        written.unlink(missing_ok=True)
    code = run([str(arg) for arg in argv] + (["--out", str(path)] if out else []))
    captured = capsys.readouterr()
    files = [written.read_bytes() if written.exists() else None for written in (path, report)]
    return code, captured.out, captured.err, *files


def both_routes(capsys, tmp_path, argv, out: bool = False):
    streamed = outcome(main, capsys, tmp_path, argv, out)
    return streamed, outcome(reference_main, capsys, tmp_path, argv, out)


@pytest.fixture
def sampler_paths(tmp_path):
    paths = {}
    for name, data in SAMPLERS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, 600, 1025, 2000])
def test_quantize_streams_the_whole_sample_outputs(
    name, n, sampler_paths, tmp_path, capsys
):
    for resolution, out, seed in ((0.05, False, 7), (0.013, True, 0), (0.013, False, 7)):
        argv = ["quantize", "--input", sampler_paths[name], "--samples", n,
                "--resolution", resolution, "--seed", seed]
        streamed, whole = both_routes(capsys, tmp_path, argv, out)
        assert streamed[0] == 0
        assert streamed == whole, (resolution, out, seed)


@pytest.mark.parametrize("samples, resolution", [(0, 0.1), (600, 1e-300), (300, 1e-19)])
def test_quantize_errors_are_the_whole_sample_errors(
    samples, resolution, sampler_paths, tmp_path, capsys
):
    """--samples 0, and resolutions too small for the data."""
    name = "ball-3" if resolution == 1e-300 else "gaussian"
    argv = ["quantize", "--input", sampler_paths[name], "--samples", samples,
            "--resolution", resolution]
    streamed, whole = both_routes(capsys, tmp_path, argv)
    assert streamed[0] == 1 and streamed[2].startswith("error: ")
    assert streamed == whole


def test_quantize_holds_only_the_grid_indices(sampler_paths, tmp_path, capsys, monkeypatch):
    """No draw_block array, no coupled measure: one DiscreteMeasure is built,
    the merged one, and the couplings reach the Cauchy sums as blocks of
    two draw chunks."""
    constructed = []
    original = DiscreteMeasure.__post_init__

    def counted(self):
        original(self)
        constructed.append(self.n_atoms)

    def refuse(*args, **kwargs):
        raise AssertionError("quantize took the whole-sample route")

    blocks = []

    def terms(pair, fc, weights, p):
        # the coupling cauchy_estimate checks, by construction: both couplings
        # are made from the same rows and carry the same weights 1/n
        assert pair.shape[0] == 2 and weights == 1.0 / 600
        blocks.append(pair.shape[1])
        return cauchy_terms(pair, fc, weights, p)

    cauchy_terms = tailbounds.covop._cauchy_terms
    monkeypatch.setattr(DiscreteMeasure, "__post_init__", counted)
    monkeypatch.setattr(Sampler, "draw_block", refuse)
    monkeypatch.setattr(tailbounds.covop, "_cauchy_terms", terms)
    path = tmp_path / "q.json"
    code = main(["quantize", "--input", str(sampler_paths["ball-3"]), "--samples", "600",
                 "--resolution", "0.01", "--out", str(path)])
    assert code == 0
    assert blocks == [512, 88]
    assert constructed == [len(json.loads(path.read_text())["weights"])]


def test_cauchy_estimate_sums_whole_arrays_bits_in_blocks():
    """cauchy_estimate sums its terms a block of atoms at a time: the bits of
    one exact sum over whole arrays, on couplings of several blocks."""
    f = np.random.default_rng(5).standard_normal(8)
    for seed in range(4):
        sampler = replace(Sampler.from_dict(SAMPLERS["gaussian"]), seed=seed)
        for n in (1, 2, 300, 2049, 4097, 5000):  # 2048 atoms a block at dim 8
            coarse = quantize(sampler, n, 0.05, merge=False)
            fine = quantize(sampler, n, 0.013, merge=False)
            assert cauchy_estimate(coarse, fine, f) == whole_cauchy(coarse, fine, f), (seed, n)


def test_row_blocks_cover_the_rows_with_no_lone_last_row():
    """The blocks quantize_estimate and cauchy_estimate take rows in: a last
    row that would stand alone joins the block before."""
    assert list(_row_blocks(1, 512)) == [(0, 1)]
    assert list(_row_blocks(512, 512)) == [(0, 512)]
    assert list(_row_blocks(513, 512)) == [(0, 513)]
    assert list(_row_blocks(600, 512)) == [(0, 512), (512, 600)]
    assert list(_row_blocks(1025, 512)) == [(0, 512), (512, 1025)]
    assert list(_row_blocks(1026, 512)) == [(0, 512), (512, 1024), (1024, 1026)]


def test_cauchy_estimate_gives_column_major_atoms_the_row_major_bits():
    """Each block of atoms is copied row-major before `@`, so a measure that
    holds its atoms column-major gives the bits of its row-major copy."""
    f = np.random.default_rng(2).standard_normal(8)
    sampler = Sampler.from_dict(SAMPLERS["gaussian"])
    for n in (1, 2, 300, 2049):
        coupled = [quantize(sampler, n, delta, merge=False) for delta in (0.05, 0.013)]
        columns = [
            DiscreteMeasure(m.space, np.asfortranarray(m.atoms), m.weights) for m in coupled
        ]
        layout = columns[0].atoms.flags
        assert layout.f_contiguous and (n == 1 or not layout.c_contiguous)
        assert cauchy_estimate(*columns, f) == cauchy_estimate(*coupled, f), n


def test_cauchy_estimate_range_limit_is_per_block():
    """An exact sum refuses terms of 2**(1022 - headroom) or more, headroom
    set by the length summed.  cauchy_estimate sums 256 atoms a block at
    dim 64, so terms of 2**1014.5 over 512 atoms are summed (the limit is
    2**1015 for 256 terms), where one sum over all 512 refuses them (2**1014)."""
    space = PNormSpace(64, 2.0)
    atoms = np.zeros((512, 64))
    atoms[:, 0] = 2.0**511.75
    weights = np.full(512, 1.0 / 512)
    coarse = DiscreteMeasure(space, atoms, weights)
    fine = DiscreteMeasure(space, np.zeros((512, 64)), weights)
    f = np.eye(64)[0]
    with pytest.raises(ValueError, match="below 2\\*\\*1014 to sum exactly"):
        whole_cauchy(coarse, fine, f)
    square = 2.0**511.75 * 2.0**511.75
    assert cauchy_estimate(coarse, fine, f) == (square, square, True)


def test_quantize_peak_is_a_few_index_arrays(tmp_path):
    """10.75x the (n, dim) int64 index array when the sample and both
    couplings were held whole; the stream keeps the indices and the merge."""
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"dim": 4, "p": 3.0, "family": "uniform-ball", "seed": 5}))
    n = 100_000
    argv = ["quantize", "--input", str(path), "--samples", str(n), "--resolution", "0.01",
            "--out", str(tmp_path / "q.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * 4 * 8, peak / (n * 4 * 8)


def test_exact_sum_refuses_what_it_refused_with_abs():
    """The slices' top is max(max t, -min t), with no |terms| copy; NaN, +-inf,
    an empty row and a term at the 2**(1022 - headroom) limit still raise."""
    limit = "terms must be finite and below 2\\*\\*1021 to sum exactly"
    for terms in ([1.0, math.nan], [-math.inf, 1.0], [math.inf], [-(2.0**1021), 1.0],
                  [2.0**1021, 1.0], [[0.0, 1.0], [math.nan, 0.0]]):
        with pytest.raises(ValueError, match=limit):
            _exact_sum(np.array(terms))
    for empty in (np.array([]), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="zero-size array"):
            _exact_sum(empty)
    assert _exact_sum(np.array([-(2.0**1020), 1.0, 3.0])) == -(2.0**1020)


def test_the_couplings_weight_check_is_their_exact_sum():
    """quantize checks the n weights 1/n of its couplings as a measure checks
    weights, from n * (1/n): the exact sum of n equal terms is their exact
    product, which one float multiplication rounds correctly."""
    for n in (1, 3, 7, 10, 49, 600, 2000, 99_991, 2**20 + 1):
        assert _exact_sum(np.full(n, 1.0 / n)) == n * (1.0 / n)

"""`mc` streams its sample: the reports must be the draw-all route's, bit for bit.

_mc_prepare draws one chunk at a time, counts each chunk's statistic per
cell of the epsilon grid and sums the moments from blocks.  The oracle here
is the route it replaced: every draw in one draw_block, the statistic sorted
with conftest's sorted_tails and each moment one _exact_sum of the whole array.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from tailbounds import PNormSpace, Sampler, build, invert, mahalanobis, mc_tail, save_operator
from tailbounds.bounds import (
    BANACH_DUAL,
    BANACH_MAHALANOBIS,
    GRENANDER,
    MC_CI_MULTIPLIER,
    MONTE_CARLO,
    REPORT_FIELDS,
    _evaluate_grid,
    _grid_rows,
    _holds,
    _mc_prepare,
    _norm_detail,
)
from tailbounds.cli import main
from tailbounds.covop import InverseOperator, _quadratic_values
from tailbounds.measure import (
    _CHUNK_DRAWS, GAUSSIAN, SYMMETRIC_ATOMS, UNIFORM_BALL, _exact_sum, _rounded,
)
from tailbounds.space import NormInterval, p_norm_rows

from conftest import EXPONENTS, random_measure, sorted_tails

DIM = 8  # at d >= 8 numpy sums a row's terms pairwise, so row layout matters
SAMPLERS = {
    "gaussian": Sampler(
        PNormSpace(DIM, 3.0), GAUSSIAN, seed=2,
        cov_factor=np.tril(np.linspace(0.2, 1.4, DIM * DIM).reshape(DIM, DIM)),
    ),
    "ball-3": Sampler(PNormSpace(DIM, 3.0), UNIFORM_BALL, seed=4, radius=1.5),
    "ball-inf": Sampler(PNormSpace(DIM, math.inf), UNIFORM_BALL, seed=5),
    "atoms": Sampler(
        PNormSpace(DIM, 2.0), SYMMETRIC_ATOMS, seed=3,
        atoms=np.arange(3 * DIM, dtype=float).reshape(3, DIM) % 5 - 1.0,
    ),
}


@lru_cache(maxsize=None)
def operators(p: float):
    """A definite covariance operator on the samplers' space and its inverse."""
    operator = build(random_measure(np.random.default_rng(12), dim=DIM, p=p, definite=True))
    return operator, invert(operator)


def operator_for(statistic: str, sampler: Sampler):
    if statistic == "norm":
        return None
    covariance, inverse = operators(sampler.space.p)
    return covariance if statistic == "quad_S" else inverse


def draw_all_prepare(sampler, statistic, operator, n_draws) -> SimpleNamespace:
    """The draw-all route: the whole sample in one block, its statistic sorted
    with the tail counts of unit weights, each moment one exact sum."""
    draws = sampler.draw_block(0, n_draws)
    detail = {}
    if statistic == "norm":
        values = p_norm_rows(draws, sampler.space.p)
        scale, power, inequality = _exact_sum(values**2) / n_draws, 2, GRENANDER
    elif statistic == "quad_S":
        values = _quadratic_values(draws, operator.matrix)
        moment = _exact_sum(p_norm_rows(draws, operator.space.q) ** 2) / n_draws
        scale, power, inequality = moment * operator.second_moment, 1, BANACH_DUAL
    else:
        values = mahalanobis(operator, draws)
        moment = _exact_sum(p_norm_rows(draws, operator.space.p) ** 2) / n_draws
        scale, power = operator.norm_interval.upper**2 * moment**2, 1
        inequality, detail = BANACH_MAHALANOBIS, _norm_detail(operator.norm_interval)
    values, tails = sorted_tails(values, np.ones(n_draws))
    return SimpleNamespace(
        inequality=inequality, values=values, tails=tails, scale=scale, power=power,
        detail=detail, draws=n_draws,
    )


def draw_all_rows(prepared: SimpleNamespace, epsilons) -> list:
    """_evaluate_grid's Monte Carlo rows as they were read from the sorted
    sample, where any epsilon could be placed among the drawn values."""
    n_draws = prepared.draws
    index = np.searchsorted(prepared.values, epsilons, side="left")
    lhs = _rounded(prepared.tails[:, index]) / n_draws
    half_width = MC_CI_MULTIPLIER * np.sqrt(lhs * (1.0 - lhs) / n_draws)
    rhs = np.array([prepared.scale / epsilon**prepared.power for epsilon in epsilons])
    columns = (lhs, half_width, rhs, _holds(lhs, half_width, rhs), rhs - lhs)
    return [
        dict(zip(REPORT_FIELDS, (prepared.inequality, *row, MONTE_CARLO)))
        for row in zip(epsilons, *(column.tolist() for column in columns))
    ]


def on_and_beside(values: np.ndarray, seed: int) -> list:
    """Epsilons on drawn values and on their float neighbours, with points
    outside the sample, unsorted and with repeats."""
    ranked = np.sort(values)
    n = len(ranked)
    on = ranked[[0, 1, n // 4, n // 2, n - 2, n - 1]]
    beside = np.concatenate([np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
    epsilons = np.concatenate([on, beside, [0.5 * ranked[0], 1.0, 2.0 * ranked[-1]], on[:3]])
    epsilons = epsilons[epsilons > 0.0]
    np.random.default_rng(seed).shuffle(epsilons)
    return epsilons.tolist()


def bits(rows: list) -> list:
    return [[v.hex() if isinstance(v, float) else v for v in row.values()] for row in rows]


@pytest.mark.parametrize("n_draws", [100, 255, 256, 257, 513, 5000])
@pytest.mark.parametrize("family", sorted(SAMPLERS))
@pytest.mark.parametrize("statistic", ["norm", "quad_S", "mahalanobis_S"])
def test_streamed_reports_equal_the_draw_all_route(statistic, family, n_draws):
    sampler = SAMPLERS[family]
    operator = operator_for(statistic, sampler)
    old = draw_all_prepare(sampler, statistic, operator, n_draws)
    epsilons = on_and_beside(old.values, n_draws)
    new = _mc_prepare(sampler, statistic, operator, n_draws, epsilons)
    assert new.scale.hex() == old.scale.hex()
    assert (new.inequality, new.power, new.detail) == (old.inequality, old.power, old.detail)
    assert bits(_grid_rows(_evaluate_grid(new, epsilons))) == bits(draw_all_rows(old, epsilons))


def test_an_epsilon_off_the_counted_grid_is_refused():
    sampler = SAMPLERS["atoms"]
    prepared = _mc_prepare(sampler, "norm", None, 300, [1.0, 2.0, 3.0])
    assert len(_grid_rows(_evaluate_grid(prepared, [3.0, 1.0, 1.0]))) == 3
    for epsilons in ([1.5], [1.0, math.nextafter(2.0, 3.0)], [0.5], [4.0]):
        with pytest.raises(ValueError, match="only at the epsilons of its grid"):
            _evaluate_grid(prepared, epsilons)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 17, 30])
def test_chunk_statistics_equal_the_whole_array_bit_for_bit(dim):
    """The stream takes norms of row-major chunks and (S x, x) of chunks in
    either memory order, as a gaussian chunk is column-major."""
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((777, dim)) * np.exp(rng.uniform(-3.0, 3.0, dim))
    factor = rng.standard_normal((dim, dim))
    matrix = factor @ factor.T
    starts = range(0, len(rows), _CHUNK_DRAWS)

    def per_chunk(statistic, layout=np.ascontiguousarray):
        chunks = (layout(rows[i : i + _CHUNK_DRAWS]) for i in starts)
        return np.concatenate([statistic(chunk) for chunk in chunks]).tobytes()

    whole = _quadratic_values(rows, matrix).tobytes()
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert per_chunk(lambda chunk: _quadratic_values(chunk, matrix), layout) == whole
    for p in EXPONENTS:
        assert per_chunk(lambda chunk: p_norm_rows(chunk, p)) == p_norm_rows(rows, p).tobytes()


def test_mahalanobis_error_names_the_whole_sample_minimum():
    """The pass runs to the end before the error: here the first value below
    zero beyond rounding is in chunk 0 and the lowest value in the last."""
    sampler = Sampler(PNormSpace(2, 2.0), GAUSSIAN, seed=9)
    exact_one = NormInterval(1.0, 1.0, True)
    tilted = InverseOperator(np.diag([1.0, -0.01]), PNormSpace(2, 2.0), exact_one)
    draws = sampler.draw_block(0, 1000)
    values = _quadratic_values(draws, tilted.matrix)
    beyond = np.flatnonzero(values < -1e-10 * p_norm_rows(draws, 2.0) ** 2)
    assert beyond[0] < _CHUNK_DRAWS and values.argmin() >= 3 * _CHUNK_DRAWS
    with pytest.raises(ValueError) as drawn_all:
        mahalanobis(tilted, draws)
    with pytest.raises(ValueError) as streamed:
        mc_tail(sampler, "mahalanobis_S", tilted, 1.0, 1000)
    assert str(streamed.value) == str(drawn_all.value)
    assert repr(float(values.min())) in str(streamed.value)


def test_mc_moment_range_limit_is_per_block():
    """_exact_sum's range limit applies per block of the moment sum, 4096 draws
    at most: at 5000 draws a squared norm of 1.44 * 2**1010 sums exactly,
    where the one block of the whole sample refused anything from 2**1010."""
    big = 1.2 * 2.0**505
    sampler = Sampler(PNormSpace(2, 2.0), SYMMETRIC_ATOMS, seed=1, atoms=[[big, 0.0]])
    report = mc_tail(sampler, "norm", None, big, 5000)
    assert report.lhs == 1.0
    assert report.rhs == math.fsum([big**2] * 5000) / 5000 / big**2
    with pytest.raises(ValueError, match="below 2\\*\\*1010"):
        _exact_sum(np.full(5000, big**2))


def test_mc_peak_memory_does_not_grow_with_the_draws(tmp_path, capsys):
    """100k draws at d = 8 peak below 1 MB; holding the sample took 16.9 MB."""
    sampler = SAMPLERS["gaussian"]
    sampler_path = tmp_path / "sampler.json"
    sampler_path.write_text(json.dumps(sampler.to_dict()))
    operator_path = tmp_path / "operator.json"
    save_operator(operators(3.0)[0], operator_path)
    argv = [
        "mc", "--input", str(sampler_path), "--operator", str(operator_path),
        "--statistic", "mahalanobis_S", "--grid", "1:50:10,log", "--draws", "100000",
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (0, "")
    assert peak < 1_000_000

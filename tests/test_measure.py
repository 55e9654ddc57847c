import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tailbounds.measure
from tailbounds import (
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    center,
    empirical,
    load_measure,
    quantize,
    save_measure,
    second_moment,
)
from tailbounds.errors import ShapeError
from tailbounds.measure import (
    GAUSSIAN,
    SYMMETRIC_ATOMS,
    UNIFORM_BALL,
    _exact_sum,
    _grid_tails,
    _measure_json,
    _rounded,
    grid_indices,
    load_sampler,
    mean,
    quantize_draws,
    quantize_points,
)
from tailbounds.space import p_norm, p_norm_rows

from conftest import EXPONENTS, awkward_measure, random_measure, sorted_route_lhs, sorted_tails


def signs_measure(dim: int, p: float = 2.0) -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights)


def test_measure_validation_messages():
    space = PNormSpace(2, 2.0)
    with pytest.raises(ValueError, match=r"0\.9"):
        DiscreteMeasure(space, [[1.0, 0.0]], [0.9])
    with pytest.raises(ShapeError):
        DiscreteMeasure(space, [[1.0, 0.0, 0.0]], [1.0])
    with pytest.raises(ShapeError):
        DiscreteMeasure(space, [[1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(space, [[1.0, 0.0]], [-0.25])
    with pytest.raises(ValueError, match="role"):
        DiscreteMeasure(space, [[1.0, 0.0]], [1.0], role="cotangent")
    with pytest.raises(ValueError):
        DiscreteMeasure(space, np.empty((0, 2)), np.empty(0))


def test_weight_sum_tolerance_boundary():
    space = PNormSpace(1, 2.0)
    # inside the documented tolerance: accepted as-is
    m = DiscreteMeasure(space, [[1.0]], [1.0 + 5e-13])
    assert m.weights[0] == 1.0 + 5e-13
    with pytest.raises(ValueError):
        DiscreteMeasure(space, [[1.0]], [1.0 + 5e-12])


def test_json_round_trip(tmp_path):
    m = DiscreteMeasure(
        PNormSpace(2, math.inf),
        [[0.125, -3.0], [1e-17, 2.0]],
        [0.625, 0.375],
        role="dual",
    )
    path = tmp_path / "measure.json"
    save_measure(m, path)
    raw = json.loads(path.read_text())
    assert raw["p"] == "inf"
    back = load_measure(path)
    assert back.space == m.space
    assert back.role == "dual"
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)


def _grid_case(n: int, dim: int, p: float = 2.0, role: str = "primal"):
    """n atoms on a few multiples of 0.1, as quantize writes them.

    The first two coordinates are -0.0 and 0.0, in one block; past 256 atoms
    one value sits on both sides of the first block boundary.
    """
    atoms = np.random.default_rng(31 * n + dim).integers(-3, 4, (n, dim)) * 0.1
    atoms.reshape(-1)[:2] = [-0.0, 0.0][: n * dim]
    if n > 256:
        atoms[255, -1] = atoms[256, 0] = 1.0 / 3.0
    return PNormSpace(dim, p), atoms, np.full(n, 1.0 / n), role


_GRID_SIZES = [(n, dim) for n in (1, 255, 256, 257, 513) for dim in (1, 30)]
_random = np.random.default_rng(17)
_tiny = np.array([5e-324, -5e-324, 0.0, -0.0, 0.5])[_random.integers(0, 5, (600, 3))]


@pytest.mark.parametrize(
    "space, atoms, weights, role",
    [
        # -0.0, the smallest subnormal, a huge and an integral float, as atoms and weights
        (PNormSpace(3, 2.0), [[-0.0, 5e-324, 1e308], [3.0, -2.0, 0.1]], [5e-324, 1.0], "primal"),
        (PNormSpace(2, 1.5), [[1.0, -0.0], [0.0, 2.5]], [-0.0, 1.0], "dual"),
        (PNormSpace(1, math.inf), [[-7.0]], [1.0], "primal"),  # one atom, p written "inf"
        (PNormSpace(4, 3.0), np.random.default_rng(5).standard_normal((50, 4)), [0.02] * 50,
         "primal"),
        *(_grid_case(n, dim) for n, dim in _GRID_SIZES),
        # +-5e-324 and +-0.0 repeated in every block, p = inf, dual
        (PNormSpace(3, math.inf), _tiny, np.full(600, 1.0 / 600), "dual"),
        # every coordinate and weight distinct, over three blocks
        (PNormSpace(3, 1.5), _random.standard_normal((600, 3)),
         (lambda w: w / w.sum())(_random.uniform(0.5, 1.5, 600)), "primal"),
    ],
    ids=["extreme-floats", "dual-zero-weight", "one-atom-p-inf", "random-50x4",
         *(f"grid-{n}x{dim}" for n, dim in _GRID_SIZES), "p-inf-dual-tiny-600x3",
         "distinct-600x3"],
)
def test_measure_json_is_the_indenting_encoder_text(tmp_path, space, atoms, weights, role):
    measure = DiscreteMeasure(space, atoms, weights, role)
    expected = json.dumps(measure.to_dict(), indent=2) + "\n"
    assert "".join(_measure_json(measure)) == expected
    path = tmp_path / "m.json"
    save_measure(measure, path)
    assert path.read_text() == expected


def _quantized_ball(n: int = 2000) -> DiscreteMeasure:
    """The measure of the quantize-ball benchmark: 2000 x 4, few distinct values."""
    return quantize(Sampler(PNormSpace(4, 3.0), UNIFORM_BALL, seed=1), n, resolution=0.01)


def test_save_measure_does_not_build_to_dict(tmp_path, monkeypatch):
    measure = _quantized_ball()
    expected = json.dumps(measure.to_dict(), indent=2) + "\n"

    def refuse(self):
        raise AssertionError("the writer built to_dict()")

    monkeypatch.setattr(DiscreteMeasure, "to_dict", refuse)
    save_measure(measure, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == expected


def test_save_measure_peak_is_below_the_to_dict_lists(tmp_path):
    measure = _quantized_ball()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lists = measure.to_dict()
        list_bytes = tracemalloc.get_traced_memory()[0] - before
        del lists
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_measure(measure, tmp_path / "m.json")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < peak < list_bytes


def test_from_dict_names_missing_fields():
    with pytest.raises(ValueError, match="weights"):
        DiscreteMeasure.from_dict({"dim": 1, "p": 2.0, "atoms": [[0.0]]})
    # role has no default: a measure without it is refused, naming it
    with pytest.raises(ValueError, match=r"missing fields: \['role'\]"):
        DiscreteMeasure.from_dict({"dim": 1, "p": 2.0, "atoms": [[0.0]], "weights": [1.0]})


def test_second_moment_examples():
    origin = DiscreteMeasure(PNormSpace(2, 2.0), [[0.0, 0.0]], [1.0])
    assert second_moment(origin) == 0.0
    assert second_moment(signs_measure(3)) == pytest.approx(1.0, abs=1e-15)
    single = DiscreteMeasure(PNormSpace(2, 2.0), [[3.0, 4.0]], [1.0])
    assert second_moment(single) == pytest.approx(25.0, rel=1e-15)


def test_second_moment_uses_ambient_exponent():
    m = DiscreteMeasure(PNormSpace(2, 1.0), [[1.0, 1.0]], [1.0])
    assert second_moment(m) == pytest.approx(4.0, rel=1e-15)


def test_mean_and_center():
    m = DiscreteMeasure(PNormSpace(2, 2.0), [[1.0, 0.0], [3.0, 2.0]], [0.5, 0.5])
    assert np.allclose(mean(m), [2.0, 1.0])
    c = center(m)
    assert np.max(np.abs(mean(c))) <= 1e-12
    assert np.allclose(c.atoms, [[-1.0, -1.0], [1.0, 1.0]])


def test_center_is_identity_on_centered_input():
    m = signs_measure(2)
    assert center(m) is m  # exact zero mean short-circuits


def test_center_random_measures():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = random_measure(rng)
        c = center(m)
        scale = max(1.0, np.abs(m.atoms).max())
        assert np.max(np.abs(mean(c))) <= 1e-12 * scale


def test_center_overflow_raises_without_a_warning_in_a_fresh_process():
    """The suite's filterwarnings = error does not reach a fresh process, where
    a numpy warning would print its text and source line before the error."""
    code = (
        "from tailbounds import DiscreteMeasure, PNormSpace, center\n"
        "m = DiscreteMeasure(PNormSpace(1, 2.0), [[-1.79e308], [1.5e307]], [0.01, 0.99])\n"
        "try:\n    center(m)\nexcept ValueError as exc:\n    print(exc)\n"
    )
    src = str(Path(tailbounds.measure.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run([sys.executable, "-W", "default", "-c", code],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (0, "atom coordinates must be finite\n")
    assert "RuntimeWarning" not in fresh.stderr and fresh.stderr == ""


def _mean_in_one_block(measure: DiscreteMeasure) -> np.ndarray:
    """mean as one _exact_sum of the whole (dim, n) term array."""
    return _exact_sum(measure.weights * measure.atoms.T)


def test_mean_in_atom_blocks_is_bitwise_the_one_block_sum():
    rng = np.random.default_rng(53)
    measures = [awkward_measure(rng, dim=index % 6 + 1) for index in range(50)]
    for n in (1, 255, 256, 257, 2048, 2049, 5000):  # around the 256 and 2048 atom blocks
        for dim in (1, 3, 8, 30):
            atoms = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-30.0, 30.0, (n, dim)))
            weights = rng.uniform(0.0, 1.0, n)
            weights[0] = 1.0
            measures.append(DiscreteMeasure(PNormSpace(dim, 2.0), atoms, weights / weights.sum()))
    for m in measures:
        assert mean(m).tobytes() == _mean_in_one_block(m).tobytes(), m.atoms.shape


def test_mean_range_limit_is_per_atom_block():
    """_exact_sum refuses terms at or above 2**(1022 - headroom), headroom set
    by how many terms it sums at once.  The one-block sum of 10**4 atoms
    allowed 2**1009; blocks of 2048 atoms allow 2**1012, so terms of 1.5e304
    now sum to their correctly rounded total."""
    rng = np.random.default_rng(59)
    atoms = rng.standard_normal((10_000, 8))
    atoms[:, 0] = np.where(rng.random(10_000) < 0.5, -1.5e308, 1.5e308)
    m = DiscreteMeasure(PNormSpace(8, 2.0), atoms, np.full(10_000, 1e-4))
    with pytest.raises(ValueError, match=r"below 2\*\*1009 to sum exactly"):
        _mean_in_one_block(m)
    terms = (m.weights * m.atoms.T).tolist()
    assert mean(m).tolist() == [math.fsum(row) for row in terms]


def test_mean_peak_is_below_two_atom_arrays():
    m = DiscreteMeasure(PNormSpace(8, 2.0), np.random.default_rng(61).standard_normal((20_000, 8)),
                        np.full(20_000, 1.0 / 20_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mean(m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * m.atoms.nbytes


def test_grid_indices_examples():
    idx = grid_indices(np.array([[0.37, -0.52]]), 0.1)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, [[3, -5]])
    # truncation is toward zero on both signs
    assert np.array_equal(grid_indices(np.array([[-0.37, 0.52]]), 0.1), [[-3, 5]])


def test_grid_indices_never_overshoot():
    # 0.85 / 0.05 truncates to 17 but 17 * 0.05 lands past 0.85 in floating
    # point, so the walk-back must settle on 16
    assert np.trunc(0.85 / 0.05) == 17.0 and 17 * 0.05 > 0.85
    idx = grid_indices(np.array([[0.85], [-0.85]]), 0.05)
    assert np.array_equal(idx, [[16], [-16]])

    rng = np.random.default_rng(53)
    for _ in range(20):
        delta = float(rng.choice([0.7, 0.3, 0.1, 0.05, 0.01]))
        pts = np.round(rng.uniform(-40.0, 40.0, size=(500, 2)), 2)
        k = grid_indices(pts, delta)
        snapped = np.abs(k * delta)
        assert np.all(snapped <= np.abs(pts))
        # walk-back never retreats further than one grid cell
        assert np.all(np.abs(pts) - snapped <= delta * (1.0 + 1e-9))


def test_grid_indices_walk_past_2_53_and_refuse_past_2_62():
    """Past 2**53 a step of one leaves k where it is: the walk steps to the
    next float toward zero, so such a resolution ends instead of looping;
    an index past 2**62, or an infinite one, is refused before the walk."""
    rng = np.random.default_rng(54)
    pts = rng.standard_normal((300, 8))
    k = grid_indices(pts, 1e-17)
    assert np.abs(k).max() > 2**53
    assert np.all(np.abs(k * 1e-17) <= np.abs(pts))
    for delta in (1e-19, 1e-300):
        with pytest.raises(ValueError, match="resolution is too small"):
            grid_indices(pts, delta)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="resolution is too small"):
        grid_indices(np.array([[1e300]]), 1e-300)  # 1e300 / 1e-300 is inf


def test_quantize_points_examples():
    q = quantize_points(np.array([[0.37, -0.52]]), 0.1)
    assert np.allclose(q, [[0.3, -0.5]], atol=1e-15)
    on_grid = np.array([[0.75, -1.25]])
    assert np.array_equal(quantize_points(on_grid, 0.25), on_grid)


def test_quantize_guarantees_per_draw():
    rng = np.random.default_rng(43)
    for p in EXPONENTS:
        space = PNormSpace(3, p)
        sampler = Sampler(
            space=space,
            family=GAUSSIAN,
            seed=17,
            mean=np.zeros(3),
            cov_factor=np.eye(3),
        )
        delta = 0.05
        raw = sampler.draw_block(0, 400)
        quantized = quantize_points(raw, delta)
        errors = p_norm_rows(raw - quantized, p)
        assert np.all(errors <= delta * 3.0 ** (1.0 / p) + 1e-15)
        # coordinatewise shrink toward zero
        assert np.all(np.abs(quantized) <= np.abs(raw))
        assert np.all(quantized * raw >= 0.0)


def test_quantize_merges_duplicates():
    space = PNormSpace(1, 2.0)
    sampler = Sampler(
        space=space, family=GAUSSIAN, seed=3, mean=np.zeros(1), cov_factor=np.eye(1) * 0.01
    )
    m = quantize(sampler, 200, resolution=10.0)
    assert m.n_atoms == 1
    assert np.array_equal(m.atoms, [[0.0]])
    assert m.weights[0] == 1.0


def _unique_merge(draws: np.ndarray, resolution: float):
    """Atoms and weights of the np.unique(axis=0) merge: the oracle for quantize_draws."""
    unique, counts = np.unique(grid_indices(draws, resolution), axis=0, return_counts=True)
    return unique * resolution, counts / float(len(draws))


@pytest.mark.parametrize(
    "n, dim, low, high",
    [
        (1, 1, -3, 3),
        (1, 5, -3, 3),
        (400, 1, -4, 4),  # dim 1, heavy duplicates
        (2000, 4, -2, 2),  # heavy duplicates in every column
        (777, 3, -10**6, 10**6),  # almost all distinct
        (500, 2, -2**40, 2**40),  # wide signed indices
        (300, 6, 0, 1),  # nonnegative 0/1 rows
    ],
)
def test_quantize_merge_matches_unique_rows(n, dim, low, high):
    rng = np.random.default_rng(n + dim)
    cells = rng.integers(low, high + 1, (n, dim))
    if n > 1:
        cells[n // 2 :] = cells[: n - n // 2]  # every row at least twice
    for resolution in (1.0, 0.1):
        draws = cells * resolution
        measure = quantize_draws(PNormSpace(dim, 2.0), draws, resolution)
        atoms, weights = _unique_merge(draws, resolution)
        assert measure.atoms.tobytes() == atoms.tobytes()
        assert measure.weights.tobytes() == weights.tobytes()


def test_quantize_weight_sum_exact():
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=7,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    m = quantize(sampler, 1000, resolution=0.25)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    unmerged = quantize(sampler, 1000, resolution=0.25, merge=False)
    assert unmerged.n_atoms == 1000
    assert np.all(unmerged.weights == 1.0 / 1000)


def test_quantize_second_moment_convergence():
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=11,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    raw = sampler.draw_block(0, 2000)
    sm_raw = float(np.mean(p_norm_rows(raw, 2.0) ** 2))
    max_norm = float(p_norm_rows(raw, 2.0).max())
    previous_gap = None
    for delta in (0.4, 0.2, 0.1, 0.05):
        m = quantize(sampler, 2000, resolution=delta)
        worst = delta * 2.0 ** 0.5
        bound = (2.0 * max_norm + worst) * worst
        gap = abs(second_moment(m) - sm_raw)
        assert gap <= bound
        if previous_gap is not None:
            assert gap <= previous_gap + 1e-12
        previous_gap = gap


def test_quantize_input_validation():
    sampler = Sampler(
        space=PNormSpace(1, 2.0), family=GAUSSIAN, seed=0, mean=np.zeros(1), cov_factor=np.eye(1)
    )
    with pytest.raises(ValueError):
        quantize(sampler, 0, resolution=0.1)
    with pytest.raises(ValueError):
        quantize(sampler, 10, resolution=0.0)


def test_empirical_uniform_weights():
    m = empirical(PNormSpace(2, 2.0), [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    assert m.n_atoms == 4
    assert np.all(m.weights == 0.25)


def test_sampler_index_determinism_and_order_independence():
    sampler = Sampler(
        space=PNormSpace(3, 2.0),
        family=GAUSSIAN,
        seed=99,
        mean=np.zeros(3),
        cov_factor=np.eye(3),
    )
    one_by_one = np.array([sampler.draw(i) for i in (5, 3, 9)])
    assert np.array_equal(sampler.draw(3), one_by_one[1])
    block = sampler.draw_block(3, 7)
    assert np.array_equal(block[0], sampler.draw(3))
    assert np.array_equal(block[6], sampler.draw(9))
    other_seed = Sampler(
        space=PNormSpace(3, 2.0),
        family=GAUSSIAN,
        seed=100,
        mean=np.zeros(3),
        cov_factor=np.eye(3),
    )
    assert not np.array_equal(sampler.draw(0), other_seed.draw(0))


def test_sampler_gaussian_moments():
    factor = np.array([[2.0, 0.0], [1.0, 1.0]])
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=1,
        mean=np.array([1.0, -1.0]),
        cov_factor=factor,
    )
    block = sampler.draw_block(0, 20_000)
    assert np.allclose(block.mean(axis=0), [1.0, -1.0], atol=0.05)
    cov = np.cov(block.T)
    assert np.allclose(cov, factor @ factor.T, atol=0.15)


def test_sampler_uniform_ball_stays_inside():
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        sampler = Sampler(
            space=PNormSpace(3, p), family=UNIFORM_BALL, seed=21, radius=1.5
        )
        block = sampler.draw_block(0, 2000)
        norms = p_norm_rows(block, p)
        assert np.all(norms <= 1.5 * (1.0 + 1e-12))
        # the ball is actually filled, not just its surface or center
        assert norms.max() > 1.2
        assert norms.min() < 0.9


def test_sampler_symmetric_atoms_support():
    atoms = np.array([[1.0, 2.0], [0.5, -0.25]])
    sampler = Sampler(
        space=PNormSpace(2, 2.0), family=SYMMETRIC_ATOMS, seed=5, atoms=atoms
    )
    block = sampler.draw_block(0, 500)
    support = np.vstack([atoms, -atoms])
    for row in block:
        assert any(np.array_equal(row, s) for s in support)
    # both signs appear
    assert any(np.array_equal(row, -atoms[0]) for row in block)


def test_sampler_validation():
    space = PNormSpace(2, 2.0)
    with pytest.raises(ValueError):
        Sampler(space=space, family="lebesgue", seed=0)
    # gaussian defaults: standard normal on the space
    defaulted = Sampler(space=space, family=GAUSSIAN, seed=0)
    assert np.array_equal(defaulted.mean, np.zeros(2))
    assert np.array_equal(defaulted.cov_factor, np.eye(2))
    with pytest.raises(ValueError):
        Sampler(space=space, family=UNIFORM_BALL, seed=0, radius=-1.0)
    with pytest.raises(ValueError):
        Sampler(space=space, family=SYMMETRIC_ATOMS, seed=0)
    with pytest.raises(ShapeError):
        Sampler(
            space=space,
            family=GAUSSIAN,
            seed=0,
            mean=np.zeros(3),
            cov_factor=np.eye(3),
        )
    with pytest.raises(ShapeError, match="k >= 1"):
        Sampler(space=space, family=GAUSSIAN, seed=0, cov_factor=np.zeros((2, 0)))


def test_sampler_json_round_trip(tmp_path):
    sampler = Sampler(
        space=PNormSpace(2, math.inf),
        family=UNIFORM_BALL,
        seed=12,
        radius=0.75,
    )
    path = tmp_path / "sampler.json"
    path.write_text(json.dumps(sampler.to_dict()))
    back = load_sampler(path)
    assert back.space == sampler.space
    assert back.radius == 0.75
    assert np.array_equal(back.draw_block(0, 10), sampler.draw_block(0, 10))


def test_atom_norms_match_p_norm():
    rng = np.random.default_rng(47)
    for p in EXPONENTS:
        m = random_measure(rng, dim=4, p=p)
        norms = m.atom_norms()
        for i in range(m.n_atoms):
            assert norms[i] == pytest.approx(p_norm(m.atoms[i], p), rel=1e-14)


@pytest.mark.parametrize(
    "terms",
    [
        [1e16, 1.0, -1e16],  # cancellation
        [5e-324, 5e-324, 2.5e-323, -5e-324, 2.0**-1022],  # subnormals
        [0.0, -0.0, 0.0],
        [3.25],  # a single row
    ],
)
def test_exact_sum_is_fsum_on_hard_cases(terms):
    assert _exact_sum(np.array(terms)) == math.fsum(terms)
    assert _exact_sum(np.array([terms, terms])).tolist() == [math.fsum(terms)] * 2


def test_exact_sum_is_fsum_over_rows_and_blocks():
    rng = np.random.default_rng(163)
    n = 10_007  # not a multiple of the block length below
    terms = rng.standard_normal(n) * np.exp(rng.uniform(-40.0, 40.0, n))
    expected = math.fsum(terms.tolist())
    assert _exact_sum(terms) == expected
    assert _exact_sum(terms[rng.permutation(n)]) == expected
    assert _exact_sum(terms[i : i + 1000] for i in range(0, n, 1000)) == expected
    rows = rng.standard_normal((7, 3001)) * np.exp(rng.uniform(-40.0, 40.0, (7, 3001)))
    expected_rows = [math.fsum(row) for row in rows.tolist()]
    assert _exact_sum(rows).tolist() == expected_rows
    assert _exact_sum(np.asfortranarray(rows)).tolist() == expected_rows
    assert np.array_equal(_exact_sum(np.zeros((2, 5))), [0.0, 0.0])


def test_sorted_tails_give_every_tail_as_fsum():
    """The sorted route, kept in conftest as the reference for _grid_tails."""
    rng = np.random.default_rng(167)
    keys = rng.standard_normal(300)
    weights = rng.dirichlet(np.ones(300)) * np.exp(rng.uniform(-60.0, 0.0, 300))
    ordered, tails = sorted_tails(keys, weights)
    assert np.array_equal(ordered, np.sort(keys)) and tails.shape[1] == 301
    by_key = weights[np.argsort(keys)]
    expected = [math.fsum(by_key[j:].tolist()) for j in range(301)]
    assert [math.fsum(tails[:, j]) for j in range(301)] == expected


def test_grid_tails_give_every_tail_as_fsum():
    rng = np.random.default_rng(168)
    values = np.round(rng.standard_normal(400), 1)  # many ties
    weights = rng.dirichlet(np.ones(400)) * np.exp(rng.uniform(-60.0, 0.0, 400))
    weights[::7] = 0.0
    grid = np.unique(np.concatenate([values[::9], [-9.0, 0.05, 9.0]]))
    weighted_counts, table = _grid_tails(values, weights, grid)
    assert table.shape == (len(table), 2, len(grid))
    blocks = np.concatenate([
        _grid_tails(values[i : i + 64], weights[i : i + 64], grid)[1] for i in range(0, 400, 64)
    ])
    counts, none = _grid_tails(values, None, grid)
    assert none is None and counts.shape == (2, len(grid)) and counts.dtype.kind == "i"
    assert np.array_equal(weighted_counts, counts)
    for side, event in enumerate((np.greater_equal, np.greater)):
        expected = [math.fsum(weights[event(values, g)].tolist()) for g in grid.tolist()]
        assert _rounded(table[:, side]).tolist() == expected
        assert _rounded(blocks[:, side]).tolist() == expected
        assert counts[side].tolist() == [int(event(values, g).sum()) for g in grid.tolist()]


def _tail_corpus(rng, cases: int):
    """(values, weights, grid) of random measures of up to 3000 atoms:
    Dirichlet weights, zero weights in a fifth, ties in a third, and grids
    of atom values with points between and outside them."""
    for case in range(cases):
        n = int(rng.integers(1, 3001))
        values = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0))
        if case % 3 == 0:
            values = values[rng.integers(0, max(1, n // 4), n)]
        weights = rng.dirichlet(np.full(n, rng.uniform(0.05, 2.0)))
        if case % 5 == 0:
            weights[rng.random(n) < 0.3] = 0.0
            weights /= weights.sum()
        on = rng.choice(values, min(n, 40))
        grid = np.unique(np.concatenate([on, np.nextafter(on, np.inf), [values.min() - 1.0]]))
        yield values, weights, grid


def test_grid_tails_give_the_sorted_route_lhs_bit_for_bit():
    """Old against new on 300 measures, both events: the LHS the sorted route
    read with one binary search per epsilon, and _grid_tails' rows of
    512-atom blocks stacked and rounded once."""
    for values, weights, grid in _tail_corpus(np.random.default_rng(169), 300):
        blocks = np.concatenate([
            _grid_tails(values[i : i + 512], weights[i : i + 512], grid)[1]
            for i in range(0, len(values), 512)
        ])
        for side, strict in enumerate((False, True)):
            old = sorted_route_lhs(values, weights, grid, strict)
            assert _rounded(blocks[:, side]).tobytes() == old.tobytes()


def test_exact_sum_rejects_terms_it_cannot_hold():
    for terms in ([1.0, math.inf], [math.nan], [1e308, 1e308]):
        with pytest.raises(ValueError, match="to sum exactly"):
            _exact_sum(np.array(terms))


def _chunk_draw(sampler: Sampler, index: int) -> np.ndarray:
    """Row index % 256 of the chunk this oracle makes itself, with numpy's
    Generator on Philox(key=[seed, index // 256]).  Gaussian and p = inf ball
    rows are formed from it in math-module floats."""
    key = np.array([sampler.seed, index // 256], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    row, dim = index % 256, sampler.space.dim
    if sampler.family == GAUSSIAN:
        z = gen.standard_normal((sampler.cov_factor.shape[1], 256))[:, row].tolist()
        draw = []
        for coefficients, shift in zip(sampler.cov_factor.tolist(), sampler.mean.tolist()):
            total = coefficients[0] * z[0]  # the columns of cov_factor in order
            for coefficient, normal in zip(coefficients[1:], z[1:]):
                total += coefficient * normal
            draw.append(total + shift)
        return np.array(draw)
    if sampler.family == UNIFORM_BALL and sampler.space.p == math.inf:
        return np.array([sampler.radius * (2.0 * u - 1.0) for u in gen.random((256, dim))[row]])
    if sampler.family == UNIFORM_BALL:
        # numpy's power can round a row alone differently from the whole chunk
        p = sampler.space.p
        magnitudes = gen.gamma(1.0 / p, 1.0, (256, dim))
        signs = 2.0 * gen.integers(0, 2, (256, dim)) - 1.0
        scale = (magnitudes.sum(axis=1) + gen.standard_exponential(256)) ** (1.0 / p)
        return (sampler.radius * signs * magnitudes ** (1.0 / p) / scale[:, None])[row]
    k = len(sampler.atoms)
    pick = int(gen.integers(0, 2 * k, 256)[row])
    return (1.0 if pick < k else -1.0) * sampler.atoms[pick % k]


@pytest.mark.parametrize(
    "sampler",
    [
        Sampler(PNormSpace(3, 2.0), GAUSSIAN, seed=21, cov_factor=np.arange(9.0).reshape(3, 3)),
        Sampler(PNormSpace(3, 1.5), UNIFORM_BALL, seed=22),
        Sampler(PNormSpace(3, 2.0), UNIFORM_BALL, seed=23, radius=2.0),
        Sampler(PNormSpace(3, math.inf), UNIFORM_BALL, seed=24),
        Sampler(PNormSpace(2, 2.0), SYMMETRIC_ATOMS, seed=25, atoms=[[1.0, 2.0], [3.0, -4.0]]),
    ],
    ids=["gaussian", "ball-1.5", "ball-2", "ball-inf", "symmetric-atoms"],
)
def test_draw_block_keeps_the_per_draw_philox_stream(sampler, monkeypatch):
    """Each draw is its chunk oracle's row, in a block or alone, up to index 10**12."""
    expected = np.stack([_chunk_draw(sampler, i) for i in range(7, 607)])
    alone = [0, 255, 256, 257, 10**12 - 1, 10**12]
    expected_alone = [_chunk_draw(sampler, i) for i in alone]
    constructed = []
    original = np.random.Philox

    def counted(*args, **kwargs):
        constructed.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tailbounds.measure.np.random, "Philox", counted)
    block = sampler.draw_block(7, 600)
    assert len(constructed) == 1  # one Philox per block, re-keyed for each of its 3 chunks
    assert np.array_equal(block, expected)
    for index, draw in zip(alone, expected_alone):
        assert np.array_equal(sampler.draw(index), draw), index


def _stream_samplers():
    rng = np.random.default_rng(61)
    for dim in (1, 2, 3, 5, 8, 13):
        for columns in (dim, dim + 1 + dim % 2):  # square, then non-square
            yield pytest.param(
                Sampler(
                    PNormSpace(dim, 2.0), GAUSSIAN, seed=100 + dim,
                    mean=rng.standard_normal(dim), cov_factor=rng.standard_normal((dim, columns)),
                ),
                id=f"gaussian-{dim}x{columns}",
            )
    for dim in (1, 3, 4, 6):
        yield pytest.param(
            Sampler(PNormSpace(dim, math.inf), UNIFORM_BALL, seed=200 + dim, radius=0.3 * dim),
            id=f"ball-inf-{dim}",
        )
    for p in (1.0, 1.5, 3.0):
        yield pytest.param(
            Sampler(PNormSpace(4, p), UNIFORM_BALL, seed=300, radius=1.5), id=f"ball-{p:g}-4"
        )
    yield pytest.param(
        Sampler(PNormSpace(2, 2.0), SYMMETRIC_ATOMS, seed=400, atoms=rng.standard_normal((3, 2))),
        id="symmetric-atoms-3",
    )


@pytest.mark.parametrize("sampler", list(_stream_samplers()))
def test_stream_draws_do_not_depend_on_the_block(sampler):
    chunk = tailbounds.measure._CHUNK_DRAWS
    start, count = 37, 3 * chunk + 75
    block = sampler.draw_block(start, count)
    assert block.shape == (count, sampler.space.dim)
    assert np.array_equal(block, np.stack([sampler.draw(i) for i in range(start, start + count)]))
    for sizes in (
        [chunk - 1], [chunk], [chunk + 1], [1, 3, 5, chunk + 7, 2 * chunk - 1],
        [chunk - 1 - start], [chunk - start], [chunk + 1 - start],  # split at 255, 256, 257
    ):
        pieces, at = [], start
        for size in sizes + [count - sum(sizes)]:
            pieces.append(sampler.draw_block(at, size))
            at += size
        assert np.array_equal(np.concatenate(pieces), block), sizes


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 13])
def test_stream_chunk_oracle(dim):
    """Draw i is row i mod 256 of the chunk made from Philox(key=[seed, i // 256]),
    for the standard normal, a non-square cov_factor and the p = inf ball."""
    indices = [0, 1, 2, 255, 256, 257, 1001, 10**12]
    rng = np.random.default_rng(dim)
    samplers = [
        Sampler(PNormSpace(dim, 2.0), GAUSSIAN, seed=31),
        Sampler(
            PNormSpace(dim + 2, 2.0), GAUSSIAN, seed=31,
            mean=rng.standard_normal(dim + 2), cov_factor=rng.standard_normal((dim + 2, dim)),
        ),
        Sampler(PNormSpace(dim, math.inf), UNIFORM_BALL, seed=32, radius=1.7),
    ]
    for sampler in samplers:
        for index in indices:
            assert sampler.draw(index).tolist() == _chunk_draw(sampler, index).tolist(), index


@pytest.mark.parametrize("dim", [1, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_uniform_ball_radius_passes_kolmogorov_smirnov(p, dim):
    """P(||X||_p <= t r) = t**dim for a uniform draw from the radius-r p-ball."""
    sampler = Sampler(PNormSpace(dim, p), UNIFORM_BALL, seed=int(10 * p) + dim, radius=1.5)
    radii = np.sort(p_norm_rows(sampler.draw_block(0, 20_000), p) / 1.5)
    cdf = radii**dim
    n = len(radii)
    statistic = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert statistic < 1.63 / math.sqrt(n)  # the 1% critical value


def test_symmetric_atoms_outcomes_pass_chi_square():
    atoms = np.array([[1.0, 2.0], [0.5, -0.25], [3.0, 0.0]])
    sampler = Sampler(PNormSpace(2, 2.0), SYMMETRIC_ATOMS, seed=44, atoms=atoms)
    block = sampler.draw_block(0, 30_000)
    support = np.vstack([atoms, -atoms])
    matches = (block[:, None, :] == support[None, :, :]).all(axis=2)
    assert np.array_equal(matches.sum(axis=1), np.ones(len(block)))  # one outcome per draw
    counts = matches.sum(axis=0)
    expected = len(block) / len(support)
    assert ((counts - expected) ** 2 / expected).sum() < 15.086  # chi-square, 5 dof, 1%


def _normals(count: int) -> np.ndarray:
    return Sampler(PNormSpace(2, 2.0), GAUSSIAN, seed=2024).draw_block(0, count // 2).ravel()


def test_stream_normals_pass_kolmogorov_smirnov():
    z = np.sort(_normals(200_000))
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    n = len(z)
    statistic = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert statistic < 1.63 / math.sqrt(n)  # the 1% critical value


def test_stream_normals_moments():
    z = _normals(400_000)
    n = len(z)
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs((z**3).mean()) < 4.0 * math.sqrt(15.0 / n)
    assert abs((z**4).mean() - 3.0) < 4.0 * math.sqrt(96.0 / n)
    first, second = z[0::2], z[1::2]  # the two coordinates of one draw
    assert abs((first * second).mean()) < 4.0 / math.sqrt(n / 2)

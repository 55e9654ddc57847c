import json
import math

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
    pushforward,
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
    _sorted_tails,
    grid_indices,
    load_sampler,
    mean,
    quantize_points,
)
from tailbounds.space import p_norm, p_norm_rows

from conftest import EXPONENTS, random_measure


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


def test_pushforward_identity_and_scaling():
    m = signs_measure(2)
    same = pushforward(m, np.eye(2))
    assert second_moment(same) == pytest.approx(1.0, abs=1e-15)
    doubled = pushforward(m, 2.0 * np.eye(2))
    assert second_moment(doubled) == pytest.approx(4.0, rel=1e-15)
    assert doubled.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_pushforward_collapses_kernel():
    m = signs_measure(2)
    flat = pushforward(m, np.array([[1.0, 0.0], [0.0, 0.0]]))
    # +-e2 both land on the origin and merge
    assert flat.n_atoms == 3
    origin_weight = flat.weights[np.all(flat.atoms == 0.0, axis=1)]
    assert origin_weight[0] == pytest.approx(0.5, abs=1e-15)


def test_pushforward_role_and_shape():
    m = signs_measure(2)
    tagged = pushforward(m, np.eye(2), role="dual")
    assert tagged.role == "dual"
    with pytest.raises(ShapeError):
        pushforward(m, np.ones((2, 3)))
    with pytest.raises(ShapeError):
        pushforward(m, np.ones((3, 3)))


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
    rng = np.random.default_rng(167)
    keys = rng.standard_normal(300)
    weights = rng.dirichlet(np.ones(300)) * np.exp(rng.uniform(-60.0, 0.0, 300))
    ordered, tails = _sorted_tails(keys, weights)
    assert np.array_equal(ordered, np.sort(keys)) and tails.shape[1] == 301
    by_key = weights[np.argsort(keys)]
    expected = [math.fsum(by_key[j:].tolist()) for j in range(301)]
    assert [math.fsum(tails[:, j]) for j in range(301)] == expected


def test_exact_sum_rejects_terms_it_cannot_hold():
    for terms in ([1.0, math.inf], [math.nan], [1e308, 1e308]):
        with pytest.raises(ValueError, match="to sum exactly"):
            _exact_sum(np.array(terms))


def _old_draw(sampler: Sampler, index: int) -> np.ndarray:
    """A draw from its own Philox(key=[seed, index]), as each draw was once made."""
    key = np.array([sampler.seed, index], dtype=np.uint64)
    return sampler._draw_with(np.random.Generator(np.random.Philox(key=key)))


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
    expected = np.stack([_old_draw(sampler, i) for i in range(7, 207)])
    constructed = []
    original = np.random.Philox

    def counted(*args, **kwargs):
        constructed.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tailbounds.measure.np.random, "Philox", counted)
    block = sampler.draw_block(7, 200)
    assert len(constructed) == 1
    assert np.array_equal(block, expected)

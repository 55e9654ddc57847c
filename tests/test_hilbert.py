import json

import numpy as np
import pytest

import tailbounds.bounds
from tailbounds import (
    DiscreteMeasure,
    PNormSpace,
    RieszMap,
    bound_equivalence,
    build,
    hilbert_covariance,
    inverse_norm_pair,
    isometry_pushforward_moment,
    riesz,
    save_measure,
    verify_ST_equals_SH,
)
from tailbounds.cli import main, parse_grid
from tailbounds.errors import ApplicabilityError, CenteringError, ShapeError

from conftest import awkward_measure, random_measure


def signs_measure(dim: int) -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, 2.0), atoms, weights)


def test_riesz_identity_default():
    t = riesz(PNormSpace(3, 2.0))
    assert t.space == PNormSpace(3, 2.0) and t.dim == 3
    assert np.array_equal(t.apply([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    assert np.array_equal(t.apply([3.0, -4.0, 0.5]), [3.0, -4.0, 0.5])


def test_riesz_pairing_identity():
    identity = riesz(PNormSpace(2, 2.0))
    rng = np.random.default_rng(127)
    for _ in range(1000):
        x, y = rng.standard_normal((2, 2)) * 3.0
        # Tx acts on y through the plain pairing as the inner product does
        assert float(identity.apply(x) @ y) == float(x @ y)


def test_riesz_validation():
    with pytest.raises(ApplicabilityError, match="p = 2"):
        riesz(PNormSpace(2, 3.0))
    with pytest.raises(ApplicabilityError, match="p = 2"):
        RieszMap(PNormSpace(2, 1.0))
    with pytest.raises(TypeError, match="PNormSpace"):
        RieszMap(np.eye(2))
    with pytest.raises(ShapeError):
        t = riesz(PNormSpace(2, 2.0))
        t.apply([1.0, 0.0, 0.0])


def test_hilbert_covariance_bitwise_equal_for_identity():
    rng = np.random.default_rng(137)
    for _ in range(25):
        m = random_measure(rng, dim=3, p=2.0)
        t = riesz(m.space)
        assert np.array_equal(hilbert_covariance(m, t), build(m).matrix)


def test_verify_st_equals_sh_examples():
    m = signs_measure(2)
    assert verify_ST_equals_SH(m, riesz(m.space)) <= 1e-14

    origin = DiscreteMeasure(PNormSpace(2, 2.0), [[0.0, 0.0]], [1.0])
    assert verify_ST_equals_SH(origin, riesz(origin.space)) == 0.0

    rng = np.random.default_rng(139)
    for _ in range(20):
        m = random_measure(rng, dim=int(rng.integers(1, 6)), p=2.0)
        gap = verify_ST_equals_SH(m, riesz(m.space), n_trials=50, seed=3)
        assert gap <= 1e-12


def _gap_through_identity_gram(measure, n_trials=100, seed=0):
    """verify_ST_equals_SH as it ran with an explicit identity gram: each
    random y mapped to f = I y, then (S f, f) against sum_i w_i <x_i, f>^2."""
    d = measure.space.dim
    matrix = build(measure).matrix
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        f = np.eye(d) @ rng.standard_normal(d)
        via_operator = float(f @ (matrix @ f))
        via_atoms = float(np.dot(measure.weights, (measure.atoms @ f) ** 2))
        scale = max(abs(via_operator), abs(via_atoms))
        if scale > 0.0:
            worst = max(worst, abs(via_operator - via_atoms) / scale)
    return worst


def test_verify_st_equals_sh_is_bitwise_the_identity_gram_route():
    rng = np.random.default_rng(163)
    for index in range(50):
        m = awkward_measure(rng, dim=index % 6 + 1)
        seed = int(rng.integers(0, 2**31))
        got = verify_ST_equals_SH(m, riesz(m.space), seed=seed)
        assert got.hex() == _gap_through_identity_gram(m, seed=seed).hex(), index


def test_inverse_norm_pair_is_exactly_equal():
    rng = np.random.default_rng(149)
    for _ in range(20):
        m = random_measure(rng, dim=3, p=2.0, definite=True)
        banach_side, hilbert_side = inverse_norm_pair(m, riesz(m.space))
        assert banach_side == hilbert_side  # same code path, bit for bit


def test_isometry_pushforward_moment():
    m = signs_measure(2)
    lhs, rhs, ok = isometry_pushforward_moment(m, riesz(m.space))
    assert ok
    assert lhs == rhs == 1.0

    rng = np.random.default_rng(151)
    for _ in range(20):
        m = random_measure(rng, dim=3, p=2.0)
        lhs, rhs, ok = isometry_pushforward_moment(m, riesz(m.space))
        assert ok
        assert lhs == rhs  # identity transport short-circuits to one value


def test_bound_equivalence_forward():
    result = bound_equivalence(signs_measure(2), 0.4)
    assert result.forward_banach.rhs == 2.5
    assert result.forward_hilbert.rhs == 2.5
    assert result.forward_banach.lhs == 1.0
    assert result.forward_hilbert.lhs == 1.0
    assert not result.forward_boundary
    assert result.forward_rhs_deviation == 0.0
    assert result.forward_lhs_deviation == 0.0


def test_bound_equivalence_inverse():
    result = bound_equivalence(signs_measure(2), 1.0)
    assert result.inverse_banach.rhs == 4.0
    assert result.inverse_hilbert.rhs == 4.0
    assert result.inverse_banach.lhs == 1.0
    assert result.inverse_hilbert.lhs == 1.0
    assert not result.inverse_boundary
    assert result.inverse_rhs_deviation == 0.0


def test_bound_equivalence_boundary_flags():
    # every atom sits exactly on both event boundaries at these epsilons
    at_forward = bound_equivalence(signs_measure(2), 0.5)
    assert at_forward.forward_boundary
    assert at_forward.forward_rhs_deviation == 0.0
    assert at_forward.forward_banach.lhs == 1.0  # non-strict keeps the mass
    assert at_forward.forward_hilbert.lhs == 0.0  # strict drops it
    assert at_forward.forward_banach.holds and at_forward.forward_hilbert.holds

    at_inverse = bound_equivalence(signs_measure(2), 2.0)
    assert at_inverse.inverse_boundary
    assert at_inverse.inverse_rhs_deviation == 0.0
    assert at_inverse.inverse_banach.lhs == 1.0
    assert at_inverse.inverse_hilbert.lhs == 0.0


def test_an_atom_of_zero_weight_on_epsilon_is_a_boundary(tmp_path, capsys):
    """The flags count atoms, not weight: a zero-weight atom whose statistic
    equals epsilon still parts > from >=, while verify's LHS stays that of
    the measure without the atom."""
    space = PNormSpace(1, 2.0)
    bare = DiscreteMeasure(space, [[1.0], [-1.0]], [0.5, 0.5])
    tied = DiscreteMeasure(space, [[1.0], [-1.0], [0.5]], [0.5, 0.5, 0.0])
    # S = 1, so (S x, x) = (S^-1 x, x) = 0.25 at x = 0.5
    result = bound_equivalence(tied, 0.25)
    assert (result.forward_boundary, result.inverse_boundary) == (True, True)
    assert result.forward_banach.lhs == result.forward_hilbert.lhs == 1.0
    result = bound_equivalence(bare, 0.25)
    assert (result.forward_boundary, result.inverse_boundary) == (False, False)
    for epsilon in ("0.25", "0.5"):
        outputs = []
        for measure in (bare, tied):
            save_measure(measure, tmp_path / "m.json")
            argv = ["verify", "--input", str(tmp_path / "m.json"), "--epsilon", epsilon]
            assert main(argv + ["--format", "csv"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_bound_equivalence_off_boundary_lhs_agree():
    rng = np.random.default_rng(157)
    checked = 0
    for _ in range(40):
        m = random_measure(rng, dim=3, p=2.0, centered=True, definite=True)
        for epsilon in (0.05, 0.7, 3.0):
            result = bound_equivalence(m, epsilon)
            assert result.forward_rhs_deviation <= 1e-12
            assert result.inverse_rhs_deviation <= 1e-12
            # the two routes sum the same event mass in different atom
            # orders, so off-boundary agreement is rounding-level, not bitwise
            if not result.forward_boundary:
                assert result.forward_lhs_deviation <= 1e-12
            if not result.inverse_boundary:
                assert result.inverse_lhs_deviation <= 1e-12
            checked += 1
    assert checked == 120


def repeated_pairs(seed: int, dim: int = 3, pairs: int = 4) -> DiscreteMeasure:
    """+-x pairs, each sign repeated 2-7 times as separate atoms with unequal
    weights; -x copies carry the +x copies' weights, so the mean is exactly 0."""
    rng = np.random.default_rng(seed)
    atoms, weights = [], []
    for _ in range(pairs):
        x = rng.standard_normal(dim)
        w = rng.uniform(0.5, 2.0, int(rng.integers(2, 8)))
        for sign in (1.0, -1.0):
            atoms += [sign * x] * len(w)
            weights += w.tolist()
    weights = np.array(weights)
    return DiscreteMeasure(PNormSpace(dim, 2.0), np.array(atoms), weights / weights.sum())


REPEATED_GRID = "0.05:20:15,log"


@pytest.mark.parametrize("seed", range(12))
def test_forward_pair_is_bitwise_equal_on_repeated_atoms(seed, tmp_path, capsys):
    """The forward banach bound reads the measure itself as functionals, so on
    exactly repeated atoms its LHS is the hilbert one, bit for bit.

    Merging the repeated atoms first (a pushforward through the identity)
    rounded the grouped weights: at seed 4 the forward lhs_deviation was
    1.1102230246251568e-16 on 11 of these 15 epsilons.
    """
    measure = repeated_pairs(seed)
    grid = parse_grid(REPEATED_GRID)
    for epsilon in grid:
        result = bound_equivalence(measure, epsilon)
        assert not result.forward_boundary
        assert result.forward_banach.lhs == result.forward_hilbert.lhs, epsilon
        assert result.forward_lhs_deviation == 0.0

    path = tmp_path / "repeated.json"
    save_measure(measure, path)
    assert main(["reduce", "--input", str(path), "--grid", REPEATED_GRID]) == 0
    entries = json.loads(capsys.readouterr().out)["equivalence"]
    assert [entry["epsilon"] for entry in entries] == list(grid)
    for entry in entries:
        forward = entry["forward"]
        assert forward["banach_lhs"] == forward["hilbert_lhs"]
        assert forward["lhs_deviation"] == 0.0


def test_bound_equivalence_preconditions():
    shifted = DiscreteMeasure(PNormSpace(2, 2.0), [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(CenteringError):
        bound_equivalence(shifted, 1.0)
    lonely = DiscreteMeasure(PNormSpace(2, 3.0), [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ApplicabilityError):
        bound_equivalence(lonely, 1.0)


def test_bound_equivalence_sorts_each_statistic_once(monkeypatch):
    """The boundary flags are counted in the sort that gives the weighted
    tails: one _grid_tails per statistic, (S x, x) and (S^-1 x, x)."""
    original = tailbounds.bounds._grid_tails
    sorted_values = []

    def counted(values, weights, grid):
        sorted_values.append(len(values))
        return original(values, weights, grid)

    monkeypatch.setattr(tailbounds.bounds, "_grid_tails", counted)
    result = bound_equivalence(signs_measure(2), 0.5)
    assert result.forward_boundary and not result.inverse_boundary
    assert sorted_values == [4, 4]

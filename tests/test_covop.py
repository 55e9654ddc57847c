import math
import tracemalloc

import numpy as np
import pytest

from tailbounds import (
    CovarianceOperator,
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    apply,
    boundedness_check,
    build,
    cauchy_estimate,
    dual_norm,
    invert,
    linearity_check,
    mahalanobis,
    pair,
    quad_form,
    quantize,
)
import tailbounds.covop
from tailbounds.covop import (
    InverseOperator,
    _quadratic_values,
    accumulate_outer,
    load_operator,
    save_operator,
)
from tailbounds.errors import (
    CouplingError,
    NotPositiveDefiniteError,
    RoleError,
    ShapeError,
)
from tailbounds.measure import GAUSSIAN, _exact_sum
from tailbounds.space import NormInterval

from conftest import EXPONENTS, awkward_measure, random_measure


def signs_measure(dim: int, p: float = 2.0) -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights)


def test_build_examples():
    signs = build(signs_measure(2))
    assert np.array_equal(signs.matrix, 0.5 * np.eye(2))
    assert signs.second_moment == 1.0

    point = build(DiscreteMeasure(PNormSpace(2, 2.0), [[0.0, 0.0]], [1.0]))
    assert np.array_equal(point.matrix, np.zeros((2, 2)))
    assert point.second_moment == 0.0

    single = build(DiscreteMeasure(PNormSpace(2, 2.0), [[1.0, 2.0]], [1.0]))
    assert np.array_equal(single.matrix, [[1.0, 2.0], [2.0, 4.0]])
    # sqrt(5) squared re-rounds, so the moment is exact only to one ulp
    assert single.second_moment == pytest.approx(5.0, rel=1e-15)


def test_build_rejects_dual_measures():
    dual = DiscreteMeasure(PNormSpace(2, 2.0), [[1.0, 0.0]], [1.0], role="dual")
    with pytest.raises(RoleError):
        build(dual)


def test_trace_matches_euclidean_moment():
    rng = np.random.default_rng(59)
    for p in EXPONENTS:
        m = random_measure(rng, dim=3, p=p)
        op = build(m)
        euclidean = float(np.dot(m.weights, (m.atoms ** 2).sum(axis=1)))
        assert np.trace(op.matrix) == pytest.approx(euclidean, rel=1e-12)
        if p == 2.0:
            assert np.trace(op.matrix) == pytest.approx(op.second_moment, rel=1e-12)


def test_apply_matches_atom_sum():
    rng = np.random.default_rng(61)
    for _ in range(50):
        m = random_measure(rng, dim=3)
        op = build(m)
        for _ in range(20):
            f = rng.standard_normal(3) * 3.0
            direct = sum(
                w * pair(f, x) * np.asarray(x)
                for w, x in zip(m.weights, m.atoms)
            )
            image = apply(op, f)
            scale = max(1.0, np.abs(direct).max())
            assert np.max(np.abs(image - direct)) <= 1e-12 * scale


def test_quad_form_examples_and_psd():
    op = build(signs_measure(2))
    assert quad_form(op, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)
    assert quad_form(op, [0.0, 0.0]) == 0.0
    assert quad_form(op, [1.0, 1.0], [1.0, -1.0]) == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(67)
    m = random_measure(rng, dim=4)
    big = build(m)
    fs = rng.standard_normal((10_000, 4)) * 5.0
    values = np.einsum("ij,jk,ik->i", fs, big.matrix, fs)
    assert np.all(values >= -1e-10 * max(1.0, np.abs(values).max()))
    f, g = rng.standard_normal((2, 4))
    assert quad_form(big, f, g) == quad_form(big, g, f)


def test_build_is_order_independent():
    rng = np.random.default_rng(71)
    for _ in range(25):
        m = random_measure(rng, dim=3)
        perm = rng.permutation(m.n_atoms)
        shuffled = DiscreteMeasure(m.space, m.atoms[perm], m.weights[perm], m.role)
        a = build(m).matrix
        b = build(shuffled).matrix
        scale = max(1.0, np.abs(a).max())
        assert np.max(np.abs(a - b)) <= 1e-14 * scale


def test_build_entries_are_fsum_of_their_terms():
    rng = np.random.default_rng(173)
    n = 5000  # more atoms than one block of terms holds
    atoms = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-5.0, 5.0, (n, 3)))
    weights = rng.dirichlet(np.ones(n))
    matrix = build(DiscreteMeasure(PNormSpace(3, 2.0), atoms, weights)).matrix
    for a in range(3):
        for b in range(3):
            terms = weights * (atoms[:, a] * atoms[:, b])
            assert matrix[a, b] == math.fsum(terms.tolist())


def test_accumulate_outer_matches_loop():
    rng = np.random.default_rng(79)
    points = rng.standard_normal((40, 3))
    weights = rng.dirichlet(np.ones(40))
    expected = np.zeros((3, 3))
    for w, x in zip(weights, points):
        expected += w * np.outer(x, x)
    got = accumulate_outer(points, weights)
    assert np.max(np.abs(got - expected)) <= 1e-14


def _full_square_accumulation(left, right, weights):
    """The two-array accumulation accumulate_outer once had: every one of the
    d * d entries summed on its own, for any pair of point arrays."""
    d = left.shape[1]
    rows, cols = np.indices((d, d)).reshape(2, -1)
    step = max(256, 2**14 // len(rows))
    sums = _exact_sum(
        weights[i : i + step] * (left.T[rows, i : i + step] * right.T[cols, i : i + step])
        for i in range(0, len(weights), step)
    )
    matrix = np.empty((d, d))
    matrix[rows, cols] = sums
    return matrix


def test_accumulate_outer_is_bitwise_the_full_square_accumulation():
    """Summing the upper triangle and mirroring it gives the same bits as summing
    all d * d entries, as the quadratic-form route did through images x @ I."""
    rng = np.random.default_rng(181)
    for index in range(50):
        m = awkward_measure(rng, dim=index % 6 + 1)
        images = m.atoms @ np.eye(m.space.dim)
        expected = _full_square_accumulation(m.atoms, images, m.weights)
        assert accumulate_outer(m.atoms, m.weights).tobytes() == expected.tobytes(), index


def test_linearity_examples_and_random():
    op = build(signs_measure(2))
    assert linearity_check(op, [1.0, 0.0], [0.0, 1.0], 2.0, -3.0) == 0.0

    rng = np.random.default_rng(83)
    m = random_measure(rng, dim=5)
    big = build(m)
    for _ in range(100):
        f, g = rng.standard_normal((2, 5)) * 4.0
        a, b = rng.standard_normal(2) * 3.0
        gap = linearity_check(big, f, g, float(a), float(b))
        scale = max(1.0, np.abs(apply(big, f)).max(), np.abs(apply(big, g)).max())
        assert gap <= 1e-12 * scale


def test_boundedness_examples():
    op = build(signs_measure(2))
    lhs, rhs, holds = boundedness_check(op, [1.0, 0.0])
    assert holds
    assert lhs == pytest.approx(0.5, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)

    zero = build(DiscreteMeasure(PNormSpace(2, 2.0), [[0.0, 0.0]], [1.0]))
    lhs0, rhs0, holds0 = boundedness_check(zero, [3.0, -1.0])
    assert (lhs0, rhs0, holds0) == (0.0, 0.0, True)


def test_boundedness_sweep():
    rng = np.random.default_rng(89)
    for p in EXPONENTS:
        for _ in range(10):
            m = random_measure(rng, dim=3, p=p)
            op = build(m)
            for _ in range(20):
                f = rng.standard_normal(3) * 10.0 ** rng.integers(-2, 3)
                lhs, rhs, holds = boundedness_check(op, f)
                assert holds
                assert lhs <= rhs * (1.0 + 1e-10)


def test_cauchy_estimate_trivial_and_coupled():
    m = signs_measure(2)
    lhs, rhs, holds = cauchy_estimate(m, m, [1.0, 1.0])
    assert (lhs, rhs, holds) == (0.0, 0.0, True)

    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=31,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    fine = quantize(sampler, 100, resolution=0.01, merge=False)
    rng = np.random.default_rng(97)
    previous = None
    for delta in (0.4, 0.2, 0.1, 0.05):
        coarse = quantize(sampler, 100, resolution=delta, merge=False)
        f = rng.standard_normal(2)
        f = f / dual_norm(f, 2.0)
        lhs, rhs, holds = cauchy_estimate(coarse, fine, f)
        assert holds
        assert lhs <= rhs * (1.0 + 1e-10)
        if previous is not None:
            assert rhs <= previous * (1.0 + 1e-12)
        previous = rhs


def test_cauchy_estimate_coupling_errors():
    m2 = signs_measure(2)
    m3 = signs_measure(3)
    with pytest.raises(CouplingError):
        cauchy_estimate(m2, m3, [1.0, 0.0])
    other_p = signs_measure(2, p=3.0)
    with pytest.raises(CouplingError):
        cauchy_estimate(m2, other_p, [1.0, 0.0])
    short = DiscreteMeasure(PNormSpace(2, 2.0), [[1.0, 0.0]], [1.0])
    with pytest.raises(CouplingError):
        cauchy_estimate(m2, short, [1.0, 0.0])


def test_invert_examples():
    half = invert(build(signs_measure(2)))
    assert np.array_equal(half.matrix, 2.0 * np.eye(2))
    assert half.norm_interval.exact
    assert half.norm_interval.upper == pytest.approx(2.0, rel=1e-12)

    identity_like = build(
        DiscreteMeasure(
            PNormSpace(2, 2.0),
            np.vstack([np.eye(2) * math.sqrt(2.0), -np.eye(2) * math.sqrt(2.0)]),
            np.full(4, 0.25),
        )
    )
    inv = invert(identity_like)
    assert np.allclose(inv.matrix, np.eye(2), atol=1e-15)
    assert inv.norm_interval.upper == pytest.approx(1.0, rel=1e-12)


def test_invert_rejects_rank_deficient():
    planar = DiscreteMeasure(
        PNormSpace(3, 2.0),
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
        [0.25, 0.25, 0.25, 0.25],
    )
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        invert(build(planar))


def test_invert_residual_property():
    rng = np.random.default_rng(101)
    for _ in range(30):
        m = random_measure(rng, dim=3, definite=True)
        op = build(m)
        inv = invert(op)
        residual = np.max(np.abs(op.matrix @ inv.matrix - np.eye(3)))
        assert residual <= 1e-8
        assert inv.norm_interval.lower <= inv.norm_interval.upper


def test_invert_norm_bracket_nontrivial_p():
    m = signs_measure(2, p=1.0)
    inv = invert(build(m))
    # 2I as a map from the 1-norm dual pair: 1 -> inf norm is max |entry| = 2
    assert inv.norm_interval.upper >= 2.0 * (1.0 - 1e-12)


def test_mahalanobis_examples():
    inv = invert(build(signs_measure(2)))
    assert mahalanobis(inv, [1.0, 0.0]) == pytest.approx(2.0, rel=1e-14)
    assert mahalanobis(inv, [0.0, 0.0]) == 0.0
    values = mahalanobis(inv, signs_measure(2).atoms)
    assert np.allclose(values, 2.0, atol=1e-14)


def test_mahalanobis_identity_against_quadratic():
    rng = np.random.default_rng(103)
    for _ in range(20):
        m = random_measure(rng, dim=3, definite=True)
        op = build(m)
        inv = invert(op)
        for _ in range(10):
            y = rng.standard_normal(3) * 2.0
            d2 = mahalanobis(inv, y)
            f = inv.matrix @ y
            # d(y)^2 = <S^-1 y, S S^-1 y> recovered through the atom sum
            through_atoms = float(
                np.dot(m.weights, (m.atoms @ f) ** 2)
            )
            scale = max(1.0, abs(d2))
            assert abs(d2 - through_atoms) <= 1e-10 * scale


def test_mahalanobis_batch_matches_single():
    rng = np.random.default_rng(107)
    m = random_measure(rng, dim=3, definite=True)
    inv = invert(build(m))
    ys = rng.standard_normal((50, 3))
    batch = mahalanobis(inv, ys)
    assert batch.shape == (50,)
    for i in range(50):
        assert batch[i] == mahalanobis(inv, ys[i])
    assert isinstance(mahalanobis(inv, ys[0]), float)


def test_mahalanobis_rejects_shape_mismatch():
    inv = invert(build(signs_measure(2)))
    with pytest.raises(ShapeError):
        mahalanobis(inv, [1.0, 0.0, 0.0])


def _tilted_inverse(negative_eigenvalue: float) -> InverseOperator:
    """diag(1, negative_eigenvalue) with a unit norm: (S^{-1} y, y) < 0 along e2."""
    matrix = np.diag([1.0, negative_eigenvalue])
    return InverseOperator(matrix, PNormSpace(2, 2.0), NormInterval(1.0, 1.0, True))


def count_norm_rows(monkeypatch) -> list:
    original = tailbounds.covop.p_norm_rows
    calls = []

    def counted(rows, p):
        calls.append(np.array(rows))
        return original(rows, p)

    monkeypatch.setattr(tailbounds.covop, "p_norm_rows", counted)
    return calls


def test_mahalanobis_clamps_negatives_within_the_allowance(monkeypatch):
    inverse = _tilted_inverse(-1e-12)
    calls = count_norm_rows(monkeypatch)
    # -1e-12 is inside the allowance MAHALANOBIS_CLAMP * ||e2||^2 * 1 = 1e-10
    value = mahalanobis(inverse, [0.0, 1.0])
    assert isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) == 1.0
    # the allowance grows with ||y||^2: -1e-10 is inside 1e-10 * 100
    rows = np.array([[2.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 10.0], [3.0, 1.0]])
    values = mahalanobis(inverse, rows)
    raw = _quadratic_values(rows, inverse.matrix)
    negative = raw < 0.0
    assert negative.tolist() == [False, True, False, True, False]
    assert np.array_equal(values[negative], [0.0, 0.0])
    assert np.array_equal(values[~negative], raw[~negative])
    # norms are taken of the negative rows only
    assert [c.tolist() for c in calls] == [[[0.0, 1.0]], [[0.0, 1.0], [0.0, 10.0]]]


def test_mahalanobis_negative_beyond_the_allowance_is_an_error():
    inverse = _tilted_inverse(-1e-6)
    with pytest.raises(ValueError, match="negative beyond rounding"):
        mahalanobis(inverse, [0.0, 1.0])
    with pytest.raises(ValueError, match="negative beyond rounding"):
        mahalanobis(inverse, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_mahalanobis_without_negatives_takes_no_norms(monkeypatch):
    inverse = invert(build(signs_measure(2)))
    calls = count_norm_rows(monkeypatch)
    rows = np.random.default_rng(109).standard_normal((40, 2))
    values = mahalanobis(inverse, rows)
    assert np.array_equal(values, _quadratic_values(rows, inverse.matrix))
    assert calls == []


def test_operator_validation_and_round_trip(tmp_path):
    space = PNormSpace(2, 2.0)
    with pytest.raises(ValueError):
        CovarianceOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), space, 1.0)
    with pytest.raises(ValueError):
        CovarianceOperator(-np.eye(2), space, 1.0)

    op = build(signs_measure(2))
    path = tmp_path / "operator.json"
    save_operator(op, path)
    back = load_operator(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.second_moment == op.second_moment
    assert back.space == op.space


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 17, 30])
def test_quadratic_values_is_bitwise_the_whole_array_einsum(dim):
    """The blocked column-major evaluation against the one einsum over a
    row-major array of three rows or more it replaced, in either layout."""
    for n in (1, 255, 256, 257, 1000, 10_000):
        rng = np.random.default_rng(1000 * dim + n)
        rows = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-4.0, 4.0, (n, dim)))
        factor = rng.standard_normal((dim, dim))
        matrix = factor @ factor.T
        longer = np.vstack([rows, np.ones((2, dim))])  # three rows or more
        whole = np.einsum("ij,jk,ik->i", longer, matrix, longer)[:n]
        if n >= 3:
            assert np.einsum("ij,jk,ik->i", rows, matrix, rows).tobytes() == whole.tobytes()
        for layout in (rows, np.asfortranarray(rows)):
            assert _quadratic_values(layout, matrix).tobytes() == whole.tobytes(), (dim, n)


def test_quadratic_value_of_a_row_does_not_depend_on_its_array():
    """At dim 2 a lone row, and a row-major pair, took other rounding than a
    longer array: the declared change is that they now get its values."""
    rng = np.random.default_rng(131)
    changed = 0
    for _ in range(300):
        rows = rng.standard_normal((40, 2)) * np.exp(rng.uniform(-4.0, 4.0, (40, 2)))
        factor = rng.standard_normal((2, 2))
        matrix = factor @ factor.T
        whole = _quadratic_values(rows, matrix)
        for n in (1, 2, 3):
            assert _quadratic_values(rows[:n], matrix).tobytes() == whole[:n].tobytes()
            before = np.einsum("ij,jk,ik->i", rows[:n], matrix, rows[:n])
            changed += before.tobytes() != whole[:n].tobytes()
    assert changed > 0


def test_quadratic_values_peak_is_below_the_row_major_einsum():
    rng = np.random.default_rng(137)
    rows = rng.standard_normal((10_000, 8))
    factor = rng.standard_normal((8, 8))
    matrix = factor @ factor.T
    tracemalloc.start()
    try:
        _quadratic_values(rows, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 130_000  # the values, 80 KB, and one column-major block; einsum took 213 KB

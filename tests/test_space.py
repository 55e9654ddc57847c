import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tailbounds import (
    DiscreteMeasure,
    NormInterval,
    PNormSpace,
    apply,
    build,
    conjugate_exponent,
    dual_norm,
    holder_extremizer,
    linearity_check,
    operator_norm,
    p_norm,
    pair,
    quad_form,
    riesz,
)
from tailbounds.errors import ShapeError
from tailbounds.space import exponent_from_json, exponent_to_json, p_norm_rows

from conftest import EXPONENTS, grid_norm_estimate, naive_p_norm


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(4.0) == 4.0 / 3.0


def test_conjugate_exponent_identity():
    for p in (1.0, 1.25, 1.5, 2.0, 3.0, 7.5, 40.0):
        q = conjugate_exponent(p)
        assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-15)
        assert conjugate_exponent(q) == pytest.approx(p, rel=1e-15)


def test_conjugate_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugate_exponent(0.5)
    with pytest.raises(ValueError):
        conjugate_exponent(float("nan"))


def test_space_validation():
    space = PNormSpace(3, 1.5)
    assert space.q == 3.0
    with pytest.raises(ValueError):
        PNormSpace(0, 2.0)
    with pytest.raises(ValueError):
        PNormSpace(2, 0.9)


VECTOR_FUNCTIONS = {
    "apply": lambda op, t, v: apply(op, v),
    "quad_form": lambda op, t, v: quad_form(op, v),
    "linearity_check": lambda op, t, v: linearity_check(op, v, [1.0, 0.0], 2.0, 3.0),
    "pair": lambda op, t, v: pair([1.0, 2.0], v),
    "RieszMap.apply": lambda op, t, v: t.apply(v),
    "RieszMap.norm": lambda op, t, v: t.norm(v),
    "RieszMap.dual_norm": lambda op, t, v: t.dual_norm(v),
}


@pytest.mark.parametrize("name", sorted(VECTOR_FUNCTIONS))
def test_vector_functions_reject_wrong_length_and_nan(name):
    space = PNormSpace(2, 2.0)
    operator = build(DiscreteMeasure(space, [[1.0, 0.0], [0.0, 2.0]], [0.5, 0.5]))
    call = functools.partial(VECTOR_FUNCTIONS[name], operator, riesz(space))
    assert np.all(np.isfinite(call([3.0, 4.0])))
    for wrong in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ShapeError, match=r"expected a vector of length 2, got shape"):
            call(wrong)
    for bad in ([1.0, math.nan], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            call(bad)


def test_p_norm_examples():
    assert p_norm([3.0, 4.0], 2.0) == 5.0
    assert p_norm([1.0, -2.0], math.inf) == 2.0
    assert p_norm([1.0, 1.0, 1.0], 3.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)
    assert p_norm([0.0, 0.0], 1.5) == 0.0


def test_p_norm_overflow_safe():
    # naive sum of |x|^p would overflow without the max factoring
    value = p_norm([1e200, 1e200], 3.0)
    assert value == pytest.approx(1e200 * 2.0 ** (1.0 / 3.0), rel=1e-14)


def test_p_norm_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for p in EXPONENTS:
        for _ in range(200):
            x = rng.standard_normal(rng.integers(1, 8)) * 10.0 ** rng.integers(-3, 4)
            assert p_norm(x, p) == pytest.approx(naive_p_norm(x, p), rel=1e-12)


def test_p_norm_triangle_inequality_within_8_ulps():
    rng = np.random.default_rng(11)
    for p in EXPONENTS:
        for _ in range(500):
            d = int(rng.integers(1, 7))
            a, b, c = rng.standard_normal((3, d)) * 5.0
            lhs = p_norm(a - c, p)
            rhs = p_norm(a - b, p) + p_norm(b - c, p)
            assert lhs <= rhs + 8.0 * np.spacing(rhs)


def test_p_norm_homogeneity():
    rng = np.random.default_rng(13)
    for p in EXPONENTS:
        x = rng.standard_normal(5)
        for t in (-3.0, 0.0, 0.125, 7.5):
            assert p_norm(t * x, p) == pytest.approx(abs(t) * p_norm(x, p), rel=1e-12, abs=1e-300)


def _p_norm_rows_reference(points, p):
    """p_norm_rows as written before it worked in place on its one copy."""
    a = np.abs(np.asarray(points, dtype=float))
    if p == math.inf:
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    r = a / np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0:
        s = np.sqrt((r**2).sum(axis=1))
    else:
        s = (r**p).sum(axis=1) ** (1.0 / p)
    return np.where(m > 0.0, m * s, 0.0)


def test_p_norm_rows_in_place_is_bitwise_the_reference():
    rng = np.random.default_rng(41)
    for scale in (1e-300, 1.0, 1e300):
        points = rng.standard_normal((300, 7)) * scale
        points[::17] = 0.0
        integers = np.rint(points / scale * 100.0).astype(np.int64)
        for p in EXPONENTS:
            for layout in (points, points.T.copy().T, integers):
                assert np.array_equal(p_norm_rows(layout, p), _p_norm_rows_reference(layout, p))


def test_p_norm_rows_peak_memory_is_one_copy():
    points = np.random.default_rng(43).standard_normal((50_000, 8))
    for p in (1.5, 2.0, 3.0):
        tracemalloc.start()
        try:
            p_norm_rows(points, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * points.nbytes, (p, peak)


def test_pair_examples_and_shape_error():
    assert pair([1.0, 0.0], [3.0, 7.0]) == 3.0
    assert pair([0.0, 0.0], [5.0, -2.0]) == 0.0
    assert pair([1.0, 2.0], [2.0, -1.0]) == 0.0
    with pytest.raises(ShapeError):
        pair([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError, match=r"expected a 1-d vector, got shape \(1, 2\)"):
        pair([[1.0, 2.0]], [1.0, 2.0])


def test_dual_norm_examples():
    assert dual_norm([1.0, -2.0], 1.0) == 2.0
    assert dual_norm([3.0, 4.0], 2.0) == 5.0
    assert dual_norm([1.0, 1.0], 4.0) == pytest.approx(2.0 ** (3.0 / 4.0), rel=1e-15)


def test_dual_norm_is_conjugate_p_norm_exactly():
    rng = np.random.default_rng(17)
    for p in EXPONENTS:
        f = rng.standard_normal(6)
        # same floating-point expression, not merely close
        assert dual_norm(f, p) == p_norm(f, conjugate_exponent(p))


def test_dual_norm_matches_grid_sup():
    # sup over the unit p-ball sampled on a dense direction grid
    rng = np.random.default_rng(19)
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        f = rng.standard_normal(2)
        angles = np.linspace(0.0, math.pi, 20_000, endpoint=False)
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        scaled = directions / p_norm_rows(directions, p)[:, None]
        sup = np.abs(scaled @ f).max()
        value = dual_norm(f, p)
        assert sup <= value * (1.0 + 1e-12)
        assert value <= sup * (1.0 + 1e-6)  # grid resolution slack


def test_holder_inequality_batch():
    rng = np.random.default_rng(23)
    for p in EXPONENTS:
        d = int(rng.integers(1, 7))
        fs = rng.standard_normal((1000, d)) * 3.0
        xs = rng.standard_normal((1000, d)) * 3.0
        pairings = np.abs(np.einsum("ij,ij->i", fs, xs))
        bounds = p_norm_rows(fs, conjugate_exponent(p)) * p_norm_rows(xs, p)
        assert np.all(pairings <= bounds * (1.0 + 1e-12))


def test_holder_extremizer_attains_dual_norm():
    rng = np.random.default_rng(29)
    for p in EXPONENTS:
        for _ in range(100):
            f = rng.standard_normal(int(rng.integers(1, 7))) * 2.0
            x = holder_extremizer(f, p)
            assert p_norm(x, p) == pytest.approx(1.0, rel=1e-12)
            assert pair(f, x) == pytest.approx(dual_norm(f, p), rel=1e-12)


def test_holder_extremizer_zero_and_tie_conventions():
    zero = holder_extremizer([0.0, 0.0, 0.0], 2.0)
    assert np.array_equal(zero, [1.0, 0.0, 0.0])
    tie = holder_extremizer([2.0, 2.0], 1.0)
    assert p_norm(tie, 1.0) == 1.0
    assert pair([2.0, 2.0], tie) == 2.0


def test_holder_extremizer_is_bitwise_the_reference_formula():
    def reference(f, p):
        v = np.asarray(f, dtype=float)
        if not v.any():
            x = np.zeros_like(v)
            x[0] = 1.0
            return x
        if p == 1.0:
            j = int(np.argmax(np.abs(v)))
            x = np.zeros_like(v)
            x[j] = math.copysign(1.0, v[j])
            return x
        if p == math.inf:
            return np.sign(v)
        q = conjugate_exponent(p)
        return np.sign(v) * (np.abs(v) / p_norm(v, q)) ** (q - 1.0)

    rng = np.random.default_rng(47)
    functionals = [[0.0, 0.0, 0.0], [-0.0, 0.0], [2.0, -2.0, 1.0], [0.0, -3.0, 3.0]]
    functionals += [rng.standard_normal(int(rng.integers(1, 9))) for _ in range(200)]
    for p in (1.0, 1.2, 1.5, 2.0, 3.0, 4.0, math.inf):
        for f in functionals:
            assert np.array_equal(holder_extremizer(f, p), reference(f, p)), (f, p)


def test_exponent_json_round_trip():
    assert exponent_to_json(math.inf) == "inf"
    assert exponent_from_json("inf") == math.inf
    assert exponent_from_json(1.5) == 1.5
    with pytest.raises(ValueError):
        exponent_from_json("two")


def test_norm_interval_invariants():
    interval = NormInterval(1.0, 2.0, False)
    assert interval.lower <= interval.upper
    with pytest.raises(ValueError):
        NormInterval(2.0, 1.0, False)
    with pytest.raises(ValueError):
        NormInterval(1.0, 2.0, True)


def test_operator_norm_exact_cases():
    diag = operator_norm(np.diag([2.0, 3.0]), 2.0, 2.0)
    assert diag.exact and diag.lower == diag.upper
    assert diag.lower == pytest.approx(3.0, rel=1e-12)

    identity = operator_norm(np.eye(2), 1.0, 1.0)
    assert identity.exact
    assert identity.lower == pytest.approx(1.0, rel=1e-12)

    # max-row case: to = inf uses the conjugate norm of the worst row
    rows = operator_norm(np.array([[1.0, 2.0], [3.0, -1.0]]), 2.0, math.inf)
    assert rows.exact
    assert rows.lower == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_operator_norm_witness_achieves_lower():
    rng = np.random.default_rng(31)
    for from_p, to_p in ((4.0, 3.0), (1.5, 2.0), (3.0, 1.5), (2.0, 1.0)):
        m = rng.standard_normal((3, 3))
        interval = operator_norm(m, from_p, to_p)
        w = interval.witness
        achieved = p_norm(m @ w, to_p) / p_norm(w, from_p)
        assert achieved == pytest.approx(interval.lower, rel=1e-10)
        assert interval.lower <= interval.upper


def test_operator_norm_bracket_contains_grid_estimate():
    specimen = np.array([[1.0, 1.0], [0.0, 1.0]])
    interval = operator_norm(specimen, 4.0, 3.0)
    estimate = grid_norm_estimate(specimen, 4.0, 3.0, points=10_000)
    assert estimate <= interval.upper * (1.0 + 1e-12)
    # the ascent lower bound may exceed the grid only by its resolution
    assert interval.lower <= estimate * (1.0 + 1e-6)


def test_operator_norm_bracket_random_dims():
    rng = np.random.default_rng(37)
    for dim in (1, 2, 3):
        for _ in range(5):
            m = rng.standard_normal((dim, dim)) * rng.uniform(0.5, 2.0)
            from_p, to_p = rng.choice([1.0, 1.5, 2.0, 3.0, np.inf], size=2)
            interval = operator_norm(m, from_p, to_p)
            estimate = grid_norm_estimate(m, from_p, to_p, points=10_000)
            # near a conical maximum the zoom grid converges only linearly,
            # so the dim-3 allowance is the zoom step, not its square
            slack = 1e-6 if dim < 3 else 2e-3
            assert estimate <= interval.upper * (1.0 + 1e-12)
            assert interval.lower <= estimate * (1.0 + slack)


def test_operator_norm_diagonal_closed_form_past_the_sign_pattern_limit():
    # ||diag(d)||_{p->r} = ||d||_s with 1/s = 1/r - 1/p for r < p
    d = np.random.default_rng(53).uniform(0.5, 2.0, 16) * np.where(np.arange(16) % 3, 1.0, -1.0)
    for from_p, to_p in ((3.0, 1.5), (4.0, 2.0), (1.5, 1.2)):
        s = 1.0 / (1.0 / to_p - 1.0 / from_p)
        exact = float((np.abs(d) ** s).sum() ** (1.0 / s))
        interval = operator_norm(np.diag(d), from_p, to_p)
        assert interval.lower == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert interval.lower <= interval.upper


def test_operator_norm_lower_beats_columns_and_sign_patterns():
    rng = np.random.default_rng(59)
    ulps = 4.0 * np.finfo(float).eps
    for _ in range(60):
        rows, cols = (int(k) for k in rng.integers(1, 17, size=2))
        m = rng.standard_normal((rows, cols))
        from_p = float(rng.choice([1.2, 1.5, 2.0, 3.0, math.inf]))
        to_p = float(rng.choice([1.0, 1.2, 1.5, 3.0, 4.0]))
        interval = operator_norm(m, from_p, to_p)
        assert interval.lower >= p_norm_rows(m.T, to_p).max() * (1.0 - ulps)
        if cols <= 8:
            patterns = np.array(list(itertools.product((1.0, -1.0), repeat=cols)))
            ratios = p_norm_rows(patterns @ m.T, to_p) / p_norm_rows(patterns, from_p)
            assert interval.lower >= ratios.max() * (1.0 - ulps)


# (seed, lower, upper) of operator_norm(*_guard_case(seed)) as computed by the
# projected-gradient ascent this package used before the alternating ascent
PROJECTED_ASCENT_PINS = (
    (0, 16.26560538156214, 19.6305711019883),
    (1, 17.895406358756674, 19.603355158521364),
    (2, 8.360656770847564, 11.256660870915663),
    (3, 5.076245924788945, 9.512301621924859),
    (4, 21.55473258823555, 36.560908513104614),
    (5, 84.64146803735348, 99.90694849723668),
    (6, 11.058697253888685, 12.406399899839146),
    (7, 23.88728863726591, 31.647680086835095),
    (8, 2.9126035360719937, 4.945653513060566),
    (9, 35.40985552379051, 48.72692937481882),
    (10, 8.454043405549248, 12.812386671558633),
    (11, 8.888267687574505, 9.931183848674465),
    (12, 6.148040848653942, 9.13580556872742),
    (13, 67.06258614578542, 127.98292151509189),
    (14, 10.431437023279935, 14.782941608431438),
    (15, 30.438651848996663, 37.107433068864175),
    (16, 16.477413076049945, 20.62026575870171),
    (17, 79.88725072319141, 103.08355073537585),
    (18, 3.3759199100042023, 5.855492532217202),
    (19, 14.991535067702907, 19.515827515458156),
    (20, 7.010657381351107, 9.294499295440035),
    (21, 10.980895470228603, 13.575403627681487),
    (22, 26.547035616198784, 30.487656243501398),
    (23, 10.593730009742984, 14.121423213582812),
    (24, 6.765802813356592, 8.241066554538653),
    (25, 6.320490813991867, 9.998867723184283),
    (26, 15.194440714750646, 19.86454703312082),
    (27, 1.492169406038354, 1.6306615521245562),
    (28, 3.832730316806656, 6.299452153041597),
    (29, 3.427175339450221, 9.797063982582602),
    (30, 4.7618529609990725, 5.313432594832887),
    (31, 64.52460800593512, 86.82160696794142),
    (32, 15.630486815934397, 16.816012487851335),
    (33, 20.384360012529704, 23.25801676831427),
    (34, 2.576533846803701, 2.6862797451803786),
    (35, 8.554631185466839, 9.45522491208004),
    (36, 6.2457664278834155, 7.041803683405799),
    (37, 8.47706337188828, 11.164437175796696),
    (38, 4.9572857562350165, 6.632906456818216),
    (39, 20.340699220979005, 23.0371286873437),
)


def _guard_case(seed):
    """Odd seeds: an SPD inverse from p to p'; even seeds: a rectangular matrix."""
    exponents = (1.2, 1.5, 3.0, 4.0, math.inf)
    rng = np.random.default_rng(seed)
    if seed % 2:
        d = int(rng.integers(2, 15))
        b = rng.standard_normal((d, d))
        p = exponents[int(rng.integers(len(exponents)))]
        return np.linalg.inv(b @ b.T / d + 0.1 * np.eye(d)), p, conjugate_exponent(p)
    rows, cols = (int(k) for k in rng.integers(2, 15, size=2))
    from_p = exponents[int(rng.integers(len(exponents)))]
    targets = (1.0,) + exponents[:-1]
    return rng.standard_normal((rows, cols)), from_p, targets[int(rng.integers(len(targets)))]


def test_operator_norm_no_worse_than_projected_ascent_pins():
    for seed, old_lower, old_upper in PROJECTED_ASCENT_PINS:
        interval = operator_norm(*_guard_case(seed))
        assert interval.lower >= old_lower * (1.0 - 1e-12), seed
        if old_lower < old_upper:
            assert interval.upper == old_upper, seed


def test_operator_norm_rejects_bad_input():
    with pytest.raises(ShapeError):
        operator_norm(np.ones(3), 2.0, 2.0)
    with pytest.raises(ValueError):
        operator_norm(np.array([[math.inf]]), 2.0, 2.0)

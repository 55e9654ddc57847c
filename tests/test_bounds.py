import bisect
import csv
import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tailbounds import (
    BoundReport,
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    banach_dual_bound,
    banach_mahalanobis_bound,
    build,
    chen,
    euclidean_chebyshev,
    grenander,
    invert,
    mahalanobis,
    mc_tail,
    rao,
    scalar_chebyshev,
    second_moment,
    sweep,
)
from tailbounds.bounds import (
    EUCLIDEAN,
    EXACT_ENUMERATION,
    INEQUALITIES,
    MONTE_CARLO,
    REPORT_FIELDS,
    SCALAR,
    _evaluate_grid,
    _MeasureState,
    _mc_prepare,
    _prepare,
    _Prepared,
    report_to_row,
    rows_from_csv,
    rows_to_csv,
    rows_to_json,
    sort_rows,
)
from tailbounds.cli import SKIP_NEEDS_DIM1, SKIP_NOT_CENTERED, SKIP_NOT_PD, _skip_row
from tailbounds.covop import _quadratic_values
from tailbounds.errors import (
    ApplicabilityError,
    CenteringError,
    NotPositiveDefiniteError,
    RoleError,
    ShapeError,
)
from tailbounds.measure import (
    GAUSSIAN, SYMMETRIC_ATOMS, UNIFORM_BALL, _exact_sum, _sorted_tails, mean,
)
from tailbounds.space import ROLE_DUAL, p_norm_rows

from conftest import EXPONENTS, random_measure


def signs_measure(dim: int, p: float = 2.0, role: str = "primal") -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights, role)


def point_mass(dim: int, value: float = 0.0, p: float = 2.0) -> DiscreteMeasure:
    return DiscreteMeasure(PNormSpace(dim, p), [[value] * dim], [1.0])


def test_scalar_examples():
    fair = DiscreteMeasure(PNormSpace(1, 2.0), [[-1.0], [1.0]], [0.5, 0.5])
    r = scalar_chebyshev(fair, 1.0)
    assert (r.lhs, r.rhs) == (1.0, 1.0)
    assert r.holds and r.slack == 0.0

    p = scalar_chebyshev(point_mass(1, 7.0), 3.0)
    assert (p.lhs, p.rhs) == (0.0, 0.0)

    skewed = DiscreteMeasure(PNormSpace(1, 2.0), [[0.0], [10.0]], [0.99, 0.01])
    r = scalar_chebyshev(skewed, 9.0)
    assert r.lhs == pytest.approx(0.01, abs=1e-15)
    assert r.rhs == pytest.approx(0.99 / 81.0, rel=1e-12)


def test_scalar_rejects_higher_dim():
    with pytest.raises(ShapeError):
        scalar_chebyshev(signs_measure(2), 1.0)


def test_euclidean_examples():
    r = euclidean_chebyshev(signs_measure(2), 1.0)
    assert (r.lhs, r.rhs) == (1.0, 1.0)

    p = euclidean_chebyshev(point_mass(3, 2.0), 0.5)
    assert (p.lhs, p.rhs) == (0.0, 0.0)

    with pytest.raises(ApplicabilityError):
        euclidean_chebyshev(signs_measure(2, p=1.0), 1.0)


def test_grenander_examples():
    # quarter weights are exactly representable, so equality is exact
    tight = grenander(signs_measure(2), 1.0)
    assert (tight.lhs, tight.rhs) == (1.0, 1.0)

    loose = grenander(signs_measure(2), 2.0)
    assert loose.lhs == 0.0
    assert loose.rhs == pytest.approx(0.25, rel=1e-15)

    zero = grenander(point_mass(2, 0.0), 1.0)
    assert (zero.lhs, zero.rhs) == (0.0, 0.0)

    with pytest.raises(ApplicabilityError):
        grenander(signs_measure(2, p=3.0), 1.0)


def _centered_cases():
    """(name, measure) pairs for the euclidean and scalar oracle test."""
    rng = np.random.default_rng(211)
    for dim, exponents in ((1, EXPONENTS), (3, (2.0,))):
        half = rng.standard_normal((6, dim)) * rng.uniform(0.5, 3.0)
        centered = np.concatenate([half, -half])
        nearly = centered.copy()
        nearly[0] += 1e-12  # the mean moves by 1e-12 / 12
        shifted = centered + rng.uniform(-2.0, 2.0, dim)
        uniform = np.full(12, 1 / 12)
        name = SCALAR if dim == 1 else EUCLIDEAN
        for p in exponents:
            for role in ("primal", "dual"):
                for atoms in (centered, nearly, shifted):
                    yield name, DiscreteMeasure(PNormSpace(dim, p), atoms, uniform, role)
        space = PNormSpace(dim, 2.0)
        signed_zero = np.concatenate([half, -half, np.full((1, dim), -0.0)])
        yield name, DiscreteMeasure(space, signed_zero, np.full(13, 1 / 13))
        zero_weight = np.concatenate([shifted, half[:2] * 5.0])
        yield name, DiscreteMeasure(space, zero_weight, np.r_[uniform, 0.0, 0.0])
        repeated = np.concatenate([shifted[:3]] * 4)
        weights = rng.dirichlet(np.ones(12))
        yield name, DiscreteMeasure(space, repeated, weights)
        order = rng.permutation(12)
        yield name, DiscreteMeasure(space, repeated[order], weights[order])


@pytest.mark.parametrize("name, measure", list(_centered_cases()))
def test_centered_bounds_match_the_deviation_formula(name, measure):
    """euclidean and scalar read grenander's statistic on the centered measure's
    state; the formula they were computed with before stays the reference."""
    deviations = p_norm_rows(measure.atoms - mean(measure), 2.0)
    variance = _exact_sum(measure.weights * deviations**2)
    values, tails = _sorted_tails(deviations, measure.weights)
    prepared = _prepare(name, _MeasureState(measure))
    assert prepared.values.tobytes() == values.tobytes()
    assert prepared.tails.tobytes() == tails.tobytes()
    assert (prepared.scale, prepared.power, prepared.strict) == (variance, 2, False)
    grid = np.concatenate([values[values > 0.0], np.geomspace(1e-3, 1e3, 13)])
    reference = _Prepared(name, values, tails, False, variance, 2, {})
    assert _evaluate_grid(prepared, np.unique(grid)) == _evaluate_grid(reference, np.unique(grid))


def test_chen_examples():
    tight = chen(signs_measure(2), 2.0)
    assert (tight.lhs, tight.rhs) == (1.0, 1.0)
    assert tight.slack == 0.0

    loose = chen(signs_measure(2), 4.0)
    assert loose.lhs == 0.0
    assert loose.rhs == pytest.approx(0.5, rel=1e-15)

    fair = DiscreteMeasure(PNormSpace(1, 2.0), [[-1.0], [1.0]], [0.5, 0.5])
    reduced = chen(fair, 1.0)
    assert (reduced.lhs, reduced.rhs) == (1.0, 1.0)


def test_chen_preconditions():
    shifted = DiscreteMeasure(PNormSpace(1, 2.0), [[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(CenteringError):
        chen(shifted, 1.0)
    with pytest.raises(NotPositiveDefiniteError):
        chen(point_mass(2, 0.0), 1.0)


def test_rao_examples():
    forward, inverse = rao(signs_measure(2), 0.4)
    assert forward.inequality == "rao_forward"
    assert (forward.lhs, forward.rhs) == (1.0, 2.5)
    assert inverse.inequality == "rao_inverse"
    assert inverse.lhs == 1.0
    assert inverse.rhs == pytest.approx(10.0, rel=1e-15)

    _, inv1 = rao(signs_measure(2), 1.0)
    assert inv1.rhs == pytest.approx(4.0, rel=1e-15)

    with pytest.raises(NotPositiveDefiniteError):
        rao(point_mass(2, 0.0), 1.0)


def test_rao_strict_vs_banach_nonstrict_at_boundary():
    # every atom sits exactly at Mahalanobis value 2: the strict event is
    # empty while the non-strict one has full mass
    m = signs_measure(2)
    _, inverse = rao(m, 2.0)
    assert inverse.lhs == 0.0
    banach = banach_mahalanobis_bound(m, 2.0)
    assert banach.lhs == 1.0
    assert inverse.holds and banach.holds


def test_rao_forward_strict_at_boundary():
    forward, _ = rao(signs_measure(2), 0.5)
    assert forward.lhs == 0.0  # quad values sit exactly at 0.5


def test_banach_dual_examples():
    m = signs_measure(2)
    op = build(m)
    pstar = signs_measure(2, role="dual")
    r = banach_dual_bound(op, pstar, 0.5)
    assert (r.lhs, r.rhs) == (1.0, 2.0)

    origin = DiscreteMeasure(PNormSpace(2, 2.0), [[0.0, 0.0]], [1.0], role="dual")
    z = banach_dual_bound(op, origin, 0.25)
    assert (z.lhs, z.rhs) == (0.0, 0.0)

    huge = banach_dual_bound(op, pstar, 1e6)
    assert huge.lhs == 0.0
    assert huge.rhs == pytest.approx(1e-6, rel=1e-12)

    with pytest.raises(RoleError):
        banach_dual_bound(op, signs_measure(2), 0.5)
    with pytest.raises(ShapeError):
        banach_dual_bound(op, signs_measure(3, role="dual"), 0.5)


def test_banach_dual_checks_role_and_space_before_the_moment():
    # squared norms of 1e200 overflow, so taking the moment first fails differently
    m = signs_measure(2)
    op = build(m)
    huge = [[1e200, 0.0], [-1e200, 0.0]]
    primal = DiscreteMeasure(PNormSpace(2, 2.0), huge, [0.5, 0.5])
    with pytest.raises(RoleError):
        banach_dual_bound(op, primal, 1.0)
    with pytest.raises(RoleError):
        sweep("banach_dual", m, [1.0, 2.0], pstar=primal)
    elsewhere = DiscreteMeasure(PNormSpace(2, 3.0), huge, [0.5, 0.5], role="dual")
    with pytest.raises(ShapeError):
        banach_dual_bound(op, elsewhere, 1.0)
    with pytest.raises(ShapeError):
        sweep("banach_dual", m, [1.0, 2.0], pstar=elsewhere)


def test_banach_mahalanobis_examples():
    r = banach_mahalanobis_bound(signs_measure(2), 2.0)
    assert (r.lhs, r.rhs) == (1.0, 2.0)
    assert r.detail == {"norm_lower": 2.0, "norm_upper": 2.0, "norm_exact": True}

    far = banach_mahalanobis_bound(signs_measure(2), 8.0)
    assert far.lhs == 0.0
    assert far.rhs == pytest.approx(0.5, rel=1e-15)

    # p = 1 pair: S is the same matrix, the 1 -> inf inverse norm is exactly 2
    one = banach_mahalanobis_bound(signs_measure(2, p=1.0), 2.0)
    assert one.detail["norm_exact"]
    assert one.detail["norm_upper"] == 2.0
    assert one.rhs == pytest.approx(2.0, rel=1e-15)
    assert one.holds


def test_banach_mahalanobis_uses_upper_endpoint():
    rng = np.random.default_rng(109)
    for _ in range(10):
        m = random_measure(rng, dim=3, p=1.5, definite=True)
        r = banach_mahalanobis_bound(m, 1.0)
        d = r.detail
        assert d["norm_lower"] <= d["norm_upper"]
        expected = d["norm_upper"] ** 2 * second_moment(m) ** 2
        assert r.rhs == pytest.approx(expected, rel=1e-12)


def test_sweep_chen_grid():
    reports = sweep("chen", signs_measure(2), [1.0, 2.0, 4.0])
    assert [r.lhs for r in reports] == [1.0, 1.0, 0.0]
    assert [r.rhs for r in reports] == [2.0, 1.0, 0.5]
    assert all(r.holds for r in reports)


def test_sweep_single_point_and_errors():
    single = sweep("grenander", signs_measure(2), [0.5])
    assert len(single) == 1
    with pytest.raises(ValueError):
        sweep("grenander", signs_measure(2), [])
    with pytest.raises(ValueError):
        sweep("grenander", signs_measure(2), [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep("grenander", signs_measure(2), [0.0, 1.0])
    with pytest.raises(ValueError):
        sweep("parseval", signs_measure(2), [1.0])
    with pytest.raises(ValueError):
        sweep("banach_dual", signs_measure(2), [1.0])


def test_sweep_monotonicity_and_no_violations():
    rng = np.random.default_rng(113)
    grid = np.geomspace(1e-2, 1e2, 20)
    for _ in range(10):
        m = random_measure(rng, dim=3, centered=True, definite=True)
        for inequality in ("grenander", "chen", "rao_forward", "rao_inverse",
                           "banach_mahalanobis"):
            reports = sweep(inequality, m, grid)
            lhs = [r.lhs for r in reports]
            rhs = [r.rhs for r in reports]
            assert all(r.holds for r in reports)
            assert all(a >= b for a, b in zip(lhs, lhs[1:]))
            assert all(a > b for a, b in zip(rhs, rhs[1:]))


def test_sweep_banach_dual_with_pstar():
    m = signs_measure(2)
    pstar = signs_measure(2, role="dual")
    reports = sweep("banach_dual", m, [0.5, 1.0, 2.0], pstar=pstar)
    assert [r.rhs for r in reports] == [2.0, 1.0, 0.5]
    assert all(r.holds for r in reports)
    with pytest.raises(ValueError, match="needs a dual measure"):
        sweep("banach_dual", m, [0.5, 1.0, 2.0])


def test_epsilon_validation():
    m = signs_measure(2)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            grenander(m, bad)


def test_mc_tail_degenerate_sampler():
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=0,
        mean=np.zeros(2),
        cov_factor=np.zeros((2, 2)),
    )
    r = mc_tail(sampler, "norm", None, 1.0, 500)
    assert r.lhs == 0.0
    assert r.ci_halfwidth == 0.0
    assert r.method == MONTE_CARLO
    assert r.holds


def test_mc_tail_determinism_and_seed_override():
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=5,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    a = mc_tail(sampler, "norm", None, 1.0, 1000)
    b = mc_tail(sampler, "norm", None, 1.0, 1000)
    assert report_to_row(a) == report_to_row(b)
    c = mc_tail(sampler, "norm", None, 1.0, 1000, seed=6)
    assert c.lhs != a.lhs or c.ci_halfwidth != a.ci_halfwidth


def test_mc_tail_scalar_gaussian_tail():
    sampler = Sampler(
        space=PNormSpace(1, 2.0),
        family=GAUSSIAN,
        seed=0,
        mean=np.zeros(1),
        cov_factor=np.eye(1),
    )
    r = mc_tail(sampler, "norm", None, 1.0, 4000)
    two_sided = 2.0 * (1.0 - 0.8413447460685429)  # standard normal at 1
    assert abs(r.lhs - two_sided) <= r.ci_halfwidth
    assert r.ci_halfwidth == pytest.approx(
        3.0 * math.sqrt(r.lhs * (1.0 - r.lhs) / 4000.0), rel=1e-12
    )


def test_mc_tail_operator_statistics():
    m = signs_measure(2)
    op = build(m)
    inv = invert(op)
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=SYMMETRIC_ATOMS,
        seed=3,
        atoms=np.eye(2),
    )
    quad = mc_tail(sampler, "quad_S", op, 0.4, 500)
    assert quad.lhs == 1.0  # every draw has quad value exactly 0.5
    mahal = mc_tail(sampler, "mahalanobis_S", inv, 2.0, 500)
    assert mahal.lhs == 1.0  # boundary is included: the event is non-strict


@pytest.mark.parametrize("statistic", ["norm", "quad_S", "mahalanobis_S"])
def test_mc_moments_are_exact_sums(statistic):
    """Each sample moment is math.fsum of the squared norms over n; at this
    seed numpy's pairwise mean of the same values rounded differently."""
    sampler = Sampler(
        PNormSpace(3, 3.0), GAUSSIAN, seed=7, cov_factor=[[1.0, 0.5], [0.0, 2.0], [-1.0, 0.25]]
    )
    draws = sampler.draw_block(0, 1000)
    op = build(random_measure(np.random.default_rng(7), dim=3, p=3.0, definite=True))
    inv = invert(op)

    def moment(exponent):
        return math.fsum((p_norm_rows(draws, exponent) ** 2).tolist()) / 1000

    operator, expected = {
        "norm": (None, moment(3.0)),
        "quad_S": (op, moment(1.5) * op.second_moment),
        "mahalanobis_S": (inv, inv.norm_interval.upper**2 * moment(3.0) ** 2),
    }[statistic]
    assert _mc_prepare(sampler, statistic, operator, 1000).scale == expected


def test_mc_tail_validation():
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=0,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    op = build(signs_measure(2))
    with pytest.raises(ValueError):
        mc_tail(sampler, "norm", None, 1.0, 99)
    with pytest.raises(ValueError):
        mc_tail(sampler, "median", None, 1.0, 500)
    with pytest.raises(ValueError):
        mc_tail(sampler, "norm", op, 1.0, 500)
    with pytest.raises(ValueError):
        mc_tail(sampler, "quad_S", None, 1.0, 500)
    with pytest.raises(ValueError):
        mc_tail(sampler, "mahalanobis_S", op, 1.0, 500)


def test_mc_usage_errors_draw_nothing(monkeypatch):
    sampler = Sampler(space=PNormSpace(3, 2.0), family=GAUSSIAN, seed=0)
    operator = build(signs_measure(3))
    wide = build(signs_measure(4))
    blocks = []
    monkeypatch.setattr(Sampler, "draw_block", lambda self, start, count: blocks.append(count))
    cases = (
        ("norm", operator, ValueError, "statistic 'norm' takes no operator"),
        ("quad_S", None, ValueError, "statistic 'quad_S' needs the covariance operator"),
        ("quad_S", invert(operator), ValueError, "needs the covariance operator"),
        ("mahalanobis_S", operator, ValueError, "statistic 'mahalanobis_S' needs the inverse"),
        ("quad_S", wide, ShapeError, "sampler and operator dimensions differ"),
        ("mahalanobis_S", invert(wide), ShapeError, "sampler and operator dimensions differ"),
    )
    for statistic, given, error, message in cases:
        with pytest.raises(error, match=message):
            mc_tail(sampler, statistic, given, 1.0, 1_000_000)
    assert blocks == []


def _mc_cases(n_draws: int):
    """(sampler, statistic, operator, values, scale, power, epsilons) per case.

    values, scale and power are the statistic and the bound's c/eps^power
    recomputed from a fresh draw; some epsilons sit exactly on drawn values.
    """
    atoms = Sampler(
        space=PNormSpace(2, 2.0),
        family=SYMMETRIC_ATOMS,
        seed=3,
        atoms=[[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]],  # norms 1, 2 and 5
    )
    values = p_norm_rows(atoms.draw_block(0, n_draws), 2.0)
    on_the_norms = (0.5, 1.0, 1.5, 2.0, 5.0, 6.0)
    yield atoms, "norm", None, values, float(np.mean(values**2)), 2, on_the_norms

    rng = np.random.default_rng(12)
    inverse = invert(build(random_measure(rng, dim=3, p=3.0, definite=True)))
    gaussian = Sampler(
        space=PNormSpace(3, 3.0),
        family=GAUSSIAN,
        seed=2,
        mean=np.zeros(3),
        cov_factor=np.diag([1.0, 0.5, 2.0]),
    )
    draws = gaussian.draw_block(0, n_draws)
    values = mahalanobis(inverse, draws)
    moment = float(np.mean(p_norm_rows(draws, 3.0) ** 2))
    scale = inverse.norm_interval.upper**2 * moment**2
    yield gaussian, "mahalanobis_S", inverse, values, scale, 1, _on_and_off(values)

    ball = Sampler(space=PNormSpace(3, 3.0), family=UNIFORM_BALL, seed=4)
    values = p_norm_rows(ball.draw_block(0, n_draws), 3.0)
    yield ball, "norm", None, values, float(np.mean(values**2)), 2, _on_and_off(values)


def _on_and_off(values) -> tuple:
    ranked = np.sort(values)
    on = ranked[[0, len(ranked) // 4, len(ranked) // 2, len(ranked) - 1]]
    return tuple(float(v) for v in on) + (0.5 * ranked[0], 0.3, 1.0, 2.0 * ranked[-1])


@pytest.mark.parametrize("n_draws", [100, 777, 2000])
def test_mc_grid_matches_the_per_epsilon_count(n_draws):
    # the formula each Monte Carlo report was computed with before the
    # reports came from the sorted statistic's tail sums
    for sampler, statistic, operator, values, scale, power, epsilons in _mc_cases(n_draws):
        rows = _evaluate_grid(_mc_prepare(sampler, statistic, operator, n_draws), epsilons)
        for row, epsilon in zip(rows, epsilons, strict=True):
            lhs = float(np.count_nonzero(values >= epsilon)) / n_draws
            half_width = 3.0 * math.sqrt(lhs * (1.0 - lhs) / n_draws)
            rhs = scale / epsilon**power
            holds = lhs <= rhs + half_width + 1e-12
            assert row["method"] == MONTE_CARLO
            assert (row["lhs"], row["ci_halfwidth"], row["rhs"], row["holds"]) == (
                lhs, half_width, rhs, holds
            ), (statistic, n_draws, epsilon)


def test_report_validation():
    good = dict(
        inequality="grenander",
        epsilon=1.0,
        lhs=0.5,
        ci_halfwidth=0.0,
        rhs=1.0,
        method=EXACT_ENUMERATION,
    )
    report = BoundReport(**good)
    assert (report.holds, report.slack) == (True, 0.5)
    assert not BoundReport(**{**good, "lhs": 1.0, "rhs": 0.5}).holds
    # holds and slack are derived, never passed in
    for derived in ({"holds": False}, {"slack": 0.25}):
        with pytest.raises(TypeError):
            BoundReport(**good, **derived)
    with pytest.raises(ValueError):
        BoundReport(**{**good, "lhs": 1.5})
    with pytest.raises(ValueError):
        BoundReport(**{**good, "ci_halfwidth": 0.1})
    with pytest.raises(ValueError):
        BoundReport(**{**good, "inequality": "markov"})


def test_rows_sorted_and_round_trip():
    m = signs_measure(2)
    rows = []
    for inequality in ("grenander", "chen", "banach_mahalanobis"):
        for r in sweep(inequality, m, [0.4, 1.7, 3.0]):
            rows.append(report_to_row(r))
    # a third of a weight exercises the 17-digit formatting path
    thirds = DiscreteMeasure(
        PNormSpace(1, 2.0), [[-1.0], [0.5], [1.0]], [1.0 / 3.0] * 3
    )
    rows.append(report_to_row(scalar_chebyshev(thirds, 0.9)))

    ordered = sort_rows(rows)
    keys = [(row["inequality"], row["epsilon"]) for row in ordered]
    assert keys == sorted(keys)

    csv_text = rows_to_csv(ordered)
    assert rows_from_csv(csv_text) == ordered
    assert rows_to_csv(rows_from_csv(csv_text)) == csv_text

    json_text = rows_to_json(ordered)
    assert json.loads(json_text) == ordered


def test_inequality_enum_is_frozen():
    assert INEQUALITIES == (
        "scalar",
        "euclidean",
        "grenander",
        "chen",
        "rao_forward",
        "rao_inverse",
        "banach_dual",
        "banach_mahalanobis",
    )


def centered_nonuniform(rng, pairs: int, dim: int) -> DiscreteMeasure:
    """+-x pairs with unequal pair weights: the mean is exactly zero."""
    half = rng.standard_normal((pairs, dim)) * rng.uniform(0.5, 2.0, dim)
    weights = rng.uniform(0.1, 1.0, pairs)
    weights = np.concatenate([weights, weights]) / (2.0 * weights.sum())
    return DiscreteMeasure(PNormSpace(dim, 2.0), np.concatenate([half, -half]), weights)


def permuted(measure: DiscreteMeasure, order) -> DiscreteMeasure:
    atoms, weights = measure.atoms[order], measure.weights[order]
    return DiscreteMeasure(measure.space, atoms, weights, measure.role)


def test_exact_reports_do_not_depend_on_atom_order():
    rng = np.random.default_rng(151)
    measure = centered_nonuniform(rng, 150, 3)
    line = DiscreteMeasure(
        PNormSpace(1, 2.0), rng.standard_normal((300, 1)), rng.dirichlet(np.ones(300))
    )
    grid = np.geomspace(1e-3, 1e2, 60)

    def outputs(measure, line) -> bytes:
        pstar = DiscreteMeasure(measure.space, measure.atoms, measure.weights, "dual")
        reports = [sweep("scalar", line, grid)]
        reports += [
            sweep(name, measure, grid, pstar=pstar) for name in INEQUALITIES if name != "scalar"
        ]
        numbers = [(r.lhs, r.rhs) for rows in reports for r in rows]
        return b"".join(
            np.asarray(part, dtype=float).tobytes()
            for part in (numbers, mean(measure), second_moment(measure), build(measure).matrix)
        )

    reference = outputs(measure, line)
    for _ in range(20):
        shuffled = permuted(measure, rng.permutation(measure.n_atoms))
        shuffled_line = permuted(line, rng.permutation(line.n_atoms))
        assert outputs(shuffled, shuffled_line) == reference


def test_exact_lhs_is_fsum_of_the_tail_weights():
    rng = np.random.default_rng(157)
    measure = centered_nonuniform(rng, 60, 3)
    operator = build(measure)
    distances = mahalanobis(invert(operator), measure.atoms)
    statistics = {
        "grenander": (p_norm_rows(measure.atoms, 2.0), False),
        "chen": (distances, False),
        "rao_forward": (
            np.einsum("ij,jk,ik->i", measure.atoms, operator.matrix, measure.atoms), True,
        ),
        "rao_inverse": (distances, True),
    }
    for name, (values, strict) in statistics.items():
        on_atoms = np.unique(values)[::5]  # +-x pairs put two atoms on each
        grid = np.union1d(on_atoms, (on_atoms[:-1] + on_atoms[1:]) / 2.0)
        for report in sweep(name, measure, grid):
            tail = values > report.epsilon if strict else values >= report.epsilon
            assert report.lhs == math.fsum(measure.weights[tail].tolist()), (name, report.epsilon)
        # an atom sits on each of these epsilons, where > and >= differ
        assert all(np.any(values == eps) for eps in on_atoms)


def _acceptance_cases(seed: int, per_exponent: int):
    """(name, prepared, measure, pstar) on criterion 5's kind of random measure."""
    rng = np.random.default_rng(seed)
    for p in EXPONENTS:
        for _ in range(per_exponent):
            measure = random_measure(rng, p=p, centered=True, definite=True)
            names = ["banach_dual", "banach_mahalanobis"]
            if p == 2.0:
                names += ["euclidean", "grenander", "chen", "rao_forward", "rao_inverse"]
            if measure.space.dim == 1:
                names.append("scalar")
            state, pstar = _MeasureState(measure), replace(measure, role=ROLE_DUAL)
            for name in names:
                yield name, _prepare(name, state, pstar), measure, pstar


def _edge_epsilons(values: list) -> list:
    """Epsilons on atom values, below every value and above every value."""
    on = values[:: max(1, len(values) // 6)] + values[-1:]
    return sorted({values[0] / 2.0, *on, 2.0 * values[-1] + 1.0})


def _squares_that_differ(rng, count: int) -> list:
    # epsilons whose numpy square and Python square differ on this platform's libm
    # (there may be none: then the two agree and the RHS check holds trivially)
    candidates = rng.uniform(0.01, 100.0, 20_000)
    differ = candidates[(candidates**2) != np.array([c**2 for c in candidates.tolist()])]
    return differ[:count].tolist()


def test_grid_rows_match_independent_formulas():
    rng = np.random.default_rng(1005)
    odd_squares = _squares_that_differ(rng, 8)
    strictness = set()
    for name, prepared, _, _ in _acceptance_cases(1005, 12):
        values = prepared.values.tolist()
        assert prepared.strict == name.startswith("rao_")
        strictness.add(prepared.strict)
        epsilons = _edge_epsilons(values)
        if prepared.power == 2:
            epsilons = sorted(set(epsilons + odd_squares))
        rows = _evaluate_grid(prepared, epsilons)
        assert [row["epsilon"] for row in rows] == epsilons
        for row, epsilon in zip(rows, epsilons, strict=True):
            cut = bisect.bisect_right if prepared.strict else bisect.bisect_left
            lhs = math.fsum(prepared.tails[:, cut(values, epsilon)].tolist())
            rhs = prepared.scale / epsilon**prepared.power
            expected = dict(
                inequality=name, epsilon=epsilon, lhs=lhs, ci_halfwidth=0.0, rhs=rhs,
                holds=lhs <= rhs + 1e-12, slack=rhs - lhs, method=EXACT_ENUMERATION,
            )
            assert row == expected, (name, epsilon)
            assert list(row) == list(REPORT_FIELDS)
        # below every value the tail is everything, above every value it is empty
        assert rows[0]["lhs"] == math.fsum(prepared.tails[:, 0].tolist())
        assert rows[-1]["lhs"] == 0.0
    assert strictness == {False, True}


def _per_atom_statistic(name: str, measure, pstar) -> tuple:
    """(values, weights) of a statistic, one per atom, in the measure's own order."""
    operator = build(measure)
    if name in ("scalar", "euclidean"):
        return p_norm_rows(measure.atoms - mean(measure), 2.0), measure.weights
    if name == "grenander":
        return p_norm_rows(measure.atoms, 2.0), measure.weights
    if name == "rao_forward":
        return _quadratic_values(measure.atoms, operator.matrix), measure.weights
    if name == "banach_dual":
        return _quadratic_values(pstar.atoms, operator.matrix), pstar.weights
    return mahalanobis(invert(operator), measure.atoms), measure.weights


def test_exact_lhs_is_the_fraction_sum_of_the_tail_weights():
    for name, prepared, measure, pstar in _acceptance_cases(1009, 6):
        values, weights = _per_atom_statistic(name, measure, pstar)
        assert np.array_equal(np.sort(values), prepared.values), name
        epsilons = _edge_epsilons(prepared.values.tolist())
        for row in _evaluate_grid(prepared, epsilons):
            epsilon = row["epsilon"]
            tail = values > epsilon if prepared.strict else values >= epsilon
            exact = sum((Fraction(w) for w in weights[tail].tolist()), Fraction(0))
            assert row["lhs"] == float(exact), (name, epsilon)


def _format_cell(value) -> str:
    # the cell rules rows_to_csv followed when it wrote through csv.writer
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def test_rows_to_csv_matches_csv_writer_rows():
    extremes = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
                -1e-300, 0.1, 1.0 / 3.0, 1e16, 123456789.0, math.inf, -math.inf)
    rows = [
        dict(zip(REPORT_FIELDS, ("grenander", abs(v) or 1.0, v, abs(v), v, holds, -v, method)))
        for v in extremes
        for holds, method in ((True, EXACT_ENUMERATION), (False, MONTE_CARLO))
    ]
    rows += [_skip_row(name, eps, reason) for name, reason in (
        ("chen", SKIP_NOT_CENTERED), ("rao_inverse", SKIP_NOT_PD), ("scalar", SKIP_NEEDS_DIM1),
    ) for eps in (0.5, 1e-300)]
    rows += [report_to_row(r) for r in sweep("euclidean", signs_measure(2), [0.4, 1.0, 3.0])]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for row in rows:
        writer.writerow([_format_cell(row[name]) for name in REPORT_FIELDS])
    assert rows_to_csv(rows) == buffer.getvalue()
    assert rows_to_csv([]) == ",".join(REPORT_FIELDS) + "\n"


def test_rows_to_json_matches_the_indenting_encoder():
    values = (-0.0, 0.0, 5e-324, 1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16,
              math.inf, -math.inf)
    rows = [
        dict(zip(REPORT_FIELDS, ("grenander", abs(v) or 1.0, v, abs(v), v, holds, -v, method)))
        for v in values
        for holds, method in ((True, EXACT_ENUMERATION), (False, MONTE_CARLO))
    ]
    rows += [_skip_row(name, eps, reason) for name, reason in (
        ("chen", SKIP_NOT_CENTERED), ("rao_inverse", SKIP_NOT_PD), ("scalar", SKIP_NEEDS_DIM1),
    ) for eps in (0.5, 1e-300)]
    rows.append(dict(rows[0], inequality='a "quoted" \\ name\n\té', method="≤"))
    rows += [report_to_row(r) for r in sweep("euclidean", signs_measure(2), [0.4, 1.0, 3.0])]
    for chosen in (rows, rows[:1], []):
        assert rows_to_json(chosen) == json.dumps(chosen, indent=2) + "\n"
    assert rows_to_json(iter(rows)) == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("epsilon", [1e-200, 1e200])
def test_epsilon_whose_power_leaves_the_float_range_is_a_value_error(epsilon):
    # eps**2 underflows to 0 or overflows; a grid point inside the range passes
    with pytest.raises(ValueError, match=r"epsilon\*\*2 leaves the float range"):
        sweep("grenander", signs_measure(2), [epsilon])
    with pytest.raises(ValueError, match=r"epsilon\*\*2 leaves the float range"):
        sweep("euclidean", signs_measure(2), sorted([1.0, epsilon]))
    with pytest.raises(ValueError, match=r"epsilon\*\*2 leaves the float range"):
        grenander(signs_measure(2), epsilon)
    # power 1 holds them
    assert chen(signs_measure(2), epsilon).rhs == 2.0 / epsilon

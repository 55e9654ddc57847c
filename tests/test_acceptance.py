"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line with the measured worst case next to
its pinned tolerance, so the run log doubles as a certification record.
"""

import math
import time

import numpy as np

from tailbounds import (
    DiscreteMeasure,
    PNormSpace,
    Sampler,
    banach_dual_bound,
    banach_mahalanobis_bound,
    boundedness_check,
    bound_equivalence,
    build,
    cauchy_estimate,
    chen,
    dual_norm,
    euclidean_chebyshev,
    grenander,
    invert,
    inverse_norm_pair,
    mahalanobis,
    mc_tail,
    operator_norm,
    quad_form,
    quantize,
    rao,
    riesz,
    scalar_chebyshev,
    sweep,
    verify_ST_equals_SH,
)
from tailbounds.covop import _quadratic_values
from tailbounds.measure import GAUSSIAN, quantize_points
from tailbounds.space import p_norm, p_norm_rows

from conftest import EXPONENTS, grid_norm_estimate, random_measure, report_to_row


def signs_measure(dim: int, p: float = 2.0) -> DiscreteMeasure:
    atoms = np.vstack([np.eye(dim), -np.eye(dim)])
    weights = np.full(2 * dim, 0.5 / dim)
    return DiscreteMeasure(PNormSpace(dim, p), atoms, weights)


def test_criterion_1_quadratic_form_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        m = random_measure(rng)
        op = build(m)
        d = m.space.dim
        f, g = rng.standard_normal((2, d)) * 3.0
        via_matrix = quad_form(op, f, g)
        projections_f = m.atoms @ f
        projections_g = m.atoms @ g
        via_atoms = float(np.dot(m.weights, projections_f * projections_g))
        # the bilinear form can cancel, so the gap is measured against the
        # cancellation-free term scale, not the (possibly tiny) value
        scale = float(np.dot(m.weights, np.abs(projections_f * projections_g)))
        gap = abs(via_matrix - via_atoms) / max(scale, 1e-300)
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1: PASS - worst relative gap {worst:.3e} (limit 1e-12), {elapsed:.1f}s")


def test_criterion_2_boundedness():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    pairs = 0
    worst_ratio = 0.0
    for p in EXPONENTS:
        for _ in range(100):
            m = random_measure(rng, p=p)
            op = build(m)
            d = m.space.dim
            for _ in range(20):
                f = rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3)
                lhs, rhs, holds = boundedness_check(op, f)
                assert holds
                if rhs > 0.0:
                    worst_ratio = max(worst_ratio, lhs / rhs)
                pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs == 10_000
    assert elapsed < 30.0
    print(f"criterion 2: PASS - {pairs} pairs, worst lhs/rhs {worst_ratio:.6f}, {elapsed:.1f}s")


def test_criterion_3_cauchy_refinement():
    started = time.perf_counter()
    sampler = Sampler(
        space=PNormSpace(2, 2.0),
        family=GAUSSIAN,
        seed=42,
        mean=np.zeros(2),
        cov_factor=np.eye(2),
    )
    resolutions = (0.2, 0.1, 0.05, 0.025)
    # merge=False keeps the draws aligned index by index: the couplings below
    # compare the same underlying sample at two resolutions
    snapped = {
        delta: quantize(sampler, 1000, delta, merge=False) for delta in resolutions
    }
    rng = np.random.default_rng(1003)
    f = rng.standard_normal(2)
    f = f / dual_norm(f, 2.0)

    for i, coarse in enumerate(resolutions):
        for fine in resolutions[i + 1 :]:
            lhs, rhs, holds = cauchy_estimate(snapped[coarse], snapped[fine], f)
            assert holds, (coarse, fine, lhs, rhs)

    consecutive = [
        cauchy_estimate(snapped[a], snapped[b], f)[1]
        for a, b in zip(resolutions, resolutions[1:])
    ]
    assert all(a > b for a, b in zip(consecutive, consecutive[1:])), consecutive
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "criterion 3: PASS - all 6 couplings hold, consecutive RHS "
        f"{[round(v, 4) for v in consecutive]} decreasing, {elapsed:.1f}s"
    )


def test_criterion_4_quantizer_guarantees():
    started = time.perf_counter()
    sampler = Sampler(
        space=PNormSpace(3, 2.0),
        family=GAUSSIAN,
        seed=7,
        mean=np.zeros(3),
        cov_factor=np.eye(3),
    )
    delta = 0.1
    raw = sampler.draw_block(0, 100_000)
    snapped = quantize_points(raw, delta)

    errors = p_norm_rows(raw - snapped, 2.0)
    bound = delta * 3.0 ** 0.5
    assert np.all(errors <= bound), float(errors.max())
    assert np.all(np.abs(snapped) <= np.abs(raw))
    assert np.all(snapped * raw >= 0.0)  # never crosses zero
    # the shrink makes the factor-2 comparison a corollary
    norms_raw = p_norm_rows(raw, 2.0)
    norms_snapped = p_norm_rows(snapped, 2.0)
    assert np.all(norms_snapped <= norms_raw)
    assert np.all(norms_snapped <= 2.0 * norms_raw)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"criterion 4: PASS - 100000 draws, max error {float(errors.max()):.6f} "
        f"<= {bound:.6f}, shrink exact, {elapsed:.1f}s"
    )


def test_criterion_5_no_violation_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    grid = tuple(float(v) for v in np.geomspace(1e-3, 1e3, 20))
    rows = 0
    coverage: dict = {}
    for p in EXPONENTS:
        for _ in range(200):
            m = random_measure(rng, p=p, centered=True, definite=True)
            names = ["banach_dual", "banach_mahalanobis"]
            if p == 2.0:
                names += ["euclidean", "grenander", "chen", "rao_forward", "rao_inverse"]
            if m.space.dim == 1:
                names.append("scalar")
            pstar = DiscreteMeasure(m.space, m.atoms, m.weights, role="dual")
            for name in names:
                reports = sweep(name, m, grid, pstar=pstar)
                for report in reports:
                    assert report.holds, (name, report.epsilon, report.lhs, report.rhs)
                rows += len(reports)
                coverage[name] = coverage.get(name, 0) + len(reports)
    elapsed = time.perf_counter() - started
    assert set(coverage) == {
        "scalar", "euclidean", "grenander", "chen", "rao_forward",
        "rao_inverse", "banach_dual", "banach_mahalanobis",
    }
    assert min(coverage.values()) >= 20  # every inequality genuinely exercised
    assert elapsed < 120.0
    print(f"criterion 5: PASS - {rows} rows, zero violations, {elapsed:.1f}s")


def test_criterion_6_tightness_witnesses():
    for n in range(1, 7):
        tight = chen(signs_measure(n), float(n))
        assert abs(tight.lhs - 1.0) <= 1e-12, (n, tight.lhs)
        assert abs(tight.rhs - 1.0) <= 1e-12, (n, tight.rhs)

        unit = grenander(signs_measure(n), 1.0)
        assert abs(unit.lhs - 1.0) <= 1e-12
        assert abs(unit.rhs - 1.0) <= 1e-12

    fair = DiscreteMeasure(PNormSpace(1, 2.0), [[-1.0], [1.0]], [0.5, 0.5])
    flat = scalar_chebyshev(fair, 1.0)
    assert flat.lhs == 1.0 and flat.rhs == 1.0

    def within_4_ulps(report):
        assert abs(report.lhs - report.rhs) <= 4 * math.ulp(report.lhs), report
        return report

    a, b, sigma = 0.7, 1.7, 0.1
    three = DiscreteMeasure(PNormSpace(1, 2.0), [[-a], [0.0], [a]], [sigma, 1 - 2 * sigma, sigma])
    assert within_4_ulps(euclidean_chebyshev(three, a)).lhs == 2 * sigma
    pair = DiscreteMeasure(PNormSpace(1, 2.0), [[-a], [a]], [0.5, 0.5])
    operator = build(pair)
    # a strict event is approached from below the package's own statistic, not below a**4
    forward = _quadratic_values(pair.atoms, operator.matrix).min()
    inverse = mahalanobis(invert(operator), pair.atoms).min()
    below = [math.nextafter(math.nextafter(value, 0.0), 0.0) for value in (forward, inverse)]
    assert within_4_ulps(rao(pair, below[0])[0]).lhs == 1.0
    assert within_4_ulps(rao(pair, below[1])[1]).lhs == 1.0
    assert (rao(pair, forward)[0].lhs, rao(pair, inverse)[1].lhs) == (0.0, 0.0)  # > eps, strictly
    for p in (1.5, 3.0, math.inf):
        spread = DiscreteMeasure(PNormSpace(1, p), [[-a], [a]], [0.5, 0.5])
        assert within_4_ulps(banach_mahalanobis_bound(spread, 1.0)).lhs == 1.0
    functionals = DiscreteMeasure(PNormSpace(1, 2.0), [[-b], [b]], [0.5, 0.5], "dual")
    assert within_4_ulps(banach_dual_bound(operator, functionals, a * a * b * b)).lhs == 1.0
    print(
        "criterion 6: PASS - chen/grenander tight for n=1..6, scalar tight at 1; "
        "euclidean, rao_forward, rao_inverse, banach_mahalanobis and banach_dual "
        "tight within 4 ulps"
    )


def test_criterion_7_reduction_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst_operator_gap = 0.0
    worst_rhs_deviation = 0.0
    boundary_skips = 0
    for _ in range(1000):
        m = random_measure(
            rng, dim=int(rng.integers(1, 6)), p=2.0, max_atoms=32,
            centered=True, definite=True,
        )
        transport = riesz(m.space)
        gap = verify_ST_equals_SH(m, transport, n_trials=10, seed=11)
        worst_operator_gap = max(worst_operator_gap, gap)
        assert gap <= 1e-12

        direct, alternate = inverse_norm_pair(m, transport)
        assert direct == alternate

        epsilon = float(10.0 ** rng.uniform(-2.0, 2.0))
        result = bound_equivalence(m, epsilon)
        assert result.forward_rhs_deviation <= 1e-12
        assert result.inverse_rhs_deviation <= 1e-12
        worst_rhs_deviation = max(
            worst_rhs_deviation, result.forward_rhs_deviation, result.inverse_rhs_deviation
        )
        # a random epsilon colliding with an atom statistic is measure-zero;
        # LHS agreement is only claimed away from the boundary
        if result.forward_boundary or result.inverse_boundary:
            boundary_skips += 1
            continue
        assert result.forward_lhs_deviation <= 1e-12
        assert result.inverse_lhs_deviation <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 7: PASS - operator gap {worst_operator_gap:.3e}, RHS deviation "
        f"{worst_rhs_deviation:.3e} (limits 1e-12), {boundary_skips} boundary skips, "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_norm_certification():
    started = time.perf_counter()
    rng = np.random.default_rng(1008)
    exponents = [1.0, 1.5, 2.0, 3.0, math.inf]
    # the zoom grid converges linearly near conical maxima, so the allowance
    # on the lower endpoint is the grid step for that dimension
    grid_allowance = {1: 1e-12, 2: 1e-6, 3: 2e-3}
    checked = 0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        from_p = float(rng.choice(exponents))
        to_p = float(rng.choice(exponents))
        matrix = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-1, 2)
        interval = operator_norm(matrix, from_p, to_p)
        estimate = grid_norm_estimate(matrix, from_p, to_p, points=10_000)
        assert estimate <= interval.upper * (1.0 + 1e-12)
        assert interval.lower <= estimate * (1.0 + grid_allowance[dim])
        checked += 1

    for _ in range(20):
        dim = int(rng.integers(1, 4))
        matrix = rng.standard_normal((dim, dim))
        for to_p in exponents:
            got = operator_norm(matrix, 1.0, to_p)
            columns = max(p_norm(matrix[:, j], to_p) for j in range(dim))
            assert got.exact and got.lower == got.upper
            assert abs(got.lower - columns) <= 1e-12 * max(1.0, columns)
        for from_p in exponents:
            got = operator_norm(matrix, from_p, math.inf)
            q = 1.0 if from_p == math.inf else (
                math.inf if from_p == 1.0 else from_p / (from_p - 1.0)
            )
            rows = max(p_norm(matrix[i], q) for i in range(dim))
            assert got.exact
            assert abs(got.lower - rows) <= 1e-12 * max(1.0, rows)
        spectral = operator_norm(matrix, 2.0, 2.0)
        top = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert spectral.exact
        assert abs(spectral.lower - top) <= 1e-12 * max(1.0, top)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 8: PASS - {checked} brackets contain the grid estimate, "
        f"exact cases match closed forms to 1e-12, {elapsed:.1f}s"
    )


def test_criterion_9_monte_carlo_sanity():
    sampler = Sampler(
        space=PNormSpace(1, 2.0),
        family=GAUSSIAN,
        seed=0,
        mean=np.zeros(1),
        cov_factor=np.eye(1),
    )
    report = mc_tail(sampler, "norm", None, 1.0, 100_000, seed=0)
    oracle = math.erfc(1.0 / math.sqrt(2.0))  # two-sided standard normal tail at 1
    sigma = math.sqrt(oracle * (1.0 - oracle) / 100_000)
    assert abs(report.lhs - oracle) <= 3.0 * sigma, (report.lhs, oracle)
    rerun = mc_tail(sampler, "norm", None, 1.0, 100_000, seed=0)
    assert report_to_row(rerun) == report_to_row(report)
    print(
        f"criterion 9: PASS - lhs {report.lhs:.5f} vs oracle {oracle:.5f} "
        f"(3 sigma = {3*sigma:.5f}), rerun identical"
    )

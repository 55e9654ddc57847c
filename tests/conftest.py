"""Shared test helpers: randomized measures, brute-force norm oracles, report
rows and the dict route the CLI once emitted its rows through."""

from __future__ import annotations

import csv
import io
import math
import sys

import numpy as np

from tailbounds import DiscreteMeasure, PNormSpace, build, invert, load_measure, load_sampler
from tailbounds.bounds import (
    INEQUALITIES, REPORT_FIELDS, SCALAR, BoundReport, _evaluate_grid, _MeasureState,
    _mc_prepare, _prepare, rows_to_csv, rows_to_json, sort_rows,
)
from tailbounds.cli import (
    SKIP_NEEDS_DIM1, SKIP_NEEDS_P2, SKIP_NOT_CENTERED, SKIP_NOT_PD, UsageError, _build_parser,
    _epsilons_from_args,
)
from tailbounds.covop import load_operator
from tailbounds.errors import (
    ApplicabilityError, CenteringError, NotPositiveDefiniteError, ShapeError, TailboundsError,
)
from tailbounds.measure import _rounded, _slices
from tailbounds.space import ROLE_PRIMAL, p_norm_rows

EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


def report_to_row(report: BoundReport) -> dict:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def rows_from_csv(text: str) -> list[dict]:
    """Report rows back from rows_to_csv's text."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for record in reader:
        row = dict(record)
        for name in ("epsilon", "lhs", "ci_halfwidth", "rhs", "slack"):
            row[name] = float(row[name])
        row["holds"] = record["holds"] == "true"
        rows.append(row)
    return rows


def skip_row(inequality: str, epsilon: float, reason: str) -> dict:
    """The row the CLI writes for an inequality it did not evaluate."""
    row = dict.fromkeys(REPORT_FIELDS)  # the fields a skip cannot compute stay None
    row.update(inequality=inequality, epsilon=float(epsilon), holds=True, method=reason)
    return row


def sorted_tails(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted route exact tails were read from before the grid primitive:
    the keys in ascending order, with the exact tail sums of their weights.

    Column j of the (K, n + 1) table sums exactly to the weights of keys[j:],
    so math.fsum of it is their correctly rounded total; column n is zero.
    """
    order = np.argsort(keys)
    slices = list(_slices(weights[order]))  # one grid for all n weights: exact cumsums
    tails = np.zeros((len(slices), len(keys) + 1))
    for row, q in zip(tails, slices):
        row[:-1] = np.cumsum(q[::-1])[::-1]
    return keys[order], tails


def sorted_route_lhs(keys: np.ndarray, weights: np.ndarray, epsilons, strict: bool) -> np.ndarray:
    """The exact LHS at any epsilons as the sorted route read it: one binary
    search places them among the sorted keys, then each tail column's fsum."""
    ordered, tails = sorted_tails(keys, weights)
    side = "right" if strict else "left"  # the tail starts at the first key > eps or >= eps
    return _rounded(tails[:, np.searchsorted(ordered, epsilons, side=side)])


def columns_to_rows(columns) -> list[dict]:
    """_evaluate_grid's columns as the dict rows it once returned."""
    inequality, *middle, method = columns
    return [
        dict(zip(REPORT_FIELDS, (inequality, *row, method)))
        for row in zip(*(np.asarray(column).tolist() for column in middle))
    ]


def _dict_route_finish(config, rows: list) -> int:
    rows = sort_rows(rows)
    text = rows_to_csv(rows) if config.fmt == "csv" else rows_to_json(rows)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    violations = [row for row in rows if not row["holds"]]
    for row in violations:
        cells = ", ".join(f"{name}={row[name]}" for name in REPORT_FIELDS)
        sys.stderr.write(f"violation: {cells}\n")
    return 2 if violations else 0


def dict_route_verify(config) -> int:
    """cmd_verify as it was when every report row was a dict: all rows of all
    inequalities built, sorted by sort_rows and formatted in one text."""
    measure = load_measure(config.input)
    if measure.role != ROLE_PRIMAL:
        raise ValueError("verify expects a primal measure as input")
    if config.inequality == "all":
        names = INEQUALITIES
    elif config.inequality in INEQUALITIES:
        names = (config.inequality,)
    else:
        raise UsageError(
            f"--inequality must be 'all' or one of {INEQUALITIES}, got {config.inequality!r}"
        )
    pstar = load_measure(config.dual_input) if config.dual_input else None
    state = _MeasureState(measure, config.epsilons)
    rows: list = []
    for name in names:
        try:
            prepared = _prepare(name, state, pstar)
        except ApplicabilityError:
            if config.inequality == "all":
                continue
            reason = SKIP_NEEDS_DIM1 if name == SCALAR else SKIP_NEEDS_P2
            rows.extend(skip_row(name, eps, reason) for eps in config.epsilons)
            continue
        except NotPositiveDefiniteError:
            rows.extend(skip_row(name, eps, SKIP_NOT_PD) for eps in config.epsilons)
            continue
        except CenteringError:
            rows.extend(skip_row(name, eps, SKIP_NOT_CENTERED) for eps in config.epsilons)
            continue
        rows.extend(columns_to_rows(_evaluate_grid(prepared, config.epsilons)))
    return _dict_route_finish(config, rows)


def dict_route_mc(config) -> int:
    """cmd_mc as it was when every report row was a dict."""
    sampler = load_sampler(config.input)
    operator = None
    if (config.statistic == "norm") == bool(config.operator_path):
        raise UsageError("quad_S and mahalanobis_S need --operator; norm refuses it")
    if config.operator_path:
        operator = load_operator(config.operator_path)
    if config.statistic == "mahalanobis_S":
        if operator.space.dim != sampler.space.dim:
            raise ShapeError("sampler and operator dimensions differ")
        try:
            operator = invert(operator)
        except NotPositiveDefiniteError:
            rows = [skip_row("banach_mahalanobis", eps, SKIP_NOT_PD) for eps in config.epsilons]
            return _dict_route_finish(config, rows)
    prepared = _mc_prepare(
        sampler, config.statistic, operator, config.draws, config.epsilons, seed=config.seed
    )
    return _dict_route_finish(config, columns_to_rows(_evaluate_grid(prepared, config.epsilons)))


def dict_route_main(argv, epsilons=None) -> int:
    """cli.main for verify, sweep and mc through the dict route; `epsilons`,
    when given, replaces the parsed grid (the CLI's own parser only gives
    one epsilon or an ascending grid)."""
    try:
        args = _build_parser().parse_args(argv)
        args.epsilons = _epsilons_from_args(args) if epsilons is None else tuple(epsilons)
        run = dict_route_mc if args.command == "mc" else dict_route_verify
        return run(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (TailboundsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def random_measure(
    rng,
    dim: int | None = None,
    p: float = 2.0,
    max_atoms: int = 64,
    centered: bool = False,
    definite: bool = False,
) -> DiscreteMeasure:
    """Random discrete measure; definite=True retries until invert succeeds."""
    for _ in range(50):
        d = int(dim) if dim is not None else int(rng.integers(1, 7))
        low = d + 1 if definite else 1
        n = int(rng.integers(low, max_atoms + 1))
        atoms = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
        weights = rng.uniform(0.1, 1.0, n)
        weights = weights / weights.sum()
        if centered:
            atoms = atoms - weights @ atoms
        measure = DiscreteMeasure(PNormSpace(d, p), atoms, weights)
        if not definite:
            return measure
        try:
            invert(build(measure))
        except NotPositiveDefiniteError:
            continue
        return measure
    raise AssertionError("could not draw a positive definite measure")


def awkward_measure(rng, dim: int) -> DiscreteMeasure:
    """Random p = 2 measure with repeated atoms, atoms of zero weight and
    coordinates spread over e^+-4; at 900 atoms a build sums in several blocks."""
    n = int(rng.choice([3, 40, 900]))
    distinct = rng.standard_normal((n, dim)) * np.exp(rng.uniform(-4.0, 4.0, (n, dim)))
    atoms = distinct[rng.integers(0, n, n)]  # drawn with replacement: repeats
    weights = rng.uniform(0.0, 1.0, n)
    weights[rng.random(n) < 0.25] = 0.0
    weights[0] = 1.0  # at least one atom carries mass
    return DiscreteMeasure(PNormSpace(dim, 2.0), atoms, weights / weights.sum())


def naive_p_norm(vector, p: float) -> float:
    """Straight-line reimplementation used as an independent oracle."""
    if p == math.inf:
        return max(abs(float(v)) for v in vector)
    return sum(abs(float(v)) ** p for v in vector) ** (1.0 / p)


def _sphere_directions(points: int) -> np.ndarray:
    # Fibonacci lattice on the unit 2-sphere
    indices = np.arange(points) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * indices
    z = 1.0 - 2.0 * indices / points
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def grid_norm_estimate(matrix, from_exponent: float, to_exponent: float, points: int = 10_000) -> float:
    """Brute-force lower estimate of the induced norm from a direction grid.

    dim 1 is exact; dim 2 scans the half-circle; dim 3 does a coarse
    Fibonacci scan plus a zoomed local grid around the best direction,
    keeping the total direction count at `points`.
    """
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[1]

    def value(directions: np.ndarray) -> tuple[float, np.ndarray]:
        scores = p_norm_rows(directions @ a.T, to_exponent) / p_norm_rows(
            directions, from_exponent
        )
        best = int(np.argmax(scores))
        return float(scores[best]), directions[best]

    if dim == 1:
        return value(np.array([[1.0]]))[0]
    if dim == 2:
        angles = np.linspace(0.0, math.pi, points, endpoint=False)
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        return value(directions)[0]
    if dim != 3:
        raise ValueError("grid oracle only covers dim <= 3")
    coarse_points = points * 3 // 5
    coarse_value, anchor = value(_sphere_directions(coarse_points))
    # zoom: local tangent grid around the best coarse direction
    spacing = 2.0 * math.sqrt(math.pi / coarse_points)
    helper = np.eye(3)[int(np.argmin(np.abs(anchor)))]
    u = np.cross(anchor, helper)
    u /= np.linalg.norm(u)
    v = np.cross(anchor, u)
    side = int(math.sqrt(points - coarse_points))
    offsets = np.linspace(-spacing, spacing, side)
    du, dv = np.meshgrid(offsets, offsets)
    local = anchor[None, :] + du.ravel()[:, None] * u + dv.ravel()[:, None] * v
    local /= np.linalg.norm(local, axis=1)[:, None]
    zoom_value, _ = value(local)
    return max(coarse_value, zoom_value)

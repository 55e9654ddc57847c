"""Shared test helpers: randomized measures, brute-force norm oracles and report rows."""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from tailbounds import DiscreteMeasure, PNormSpace, build, invert
from tailbounds.bounds import REPORT_FIELDS, BoundReport
from tailbounds.errors import NotPositiveDefiniteError
from tailbounds.space import p_norm_rows

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

"""Finite-dimensional p-norm geometry.

Everything downstream lives in R^dim equipped with the p-norm

    ||x||_p = (sum_i |x_i|^p)^(1/p),    ||x||_inf = max_i |x_i|,

its conjugate exponent q (1/p + 1/q = 1), and the duality pairing
<f, x> = sum_i f_i x_i.  Dual vectors are plain coordinate vectors
measured in the q-norm.  p = inf is represented exactly as math.inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ROLE_PRIMAL = "primal"
ROLE_DUAL = "dual"
ROLES = (ROLE_PRIMAL, ROLE_DUAL)


def _check_exponent(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1 (or inf), got {p}")
    return p


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1; q = inf when p = 1 and q = 1 when p = inf."""
    p = _check_exponent(p)
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def exponent_to_json(p: float):
    return "inf" if p == math.inf else float(p)


def exponent_from_json(value) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"exponent must be a number or the string 'inf', got {value!r}")
    return _check_exponent(float(value))


@dataclass(frozen=True)
class PNormSpace:
    """R^dim with the p-norm; its dual is the same coordinates under the q-norm."""

    dim: int
    p: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "p", _check_exponent(self.p))

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


def _coords(x, dim: int | None = None) -> np.ndarray:
    """Coordinates of one vector: 1-d, finite and, when `dim` is given, of that length."""
    v = np.asarray(x, dtype=float)
    if dim is None and v.ndim != 1:
        raise ShapeError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape != (dim,):
        raise ShapeError(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("coordinates must be finite")
    return v


def p_norm_rows(points, p: float) -> np.ndarray:
    """p-norm of each row of a 2-d array, scaled to avoid overflow for large p."""
    p = _check_exponent(p)
    a = np.abs(np.asarray(points, dtype=float))
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d array of row vectors, got shape {a.shape}")
    if p == math.inf:
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    # factor out the max so (a/m)**p stays in [0, 1]; `a` is our own copy
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0:
        s = np.sqrt(np.square(a, out=a).sum(axis=1))
    else:
        s = np.power(a, p, out=a).sum(axis=1) ** (1.0 / p)
    return np.where(m > 0.0, m * s, 0.0)


def p_norm(x, p: float) -> float:
    return float(p_norm_rows(_coords(x)[None, :], p)[0])


def pair(f, x) -> float:
    """Duality pairing <f, x> = sum_i f_i x_i."""
    fc = _coords(f)
    return float(np.dot(fc, _coords(x, len(fc))))


def dual_norm(f, p: float) -> float:
    """Norm of a functional over the p-normed space: the conjugate q-norm."""
    return p_norm(f, conjugate_exponent(p))


def _extremizers(rows, q: float):
    """Row-wise `holder_extremizer` for functionals measured in the q-norm.

    Returns the extremizers, unit in the conjugate of q, and the values
    <f, x> = ||f||_q they attain.
    """
    v = np.asarray(rows, dtype=float)
    norms = p_norm_rows(v, q)
    zero = norms == 0.0
    if q == math.inf:
        index = np.arange(v.shape[0])
        j = np.argmax(np.abs(v), axis=1)
        x = np.zeros_like(v)
        x[index, j] = np.copysign(1.0, v[index, j])
    elif q == 1.0:
        x = np.sign(v)
    else:
        x = np.sign(v) * (np.abs(v) / np.where(zero, 1.0, norms)[:, None]) ** (q - 1.0)
    x[zero, 0] = 1.0
    return x, norms


def holder_extremizer(f, p: float) -> np.ndarray:
    """Unit-p-norm vector x attaining <f, x> = ||f||_q.

    For 1 < p < inf the extremizer is x_i = sign(f_i) |f_i|^(q-1) / ||f||_q^(q-1);
    for p = 1 it is a signed standard basis vector at the largest |f_i|; for
    p = inf it is the sign pattern of f.  The zero functional maps to e_1.
    """
    return _extremizers(_coords(f)[None, :], conjugate_exponent(p))[0][0]


@dataclass(frozen=True, eq=False)
class NormInterval:
    """Certified bracket [lower, upper] around an operator norm.

    `exact` means the value is known in closed form and lower == upper.
    `witness` is a vector achieving (or certifying) the lower endpoint:
    lower == ||M w||_to / ||w||_from holds by construction.
    """

    lower: float
    upper: float
    exact: bool
    witness: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(
                f"invalid interval: lower={self.lower}, upper={self.upper}"
            )
        if self.exact and self.lower != self.upper:
            raise ValueError("exact intervals must be degenerate")


_ASCENT_RANDOM_STARTS = 16  # besides every basis vector
_ASCENT_SEED = 0
_ASCENT_MAX_STEPS = 200


def _alternating_ascent(matrix, from_exponent, to_exponent):
    """Best ||M x||_to over unit-from-norm x reached by alternating maximization.

    The norm is the max of y^T M x over the unit from- and to'-balls.  A step
    maximizes over each ball in turn, x <- ext_from(M^T ext_to'(M x)), and by
    Hölder never lowers ||M x||_to (Boyd 1974; Higham 1992).  A start keeps a
    step only if ||M x||_to grows; one that did not is at a fixed point of the
    step and is dropped.  Returns (value, point).
    """
    cols = matrix.shape[1]
    gaussian = np.random.default_rng(_ASCENT_SEED).standard_normal((_ASCENT_RANDOM_STARTS, cols))
    points = np.vstack([np.eye(cols), gaussian / p_norm_rows(gaussian, from_exponent)[:, None]])
    duals, values = _extremizers(points @ matrix.T, to_exponent)
    from_dual = conjugate_exponent(from_exponent)
    best = int(np.argmax(values))
    best_value, best_point = float(values[best]), points[best]
    for _ in range(_ASCENT_MAX_STEPS):
        trial = _extremizers(duals @ matrix, from_dual)[0]
        trial_duals, trial_values = _extremizers(trial @ matrix.T, to_exponent)
        grew = trial_values > values
        if not grew.any():
            break
        points, duals, values = trial[grew], trial_duals[grew], trial_values[grew]
        best = int(np.argmax(values))
        if values[best] > best_value:
            best_value, best_point = float(values[best]), points[best]
    return best_value, best_point


def _sign_pattern_candidates(matrix, from_exponent, to_exponent):
    """Evaluate all +-1 sign patterns (first coordinate fixed +1) as candidates."""
    signs = itertools.product((1.0, -1.0), repeat=matrix.shape[1] - 1)
    patterns = np.array([(1.0, *s) for s in signs])
    patterns /= p_norm_rows(patterns, from_exponent)[:, None]
    values = p_norm_rows(patterns @ matrix.T, to_exponent)
    best = int(np.argmax(values))
    return float(values[best]), patterns[best]


def operator_norm(matrix, from_exponent: float, to_exponent: float) -> NormInterval:
    """Induced from->to operator norm of a matrix, as a NormInterval.

    Exact cases (degenerate interval):
      * from = 1:    max over columns of the to-norm,
      * to = inf:    max over rows of the conjugate(from)-norm,
      * from = to = 2: largest singular value.

    Otherwise the interval brackets the true value.  The upper endpoint is
    sigma_max scaled by standard norm-comparison factors,

        upper = sigma_max * rows^max(0, 1/to - 1/2) * cols^max(0, 1/2 - 1/from),

    and the lower endpoint is the best ratio ||M w||_to / ||w||_from reached
    by an alternating Hölder-extremizer ascent from every basis vector and
    16 seeded Gaussian starts, or by a +-1 sign pattern (for cols <= 12).
    It is at least the largest column norm and is witnessed by `witness`.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    from_exponent = _check_exponent(from_exponent)
    to_exponent = _check_exponent(to_exponent)
    rows, cols = a.shape

    if from_exponent == 1.0:
        col_norms = p_norm_rows(a.T, to_exponent)
        j = int(np.argmax(col_norms))
        witness = np.zeros(cols)
        witness[j] = 1.0
        value = float(col_norms[j])
        return NormInterval(value, value, True, witness)
    if to_exponent == math.inf:
        q = conjugate_exponent(from_exponent)
        row_norms = p_norm_rows(a, q)
        i = int(np.argmax(row_norms))
        witness = holder_extremizer(a[i], from_exponent)
        value = float(row_norms[i])
        return NormInterval(value, value, True, witness)
    if from_exponent == 2.0 and to_exponent == 2.0:
        _, s, vt = np.linalg.svd(a)
        return NormInterval(float(s[0]), float(s[0]), True, vt[0])

    sigma = float(np.linalg.svd(a, compute_uv=False)[0])
    upper = (
        sigma
        * rows ** max(0.0, 1.0 / to_exponent - 0.5)
        * cols ** max(0.0, 0.5 - 1.0 / from_exponent)
    )

    candidates = [_alternating_ascent(a, from_exponent, to_exponent)]
    if cols <= 12:
        candidates.append(_sign_pattern_candidates(a, from_exponent, to_exponent))
    lower, witness = max(candidates, key=lambda c: c[0])
    # the achieved ratio is a true lower bound; guard the upper endpoint
    # against last-ulp rounding in the svd scaling
    return NormInterval(lower, max(lower, upper), False, witness)

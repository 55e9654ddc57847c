"""Second-moment operators of discrete measures, their inverses, and checks.

For a primal measure mu = sum_i w_i delta_{x_i} the operator maps a
functional f to S f = sum_i w_i <f, x_i> x_i, i.e. the matrix
M = sum_i w_i x_i x_i^T acting on coordinates.  Every entry is the
correctly rounded sum of its terms, so equal measures presented in any atom
order produce bitwise-identical operators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CouplingError,
    NotPositiveDefiniteError,
    RoleError,
    ShapeError,
)
from .measure import DiscreteMeasure, _exact_sum, second_moment
from .space import (
    NormInterval,
    PNormSpace,
    ROLE_PRIMAL,
    _coords,
    dual_norm,
    exponent_from_json,
    exponent_to_json,
    operator_norm,
    p_norm,
    p_norm_rows,
)

SYMMETRY_TOL = 1e-12
EIGENVALUE_FLOOR = 1e-10  # relative to the trace
INVERSE_RESIDUAL_TOL = 1e-8
MAHALANOBIS_CLAMP = 1e-10
CHECK_SLACK = 1e-10


def accumulate_outer(left: np.ndarray, right: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i left_i right_i^T, each entry the correctly rounded sum of w_i (l_ia r_ib).

    The terms are made one block of atoms at a time, so the n x d x d array
    of all of them never exists.  When left is right the matrix is
    symmetric, so only its upper triangle is summed.
    """
    d = left.shape[1]
    symmetric = left is right
    rows, cols = np.triu_indices(d) if symmetric else np.indices((d, d)).reshape(2, -1)
    step = max(256, 2**14 // len(rows))  # atoms per block: cache-sized, few numpy calls
    sums = _exact_sum(
        weights[i : i + step] * (left.T[rows, i : i + step] * right.T[cols, i : i + step])
        for i in range(0, len(weights), step)
    )
    matrix = np.empty((d, d))
    matrix[rows, cols] = sums
    if symmetric:
        matrix[cols, rows] = sums
    return matrix


def _quadratic_values(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The quadratic form x^T M x of every row x."""
    return np.einsum("ij,jk,ik->i", rows, matrix, rows)


@dataclass(frozen=True, eq=False)
class CovarianceOperator:
    """Matrix form of the second-moment operator, with the moment it was built from."""

    matrix: np.ndarray
    space: PNormSpace
    second_moment: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        d = self.space.dim
        if m.shape != (d, d):
            raise ShapeError(f"matrix must be ({d}, {d}), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("matrix must be symmetric")
        if np.linalg.eigvalsh(m)[0] < -EIGENVALUE_FLOOR * max(np.trace(m), 1.0):
            raise ValueError("matrix must be positive semidefinite")
        if not (self.second_moment >= 0.0 and np.isfinite(self.second_moment)):
            raise ValueError(f"second moment must be finite and >= 0, got {self.second_moment}")
        object.__setattr__(self, "matrix", m)

    def to_dict(self) -> dict:
        return {
            "dim": self.space.dim,
            "p": exponent_to_json(self.space.p),
            "matrix": self.matrix.tolist(),
            "second_moment": self.second_moment,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceOperator":
        missing = {"dim", "p", "matrix", "second_moment"} - set(data)
        if missing:
            raise ValueError(f"operator object is missing fields: {sorted(missing)}")
        space = PNormSpace(data["dim"], exponent_from_json(data["p"]))
        return cls(np.asarray(data["matrix"], dtype=float), space, float(data["second_moment"]))


def save_operator(operator: CovarianceOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator.to_dict(), fh, indent=2)
        fh.write("\n")


def load_operator(path) -> CovarianceOperator:
    with open(path) as fh:
        return CovarianceOperator.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class InverseOperator:
    """Inverse of a covariance operator with a certified bracket on its norm."""

    matrix: np.ndarray
    space: PNormSpace
    norm_interval: NormInterval


def build(measure: DiscreteMeasure) -> CovarianceOperator:
    """Second-moment operator M = sum_i w_i x_i x_i^T of a primal measure."""
    if measure.role != ROLE_PRIMAL:
        raise RoleError("the second-moment operator is built from a primal measure")
    matrix = accumulate_outer(measure.atoms, measure.atoms, measure.weights)
    return CovarianceOperator(matrix, measure.space, second_moment(measure))


def apply(operator: CovarianceOperator, f) -> np.ndarray:
    """Image S f of a dual vector, as coordinates of a primal vector."""
    return operator.matrix @ _coords(f, operator.space.dim)


def quad_form(operator: CovarianceOperator, f, g=None) -> float:
    """<S f, g> = sum_i w_i <f, x_i> <g, x_i>; g defaults to f."""
    fc = _coords(f, operator.space.dim)
    gc = fc if g is None else _coords(g, operator.space.dim)
    return float(fc @ operator.matrix @ gc)


def linearity_check(operator: CovarianceOperator, f, g, a: float, b: float) -> float:
    """p-norm of S(a f + b g) - a S f - b S g; zero up to rounding."""
    fc, gc = _coords(f, operator.space.dim), _coords(g, operator.space.dim)
    residual = apply(operator, a * fc + b * gc) - a * apply(operator, fc) - b * apply(operator, gc)
    return p_norm(residual, operator.space.p)


def boundedness_check(operator: CovarianceOperator, f) -> tuple[float, float, bool]:
    """||S f||_p against ||f||_q times the measure's second moment."""
    lhs = p_norm(apply(operator, f), operator.space.p)
    rhs = dual_norm(f, operator.space.p) * operator.second_moment
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_SLACK)


def cauchy_estimate(
    coarse: DiscreteMeasure, fine: DiscreteMeasure, f
) -> tuple[float, float, bool]:
    """||S_n f - S_m f|| for two coupled quantizations of the same draws.

    The two measures must be atom-for-atom coupled: same space, same role,
    same weights in the same order (quantize with merge=False provides this).
    The estimate is ||f||_q sum_i w_i (||x_i^n|| + ||x_i^m||) ||x_i^n - x_i^m||.
    """
    if coarse.space != fine.space or coarse.role != fine.role:
        raise CouplingError("coupled measures must share space and role")
    if coarse.n_atoms != fine.n_atoms or not np.array_equal(coarse.weights, fine.weights):
        raise CouplingError("coupled measures must have identical weights, atom for atom")
    p = coarse.space.p
    lhs = p_norm(apply(build(coarse), f) - apply(build(fine), f), p)
    gaps = p_norm_rows(coarse.atoms - fine.atoms, p)
    sizes = p_norm_rows(coarse.atoms, p) + p_norm_rows(fine.atoms, p)
    rhs = dual_norm(f, p) * _exact_sum(coarse.weights * (sizes * gaps))
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_SLACK)


def invert(operator: CovarianceOperator) -> InverseOperator:
    """Invert through the eigendecomposition, rejecting near-singular input.

    The smallest eigenvalue must exceed EIGENVALUE_FLOOR times the trace, and
    the reconstruction M M^{-1} must match the identity to
    INVERSE_RESIDUAL_TOL; either failure raises NotPositiveDefiniteError.
    """
    m = operator.matrix
    eigenvalues, vectors = np.linalg.eigh(m)
    smallest = float(eigenvalues[0])
    floor = EIGENVALUE_FLOOR * max(float(np.trace(m)), 0.0)
    if smallest <= floor:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {smallest!r} is not above {floor!r} "
            f"({EIGENVALUE_FLOOR} of the trace)"
        )
    inverse = (vectors / eigenvalues) @ vectors.T
    residual = float(np.abs(m @ inverse - np.eye(m.shape[0])).max())
    if residual > INVERSE_RESIDUAL_TOL:
        raise NotPositiveDefiniteError(
            f"inverse reconstruction residual {residual!r} exceeds {INVERSE_RESIDUAL_TOL}"
        )
    p = operator.space.p
    interval = operator_norm(inverse, p, operator.space.q)
    return InverseOperator(inverse, operator.space, interval)


def mahalanobis(inverse: InverseOperator, y):
    """Quadratic statistic y^T M^{-1} y; rows of a 2-d input are handled in batch.

    Rounding can push the value slightly negative for y near the kernel of
    the spectrum; values within -MAHALANOBIS_CLAMP ||y||_p^2 ||M^{-1}|| are
    clamped to zero and anything lower is an error.
    """
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    d = inverse.space.dim
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ShapeError(f"expected vectors of dimension {d}, got shape {arr.shape}")
    values = _quadratic_values(rows, inverse.matrix)
    allowance = (
        MAHALANOBIS_CLAMP
        * p_norm_rows(rows, inverse.space.p) ** 2
        * inverse.norm_interval.upper
    )
    if np.any(values < -allowance):
        worst = float(values.min())
        raise ValueError(f"quadratic statistic {worst!r} is negative beyond rounding")
    values = np.where(values < 0.0, 0.0, values)
    return float(values[0]) if single else values

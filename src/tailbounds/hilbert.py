"""Hilbert-space reduction: Riesz map, the two-route operator identity, and
numerical equality of the dual-space bounds with the quadratic-form bounds.

At p = 2 the dual pairing is an inner product, so the functional f = Tx with
Tx(y) = (y, x)_H identifies the space with its dual.  With the default
identity gram T is literally the identity matrix: the Riesz image of a
measure is the measure itself read as functionals, with no atom moved or
merged, and every identity below holds with the same floating-point numbers
on both sides.  A non-identity gram exercises the isometry nontrivially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    BANACH_DUAL,
    BANACH_MAHALANOBIS,
    RAO_FORWARD,
    RAO_INVERSE,
    BoundReport,
    _MeasureState,
    _prepare,
    _reports,
    _require_centered,
    _require_hilbert,
)
from .covop import CovarianceOperator, _quadratic_values, accumulate_outer, build, invert
from .errors import ApplicabilityError, RoleError, ShapeError
from .measure import DiscreteMeasure, _exact_sum, pushforward, second_moment
from .space import PNormSpace, ROLE_DUAL, ROLE_PRIMAL, _coords

GRAM_EIGENVALUE_FLOOR = 1e-12  # relative to the trace
EQUALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RieszMap:
    """The identification x -> Gx of the space with its dual at p = 2.

    G is the gram matrix of the inner product: (x, y)_H = x^T G y, the
    functional Tx has coordinates Gx, and ||Tx||* computed in the
    G^{-1}-weighted dual norm equals ||x||_G exactly in exact arithmetic.
    """

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeError(f"gram must be square, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gram entries must be finite")
        if float(np.abs(g - g.T).max()) > 1e-12 * max(1.0, float(np.abs(g).max())):
            raise ValueError("gram must be symmetric")
        eigenvalues = np.linalg.eigvalsh(g)
        if eigenvalues[0] <= GRAM_EIGENVALUE_FLOOR * max(float(np.trace(g)), 0.0):
            raise ValueError(f"gram must be positive definite, got eigenvalue {eigenvalues[0]!r}")
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.gram, np.eye(self.dim)))

    def apply(self, x) -> np.ndarray:
        """Coordinates of the functional Tx."""
        return self.gram @ _coords(x, self.dim)

    def norm(self, x) -> float:
        """The G-weighted norm sqrt(x^T G x)."""
        v = _coords(x, self.dim)
        return float(np.sqrt(v @ self.gram @ v))

    def dual_norm(self, f) -> float:
        """The G^{-1}-weighted norm sqrt(f^T G^{-1} f) of a functional."""
        v = _coords(f, self.dim)
        return float(np.sqrt(v @ np.linalg.solve(self.gram, v)))


def riesz(space: PNormSpace, gram=None) -> RieszMap:
    """Riesz map of a p = 2 space; the gram defaults to the identity."""
    if space.p != 2.0:
        raise ApplicabilityError(f"the Riesz identification needs p = 2, got p = {space.p}")
    g = np.eye(space.dim) if gram is None else np.asarray(gram, dtype=float)
    if g.shape != (space.dim, space.dim):
        raise ShapeError(f"gram must be ({space.dim}, {space.dim}), got {g.shape}")
    return RieszMap(g)


def _require_matching(measure: DiscreteMeasure, transport: RieszMap) -> None:
    if transport.dim != measure.space.dim:
        raise ShapeError(
            f"Riesz map is {transport.dim}-dimensional, measure is {measure.space.dim}-dimensional"
        )


def hilbert_covariance(measure: DiscreteMeasure, transport: RieszMap) -> np.ndarray:
    """Matrix of the quadratic-form operator: sum_i w_i x_i (G x_i)^T.

    Built by the same exact accumulation as the dual-space operator, so with
    the identity gram the two matrices are bitwise equal, which is the
    matrix-level form of the reduction identity.
    """
    _require_hilbert(measure, "the quadratic-form operator")
    _require_matching(measure, transport)
    if measure.role != ROLE_PRIMAL:
        raise RoleError("the quadratic-form operator is built from a primal measure")
    images = measure.atoms @ transport.gram
    return accumulate_outer(measure.atoms, images, measure.weights)


def verify_ST_equals_SH(
    measure: DiscreteMeasure,
    transport: RieszMap,
    n_trials: int = 100,
    seed: int = 0,
    operator: CovarianceOperator | None = None,
) -> float:
    """Max relative gap between (S T y, y)_H and the atom-sum quadratic form.

    The first route goes through the dual-space operator matrix (built unless
    passed in), the second enumerates sum_i w_i (x_i, y)_H^2 directly; the gap
    over random y is rounding-level (<= 1e-12 relative) whenever the identity holds.
    """
    _require_hilbert(measure, "the reduction identity")
    _require_matching(measure, transport)
    if operator is None:
        operator = build(measure)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        y = rng.standard_normal(measure.space.dim)
        f = transport.apply(y)
        via_operator = float(f @ (operator.matrix @ f))
        projections = measure.atoms @ f
        via_atoms = float(np.dot(measure.weights, projections**2))
        scale = max(abs(via_operator), abs(via_atoms))
        if scale > 0.0:
            worst = max(worst, abs(via_operator - via_atoms) / scale)
    return worst


def isometry_pushforward_moment(
    measure: DiscreteMeasure, transport: RieszMap
) -> tuple[float, float, bool]:
    """Second moment of the measure against the dual moment of its pushforward.

    Returns (lhs, rhs, equal) with equal meaning a relative gap <= 1e-12.
    With the identity gram both sides are the same computation on the same
    arrays and agree exactly.
    """
    _require_hilbert(measure, "the moment-transport identity")
    _require_matching(measure, transport)
    if transport.is_identity:
        # the pushforward through the identity IS the measure; re-summing it
        # after merging equal atoms would only inject rounding noise
        value = second_moment(measure)
        return value, value, True
    image = pushforward(measure, transport.gram, role=ROLE_DUAL)
    lhs = _exact_sum(measure.weights * _quadratic_values(measure.atoms, transport.gram))
    solved = np.linalg.solve(transport.gram, image.atoms.T).T
    rhs = _exact_sum(image.weights * np.einsum("ij,ij->i", image.atoms, solved))
    gap = abs(lhs - rhs)
    equal = gap <= EQUALITY_TOL * max(abs(lhs), abs(rhs), 1e-300)
    if lhs == rhs:
        equal = True
    return lhs, rhs, equal


def inverse_norm_pair(measure: DiscreteMeasure, transport: RieszMap) -> tuple[float, float]:
    """2->2 norm of the inverse computed through both construction routes.

    The first number inverts the dual-space operator, the second inverts the
    quadratic-form matrix; with the identity gram the inputs are bitwise
    equal, so the outputs must be equal.
    """
    _require_hilbert(measure, "the inverse-norm identity")
    _require_matching(measure, transport)
    if not transport.is_identity:
        raise ValueError("the inverse-norm identity is checked with the identity gram")
    inverse = invert(build(measure))
    matrix = hilbert_covariance(measure, transport)
    alternate = CovarianceOperator(matrix, measure.space, second_moment(measure))
    return inverse.norm_interval.upper, invert(alternate).norm_interval.upper


@dataclass(frozen=True, eq=False)
class EquivalenceResult:
    """The dual-space bounds next to the quadratic-form bounds at one epsilon.

    Boundary flags mark atoms whose statistic equals epsilon exactly; there
    the strict ">" and non-strict ">=" events genuinely differ and only the
    RHS equality is meaningful.
    """

    forward_banach: BoundReport
    forward_hilbert: BoundReport
    inverse_banach: BoundReport
    inverse_hilbert: BoundReport
    forward_boundary: bool
    inverse_boundary: bool

    @staticmethod
    def _relative(a: float, b: float) -> float:
        scale = max(abs(a), abs(b))
        return 0.0 if scale == 0.0 else abs(a - b) / scale

    @property
    def forward_rhs_deviation(self) -> float:
        return self._relative(self.forward_banach.rhs, self.forward_hilbert.rhs)

    @property
    def inverse_rhs_deviation(self) -> float:
        return self._relative(self.inverse_banach.rhs, self.inverse_hilbert.rhs)

    @property
    def forward_lhs_deviation(self) -> float:
        return self._relative(self.forward_banach.lhs, self.forward_hilbert.lhs)

    @property
    def inverse_lhs_deviation(self) -> float:
        return self._relative(self.inverse_banach.lhs, self.inverse_hilbert.lhs)


def bound_equivalence(measure: DiscreteMeasure, epsilon: float) -> EquivalenceResult:
    """Evaluate the dual-space pair on the measure's Riesz image and the
    quadratic-form pair directly, at the same epsilon.

    With the identity gram the Riesz image is the measure read as
    functionals, so each pair shares one sorted statistic: (S x, x) forward,
    (S^{-1} x, x) inverse.  The LHS values are equal bit for bit unless an
    atom sits exactly on epsilon, where the strict and non-strict events
    part ways.  The RHS values agree to rounding.
    """
    return _equivalence_grid(_MeasureState(measure), [epsilon])[0]


def _equivalence_grid(state: _MeasureState, epsilons) -> list[EquivalenceResult]:
    """bound_equivalence at every epsilon of an ascending grid, on one shared state:
    each pair reads one sorted statistic, state.quadratic or state.mahalanobis."""
    _require_hilbert(state.measure, "the bound equivalence")
    _require_centered(state, "the bound equivalence")
    prepared = (
        _prepare(BANACH_DUAL, state),  # forward, banach, on the Riesz image
        _prepare(RAO_FORWARD, state),  # forward, hilbert
        _prepare(BANACH_MAHALANOBIS, state),  # inverse, banach
        _prepare(RAO_INVERSE, state),  # inverse, hilbert
    )
    grid = np.asarray(epsilons, dtype=float)
    # a hilbert value equal to epsilon, where > and >= part, splits the two searches
    boundaries = [
        (np.searchsorted(p.values, grid) != np.searchsorted(p.values, grid, side="right")).tolist()
        for p in prepared[1::2]
    ]
    reports = [_reports(p, epsilons) for p in prepared]
    return [EquivalenceResult(*fields) for fields in zip(*reports, *boundaries)]

"""Hilbert-space reduction: Riesz map, the two-route operator identity, and
numerical equality of the dual-space bounds with the quadratic-form bounds.

At p = 2 the dual pairing is an inner product, so the functional f = Tx with
Tx(y) = (y, x)_H identifies the space with its dual.  In the coordinates used
here T is the identity: the Riesz image of a measure is the measure itself
read as functionals, with no atom moved or merged, and every identity below
holds with the same floating-point numbers on both sides.
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
from .covop import CovarianceOperator, accumulate_outer, build, invert
from .errors import ApplicabilityError, RoleError, ShapeError
from .measure import DiscreteMeasure, _grid_tails, second_moment
from .space import PNormSpace, ROLE_PRIMAL, _coords


@dataclass(frozen=True, eq=False)
class RieszMap:
    """The identification x -> Tx of a p = 2 space with its dual.

    (x, y)_H = <x, y>, so the functional Tx has the coordinates of x.
    """

    space: PNormSpace

    def __post_init__(self):
        if not isinstance(self.space, PNormSpace):
            raise TypeError(f"space must be a PNormSpace, got {type(self.space).__name__}")
        if self.space.p != 2.0:
            raise ApplicabilityError(
                f"the Riesz identification needs p = 2, got p = {self.space.p}"
            )

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, x) -> np.ndarray:
        """Coordinates of the functional Tx: those of x."""
        return _coords(x, self.dim)


def riesz(space: PNormSpace) -> RieszMap:
    """Riesz map of a p = 2 space: the identity."""
    return RieszMap(space)


def _require_matching(measure: DiscreteMeasure, transport: RieszMap) -> None:
    if transport.dim != measure.space.dim:
        raise ShapeError(
            f"Riesz map is {transport.dim}-dimensional, measure is {measure.space.dim}-dimensional"
        )


def hilbert_covariance(measure: DiscreteMeasure, transport: RieszMap) -> np.ndarray:
    """Matrix of the quadratic-form operator: sum_i w_i x_i (T x_i)^T.

    Built by the same exact accumulation as the dual-space operator, so the
    two matrices are bitwise equal, which is the matrix-level form of the
    reduction identity.
    """
    _require_hilbert(measure, "the quadratic-form operator")
    _require_matching(measure, transport)
    if measure.role != ROLE_PRIMAL:
        raise RoleError("the quadratic-form operator is built from a primal measure")
    return accumulate_outer(measure.atoms, measure.weights)


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
        f = rng.standard_normal(measure.space.dim)  # T y for a random y: T is the identity
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
    """Second moment of the measure against the dual moment of its Riesz image.

    Returns (lhs, rhs, equal).  The image is the measure read as functionals,
    and at p = 2 their q-norms are the atoms' p-norms, so both sides are one
    computation and agree exactly.
    """
    _require_hilbert(measure, "the moment-transport identity")
    _require_matching(measure, transport)
    value = second_moment(measure)
    return value, value, True


def inverse_norm_pair(measure: DiscreteMeasure, transport: RieszMap) -> tuple[float, float]:
    """2->2 norm of the inverse computed through both construction routes.

    The first number inverts the dual-space operator, the second inverts the
    quadratic-form matrix; the inputs are bitwise equal, so the outputs
    must be equal.
    """
    _require_hilbert(measure, "the inverse-norm identity")
    _require_matching(measure, transport)
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

    The Riesz image is the measure read as functionals, so each pair shares
    one statistic: (S x, x) forward, (S^{-1} x, x) inverse.  The LHS values
    are equal bit for bit unless an atom sits exactly on epsilon, where the
    strict and non-strict events part ways.  The RHS values agree to
    rounding.
    """
    return _equivalence_grid(_MeasureState(measure, [epsilon]))[0]


def _equivalence_grid(state: _MeasureState) -> list[EquivalenceResult]:
    """bound_equivalence at each epsilon of the state's ascending grid: each pair
    reads the tails of one statistic, state.quadratic or state.mahalanobis."""
    _require_hilbert(state.measure, "the bound equivalence")
    _require_centered(state, "the bound equivalence")
    prepared = (
        _prepare(BANACH_DUAL, state),  # forward, banach, on the Riesz image
        _prepare(RAO_FORWARD, state),  # forward, hilbert
        _prepare(BANACH_MAHALANOBIS, state),  # inverse, banach
        _prepare(RAO_INVERSE, state),  # inverse, hilbert
    )
    # > and >= part where an atom, whatever its weight, sits on epsilon: count atoms
    boundaries = [
        np.not_equal(*_grid_tails(values, None, state.grid)[0]).tolist()
        for values in (state.quadratic, state.mahalanobis)
    ]
    reports = [_reports(p, state.epsilons) for p in prepared]
    return [EquivalenceResult(*fields) for fields in zip(*reports, *boundaries)]

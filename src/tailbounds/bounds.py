"""Tail-probability inequalities evaluated as (LHS, RHS) pairs with slack.

Each evaluator enumerates the exact tail probability of its statistic over a
discrete measure and compares it against the closed-form bound.  Boundary
semantics follow the source results clause by clause: the quadratic-form
bounds named rao_* use a strict ">" event, everything else uses ">=".
RHS values above 1 are reported as-is; a vacuous bound still holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .covop import (
    CovarianceOperator,
    InverseOperator,
    _quadratic_values,
    build,
    invert,
    mahalanobis,
)
from .errors import (
    ApplicabilityError,
    CenteringError,
    NotPositiveDefiniteError,
    RoleError,
    ShapeError,
)
from .measure import DiscreteMeasure, Sampler, _exact_sum, _sorted_tails, mean, second_moment
from .space import ROLE_DUAL, p_norm_rows

SCALAR = "scalar"
EUCLIDEAN = "euclidean"
GRENANDER = "grenander"
CHEN = "chen"
RAO_FORWARD = "rao_forward"
RAO_INVERSE = "rao_inverse"
BANACH_DUAL = "banach_dual"
BANACH_MAHALANOBIS = "banach_mahalanobis"
INEQUALITIES = (
    SCALAR,
    EUCLIDEAN,
    GRENANDER,
    CHEN,
    RAO_FORWARD,
    RAO_INVERSE,
    BANACH_DUAL,
    BANACH_MAHALANOBIS,
)
HILBERT_ONLY = (EUCLIDEAN, GRENANDER, CHEN, RAO_FORWARD, RAO_INVERSE)
CENTERED_ONLY = (CHEN, RAO_FORWARD, RAO_INVERSE)

EXACT_ENUMERATION = "exact-enumeration"
MONTE_CARLO = "monte-carlo"

MC_STATISTICS = ("norm", "quad_S", "mahalanobis_S")
MC_MIN_DRAWS = 100
MC_CI_MULTIPLIER = 3.0

HOLDS_SLACK = 1e-12
CENTERING_TOL = 1e-12

REPORT_FIELDS = (
    "inequality",
    "epsilon",
    "lhs",
    "ci_halfwidth",
    "rhs",
    "holds",
    "slack",
    "method",
)


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated inequality: tail probability against its bound.

    `holds` and `slack` are derived from the other fields.  `holds` folds
    the Monte Carlo half-width in, so a probabilistic LHS is never flagged
    as a violation inside its own confidence band:
    holds = (lhs <= rhs + ci_halfwidth + HOLDS_SLACK).
    """

    inequality: str
    epsilon: float
    lhs: float
    ci_halfwidth: float
    rhs: float
    method: str
    detail: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.inequality not in INEQUALITIES:
            raise ValueError(f"unknown inequality {self.inequality!r}")
        _check_epsilon(self.epsilon)
        if not (-1e-9 <= self.lhs <= 1.0 + 1e-9):
            raise ValueError(f"lhs must be a probability, got {self.lhs!r}")
        if self.ci_halfwidth < 0.0:
            raise ValueError(f"ci_halfwidth must be >= 0, got {self.ci_halfwidth!r}")
        if not (self.rhs >= 0.0 and math.isfinite(self.rhs)):
            raise ValueError(f"rhs must be finite and >= 0, got {self.rhs!r}")
        if self.method == EXACT_ENUMERATION and self.ci_halfwidth != 0.0:
            raise ValueError("exact enumeration must report ci_halfwidth = 0")
        if self.method not in (EXACT_ENUMERATION, MONTE_CARLO):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + self.ci_halfwidth + HOLDS_SLACK

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True, eq=False)
class _Prepared:
    """Per-atom statistic in ascending order, the exact tail sums of its
    weights (see _sorted_tails) and the c/eps^power form of the bound.

    A Monte Carlo statistic has unit weights and `draws` > 0: its tail sum
    is the count of draws, and the LHS that count / draws.
    """

    inequality: str
    values: np.ndarray
    tails: np.ndarray
    strict: bool
    scale: float
    power: int
    detail: dict
    draws: int = 0


def _evaluate(prepared: _Prepared, epsilon: float) -> BoundReport:
    epsilon = _check_epsilon(epsilon)
    # the tail starts at the first value > eps (strict) or >= eps
    side = "right" if prepared.strict else "left"
    start = np.searchsorted(prepared.values, epsilon, side=side)
    lhs = math.fsum(prepared.tails[:, start])
    rhs = prepared.scale / epsilon**prepared.power
    method, half_width = EXACT_ENUMERATION, 0.0
    if prepared.draws:
        lhs /= prepared.draws
        half_width = MC_CI_MULTIPLIER * math.sqrt(lhs * (1.0 - lhs) / prepared.draws)
        method = MONTE_CARLO
    return BoundReport(prepared.inequality, epsilon, lhs, half_width, rhs, method, prepared.detail)


def _require_hilbert(measure: DiscreteMeasure, inequality: str) -> None:
    if measure.space.p != 2.0:
        raise ApplicabilityError(
            f"{inequality} is stated for p = 2, got p = {measure.space.p}"
        )


def _require_centered(state: _MeasureState, inequality: str) -> None:
    worst = float(np.abs(state.mean).max())
    if worst > CENTERING_TOL:
        raise CenteringError(
            f"{inequality} needs a centered measure; mean deviates by {worst!r}"
        )


class _MeasureState:
    """A measure with its mean, operator, inverse and per-atom Mahalanobis statistic.

    Each is computed on first use (a failed inversion too, whose error is
    raised again) and shared by every inequality and epsilon evaluated on it.
    """

    def __init__(self, measure: DiscreteMeasure):
        self.measure = measure

    @cached_property
    def mean(self) -> np.ndarray:
        return mean(self.measure)

    @cached_property
    def operator(self) -> CovarianceOperator:
        return build(self.measure)

    @cached_property
    def _inversion(self) -> InverseOperator | NotPositiveDefiniteError:
        try:
            return invert(self.operator)
        except NotPositiveDefiniteError as exc:
            return exc

    @property
    def inverse(self) -> InverseOperator:
        if isinstance(self._inversion, NotPositiveDefiniteError):
            raise self._inversion
        return self._inversion

    @cached_property
    def mahalanobis(self) -> tuple[np.ndarray, np.ndarray]:
        """(S^{-1} x, x) for every atom x, sorted, with the tail sums of the weights."""
        return _sorted_tails(mahalanobis(self.inverse, self.measure.atoms), self.measure.weights)


def _norm_detail(interval) -> dict:
    return {
        "norm_lower": interval.lower,
        "norm_upper": interval.upper,
        "norm_exact": interval.exact,
    }


def _prepare_scalar(state: _MeasureState) -> _Prepared:
    if state.measure.space.dim != 1:
        raise ShapeError(f"scalar bound needs dim = 1, got {state.measure.space.dim}")
    # at dim 1 the 2-norm of x - m is |x - m| bit for bit
    return replace(_prepare_euclidean(state), inequality=SCALAR)


def _prepare_euclidean(state: _MeasureState) -> _Prepared:
    measure = state.measure
    deviations = p_norm_rows(measure.atoms - state.mean, 2.0)
    variance = _exact_sum(measure.weights * deviations**2)
    sorted_tails = _sorted_tails(deviations, measure.weights)
    return _Prepared(EUCLIDEAN, *sorted_tails, False, variance, 2, {})


def _prepare_grenander(state: _MeasureState) -> _Prepared:
    measure = state.measure
    sorted_tails = _sorted_tails(p_norm_rows(measure.atoms, 2.0), measure.weights)
    return _Prepared(GRENANDER, *sorted_tails, False, second_moment(measure), 2, {})


def _prepare_chen(state: _MeasureState) -> _Prepared:
    dim = float(state.measure.space.dim)
    return _Prepared(CHEN, *state.mahalanobis, False, dim, 1, {})


def _prepare_rao_forward(state: _MeasureState) -> _Prepared:
    values = _quadratic_values(state.measure.atoms, state.operator.matrix)
    scale = state.operator.second_moment**2
    sorted_tails = _sorted_tails(values, state.measure.weights)
    return _Prepared(RAO_FORWARD, *sorted_tails, True, scale, 1, {})


def _prepare_rao_inverse(state: _MeasureState) -> _Prepared:
    interval = state.inverse.norm_interval
    # the 2->2 norm is exact, so upper == lower here
    scale = (interval.upper * state.operator.second_moment) ** 2
    return _Prepared(
        RAO_INVERSE, *state.mahalanobis, True, scale, 1,
        _norm_detail(interval),
    )


def _prepare_banach_dual(operator: CovarianceOperator, pstar: DiscreteMeasure) -> _Prepared:
    if pstar.role != ROLE_DUAL:
        raise RoleError("banach_dual needs a dual-role measure of functionals")
    if pstar.space != operator.space:
        raise ShapeError(
            f"dual measure lives on {pstar.space}, operator on {operator.space}"
        )
    values = _quadratic_values(pstar.atoms, operator.matrix)
    dual_moment = second_moment(pstar)
    scale = dual_moment * operator.second_moment
    sorted_tails = _sorted_tails(values, pstar.weights)
    return _Prepared(BANACH_DUAL, *sorted_tails, False, scale, 1, {})


def _prepare_banach_mahalanobis(state: _MeasureState) -> _Prepared:
    interval = state.inverse.norm_interval
    # an inexact norm bracket is consumed through its certified upper endpoint
    scale = interval.upper**2 * state.operator.second_moment**2
    return _Prepared(
        BANACH_MAHALANOBIS, *state.mahalanobis, False, scale, 1,
        _norm_detail(interval),
    )


def scalar_chebyshev(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{|X - EX| >= eps} <= Var(X)/eps^2 for a one-dimensional measure."""
    return _evaluate(_prepare(SCALAR, _MeasureState(measure)), epsilon)


def euclidean_chebyshev(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{||X - EX|| >= eps} <= E||X - EX||^2 / eps^2 in the Euclidean norm."""
    return _evaluate(_prepare(EUCLIDEAN, _MeasureState(measure)), epsilon)


def grenander(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """Uncentered Hilbert version: P{||X|| >= eps} <= E||X||^2 / eps^2."""
    return _evaluate(_prepare(GRENANDER, _MeasureState(measure)), epsilon)


def chen(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{X^T Sigma^{-1} X >= eps} <= dim/eps for a centered measure."""
    return _evaluate(_prepare(CHEN, _MeasureState(measure)), epsilon)


def rao(measure: DiscreteMeasure, epsilon: float) -> tuple[BoundReport, BoundReport]:
    """The strict-event quadratic-form pair for a centered p = 2 measure.

    Forward: P{(SX, X) > eps} <= (E||X||^2)^2 / eps.
    Inverse: P{(S^{-1}X, X) > eps} <= (||S^{-1}|| E||X||^2)^2 / eps.
    """
    state = _MeasureState(measure)
    forward = _evaluate(_prepare(RAO_FORWARD, state), epsilon)
    inverse = _evaluate(_prepare(RAO_INVERSE, state), epsilon)
    return forward, inverse


def banach_dual_bound(
    operator: CovarianceOperator, pstar: DiscreteMeasure, epsilon: float
) -> BoundReport:
    """P*{f: (Sf, f) >= eps} <= (1/eps) E*(||f||*)^2 E||x||^2.

    pstar is a measure over functionals (dual role) on the operator's space.
    """
    return _evaluate(_prepare_banach_dual(operator, pstar), epsilon)


def banach_mahalanobis_bound(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{(S^{-1}X, X) >= eps} <= (1/eps) ||S^{-1}||^2 (E||X||^2)^2, any p.

    The p->q norm of the inverse may be a bracket; the bound uses the upper
    endpoint and the report's detail carries both endpoints.
    """
    return _evaluate(_prepare(BANACH_MAHALANOBIS, _MeasureState(measure)), epsilon)


def _prepare(inequality: str, state: _MeasureState, pstar=None) -> _Prepared:
    if inequality in HILBERT_ONLY:
        _require_hilbert(state.measure, inequality)
    if inequality in CENTERED_ONLY:
        _require_centered(state, inequality)
    if inequality == BANACH_DUAL:
        if pstar is None:
            raise ValueError("banach_dual needs a dual measure (pstar)")
        return _prepare_banach_dual(state.operator, pstar)
    preparers = {
        SCALAR: _prepare_scalar,
        EUCLIDEAN: _prepare_euclidean,
        GRENANDER: _prepare_grenander,
        CHEN: _prepare_chen,
        RAO_FORWARD: _prepare_rao_forward,
        RAO_INVERSE: _prepare_rao_inverse,
        BANACH_MAHALANOBIS: _prepare_banach_mahalanobis,
    }
    if inequality not in preparers:
        raise ValueError(f"inequality must be one of {INEQUALITIES}, got {inequality!r}")
    return preparers[inequality](state)


def sweep(
    inequality: str,
    measure: DiscreteMeasure,
    epsilon_grid,
    pstar: DiscreteMeasure | None = None,
) -> list[BoundReport]:
    """Evaluate one inequality over an ascending grid of epsilons.

    The statistic is enumerated once; only the threshold moves, so the LHS
    is non-increasing and the RHS strictly decreasing along the grid.
    """
    grid = [_check_epsilon(e) for e in epsilon_grid]
    if not grid:
        raise ValueError("epsilon grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly ascending")
    prepared = _prepare(inequality, _MeasureState(measure), pstar)
    return [_evaluate(prepared, epsilon) for epsilon in grid]


def mc_tail(
    sampler: Sampler,
    statistic: str,
    operator,
    epsilon: float,
    n_draws: int,
    seed: int | None = None,
) -> BoundReport:
    """Monte Carlo tail frequency against the matching empirical bound.

    statistic one of:
      * norm:           ||X||_p against the empirical second moment / eps^2,
      * quad_S:         (Sf, f) over functional draws f, against
                        (1/eps) E*(||f||*)^2 x operator.second_moment,
      * mahalanobis_S:  (S^{-1}X, X) against
                        (1/eps) ||S^{-1}||^2 (empirical E||X||^2)^2.

    quad_S takes the covariance operator, mahalanobis_S its inverse, norm
    takes no operator.  The half-width 3 sqrt(lhs(1-lhs)/n) is folded into
    `holds` so sampling noise cannot flag a spurious violation.
    """
    return _mc_grid(sampler, statistic, operator, [epsilon], n_draws, seed)[0]


def _mc_grid(sampler, statistic, operator, epsilons, n_draws, seed=None) -> list[BoundReport]:
    """mc_tail at every epsilon, all on one sample drawn once."""
    epsilons = [_check_epsilon(epsilon) for epsilon in epsilons]
    if statistic not in MC_STATISTICS:
        raise ValueError(f"statistic must be one of {MC_STATISTICS}, got {statistic!r}")
    if n_draws < MC_MIN_DRAWS:
        raise ValueError(f"n_draws must be at least {MC_MIN_DRAWS}, got {n_draws}")
    if seed is not None:
        sampler = replace(sampler, seed=seed)
    draws = sampler.draw_block(0, n_draws)

    detail: dict = {}
    if statistic == "norm":
        if operator is not None:
            raise ValueError("statistic 'norm' takes no operator")
        values = p_norm_rows(draws, sampler.space.p)
        scale, power = float(np.mean(values**2)), 2
        inequality = GRENANDER
    elif statistic == "quad_S":
        if not isinstance(operator, CovarianceOperator):
            raise ValueError("statistic 'quad_S' needs the covariance operator")
        if operator.space.dim != sampler.space.dim:
            raise ShapeError("sampler and operator dimensions differ")
        values = _quadratic_values(draws, operator.matrix)
        dual_moment = float(np.mean(p_norm_rows(draws, operator.space.q) ** 2))
        scale, power = dual_moment * operator.second_moment, 1
        inequality = BANACH_DUAL
    else:
        if not isinstance(operator, InverseOperator):
            raise ValueError("statistic 'mahalanobis_S' needs the inverse operator")
        if operator.space.dim != sampler.space.dim:
            raise ShapeError("sampler and operator dimensions differ")
        values = mahalanobis(operator, draws)
        moment = float(np.mean(p_norm_rows(draws, operator.space.p) ** 2))
        scale, power = operator.norm_interval.upper**2 * moment**2, 1
        inequality = BANACH_MAHALANOBIS
        detail = _norm_detail(operator.norm_interval)

    prepared = _Prepared(
        inequality, *_sorted_tails(values, np.ones(n_draws)), False, scale, power, detail, n_draws
    )
    return [_evaluate(prepared, epsilon) for epsilon in epsilons]


def _format_cell(value) -> str:
    if value is None:
        return "nan"  # skipped rows carry no numbers
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def report_to_row(report: BoundReport) -> dict:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def sort_rows(rows) -> list[dict]:
    # deterministic merge order no matter how the rows were produced
    return sorted(rows, key=lambda row: (row["inequality"], row["epsilon"]))


def rows_to_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for row in rows:
        writer.writerow([_format_cell(row[name]) for name in REPORT_FIELDS])
    return buffer.getvalue()


def rows_from_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for record in reader:
        row = dict(record)
        for name in ("epsilon", "lhs", "ci_halfwidth", "rhs", "slack"):
            row[name] = float(row[name])
        row["holds"] = record["holds"] == "true"
        rows.append(row)
    return rows


def rows_to_json(rows) -> str:
    return json.dumps(list(rows), indent=2) + "\n"

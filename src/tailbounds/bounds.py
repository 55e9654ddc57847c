"""Tail-probability inequalities evaluated as (LHS, RHS) pairs with slack.

Each evaluator enumerates the exact tail probability of its statistic over a
discrete measure and compares it against the closed-form bound.  Boundary
semantics follow the source results clause by clause: the quadratic-form
bounds named rao_* use a strict ">" event, everything else uses ">=".
RHS values above 1 are reported as-is; a vacuous bound still holds.

Every LHS is the weight at or beyond a point of an epsilon grid: one
primitive (_grid_tails) sorts a statistic, exact or sampled, once and cuts
its weights at every grid point into exact tail sums.  A whole grid is
evaluated at a time (_evaluate_grid), the report invariants checked once per
grid.  A single epsilon is the one-point grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .covop import (
    CovarianceOperator,
    InverseOperator,
    _check_clamped,
    _clamp,
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
from .measure import (
    _CHUNK_DRAWS, DiscreteMeasure, Sampler, _exact_sum, _grid_tails, _moment_from_norms, _rounded,
    mean, second_moment,
)
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
_MOMENT_CHUNKS = 16  # chunks of squared norms per block of the mc moment's exact sum

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


def _check_fields(inequality: str, lhs: float, ci_halfwidth: float, rhs: float, method: str):
    """A report's invariants besides its epsilon.  Each keeps a field in a range,
    so a grid's values meet them when each field's smallest and largest do."""
    if inequality not in INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality!r}")
    if not (-1e-9 <= lhs <= 1.0 + 1e-9):
        raise ValueError(f"lhs must be a probability, got {lhs!r}")
    if ci_halfwidth < 0.0:
        raise ValueError(f"ci_halfwidth must be >= 0, got {ci_halfwidth!r}")
    if not (rhs >= 0.0 and math.isfinite(rhs)):
        raise ValueError(f"rhs must be finite and >= 0, got {rhs!r}")
    if method == EXACT_ENUMERATION and ci_halfwidth != 0.0:
        raise ValueError("exact enumeration must report ci_halfwidth = 0")
    if method not in (EXACT_ENUMERATION, MONTE_CARLO):
        raise ValueError(f"unknown method {method!r}")


def _holds(lhs, ci_halfwidth, rhs):
    """BoundReport.holds, of one report or of a grid's columns."""
    return lhs <= rhs + ci_halfwidth + HOLDS_SLACK


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
        _check_epsilon(self.epsilon)
        _check_fields(self.inequality, self.lhs, self.ci_halfwidth, self.rhs, self.method)

    @property
    def holds(self) -> bool:
        return _holds(self.lhs, self.ci_halfwidth, self.rhs)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True, eq=False)
class _Prepared:
    """One statistic counted on an ascending grid of epsilons, and the
    c/eps^power form of its bound.  Column j of the (K, G) table `tails` sums
    exactly (see _grid_tails) to the weight of the event at grid[j]: > eps for
    the rao_* bounds, else >= eps.  A Monte Carlo sample has `draws` > 0 and
    one row of counts of draws, and its LHS is that count / draws."""

    inequality: str
    grid: np.ndarray
    tails: np.ndarray
    scale: float
    power: int
    detail: dict
    draws: int = 0


class _Columns(NamedTuple):
    """The reports of one statistic on a grid: an array per numeric field and
    for `holds`, in grid order, with the inequality and method they share."""

    inequality: str
    epsilon: np.ndarray
    lhs: np.ndarray
    ci_halfwidth: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    slack: np.ndarray
    method: str


def _evaluate_grid(prepared: _Prepared, epsilons) -> _Columns:
    """The report columns of one statistic at every epsilon of a grid.

    Each epsilon must be on the prepared grid; its LHS is its tail column's
    math.fsum.  The RHS is c / eps**power in Python floats, one epsilon at a
    time: numpy's array power rounds some squares differently from Python's.
    """
    grid = np.asarray(epsilons, dtype=float)
    for epsilon in (grid.min(), grid.max()):
        _check_epsilon(epsilon)
    index = prepared.grid.searchsorted(grid)
    if not np.array_equal(prepared.grid.take(index, mode="clip"), grid):
        raise ValueError("a statistic is counted only at the epsilons of its grid")
    lhs = _rounded(prepared.tails[:, index])
    epsilons = grid.tolist()
    try:
        rhs = np.array([prepared.scale / epsilon**prepared.power for epsilon in epsilons])
        overflow = f"{prepared.scale!r} / epsilon**{prepared.power}" if np.isinf(rhs).any() else ""
    except (ZeroDivisionError, OverflowError):
        overflow = f"epsilon**{prepared.power}"
    if overflow:  # eps**power, or c / eps**power, left the float range
        raise ValueError(
            f"{overflow} leaves the float range for an epsilon "
            f"in [{epsilons[0]!r}, {epsilons[-1]!r}]"
        )
    method, half_width = EXACT_ENUMERATION, np.zeros(len(epsilons))
    if prepared.draws:
        lhs /= prepared.draws
        half_width = MC_CI_MULTIPLIER * np.sqrt(lhs * (1.0 - lhs) / prepared.draws)
        method = MONTE_CARLO
    for extreme in (np.min, np.max):
        _check_fields(
            prepared.inequality, *(float(extreme(c)) for c in (lhs, half_width, rhs)), method
        )
    holds = _holds(lhs, half_width, rhs)
    return _Columns(prepared.inequality, grid, lhs, half_width, rhs, holds, rhs - lhs, method)


def _grid_rows(columns: _Columns) -> list[dict]:
    """The report rows of a grid's columns, as dicts in REPORT_FIELDS order."""
    inequality, *middle, method = columns
    return [
        dict(zip(REPORT_FIELDS, (inequality, *row, method)))
        for row in zip(*(column.tolist() for column in middle))
    ]


def _reports(prepared: _Prepared, epsilons) -> list[BoundReport]:
    columns = _evaluate_grid(prepared, epsilons)
    fields = (columns.epsilon, columns.lhs, columns.ci_halfwidth, columns.rhs)
    return [
        BoundReport(columns.inequality, *row, columns.method, prepared.detail)
        for row in zip(*(field.tolist() for field in fields))
    ]


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
    """A measure and the epsilons it is evaluated at, with its mean, atom norms,
    second moment, operator, inverse, statistics (S x, x) and (S^{-1} x, x) in
    atom order, their tails on the grid, and centered state.

    Each is computed on first use (a failed inversion as its message, raised
    afresh each time) and shared by every inequality and epsilon evaluated on it.
    """

    def __init__(self, measure: DiscreteMeasure, epsilons):
        self.measure, self.epsilons, self._tails = measure, epsilons, {}

    @cached_property
    def grid(self) -> np.ndarray:
        return np.sort(np.asarray(self.epsilons, dtype=float))

    def tails(self, statistic: str, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The grid and its tails of "norms", "quadratic" or "mahalanobis", > eps
        if strict, else >= eps; both sides come from one sort of the statistic."""
        if statistic not in self._tails:
            counts, table = _grid_tails(getattr(self, statistic), self.measure.weights, self.grid)
            self._tails[statistic] = table, counts[0] != counts[1]
        return self.grid, self._tails[statistic][0][:, int(strict)]

    def ties(self, statistic: str) -> list:
        """Whether an atom of any weight sits on each grid point (> and >= part there)."""
        self.tails(statistic)
        return self._tails[statistic][1].tolist()

    @cached_property
    def mean(self) -> np.ndarray:
        return mean(self.measure)

    @cached_property
    def norms(self) -> np.ndarray:
        return self.measure.atom_norms()

    @cached_property
    def second_moment(self) -> float:
        return _moment_from_norms(self.measure.weights, self.norms)

    @property
    def centered(self) -> _MeasureState:
        """The state of the measure minus its mean: this state when the mean is
        exactly zero, so there euclidean and scalar share grenander's norm tails.
        Not cached there, so a state holds no reference to itself and is freed
        as soon as it is dropped."""
        return self._shifted if self.mean.any() else self

    @cached_property
    def _shifted(self) -> _MeasureState:
        with np.errstate(over="ignore"):  # an overflow is the measure's own finiteness error
            atoms = self.measure.atoms - self.mean
        return _MeasureState(replace(self.measure, atoms=atoms), self.epsilons)

    @cached_property
    def operator(self) -> CovarianceOperator:
        return build(self.measure, _moment_of=lambda measure: self.second_moment)

    @cached_property
    def _inversion(self) -> InverseOperator | str:
        try:
            return invert(self.operator)
        except NotPositiveDefiniteError as exc:
            return str(exc)  # not the error, whose traceback's frames would hold this state

    @property
    def inverse(self) -> InverseOperator:
        if isinstance(self._inversion, str):
            raise NotPositiveDefiniteError(self._inversion)
        return self._inversion

    @cached_property
    def quadratic(self) -> np.ndarray:
        return _quadratic_values(self.measure.atoms, self.operator.matrix)

    @cached_property
    def mahalanobis(self) -> np.ndarray:
        return mahalanobis(self.inverse, self.measure.atoms)


def _norm_detail(interval) -> dict:
    return {
        "norm_lower": interval.lower,
        "norm_upper": interval.upper,
        "norm_exact": interval.exact,
    }


def _prepare_scalar(state: _MeasureState) -> _Prepared:
    if state.measure.space.dim != 1:
        raise ApplicabilityError(f"scalar bound needs dim = 1, got {state.measure.space.dim}")
    # at dim 1 every p-norm of x - m is |x - m| bit for bit
    return replace(_prepare_grenander(state.centered), inequality=SCALAR)


def _prepare_euclidean(state: _MeasureState) -> _Prepared:
    # Chebyshev's bound on X is Grenander's on X - EX
    return replace(_prepare_grenander(state.centered), inequality=EUCLIDEAN)


def _prepare_grenander(state: _MeasureState) -> _Prepared:
    # at p = 2 the exponent is 2 in either role
    return _Prepared(GRENANDER, *state.tails("norms"), state.second_moment, 2, {})


def _prepare_chen(state: _MeasureState) -> _Prepared:
    dim = float(state.measure.space.dim)
    return _Prepared(CHEN, *state.tails("mahalanobis"), dim, 1, {})


def _prepare_rao_forward(state: _MeasureState) -> _Prepared:
    scale = state.operator.second_moment**2
    return _Prepared(RAO_FORWARD, *state.tails("quadratic", strict=True), scale, 1, {})


def _prepare_rao_inverse(state: _MeasureState) -> _Prepared:
    interval = state.inverse.norm_interval
    # the 2->2 norm is exact, so upper == lower here
    scale = (interval.upper * state.operator.second_moment) ** 2
    tails = state.tails("mahalanobis", strict=True)
    return _Prepared(RAO_INVERSE, *tails, scale, 1, _norm_detail(interval))


def _prepare_banach_dual(
    operator: CovarianceOperator, pstar: DiscreteMeasure, epsilons
) -> _Prepared:
    """banach_dual on an external sample pstar of functionals."""
    if pstar.role != ROLE_DUAL:
        raise RoleError("banach_dual needs a dual-role measure of functionals")
    if pstar.space != operator.space:
        raise ShapeError(
            f"dual measure lives on {pstar.space}, operator on {operator.space}"
        )
    values = _quadratic_values(pstar.atoms, operator.matrix)
    scale = second_moment(pstar) * operator.second_moment
    grid = np.sort(np.asarray(epsilons, dtype=float))
    tails = _grid_tails(values, pstar.weights, grid)[1][:, 0]
    return _Prepared(BANACH_DUAL, grid, tails, scale, 1, {})


def _prepare_own_dual(state: _MeasureState) -> _Prepared:
    """banach_dual on the measure's own atoms read as functionals (the Riesz
    image at p = 2): their (S f, f) are the atoms' (S x, x), and their
    q-norms, at p = 2, the atoms' p-norms."""
    operator, measure = state.operator, state.measure
    if measure.space.q == measure.space.p:
        moment = state.second_moment
    else:
        moment = _moment_from_norms(measure.weights, p_norm_rows(measure.atoms, measure.space.q))
    return _Prepared(BANACH_DUAL, *state.tails("quadratic"), moment * operator.second_moment, 1, {})


def _prepare_banach_mahalanobis(state: _MeasureState) -> _Prepared:
    interval = state.inverse.norm_interval
    # an inexact norm bracket is consumed through its certified upper endpoint
    scale = interval.upper**2 * state.operator.second_moment**2
    detail = _norm_detail(interval)
    return _Prepared(BANACH_MAHALANOBIS, *state.tails("mahalanobis"), scale, 1, detail)


def scalar_chebyshev(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{|X - EX| >= eps} <= Var(X)/eps^2 for a one-dimensional measure."""
    return _reports(_prepare(SCALAR, _MeasureState(measure, [epsilon])), [epsilon])[0]


def euclidean_chebyshev(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{||X - EX|| >= eps} <= E||X - EX||^2 / eps^2 in the Euclidean norm."""
    return _reports(_prepare(EUCLIDEAN, _MeasureState(measure, [epsilon])), [epsilon])[0]


def grenander(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """Uncentered Hilbert version: P{||X|| >= eps} <= E||X||^2 / eps^2."""
    return _reports(_prepare(GRENANDER, _MeasureState(measure, [epsilon])), [epsilon])[0]


def chen(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{X^T Sigma^{-1} X >= eps} <= dim/eps for a centered measure."""
    return _reports(_prepare(CHEN, _MeasureState(measure, [epsilon])), [epsilon])[0]


def rao(measure: DiscreteMeasure, epsilon: float) -> tuple[BoundReport, BoundReport]:
    """The strict-event quadratic-form pair for a centered p = 2 measure.

    Forward: P{(SX, X) > eps} <= (E||X||^2)^2 / eps.
    Inverse: P{(S^{-1}X, X) > eps} <= (||S^{-1}|| E||X||^2)^2 / eps.
    """
    state = _MeasureState(measure, [epsilon])
    forward = _reports(_prepare(RAO_FORWARD, state), [epsilon])[0]
    inverse = _reports(_prepare(RAO_INVERSE, state), [epsilon])[0]
    return forward, inverse


def banach_dual_bound(
    operator: CovarianceOperator, pstar: DiscreteMeasure, epsilon: float
) -> BoundReport:
    """P*{f: (Sf, f) >= eps} <= (1/eps) E*(||f||*)^2 E||x||^2.

    pstar is a measure over functionals (dual role) on the operator's space.
    """
    return _reports(_prepare_banach_dual(operator, pstar, [epsilon]), [epsilon])[0]


def banach_mahalanobis_bound(measure: DiscreteMeasure, epsilon: float) -> BoundReport:
    """P{(S^{-1}X, X) >= eps} <= (1/eps) ||S^{-1}||^2 (E||X||^2)^2, any p.

    The p->q norm of the inverse may be a bracket; the bound uses the upper
    endpoint and the report's detail carries both endpoints.
    """
    return _reports(_prepare(BANACH_MAHALANOBIS, _MeasureState(measure, [epsilon])), [epsilon])[0]


def _prepare(inequality: str, state: _MeasureState, pstar=None) -> _Prepared:
    if inequality in HILBERT_ONLY:
        _require_hilbert(state.measure, inequality)
    if inequality in CENTERED_ONLY:
        _require_centered(state, inequality)
    if inequality == BANACH_DUAL and pstar is not None:  # else on the atoms as functionals
        return _prepare_banach_dual(state.operator, pstar, state.epsilons)
    preparers = {
        SCALAR: _prepare_scalar,
        EUCLIDEAN: _prepare_euclidean,
        GRENANDER: _prepare_grenander,
        CHEN: _prepare_chen,
        RAO_FORWARD: _prepare_rao_forward,
        RAO_INVERSE: _prepare_rao_inverse,
        BANACH_DUAL: _prepare_own_dual,
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
    if inequality == BANACH_DUAL and pstar is None:
        raise ValueError("banach_dual needs a dual measure (pstar)")
    return _reports(_prepare(inequality, _MeasureState(measure, grid), pstar), grid)


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
    `holds` so sampling noise cannot flag a spurious violation.  The draws
    are streamed a chunk at a time and counted at epsilon, never stored.
    """
    epsilon = _check_epsilon(epsilon)
    prepared = _mc_prepare(sampler, statistic, operator, n_draws, [epsilon], seed)
    return _reports(prepared, [epsilon])[0]


def _mc_prepare(sampler, statistic, operator, n_draws, epsilons, seed=None) -> _Prepared:
    """mc_tail's statistic on one sample, counted at the epsilons of a grid.

    The sample is drawn once, one chunk at a time (Sampler._blocks), and no
    draw is kept: each chunk adds its counts of draws at each point of the
    grid (_grid_tails), and the squared norms of _MOMENT_CHUNKS chunks reach the
    exact moment sum as one block.  Memory is O(chunk + grid) whatever
    n_draws is.  Counts are integers and the sum is exact, so every grid
    point reads the report the sorted whole sample gave; no other epsilon
    can be read.  A mahalanobis error names the lowest value of the whole
    sample, after the pass.
    """
    if statistic not in MC_STATISTICS:
        raise ValueError(f"statistic must be one of {MC_STATISTICS}, got {statistic!r}")
    if n_draws < MC_MIN_DRAWS:
        raise ValueError(f"n_draws must be at least {MC_MIN_DRAWS}, got {n_draws}")
    if statistic == "norm":
        if operator is not None:
            raise ValueError("statistic 'norm' takes no operator")
    elif not isinstance(operator, CovarianceOperator if statistic == "quad_S" else InverseOperator):
        kind = "covariance" if statistic == "quad_S" else "inverse"
        raise ValueError(f"statistic {statistic!r} needs the {kind} operator")
    elif operator.space.dim != sampler.space.dim:
        raise ShapeError("sampler and operator dimensions differ")
    if seed is not None:
        sampler = replace(sampler, seed=seed)
    grid = np.sort(np.asarray(epsilons, dtype=float))
    counts = np.zeros((2, len(grid)), dtype=np.int64)  # draws >= and > each point
    lowest, beyond = 0.0, False  # mahalanobis's clamp over the whole sample; a nan stays
    if statistic == "norm":
        exponent = sampler.space.p
    else:
        exponent = operator.space.q if statistic == "quad_S" else operator.space.p

    def squared_norms():
        nonlocal counts, lowest, beyond
        squares = []  # one block per _MOMENT_CHUNKS chunks: few slice passes
        for i, block in enumerate(sampler._blocks(0, n_draws), 1):
            norms = p_norm_rows(block, exponent)
            values = norms if statistic == "norm" else _quadratic_values(block, operator.matrix)
            if statistic == "mahalanobis_S":
                low, bad = _clamp(operator, block, values)
                lowest, beyond = float(np.minimum(lowest, low)), beyond or bad
            counts += _grid_tails(values, None, grid)[0]
            squares.append(norms**2)
            if i % _MOMENT_CHUNKS == 0 or i * _CHUNK_DRAWS >= n_draws:
                yield np.concatenate(squares)
                squares = []

    moment = _exact_sum(squared_norms()) / n_draws
    _check_clamped(lowest, beyond)
    detail: dict = {}
    if statistic == "norm":
        scale, power, inequality = moment, 2, GRENANDER
    elif statistic == "quad_S":
        scale, power, inequality = moment * operator.second_moment, 1, BANACH_DUAL
    else:
        scale, power = operator.norm_interval.upper**2 * moment**2, 1
        inequality = BANACH_MAHALANOBIS
        detail = _norm_detail(operator.norm_interval)
    return _Prepared(inequality, grid, counts[:1].astype(float), scale, power, detail, n_draws)


def sort_rows(rows) -> list[dict]:
    # deterministic merge order no matter how the rows were produced
    return sorted(rows, key=lambda row: (row["inequality"], row["epsilon"]))


def _csv_texts(groups):
    """rows_to_csv's text a group of rows at a time: the header, then the lines of each."""
    yield ",".join(REPORT_FIELDS) + "\n"
    for rows in groups:
        lines = []
        for row in rows:
            if None in row.values():  # a skipped row carries no numbers
                row = {name: math.nan if value is None else value for name, value in row.items()}
            lines.append(
                "%s,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%s\n" % (
                    row["inequality"], row["epsilon"], row["lhs"], row["ci_halfwidth"],
                    row["rhs"], "true" if row["holds"] else "false", row["slack"], row["method"],
                )
            )
        yield "".join(lines)


def rows_to_csv(rows) -> str:
    """CSV text of report rows: the REPORT_FIELDS header, then one line per row.

    Floats print with 17 significant digits, `holds` as true/false, and the
    numbers a skipped row lacks (None) as nan.  No cell of a report row
    holds a comma, a quote or a line break, so no cell needs quoting.
    """
    return "".join(_csv_texts([rows]))


def _json_texts(groups):
    """rows_to_json's text a group of rows at a time.

    The indenting encoder is pure Python.  A report row is a flat, non-empty
    dict, so the C encoder writes its indented body through the separators.
    """
    opening = "[\n  {\n    "
    for rows in groups:
        texts = [json.dumps(row, separators=(",\n    ", ": "))[1:-1] for row in rows]
        if texts:
            yield opening + "\n  },\n  {\n    ".join(texts)
            opening = "\n  },\n  {\n    "
    yield "[]\n" if opening.startswith("[") else "\n  }\n]\n"


def rows_to_json(rows) -> str:
    """The text of json.dumps(list(rows), indent=2) and a newline."""
    return "".join(_json_texts([rows]))

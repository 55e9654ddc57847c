"""Batch front end: load measure/sampler JSON, run the evaluators, emit reports.

Exit codes: 0 all requested checks hold, 1 input or usage error, 2 at least
one mathematical violation.  Rows that cannot be evaluated for a content
reason (a singular covariance behind an inverse bound, an uncentered measure
behind a centered-only bound) become "skipped: ..." rows and do not fail the
process.  All randomness flows from --seed; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .bounds import (
    INEQUALITIES,
    REPORT_FIELDS,
    SCALAR,
    _Columns,
    _csv_texts,
    _evaluate_grid,
    _grid_rows,
    _json_texts,
    _MeasureState,
    _mc_prepare,
    _prepare,
    sort_rows,
)
from .covop import cauchy_estimate, invert, load_operator
from .errors import (
    ApplicabilityError, CenteringError, NotPositiveDefiniteError, ShapeError, TailboundsError,
)
from .hilbert import _equivalence_grid, riesz, verify_ST_equals_SH
from .measure import _measure_json, load_measure, load_sampler, quantize_draws, save_measure
from .space import ROLE_PRIMAL, conjugate_exponent, p_norm, p_norm_rows

FORMATS = ("json", "csv")
DEFAULT_SEED = 0
MAX_GRID_POINTS = 10_000
REDUCE_TOL = 1e-12

SKIP_NOT_PD = "skipped: not positive definite"
SKIP_NOT_CENTERED = "skipped: not centered"
SKIP_NEEDS_P2 = "skipped: stated for p = 2"
SKIP_NEEDS_DIM1 = "skipped: needs dim = 1"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # exit-code contract (2 means a mathematical violation here)
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _check_epsilons(values: tuple) -> tuple:
    for value in values:
        if not (value > 0.0 and np.isfinite(value)):
            raise UsageError(f"epsilon values must be positive, got {value}")
    return values


def parse_grid(text: str) -> tuple:
    """Parse start:stop:points,log|lin into a strictly ascending tuple of epsilons."""
    head, sep, mode = text.partition(",")
    parts = head.split(":")
    if not sep or mode not in ("log", "lin") or len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:points,log|lin, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid must look like start:stop:points,log|lin, got {text!r}")
    if points < 1 or points > MAX_GRID_POINTS:
        raise UsageError(f"grid points must be in 1..{MAX_GRID_POINTS}, got {points}")
    if not (0.0 < start <= stop < np.inf):
        raise UsageError(f"grid needs 0 < start <= stop, got {start}..{stop}")
    if points == 1:
        values = (start,)
    elif mode == "log":
        values = np.geomspace(start, stop, points)
    else:
        values = np.linspace(start, stop, points)
    values = _check_epsilons(tuple(float(v) for v in values))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("epsilon grid must be strictly ascending")
    return values


def _epsilons_from_args(args) -> tuple:
    if args.grid:
        return parse_grid(args.grid)
    if args.epsilon is not None:
        return _check_epsilons((args.epsilon,))
    raise UsageError("one of --epsilon or --grid is required")


def _skip(inequality: str, epsilons, reason: str) -> _Columns:
    """The rows of an inequality that was not evaluated: no numbers (None),
    `holds` true and the reason as the method."""
    none = np.full(len(epsilons), None)
    return _Columns(
        inequality, np.array(epsilons, dtype=float), none, none, none,
        np.full(len(epsilons), True), none, reason,
    )


def _emit(config: argparse.Namespace, texts) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _finish_rows(config: argparse.Namespace, grids: list) -> int:
    """Write the rows of every grid's columns, then a violation line per row
    that fails; the exit code.

    Rows go out in sort_rows' order, one grid's rows at a time: the grids by
    inequality (one grid each), a grid's rows stably by epsilon.
    """
    violations = []

    def groups():
        for columns in sorted(grids, key=lambda columns: columns.inequality):
            rows = sort_rows(_grid_rows(columns))
            violations.extend(row for row in rows if not row["holds"])
            yield rows

    _emit(config, (_csv_texts if config.fmt == "csv" else _json_texts)(groups()))
    for row in violations:
        cells = ", ".join(f"{name}={row[name]}" for name in REPORT_FIELDS)
        sys.stderr.write(f"violation: {cells}\n")
    return 2 if violations else 0


def _verify_grids(config: argparse.Namespace) -> list:
    """The columns of every inequality `verify` was asked for, or its skip rows.

    The measure and its state live only in this call, so they are freed
    before any text is made.
    """
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
    grids: list = []
    for name in names:
        try:
            prepared = _prepare(name, state, pstar)
        except ApplicabilityError:
            if config.inequality == "all":
                continue  # "all" means all applicable
            reason = SKIP_NEEDS_DIM1 if name == SCALAR else SKIP_NEEDS_P2
            grids.append(_skip(name, config.epsilons, reason))
            continue
        except NotPositiveDefiniteError:
            grids.append(_skip(name, config.epsilons, SKIP_NOT_PD))
            continue
        except CenteringError:
            grids.append(_skip(name, config.epsilons, SKIP_NOT_CENTERED))
            continue
        grids.append(_evaluate_grid(prepared, config.epsilons))
    return grids


def cmd_verify(config: argparse.Namespace) -> int:
    return _finish_rows(config, _verify_grids(config))


def cmd_mc(config: argparse.Namespace) -> int:
    sampler = load_sampler(config.input)
    operator = None
    if (config.statistic == "norm") == bool(config.operator_path):
        raise UsageError("quad_S and mahalanobis_S need --operator; norm refuses it")
    if config.operator_path:
        operator = load_operator(config.operator_path)
    if config.statistic == "mahalanobis_S":
        if operator.space.dim != sampler.space.dim:  # an input error, singular or not
            raise ShapeError("sampler and operator dimensions differ")
        try:
            operator = invert(operator)
        except NotPositiveDefiniteError:
            return _finish_rows(config, [_skip("banach_mahalanobis", config.epsilons, SKIP_NOT_PD)])
    prepared = _mc_prepare(
        sampler, config.statistic, operator, config.draws, config.epsilons, seed=config.seed
    )
    return _finish_rows(config, [_evaluate_grid(prepared, config.epsilons)])


def cmd_quantize(config: argparse.Namespace) -> int:
    sampler = replace(load_sampler(config.input), seed=config.seed)
    delta = config.resolution
    n = config.n_samples
    if n < 1:
        raise ValueError(f"n_samples must be positive, got {n}")
    raw = sampler.draw_block(0, n)  # the one sample every output below is built from
    snapped = quantize_draws(sampler.space, raw, delta)
    coarse = quantize_draws(sampler.space, raw, delta, merge=False)
    fine = quantize_draws(sampler.space, raw, delta / 2.0, merge=False)

    p = sampler.space.p
    dim = sampler.space.dim
    rng = np.random.default_rng(config.seed)
    functional = rng.standard_normal(dim)
    functional /= p_norm(functional, conjugate_exponent(p))

    def error_stats(coupled, resolution: float) -> dict:
        return {
            "resolution": resolution,
            "max_error": float(p_norm_rows(coupled.atoms - raw, p).max()),
            "error_bound": resolution * dim ** (1.0 / p),
            "shrink_ok": bool(np.all(np.abs(coupled.atoms) <= np.abs(raw))),
        }

    lhs, rhs, holds = cauchy_estimate(coarse, fine, functional)
    report = {
        "n_samples": n,
        "quantization": error_stats(coarse, delta),
        "halved": error_stats(fine, delta / 2.0),
        "cauchy": {
            "functional": functional.tolist(),
            "lhs": lhs,
            "rhs": rhs,
            "holds": holds,
        },
    }
    report_text = json.dumps(report, indent=2) + "\n"
    if config.out:
        save_measure(snapped, config.out)
        with open(config.out + ".report.json", "w") as fh:
            fh.write(report_text)
    else:
        sys.stdout.writelines(_measure_json(snapped))
        sys.stderr.write(report_text)
    ok = (
        report["quantization"]["shrink_ok"]
        and report["halved"]["shrink_ok"]
        and report["quantization"]["max_error"] <= report["quantization"]["error_bound"]
        and report["halved"]["max_error"] <= report["halved"]["error_bound"]
        and holds
    )
    return 0 if ok else 2


def cmd_reduce(config: argparse.Namespace) -> int:
    measure = load_measure(config.input)
    transport = riesz(measure.space)  # raises on p != 2, naming the rule
    state = _MeasureState(measure, config.epsilons)  # shared by every check and epsilon
    operator_gap = verify_ST_equals_SH(
        measure, transport, seed=config.seed, operator=state.operator
    )
    # the Riesz map is the identity: the quadratic-form matrix and its inverse
    # are these, and both transported moments are this one
    inverse_norm = state.inverse.norm_interval.upper
    moment = state.operator.second_moment

    entries = []
    failures = []
    if operator_gap > REDUCE_TOL:
        failures.append(f"quadratic forms differ by {operator_gap!r} relative")
    for epsilon, result in zip(config.epsilons, _equivalence_grid(state)):
        entry = {"epsilon": epsilon}
        for side in ("forward", "inverse"):
            banach, hilbert = getattr(result, f"{side}_banach"), getattr(result, f"{side}_hilbert")
            entry[side] = fields = {
                "banach_lhs": banach.lhs,
                "hilbert_lhs": hilbert.lhs,
                "banach_rhs": banach.rhs,
                "hilbert_rhs": hilbert.rhs,
                "rhs_deviation": getattr(result, f"{side}_rhs_deviation"),
                "lhs_deviation": getattr(result, f"{side}_lhs_deviation"),
                "boundary": getattr(result, f"{side}_boundary"),
            }
            if fields["rhs_deviation"] > REDUCE_TOL:
                failures.append(f"{side} RHS deviates at epsilon {epsilon}")
            # on a boundary collision the events differ by construction,
            # so only the RHS equality is asserted there
            if not fields["boundary"] and fields["lhs_deviation"] > REDUCE_TOL:
                failures.append(f"{side} LHS deviates at epsilon {epsilon}")
        entries.append(entry)

    document = {
        "dim": measure.space.dim,
        "n_atoms": measure.n_atoms,
        "matrix_max_abs_gap": 0.0,
        "operator_identity_max_relative_gap": operator_gap,
        "inverse_norm_direct": inverse_norm,
        "inverse_norm_alternate": inverse_norm,
        "moment_transport": {"lhs": moment, "rhs": moment, "equal": True},
        "equivalence": entries,
        "failures": failures,
    }
    _emit(config, [json.dumps(document, indent=2) + "\n"])
    for failure in failures:
        sys.stderr.write(f"violation: {failure}\n")
    return 2 if failures else 0


@functools.cache  # built on the first call; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="tailbounds", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, grid=True, rows=True):
        sub.add_argument("--input", required=True, help="input JSON path")
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed, default 0")
        if rows:  # only report rows have a CSV form
            sub.add_argument("--format", choices=FORMATS, default="json", dest="fmt")
        sub.add_argument("--out", default=None, help="output path (default stdout)")
        if grid:
            group = sub.add_mutually_exclusive_group()
            group.add_argument("--epsilon", type=float, default=None)
            group.add_argument("--grid", default=None, help="start:stop:points,log|lin")

    for name, summary in (
        ("verify", "evaluate inequalities on a measure"),
        ("sweep", "same as verify, meant for grids"),
    ):
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(run=cmd_verify)
        add_common(sub)
        sub.add_argument("--inequality", default="all", help="name or 'all'")
        sub.add_argument("--dual-input", default=None, help="dual measure JSON for banach_dual")

    mc = commands.add_parser("mc", help="Monte Carlo tail frequencies from a sampler")
    mc.set_defaults(run=cmd_mc)
    add_common(mc)
    mc.add_argument("--statistic", required=True, choices=("norm", "quad_S", "mahalanobis_S"))
    mc.add_argument("--operator", default=None, dest="operator_path", help="operator JSON")
    mc.add_argument("--draws", type=int, default=10_000)

    quant = commands.add_parser("quantize", help="grid-quantize sampler draws to a measure")
    quant.set_defaults(run=cmd_quantize)
    add_common(quant, grid=False, rows=False)
    quant.add_argument("--samples", type=int, required=True, dest="n_samples")
    quant.add_argument("--resolution", type=float, required=True)

    reduce_cmd = commands.add_parser("reduce", help="check the p = 2 reduction identities")
    reduce_cmd.set_defaults(run=cmd_reduce)
    add_common(reduce_cmd, rows=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "grid" in args:  # every command but quantize takes epsilons
            args.epsilons = _epsilons_from_args(args)
        if args.seed < 0:
            raise UsageError(f"seed must be a nonnegative integer, got {args.seed}")
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (TailboundsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded from outside the tailbounds package.

The package's modules import each other's functions by name
(``from .covop import build``), so a wrapper set only on ``covop.build``
would miss every call made from ``bounds`` or ``hilbert``.  ``Patch``
therefore replaces the function in every ``tailbounds.*`` namespace that
binds it, and puts the originals back on exit.

A span is one call of a wrapped function: its layer name, start, end, the
index of the enclosing span (-1 for the root), the invocation id, whether it
raised, and a layer-specific counter value.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children; in one thread children are disjoint and nested, so that is
the time their intervals cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc

# Layer name -> the functions whose calls are its spans.  Public functions
# not listed here stay unwrapped and their time counts as their caller's.
LAYERS = {
    "cli.main": ("cli.main",),
    "measure.draw_block": ("measure.Sampler.draw_block",),
    "measure.load": ("measure.load_measure", "measure.load_sampler"),
    "measure.quantize": ("measure.quantize", "measure.quantize_points"),
    "measure.save": ("measure.save_measure",),
    "covop.build": ("covop.build",),
    "covop.invert": ("covop.invert",),
    "covop.mahalanobis": ("covop.mahalanobis",),
    "covop.load_operator": ("covop.load_operator",),
    "space.operator_norm": ("space.operator_norm",),
    "space.p_norm_rows": ("space.p_norm_rows",),
    "bounds.sweep": ("bounds.sweep",),
    "bounds.eval": (
        "bounds.scalar_chebyshev",
        "bounds.euclidean_chebyshev",
        "bounds.grenander",
        "bounds.chen",
        "bounds.rao",
        "bounds.banach_dual_bound",
        "bounds.banach_mahalanobis_bound",
    ),
    "bounds.mc_tail": ("bounds.mc_tail",),
    "bounds.emit": ("bounds.sort_rows", "bounds.rows_to_csv", "bounds.rows_to_json"),
    "hilbert.bound_equivalence": ("hilbert.bound_equivalence",),
    "hilbert.checks": (
        "hilbert.hilbert_covariance",
        "hilbert.verify_ST_equals_SH",
        "hilbert.inverse_norm_pair",
        "hilbert.isometry_pushforward_moment",
    ),
}

ROOT_LAYER = "cli.main"

# Span fields, by position (a list per span keeps the wrapper cheap).
NAME, START, END, PARENT, INVOCATION, ERROR, VALUE = range(7)


def _draw_block_value(args, kwargs, result):
    sampler, start, count = args
    return (sampler.seed, start, count)


def _rows(args, kwargs, result):
    return len(args[0])


def _mahalanobis_rows(args, kwargs, result):
    return 1 if isinstance(result, float) else len(result)


def _bracket_ratio(args, kwargs, result):
    return result.upper / result.lower if result.lower > 0.0 else float("inf")


def _text_bytes(args, kwargs, result):
    return len(result.encode()) if isinstance(result, str) else 0


# Target -> what a span of it counts, computed from (args, kwargs, result).
VALUE_HOOKS = {
    "measure.Sampler.draw_block": _draw_block_value,
    "covop.build": lambda args, kwargs, result: args[0].n_atoms,
    "covop.mahalanobis": _mahalanobis_rows,
    "space.p_norm_rows": _rows,
    "space.operator_norm": _bracket_ratio,
    "bounds.rows_to_csv": _text_bytes,
    "bounds.rows_to_json": _text_bytes,
}


def _resolve(target: str):
    """(owner, attribute, original) for a 'module.name' or 'module.Class.name' target."""
    module_name, *path = target.split(".")
    owner = sys.modules[f"tailbounds.{module_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Patch:
    """Context manager replacing each target with make_wrapper(target, original).

    Module-level functions are replaced in every loaded ``tailbounds``
    namespace that binds the same object; methods are replaced on their class.
    """

    def __init__(self, targets, make_wrapper):
        self._replacements = []
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "tailbounds" or name.startswith("tailbounds.")
        ]
        for target in targets:
            owner, attribute, original = _resolve(target)
            wrapper = make_wrapper(target, original)
            if isinstance(owner, type):
                self._replacements.append((owner, attribute, original, wrapper))
                continue
            for module in namespaces:
                for name, value in vars(module).items():
                    if value is original:
                        self._replacements.append((module, name, original, wrapper))

    def bindings(self) -> list[str]:
        """Every 'namespace.name' this patch replaces, for inspection."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, _, _ in self._replacements
        )

    def __enter__(self):
        for owner, name, _, wrapper in self._replacements:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in self._replacements:
            setattr(owner, name, original)
        return False


class Tracer:
    """Records a span for every call of the functions in LAYERS."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._stack: list[int] = []
        layer_of = {t: layer for layer, targets in LAYERS.items() for t in targets}
        self.patch = Patch(
            layer_of,
            lambda target, fn: self._wrap(layer_of[target], fn, VALUE_HOOKS.get(target)),
        )

    def _wrap(self, layer, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[VALUE] = hook(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "invocation", "error", "value")
        return [dict(zip(keys, span)) for span in self.spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _distinct_draws(blocks) -> int:
    """Number of distinct (seed, index) pairs covered by (seed, start, count) blocks."""
    total, reach = 0, {}
    for seed, start, count in sorted(blocks):
        covered = max(start, reach.get(seed, start))
        total += max(0, start + count - covered)
        reach[seed] = max(covered, start + count)
    return total


def invocation_metrics(spans) -> dict:
    """Per-layer metrics of one invocation's spans (all with the same invocation id)."""
    own = self_times(spans)
    calls: dict = {layer: 0 for layer in LAYERS}
    self_s: dict = {layer: 0.0 for layer in LAYERS}
    errors: dict = {layer: 0 for layer in LAYERS}
    values: dict = {layer: [] for layer in LAYERS}
    for span, t in zip(spans, own):
        layer = span[NAME]
        calls[layer] += 1
        self_s[layer] += t
        errors[layer] += span[ERROR]
        if span[VALUE] is not None:
            values[layer].append(span[VALUE])

    blocks = values["measure.draw_block"]
    draws = sum(count for _, _, count in blocks)
    draw_self = self_s["measure.draw_block"]
    ratios = values["space.operator_norm"]
    return {
        "measure.draw_block.calls": calls["measure.draw_block"],
        "measure.draws": draws,
        "measure.draws.useful_ratio": _distinct_draws(blocks) / draws if draws else 0.0,
        "measure.draw_block.self_s": draw_self,
        "measure.draw_us": 1e6 * draw_self / draws if draws else 0.0,
        "measure.load.self_s": self_s["measure.load"],
        "measure.quantize.self_s": self_s["measure.quantize"],
        "measure.save.self_s": self_s["measure.save"],
        "covop.build.calls": calls["covop.build"],
        "covop.build.atoms": sum(values["covop.build"]),
        "covop.build.self_s": self_s["covop.build"],
        "covop.invert.calls": calls["covop.invert"],
        "covop.invert.self_s": self_s["covop.invert"],
        "covop.invert.errors": errors["covop.invert"],
        "covop.mahalanobis.rows": sum(values["covop.mahalanobis"]),
        "covop.mahalanobis.self_s": self_s["covop.mahalanobis"],
        "covop.load_operator.self_s": self_s["covop.load_operator"],
        "space.operator_norm.calls": calls["space.operator_norm"],
        "space.operator_norm.self_s": self_s["space.operator_norm"],
        "space.operator_norm.bracket_ratio": max(ratios) if ratios else 0.0,
        "space.p_norm_rows.calls": calls["space.p_norm_rows"],
        "space.p_norm_rows.rows": sum(values["space.p_norm_rows"]),
        "space.p_norm_rows.self_s": self_s["space.p_norm_rows"],
        "bounds.sweep.calls": calls["bounds.sweep"],
        "bounds.sweep.self_s": self_s["bounds.sweep"],
        "bounds.sweep.errors": errors["bounds.sweep"],
        "bounds.eval.calls": calls["bounds.eval"],
        "bounds.eval.self_s": self_s["bounds.eval"],
        "bounds.mc_tail.calls": calls["bounds.mc_tail"],
        "bounds.mc_tail.self_s": self_s["bounds.mc_tail"],
        "bounds.emit.self_s": self_s["bounds.emit"],
        "bounds.emit.bytes": sum(values["bounds.emit"]),
        "hilbert.bound_equivalence.calls": calls["hilbert.bound_equivalence"],
        "hilbert.bound_equivalence.self_s": self_s["hilbert.bound_equivalence"],
        "hilbert.checks.self_s": self_s["hilbert.checks"],
        "cli.main.self_s": self_s[ROOT_LAYER],
    }


def split_invocations(spans) -> dict:
    """Invocation id -> that invocation's spans, with parents re-indexed locally."""
    grouped: dict = {}
    local: dict = {}
    for index, span in enumerate(spans):
        group = grouped.setdefault(span[INVOCATION], [])
        local[index] = len(group)
        copy = list(span)
        copy[PARENT] = local[span[PARENT]] if span[PARENT] >= 0 else -1
        group.append(copy)
    return grouped


def median_metrics(per_invocation: list[dict]) -> dict:
    """Median over invocations; counts take the lower median so they stay whole."""
    medians = {}
    for name in per_invocation[0]:
        values = [m[name] for m in per_invocation]
        middle = statistics.median_low if isinstance(values[0], int) else statistics.median
        medians[name] = middle(values)
    return medians


class BuildPeak:
    """Memory pass helper: tracemalloc peak of the whole call and of each build.

    Each build resets the tracemalloc peak on entry, so the whole-call peak is
    kept as the running maximum of the peaks read before every reset.
    """

    def __init__(self):
        self.build_peaks: list[int] = []
        self._outer_peak = 0
        self.patch = Patch(("covop.build",), lambda target, fn: self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._outer_peak = max(self._outer_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.build_peaks.append(tracemalloc.get_traced_memory()[1] - current)

        return measured

    def run(self, call):
        """Run call() under tracemalloc; return (result, whole-call peak in bytes)."""
        tracemalloc.start()
        try:
            with self.patch:
                result = call()
            return result, max(self._outer_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

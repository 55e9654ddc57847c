"""Every function the benchmark tracer wraps still exists under its traced name.

bench/tracing.py names its targets as strings ('covop.build',
'measure.Sampler.draw_block', ...) and resolves them only when a traced
benchmark run starts, so renaming or deleting one of them would otherwise
go unnoticed until `bench/run.py --trace 1` fails.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import tailbounds.cli  # noqa: F401  (loads every tailbounds module the targets name)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    targets = [target for layer in tracing.LAYERS.values() for target in layer]
    assert targets and set(tracing.VALUE_HOOKS) <= set(targets)
    for target in targets:
        owner, attribute, original = tracing._resolve(target)
        assert callable(original), target
        assert getattr(owner, attribute) is original, target

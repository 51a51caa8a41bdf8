"""The package names that the benchmark under benchmarks/ reads.

The benchmark's tracer rebinds functions by module attribute and its runner
reads a config field, so deleting or renaming either breaks `--trace 1` runs
long before the benchmark's own smoke check would run.
"""

import importlib.util
from pathlib import Path

from semgcal.experiment import BenchmarkConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCHMARKS / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves_to_a_callable():
    wraps = _load_tracing().WRAPS
    assert wraps
    for name, owners, attr, _keep, _counter in wraps:
        for owner in owners:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_runner_reads_harness_workers():
    assert BenchmarkConfig().harness.workers >= 1

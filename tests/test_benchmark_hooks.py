"""The package names that the benchmark under benchmarks/ reads.

The benchmark's tracer rebinds functions by module attribute, its workloads
call and read `semgcal` module attributes, and its runner reads a config
field, so deleting or renaming any of them breaks benchmark runs long before
the benchmark's own smoke check would run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from semgcal.experiment import BenchmarkConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCHMARKS / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_attributes_read(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every `module.attribute` in `path` whose
    module the file imported with `from semgcal import module`."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "semgcal"
               for alias in node.names}
    return {(modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_wrapped_attribute_resolves_to_a_callable():
    wraps = _load_tracing().WRAPS
    assert wraps
    for name, owners, attr, _keep, _counter in wraps:
        for owner in owners:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_every_module_attribute_the_benchmark_reads_resolves():
    reads = set().union(*map(_module_attributes_read, BENCHMARKS.glob("*.py")))
    assert ("signal", "segment_stream") in reads  # read by workloads.py
    for module, attr in sorted(reads):
        owner = importlib.import_module(f"semgcal.{module}")
        assert hasattr(owner, attr), f"semgcal.{module}.{attr}"


def test_runner_reads_harness_workers():
    assert BenchmarkConfig().harness.workers >= 1

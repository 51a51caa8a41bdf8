"""Smoke check of the benchmark itself, at a tiny size (about a minute).

Run from the root of a checkout:

    python3 benchmarks/smoke.py

It runs every workload untraced and traced with ``--size tiny`` and asserts
that each run prints, as its last line, exactly the end-to-end or per-layer
metrics that BENCHMARK.json names, each with its declared unit, that every
end-to-end metric and every result metric_map.json lists for the workload is
above 0, and that the correctness checks ran and passed. It also runs
the benchmark in a directory that holds only BENCHMARK.json and the benchmark
files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 600

# Checks each workload must report, by the start of their names.
REQUIRED_CHECKS = {
    "study-tsd": ("accuracies finite", "report.json identical across repetitions"),
    "study-convnet": ("accuracies finite",),
    "online-tsd": ("per-window predictions equal batched predict",),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int, proc, bench: dict, mapping: dict) -> None:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{lines}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, where

    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    assert set(printed) == set(declared), (
        f"{where}: missing {sorted(set(declared) - set(printed))}, "
        f"undeclared {sorted(set(printed) - set(declared))}")
    for name, metric in printed.items():
        assert metric["unit"] == declared[name], f"{where}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], float), f"{where}: {name} value {metric['value']!r}"
        if not trace or workload in mapping["per_layer"][name].get("on", ()):
            assert metric["value"] > 0, f"{where}: {name} reads {metric['value']}"

    detail = next(json.loads(line)["detail"] for line in lines if line.startswith('{"detail"'))
    ran = [c["check"] for c in detail["checks"]]
    for prefix in REQUIRED_CHECKS[workload]:
        if prefix.startswith("report.json") and not trace:
            continue  # one repetition untraced; the traced run makes three
        assert any(c.startswith(prefix) for c in ran), f"{where}: check {prefix!r} did not run"
    assert all(c["ok"] for c in detail["checks"]), where
    assert any(line.startswith('{"machine"') for line in lines), f"{where}: no machine line"


def check_declarations(bench: dict, mapping: dict) -> None:
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    assert e2e == set(mapping["end_to_end"]), "metric_map end_to_end differs from BENCHMARK.json"
    assert layers == set(mapping["per_layer"]), "metric_map per_layer differs from BENCHMARK.json"
    workloads = {w["name"] for w in bench["workloads"]}
    for name, entry in mapping["end_to_end"].items():
        assert set(entry["workloads"]) == workloads, f"{name} must be printed on every workload"
    for name, entry in mapping["per_layer"].items():
        for target, on in entry["moves"].items():
            assert target in e2e, f"{name} moves unknown metric {target}"
            assert set(on) <= workloads, f"{name} names an unknown workload"
        assert set(entry.get("on", ())) <= workloads, f"{name} names an unknown workload"
        assert set(entry.get("explains", ())) <= layers, f"{name} explains an unknown metric"


def check_bare_directory(root: Path) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as d:
        bare = Path(d)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "study-tsd", 0)
    assert proc.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"


def main() -> int:
    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "metric_map.json").read_text())
    check_declarations(bench, mapping)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, run(root, w["name"], trace), bench, mapping)
            print(f"ok {w['name']} --trace {trace}")
    check_bare_directory(root)
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""semgcal benchmark: two calibration studies and a live window-at-a-time stream.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload study-tsd --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py; all load comes from this one process, which
starts no threads of its own, and numpy's OpenBLAS keeps the thread count it
picks for any user):

- ``study-tsd``: the shipped ``BenchmarkConfig`` through ``benchmark_report``
  with the subject count cut to 2, the fewest its statistics accept, and a
  fixed epoch budget.
- ``study-convnet``: the same harness on spectrograms with the ConvNet,
  nocal/dann/adabn and a fixed 1-epoch budget on one subject's shortened
  recordings, through ``run_experiment``.
- ``online-tsd``: a closed loop, one caller and no think time, that classifies
  session 1's evaluation stream one 150 ms window at a time with a TSD DNN
  trained on session 0.

The seed makes the inputs. Set-up runs three times and its median is reported,
plus the import time. After each set-up the timed section repeats while the
next repetition fits in that set-up's third of ``--seconds`` (at least once
per run), and ``run_s`` is the median repetition.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, the
same four on every workload. With ``--trace 1`` the timed section runs twice
untraced, the first time to warm up, and once traced; the last line holds the
per-layer metrics, the program's results (accuracies, per-window latency)
from the second untraced repetition, and the tracing overhead, the traced
minus that repetition. The lines before it give the machine, every check, the
results and the base of every ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3


# -- machine ------------------------------------------------------------------


def _blas_call(names, restype):
    """Call the first of `names` found in the OpenBLAS that numpy loaded."""
    import numpy

    for lib in sorted(glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_config() -> str:
    raw = _blas_call(("scipy_openblas_get_config64_", "openblas_get_config64_",
                      "openblas_get_config"), ctypes.c_char_p)
    return raw.decode() if raw else "unknown"


def machine_info() -> dict:
    import numpy
    import scipy
    from semgcal.experiment import BenchmarkConfig

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_config(),
        "blas_threads": _blas_call(("scipy_openblas_get_num_threads64_",
                                    "openblas_get_num_threads64_",
                                    "openblas_get_num_threads"), ctypes.c_int),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "harness_workers": BenchmarkConfig().harness.workers,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runner -------------------------------------------------------------------


def _setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    wl.reference()
    return elapsed


def _timed(wl, tracer=None) -> tuple[float, dict | None]:
    """One repetition of the timed section: (seconds, output, or None if it raised)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run_once()
        else:
            with tracer.span(f"bench.{wl.name}"):
                out = wl.run_once(tracer)
    except Exception:  # a repetition that raises fails its cells; the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, import_s: float) -> dict:
    import tracing
    from workloads import OUT_DIR, RESULTS, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed, size, blas_config())
    reps: list[tuple[float, dict | None]] = []
    checks: list[tuple[str, bool, str]] = []

    def record(rep):
        reps.append(rep)
        if rep[1] is not None:
            checks.extend(wl.check(rep[1]))

    detail: dict = {"workload": workload, "seed": seed, "size": size}
    if not trace:
        # Set-ups and repetitions alternate, so the repetitions spread over
        # the whole run and sample more of the machine's load than one burst.
        setups = []
        for i in range(SETUP_REPEATS):
            setups.append(_setup(wl))
            share = seconds * (i + 1) / SETUP_REPEATS
            while not reps or sum(t for t, _ in reps) + reps[-1][0] <= share:
                record(_timed(wl))
        detail["setup_repeats_s"] = setups
    else:
        _setup(wl)
        # The first repetition in a process pays for warm-up that later ones
        # do not; it is checked but not compared with the traced one.
        record(_timed(wl))
        record(_timed(wl))
        setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
        with setup_tracer.installed():
            _setup(wl)
        with tracer.installed():
            record(_timed(wl, tracer))
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"setup": setup_tracer.to_json(),
                                          "repetition": tracer.to_json()}))
        detail["trace_file"] = str(trace_path)
        detail["spans_kept"] = len(setup_tracer.spans) + len(tracer.spans)

    done = [out for _, out in reps if out is not None]
    times = [t for t, out in reps if out is not None]
    attempted = wl.cells * len(reps)
    failed = wl.cells * (len(reps) - len(done)) + sum(out.get("failed", 0) for out in done)
    detail["repetitions_s"] = [t for t, _ in reps]
    detail["ok_frac_base"] = f"{attempted - failed} of {attempted} {wl.unit}"
    detail["checks"] = [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]
    if done and "acc_by_session" in done[-1]:
        detail["audit_acc_by_session"] = done[-1]["acc_by_session"]
    if done and "latencies" in done[0]:
        detail["window_samples_per_pass"] = [len(out["latencies"]) for out in done]

    metrics: dict[str, tuple[float, str]] = {}
    complete = bool(done) and len(done) == len(reps)
    if complete:
        # Untraced repetitions only: in a traced run, the one after warm-up.
        results = wl.results(done[1:2] if trace else done)
        detail["results"] = results
    if complete and not trace:
        metrics["setup_s"] = (import_s + statistics.median(setups), "s")
        metrics["run_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "fraction")
    elif complete:
        _, untraced, traced = times
        metrics.update(tracing.layer_metrics(setup_tracer, tracer, done[2].get("pseudo_acc", 0.0)))
        metrics.update({name: (results.get(name, 0.0), unit) for name, unit in RESULTS.items()})
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "fraction")
        detail["trace_overhead_base"] = f"traced {traced:.4f} s over untraced {untraced:.4f} s"
    print(json.dumps({"detail": detail}))
    return {
        "correct": complete and all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semgcal benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("study-tsd", "study-convnet", "online-tsd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke check only")
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "semgcal" / "__init__.py").is_file():
        print("run.py: no src/semgcal here; run it from the root of a semgcal checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(src.resolve()))
    import workloads  # noqa: F401 - imports numpy, scipy and semgcal: the import cost
    import_s = time.perf_counter() - t0

    print(json.dumps({"machine": machine_info()}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

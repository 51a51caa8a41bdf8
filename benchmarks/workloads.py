"""The three benchmark workloads, each driven through semgcal's public calls.

A workload's ``setup`` builds its inputs from the seed, ``run_once`` is one
repetition of the timed section, ``check`` verifies one repetition's outputs
and ``results`` gives the program's results from them. Calls go through
module attributes (``synth.synth_generate``), never through names bound at
import, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from semgcal import dataio, experiment, nn, signal, synth, train

OUT_DIR = Path(".bench_out")  # scratch space, traces and report digests, inside the checkout

# Fixed epoch budgets of the TSD DNN: supervised training, then each adaptation.
TSD_EPOCHS = 10
TSD_ADAPT_EPOCHS = 4


def _tiny_synth(cfg, subjects):
    return dataclasses.replace(cfg, subjects=subjects, cycles=2, cycle_block_seconds=0.6,
                               eval_blocks=6, eval_block_seconds=1.0)


def _fixed_budget(train_cfg, epochs):
    """Exactly `epochs` epochs: with the patience at least the budget, early
    stopping never fires, so every seed does the same number of steps."""
    return dataclasses.replace(train_cfg, max_epochs=epochs,
                               early_stop_patience=max(train_cfg.early_stop_patience, epochs))


def _acc_check(accs: dict) -> tuple[str, bool, str]:
    ok = all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in accs.values())
    return ("accuracies finite and in [0, 1]", ok, json.dumps(accs))


def _session_mean(per_session: list[float]) -> float:
    """Mean over the sessions after session 0, the ones a calibration serves."""
    return statistics.fmean(per_session[1:])


# Results of the program, as opposed to its speed: printed in the detail line
# of every run and as per-layer metrics of the traced run. Each reads 0 on a
# workload that does not produce it.
RESULTS = {
    **{f"acc.{a}": "fraction" for a in ("nocal", "dann", "vada", "adabn", "scadann", "online")},
    **{f"window_ms.p{q}": "ms" for q in (50, 95, 99)},
}


class _Workload:
    def reference(self) -> None:
        """Untimed work after set-up that the checks need."""

    def results(self, outs: list[dict]) -> dict:
        """RESULTS entries this workload produces, from its repetitions' outputs."""
        return {}


class StudyTsd(_Workload):
    """The shipped benchmark study: TSD DNN, nocal/dann/vada/adabn/scadann,
    on a fixed epoch budget."""

    name = "study-tsd"
    unit = "cells (subject x algorithm x session >= 1)"

    def __init__(self, seed: int, size: str, blas: str):
        base = experiment.BenchmarkConfig(seed=seed)
        synth_cfg = dataclasses.replace(base.synth, subjects=2)  # run_benchmark needs >= 2
        # Early stopping would make the amount of work depend on the seed, and
        # with it the run time; a fixed budget leaves only the program's speed.
        epochs, adapt_epochs = TSD_EPOCHS, TSD_ADAPT_EPOCHS
        if size == "tiny":
            synth_cfg = _tiny_synth(synth_cfg, 2)
            epochs, adapt_epochs = 2, 1
        harness = dataclasses.replace(base.harness, train=_fixed_budget(base.harness.train, epochs),
                                      adapt_train=_fixed_budget(base.harness.adapt_train, adapt_epochs))
        self.cfg = dataclasses.replace(base, synth=synth_cfg, harness=harness)
        self.cells = synth_cfg.subjects * len(harness.algorithms) * (synth_cfg.sessions - 1)
        self.blas = blas
        self.report_bytes: bytes | None = None

    def setup(self) -> None:
        # benchmark_report takes a config, not data, and generates the dataset
        # again inside the timed section; set-up times the generation alone.
        cfg = self.cfg
        synth.synth_generate(dataclasses.replace(cfg.synth, seed=experiment.cell_seed(cfg.seed, "synth")))

    def run_once(self, tracer=None) -> dict:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
            report = experiment.benchmark_report(self.cfg, d)
            report_bytes = (Path(d) / "report.json").read_bytes()
        sessions = range(report["sessions"])
        acc = {}
        for j, algo in enumerate(report["algorithms"]):
            per_session = [statistics.fmean(row[j] for row in report["accuracy"][str(s)]["matrix"])
                           for s in sessions]
            acc[algo] = _session_mean(per_session)
        audits = [info for by_session in report["pseudo_audit"].values()
                  for by_subject in by_session.values() for info in by_subject.values()]
        kept = sum(a.get("kept", 0) for a in audits)
        right = sum(a.get("kept", 0) * a.get("pseudo_accuracy", 0.0) for a in audits)
        return {"acc": acc, "report_bytes": report_bytes,
                "pseudo_acc": right / kept if kept else 0.0}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        checks = [_acc_check(out["acc"])]
        digest = hashlib.sha256(out["report_bytes"]).hexdigest()
        if self.report_bytes is not None:
            checks.append(("report.json identical across repetitions of this run",
                           out["report_bytes"] == self.report_bytes, digest))
        self.report_bytes = out["report_bytes"]
        # A digest kept per (code, numerics, config) extends the byte-identity
        # check across runs: every run of the same seed on the same code and
        # BLAS must write the same bytes.
        key = hashlib.sha256()
        for path in sorted(Path("src/semgcal").glob("*.py")):
            key.update(path.read_bytes())
        key.update(json.dumps([np.__version__, self.blas, dataio.config_digest(self.cfg)]).encode())
        ref = OUT_DIR / "report-digests" / key.hexdigest()
        if ref.exists():
            checks.append(("report.json identical to an earlier run of this seed",
                           ref.read_text() == digest, digest))
        else:
            ref.parent.mkdir(parents=True, exist_ok=True)
            ref.write_text(digest)
        return checks

    def results(self, outs: list[dict]) -> dict:
        return {f"acc.{a}": v for a, v in outs[0]["acc"].items()}


class StudyConvnet(_Workload):
    """The paper's ConvNet on spectrograms, on a short fixed epoch budget."""

    name = "study-convnet"
    unit = "cells (subject x algorithm x session >= 1)"
    algorithms = ("nocal", "dann", "adabn")

    def __init__(self, seed: int, size: str, blas: str):
        base = experiment.BenchmarkConfig(seed=seed)
        # One subject with two training cycles and a third of the stream keeps
        # a repetition near 11 s on two 2.1 GHz Xeon cores, so that a run
        # holds more than one.
        synth_cfg = dataclasses.replace(base.synth, subjects=1, cycles=2, eval_blocks=12,
                                        seed=experiment.cell_seed(seed, "synth"))
        if size == "tiny":
            synth_cfg = _tiny_synth(synth_cfg, 1)
        # A fixed budget: one epoch never reaches the early-stopping patience,
        # so every seed does the same number of steps.
        budget = train.default_train_config("spectrogram_convnet", max_epochs=1, batch_size=256)
        self.synth_cfg = synth_cfg
        self.harness = dataclasses.replace(base.harness, input_kind="spectrogram",
                                           algorithms=self.algorithms, train=budget,
                                           adapt_train=budget)
        self.seed = seed
        self.cells = synth_cfg.subjects * len(self.algorithms) * (synth_cfg.sessions - 1)

    def setup(self) -> None:
        self.dataset = synth.synth_generate(self.synth_cfg)

    def run_once(self, tracer=None) -> dict:
        results = experiment.run_experiment(self.dataset, self.harness, self.seed)
        sessions = range(self.synth_cfg.sessions)
        return {"acc_by_session": {
            a: [statistics.fmean(r.accuracies[a][s] for r in results) for s in sessions]
            for a in self.algorithms}}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        flat = {f"{a}.{s}": v for a, vals in out["acc_by_session"].items() for s, v in enumerate(vals)}
        return [_acc_check(flat)]

    def results(self, outs: list[dict]) -> dict:
        # Near chance at this budget and far apart between seeds: an audit.
        return {f"acc.{a}": _session_mean(v) for a, v in outs[0]["acc_by_session"].items()}


class OnlineTsd(_Workload):
    """Window-at-a-time classification of a continuous stream, one caller."""

    name = "online-tsd"
    unit = "windows"

    def __init__(self, seed: int, size: str, blas: str):
        base = experiment.BenchmarkConfig(seed=seed)
        # Two sessions: session 0 trains, session 1's stream is classified.
        synth_cfg = dataclasses.replace(base.synth, subjects=1, sessions=2,
                                        seed=experiment.cell_seed(seed, "synth"))
        epochs = TSD_EPOCHS
        if size == "tiny":
            synth_cfg = _tiny_synth(synth_cfg, 1)
            epochs = 2
        self.synth_cfg = synth_cfg
        self.harness = dataclasses.replace(base.harness,
                                           train=_fixed_budget(base.harness.train, epochs))
        self.seed = seed
        self.window = signal.WINDOW_MS * signal.SAMPLE_RATE_HZ // 1000
        self.stride = signal.STRIDE_MS * signal.SAMPLE_RATE_HZ // 1000

    def setup(self) -> None:
        data = synth.synth_generate(self.synth_cfg)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
            dataio.save_dataset(data, d)
            sessions = [dataio.load_session(d, 0, s) for s in range(self.synth_cfg.sessions)]
        prep = experiment.prepare_session(sessions[0], self.harness)
        model_seed = experiment.cell_seed(self.seed, 0, "base")
        model = nn.build_tsd_dnn(self.harness.gestures, seed=model_seed)
        train.fit(model, prep.train_x, prep.train_y,
                  dataclasses.replace(self.harness.train, seed=model_seed))
        self.model = model
        self.streams = [s.evals[0] for s in sessions[1:]]

    def reference(self) -> None:
        """Batched predictions and oracle labels of every stream; not timed."""
        self.ref_pred, self.ref_label = [], []
        for rec in self.streams:
            x, y = experiment.featurize(signal.segment_stream(rec), "tsd")
            self.ref_pred.append(self.model.predict(x))
            self.ref_label.append(y)
        self.cells = sum(len(p) for p in self.ref_pred)

    def run_once(self, tracer=None) -> dict:
        model, w, stride = self.model, self.window, self.stride
        latencies, preds, failed = [], [], 0
        for rec in self.streams:
            samples = rec.samples
            stream_preds = []
            for start in range(0, samples.shape[1] - w + 1, stride):
                with tracer.span("bench.window") if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        raw = signal.RawRecording(samples=samples[:, start : start + w])
                        x, _ = experiment.featurize(signal.segment_stream(raw), "tsd")
                        pred = int(np.argmax(model.predict_probs(x)[0]))
                    except Exception:  # a window that raises is counted, not fatal
                        traceback.print_exc(file=sys.stderr)
                        failed += 1
                        pred = -1
                    else:
                        latencies.append(time.perf_counter() - t0)
                stream_preds.append(pred)
            preds.append(np.array(stream_preds))
        return {"latencies": latencies, "preds": preds, "failed": failed}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        # A window that raised is counted in ``failed`` and compared no further.
        agree = sum(int(np.sum(p == r)) for p, r in zip(out["preds"], self.ref_pred))
        answered = self.cells - out["failed"]
        return [("per-window predictions equal batched predict", agree == answered,
                 f"{agree} of {answered} answered windows agree")]

    def results(self, outs: list[dict]) -> dict:
        right = sum(int(np.sum(p == y)) for p, y in zip(outs[0]["preds"], self.ref_label))
        res = {"acc.online": right / self.cells}
        # Each pass's latency percentiles, then their median over the passes,
        # so that a burst of load during one pass does not move the figure.
        passes = [sorted(out["latencies"]) for out in outs if out["latencies"]]
        if passes:
            for q in (50, 95, 99):
                res[f"window_ms.p{q}"] = 1e3 * statistics.median(_quantile(lat, q / 100) for lat in passes)
        return res


def _quantile(ascending: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ascending[max(0, math.ceil(q * len(ascending)) - 1)]


WORKLOADS = {wl.name: wl for wl in (StudyTsd, StudyConvnet, OnlineTsd)}

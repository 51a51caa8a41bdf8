"""Spans around the calls into each semgcal module, taken from outside.

The tracer replaces public functions and methods of the package with timed
wrappers for the length of one traced repetition and puts the originals back
afterwards. A name a module imported from another (``experiment.fit``) is
wrapped in that module too, because rebinding the defining module alone would
not reach callers that hold their own reference.

Each call becomes a span: name, start, end, the span that caused it and the
outermost span of its request. A span's self time is its duration minus the
time its direct child spans cover. Spans of the coarse layers are kept in
memory and written out when the run ends; the spans of the per-op and
per-example calls (autodiff ops, Adam steps, spectrograms, VAT losses) are only
summed, because a study makes hundreds of thousands of them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from semgcal import (
    adapt,
    autodiff,
    dataio,
    experiment,
    features,
    nn,
    optim,
    relabel,
    signal,
    stats,
    synth,
    train,
)

# Forward ops whose time and call count are reported one by one.
AUTODIFF_OPS = ("linear", "conv2d", "batch_norm", "leaky_relu", "dropout",
                "cross_entropy", "kl_to_fixed")


def _count_windows(counts, args, out):
    counts["signal.windows"] += len(out)


def _count_tsd_rows(counts, args, out):
    counts["features.tsd_rows"] += len(args[0])


def _count_epochs(counts, args, out):
    counts["train.epochs"] += len(out.epochs)


def _count_predict_rows(counts, args, out):
    counts["nn.predict_rows"] += len(out)


def _count_pseudo(counts, args, out):
    counts["relabel.kept"] += out.kept_count
    counts["relabel.stream_windows"] += out.length


# (span name, owners to rebind, attribute, keep spans, counter)
WRAPS = [
    ("synth.generate", (synth, experiment), "synth_generate", True, None),
    ("dataio.save_dataset", (dataio,), "save_dataset", True, None),
    ("dataio.load_session", (dataio,), "load_session", True, None),
    ("dataio.save_report", (dataio,), "save_report", True, None),
    ("signal.segment_stream", (signal, experiment), "segment_stream", True, _count_windows),
    ("signal.spectrogram", (signal, experiment), "build_spectrogram_example", False, None),
    ("features.tsd", (features, experiment), "tsd_matrix", True, _count_tsd_rows),
    ("experiment.featurize", (experiment,), "featurize", True, None),
    ("experiment.prepare_session", (experiment,), "prepare_session", True, None),
    ("experiment.run_subject", (experiment,), "run_subject", True, None),
    ("experiment.run_experiment", (experiment,), "run_experiment", True, None),
    ("train.fit", (train, experiment, adapt), "fit", True, _count_epochs),
    ("optim.adam_step", (optim.Adam,), "step", False, None),
    ("autodiff.backward", (autodiff.Tensor,), "backward", False, None),
    *[(f"autodiff.{op}", (autodiff,), op, False, None) for op in AUTODIFF_OPS],
    ("nn.predict_probs", (nn.Network,), "predict_probs", True, _count_predict_rows),
    ("nn.clone", (nn.Network,), "clone", True, None),
    ("adapt.dann", (adapt, experiment), "dann_train", True, None),
    ("adapt.vada", (adapt, experiment), "vada_train", True, None),
    ("adapt.vat", (adapt,), "vat_loss", False, None),
    ("adapt.scadann", (adapt, experiment), "scadann_calibrate", True, None),
    ("adapt.adabn", (adapt, experiment), "adabn_adapt", True, None),
    ("relabel.pseudo_labels", (relabel, adapt), "generate_pseudo_labels", True, _count_pseudo),
    *[("stats.battery", (stats, experiment), fn, True, None)
      for fn in ("friedman_test", "holm_posthoc", "wilcoxon_signed_rank", "cohens_dz")],
]


class _Frame:
    __slots__ = ("span_id", "parent", "root", "name", "start", "child")

    def __init__(self, span_id, parent, root, name, start):
        self.span_id = span_id
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket a run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, name, start, end)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # inclusive, outermost call of a name only
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------
    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = _Frame(self._next_id, parent.span_id if parent else 0,
                       parent.root if parent else self._next_id, name, 0.0)
        self._stack.append(frame)
        self._depth[name] += 1
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame, keep: bool = True) -> None:
        end = time.perf_counter()
        dur = end - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dur
        name = frame.name
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - frame.child
        if self._depth[name] == 0:
            self.total[name] += dur
        if keep:
            self.spans.append((frame.span_id, frame.parent, frame.root, name, frame.start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, owner, attr, name, keep, counter):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.exit(frame, keep)
            if counter is not None:
                counter(tracer.counts, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced call for the length of the block."""
        try:
            for name, owners, attr, keep, counter in WRAPS:
                for owner in owners:
                    self._wrap(owner, attr, name, keep, counter)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def to_json(self) -> dict:
        """The kept spans and the per-name sums."""
        return {
            "fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, tr: Tracer, pseudo_acc: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit).

    The layers that build a workload's inputs (synth, dataset write and read)
    are taken from the traced set-up, every other layer from the traced
    repetition of the timed section. A layer the workload never calls reads
    0. ``pseudo_acc`` is the kept-weighted pseudo-label accuracy that the
    study report audits (0 where no SCADANN runs).
    """
    t, n, c = tr.total, tr.calls, tr.counts
    adam_steps = n["optim.adam_step"]
    m = {
        "synth.generate_s": (setup.total["synth.generate"], "s"),
        "dataio.save_dataset_s": (setup.total["dataio.save_dataset"], "s"),
        "dataio.load_session_s": (setup.total["dataio.load_session"], "s"),
        "dataio.save_report_s": (t["dataio.save_report"], "s"),
        "signal.segment_stream_s": (t["signal.segment_stream"], "s"),
        "signal.windows": (c["signal.windows"], "count"),
        "signal.spectrogram_s": (t["signal.spectrogram"], "s"),
        "signal.spectrogram.calls": (n["signal.spectrogram"], "count"),
        "features.tsd_s": (t["features.tsd"], "s"),
        "features.tsd_rows": (c["features.tsd_rows"], "count"),
        "features.tsd_us_per_row": (_ratio(1e6 * t["features.tsd"], c["features.tsd_rows"]), "us"),
        "experiment.featurize_s": (t["experiment.featurize"], "s"),
        "experiment.featurize_self_s": (tr.self_time["experiment.featurize"], "s"),
        "experiment.prepare_session_s": (t["experiment.prepare_session"], "s"),
        "experiment.run_subject_s": (t["experiment.run_subject"], "s"),
        "experiment.run_experiment_s": (t["experiment.run_experiment"], "s"),
        "train.fit_s": (t["train.fit"], "s"),
        "train.fit.calls": (n["train.fit"], "count"),
        "train.epochs": (c["train.epochs"], "count"),
        "train.step_ms": (_ratio(1e3 * t["train.fit"], adam_steps), "ms"),
        "optim.adam_step_s": (t["optim.adam_step"], "s"),
        "optim.adam_steps": (adam_steps, "count"),
        "autodiff.backward_s": (t["autodiff.backward"], "s"),
        "autodiff.backward.calls": (n["autodiff.backward"], "count"),
        "nn.predict_probs_s": (t["nn.predict_probs"], "s"),
        "nn.predict_rows": (c["nn.predict_rows"], "count"),
        "nn.clone_s": (t["nn.clone"], "s"),
        "nn.clone.calls": (n["nn.clone"], "count"),
        "adapt.dann_s": (t["adapt.dann"], "s"),
        "adapt.vada_s": (t["adapt.vada"], "s"),
        "adapt.vat_s": (t["adapt.vat"], "s"),
        "adapt.scadann_s": (t["adapt.scadann"], "s"),
        "adapt.adabn_s": (t["adapt.adabn"], "s"),
        "relabel.pseudo_labels_s": (t["relabel.pseudo_labels"], "s"),
        "relabel.kept_frac": (_ratio(c["relabel.kept"], c["relabel.stream_windows"]), "fraction"),
        "relabel.pseudo_acc": (pseudo_acc, "fraction"),
        "stats.battery_s": (t["stats.battery"], "s"),
    }
    for op in AUTODIFF_OPS:
        name = f"autodiff.{op}"
        m[f"{name}_s"] = (t[name], "s")
        m[f"{name}.us_per_call"] = (_ratio(1e6 * t[name], n[name]), "us")
    return m

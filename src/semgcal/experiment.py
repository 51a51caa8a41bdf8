"""Calibration-setting experiment harness and the synthetic benchmark.

For every subject a base classifier is trained on the labels of session 0
only; later sessions are scored with no calibration, supervised recalibration,
or one of the six unsupervised adaptation algorithms fed that session's
unlabeled stream. Per-session accuracy tables feed the statistics battery.
All per-cell randomness derives from (master seed, subject, algorithm), so
results are independent of the order the subjects run in.

A dataset of two or more subjects runs each subject in a child process
(`semgcal.worker`) that starts with one BLAS thread and runs the TSD pass
without helper threads; at most `HarnessConfig.workers` run at once. Its
results are therefore the same bits for every worker count and every BLAS
thread count of the calling process: those of a serial run with one BLAS
thread. A one-subject dataset runs in the calling process, with that
process's BLAS threads and TSD helper threads, so its last bits can depend on
the BLAS thread count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import sys
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .adapt import (
    AdaptConfig,
    ScadannResult,
    adabn_adapt,
    dann_train,
    dirt_t_refine,
    mv_calibrate,
    scadann_calibrate,
    vada_train,
)
from .dataio import config_digest, save_manifest, save_report
from .errors import DataError, EmptyInputError, NumericError, ParameterError, SemgCalError, check_int
from .features import _usable_cpus, tsd_matrix
from .nn import _BUILDERS, Network
from .relabel import HeuristicConfig
from .signal import build_spectrogram_example  # noqa: F401 -- benchmarks/tracing.py wraps it in this module
from .signal import Windows, bandpass, segment_stream, spectrograms, window_starts
from .stats import accuracy, cohens_dz, friedman_test, holm_posthoc, wilcoxon_signed_rank
from .synth import SubjectData, SynthConfig, synth_generate
from .train import TrainConfig, default_train_config, fit

ALGORITHMS = ("nocal", "recal", "dann", "vada", "dirtt", "adabn", "mv", "scadann", "recal_scadann")
UNSUPERVISED = ("dann", "vada", "dirtt", "adabn", "mv", "scadann")
INPUT_KINDS = {"tsd": "tsd_dnn", "spectrogram": "spectrogram_convnet"}  # input kind -> network kind


@dataclass
class HarnessConfig:
    input_kind: str = "tsd"  # "tsd" or "spectrogram"
    gestures: int = 11
    algorithms: tuple[str, ...] = ("nocal", "dann", "vada", "adabn", "scadann")
    train: TrainConfig | None = None  # defaults to the input kind's network schedule
    adapt_train: TrainConfig | None = None  # defaults to `train`
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    heuristic: HeuristicConfig | None = None  # default depends on gesture count
    # Subjects run at once, each in its own process. It sets how a study runs,
    # not what it computes, so config digests and manifests leave it out.
    workers: int = field(default_factory=_usable_cpus, metadata={"execution": True})

    def __post_init__(self):
        if self.input_kind not in INPUT_KINDS:
            raise ParameterError(f"unknown input kind {self.input_kind!r}")
        check_int("gestures", self.gestures, None)
        if self.gestures not in (7, 11):
            raise ParameterError(f"gestures must be 7 or 11, got {self.gestures}")
        if (not isinstance(self.algorithms, (list, tuple)) or not self.algorithms
                or not all(isinstance(a, str) for a in self.algorithms)):
            raise ParameterError(f"algorithms must be a non-empty list of names, got {self.algorithms!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ParameterError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ParameterError(f"algorithms must be distinct, got {list(self.algorithms)}")
        check_int("workers", self.workers, 1)
        # Fields left None are derived; `from_overrides` derives them again.
        self._derived = tuple(name for name in ("train", "heuristic", "adapt_train") if getattr(self, name) is None)
        if self.train is None:
            self.train = default_train_config(INPUT_KINDS[self.input_kind])
        if self.heuristic is None:
            threshold = 0.85 if self.gestures == 7 else 0.65
            self.heuristic = HeuristicConfig(threshold_stable=threshold)
        if self.adapt_train is None:
            self.adapt_train = self.train


def from_overrides(obj, overrides: dict):
    """Copy of the dataclass `obj` with a nested dict of `overrides` applied.

    Every level goes through `dataclasses.replace`, so each `__post_init__`
    validates its values again. A field that `__post_init__` derived (listed
    in the object's `_derived`, such as the input kind's `train`, the
    gesture-dependent `heuristic` or an `adapt_train` copied from `train`)
    is derived again from the new values unless the overrides set it. A
    dict value updates a nested config field by field; None resets a field
    whose default is None so it is derived; a JSON list becomes a tuple
    where the field holds one. A `HarnessConfig` override that sets
    `input_kind` also sets that kind's network learning rate, unless it sets
    `train.learning_rate` itself. Unknown keys raise ParameterError.
    """
    if not isinstance(overrides, dict):
        raise ParameterError(f"{type(obj).__name__} overrides must be an object, got {overrides!r}")
    kind = overrides.get("input_kind")
    train = overrides.get("train", {})
    if isinstance(obj, HarnessConfig) and kind in INPUT_KINDS and isinstance(train, dict) \
            and "learning_rate" not in train:
        rate = default_train_config(INPUT_KINDS[kind]).learning_rate
        overrides = {**overrides, "train": {**train, "learning_rate": rate}}
    fields = {f.name: f for f in dataclasses.fields(obj)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise ParameterError(f"unknown {type(obj).__name__} keys: {unknown}")
    changes = {key: None for key in getattr(obj, "_derived", ())}
    for key, value in overrides.items():
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and not (value is None and fields[key].default is None):
            value = from_overrides(current, value)
        elif isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        changes[key] = value
    return dataclasses.replace(obj, **changes)


def cell_seed(master_seed: int, *parts) -> int:
    key = f"{master_seed}|" + "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2s(key.encode(), digest_size=4).digest(), "little") & 0x7FFFFFFF


# Windows per featurize pass: about 3 MB of float64 windows and as much again
# band-passed, however many windows a recording has.
_FEATURIZE_BLOCK = 256


def featurize(windows, input_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """`Windows` -> (X, y) under the input kind "tsd" or "spectrogram"; unlabeled y = -1.

    `windows` is one recording's `segment_stream`, or a list of them whose
    rows follow one another in X. Their windows are copied to float64
    `_FEATURIZE_BLOCK` at a time (C order, as `np.stack` laid them out; a
    block may span recordings), band-passed and featurized into one float32
    X. So besides X and y, memory holds one block's float64 windows, their
    band-passed copy and their features, however many windows there are. A
    band-passed window and its features do not depend on the windows around
    it, so X has the same bits for any block size.
    """
    if input_kind not in INPUT_KINDS:
        raise ParameterError(f"unknown input kind {input_kind!r}")
    parts = [windows] if isinstance(windows, Windows) else windows
    offsets = [0, *accumulate(map(len, parts))]  # of each part's first row in X
    n = offsets[-1]
    if n == 0:
        raise EmptyInputError("no windows to featurize")
    features_of = tsd_matrix if input_kind == "tsd" else spectrograms
    x = None
    for lo in range(0, n, _FEATURIZE_BLOCK):
        hi = lo + _FEATURIZE_BLOCK
        # windows lo..hi-1 of the concatenated parts; a part outside them gives an empty slice
        block = np.concatenate([p.data[max(lo - o, 0) : max(hi - o, 0)] for p, o in zip(parts, offsets)],
                               dtype=np.float64)
        rows = features_of(bandpass(block))
        if x is None:
            x = np.empty((n, *rows.shape[1:]), dtype=np.float32)
        x[lo : lo + len(rows)] = rows  # TSD's float64 rounds as astype(np.float32) would
    y = np.concatenate([np.full(len(p), -1) if p.labels is None else p.labels for p in parts],
                       dtype=np.int64)
    return x, y


class PreparedSession:
    """One session's classifier inputs, in three parts:

    - `train_x`/`train_y`: the windows of every cycle but the last;
    - `test_x`/`test_y`: the windows of the last (held-out) cycle;
    - `stream_x`/`stream_y`: the windows of the first evaluation recording,
      time ordered, with its oracle labels (audit only); both None when the
      session has no evaluation recording.

    Each part is windowed and featurized on its first read, and at most
    once, so a caller pays only for the parts it reads. `prepare_session`
    has checked every part before this object exists. The session's
    recordings must stay unchanged while a part is unread.

    Memory: a part kept is its float32 X and int64 y. While a part is
    featurized, each of its recordings is windowed as a view of its samples
    (`segment_stream`), and `featurize` holds one block of float64 windows
    on top.
    """

    def __init__(self, session, input_kind: str):
        self._session = session
        self._input_kind = input_kind
        self._parts: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # part -> (x, y)

    def _recordings(self, part: str) -> list:
        cycles = self._session.cycles
        if part == "train":
            return [cycle[g] for cycle in cycles[:-1] for g in sorted(cycle)]
        if part == "test":
            return [cycles[-1][g] for g in sorted(cycles[-1])]
        return list(self._session.evals[:1])

    def _part(self, part: str) -> tuple[np.ndarray, np.ndarray]:
        if part not in self._parts:
            windows = [segment_stream(rec) for rec in self._recordings(part)]
            self._parts[part] = featurize(windows, self._input_kind)
        return self._parts[part]

    def _stream(self, i: int) -> np.ndarray | None:
        return self._part("stream")[i] if self._session.evals else None

    train_x = property(lambda self: self._part("train")[0])
    train_y = property(lambda self: self._part("train")[1])
    test_x = property(lambda self: self._part("test")[0])
    test_y = property(lambda self: self._part("test")[1])
    stream_x = property(lambda self: self._stream(0))
    stream_y = property(lambda self: self._stream(1))


def prepare_session(session, cfg: HarnessConfig) -> PreparedSession:
    """A session's train, test and stream parts, featurized on first read.

    A bad session fails here, not at a later read: DataError for fewer than
    2 cycles, EmptyInputError for an empty train or test part or for a
    recording shorter than one window.
    """
    if len(session.cycles) < 2:
        raise DataError(f"session {session.session} needs >= 2 cycles")
    prep = PreparedSession(session, cfg.input_kind)
    train, test, stream = (prep._recordings(part) for part in ("train", "test", "stream"))
    for rec in train + test:
        window_starts(rec)
    if not train or not test:
        raise EmptyInputError("no windows to featurize")
    for rec in stream:
        window_starts(rec)
    return prep


def fit_new(cfg: HarnessConfig, x: np.ndarray, y: np.ndarray, seed: int) -> Network:
    """A fresh network of the configured kind, trained on (x, y) under `cfg.train`."""
    model = _BUILDERS[INPUT_KINDS[cfg.input_kind]](cfg.gestures, seed=seed)
    fit(model, x, y, dataclasses.replace(cfg.train, seed=seed))
    return model


def adapt_model(algo: str, model: Network, x_src: np.ndarray, y_src: np.ndarray,
                streams: list[np.ndarray], cfg: HarnessConfig, seed: int,
                priors=()) -> tuple[Network, ScadannResult | None]:
    """Run one unsupervised algorithm on a copy of `model`.

    `streams` holds the unlabeled sessions seen so far, oldest first: MV pools
    all of them, every other algorithm adapts to the last. `priors` are the
    earlier sessions' pseudo-labeled (x, y) pairs SCADANN adds to its source.
    The input model is never modified.
    """
    if algo not in UNSUPERVISED:
        raise ParameterError(f"{algo!r} is not an unsupervised algorithm")
    if not streams or any(x is None or len(x) == 0 for x in streams):
        raise DataError(f"{algo} needs a session with unlabeled evaluation data")
    tcfg = dataclasses.replace(cfg.adapt_train, seed=seed)
    stream = streams[-1]
    if algo == "adabn":
        return adabn_adapt(model, stream), None
    if algo == "scadann":
        res = scadann_calibrate(model, x_src, y_src, list(priors), stream,
                                acfg=cfg.adapt, hcfg=cfg.heuristic, cfg=tcfg)
        return res.model, res
    model = model.clone()
    if algo == "dann":
        dann_train(model, x_src, y_src, stream, lambda_d=cfg.adapt.dann_lambda_d, cfg=tcfg)
    elif algo == "mv":
        mv_calibrate(model, x_src, y_src, streams, cfg=tcfg)
    else:
        vada_train(model, x_src, y_src, stream, acfg=cfg.adapt, cfg=tcfg)
        if algo == "dirtt":
            dirt_t_refine(model, stream, acfg=cfg.adapt, cfg=tcfg)
    return model, None


@dataclass
class SubjectResult:
    subject: int
    accuracies: dict[str, list[float]]  # algorithm -> per-session accuracy
    pseudo_audit: dict[str, dict[int, dict]] = field(default_factory=dict)


def run_subject(subject_data: SubjectData, cfg: HarnessConfig, master_seed: int) -> SubjectResult:
    """Score every configured algorithm on every session of one subject.

    Session 0 is the labeled source for the unsupervised algorithms; SCADANN
    chains its models and pseudo-labels across sessions, while Recal and
    RecalSCADANN start each session from a network fit on its own labels.
    """
    preps = [prepare_session(s, cfg) for s in subject_data.sessions]
    sid = subject_data.subject
    src = preps[0]
    model0 = fit_new(cfg, src.train_x, src.train_y, cell_seed(master_seed, sid, "base"))
    nocal = [accuracy(model0.predict(p.test_x), p.test_y) for p in preps]

    result = SubjectResult(subject=sid, accuracies={})
    for algo in cfg.algorithms:
        if algo == "nocal":
            result.accuracies[algo] = list(nocal)
            continue
        first = 0 if algo == "recal_scadann" else 1
        accs = nocal[:first]
        model, priors, audit = model0, [], {}
        for s in range(first, len(preps)):
            seed = cell_seed(master_seed, sid, algo, s)
            prep = preps[s]
            if algo == "recal":
                model = fit_new(cfg, prep.train_x, prep.train_y, seed)
            elif algo == "recal_scadann":
                base = fit_new(cfg, prep.train_x, prep.train_y, seed) if s else model0
                model, _ = adapt_model("scadann", base, prep.train_x, prep.train_y,
                                       [prep.stream_x], cfg, seed)
            else:
                streams = [p.stream_x for p in preps[1 : s + 1]] if algo == "mv" else [prep.stream_x]
                base = model if algo == "scadann" else model0
                model, res = adapt_model(algo, base, src.train_x, src.train_y, streams, cfg, seed, priors)
                if res is not None:
                    audit[s] = _pseudo_audit(res.pseudo, prep.stream_y, res.status)
                    if res.pseudo is not None and res.pseudo.kept_count > 0:
                        priors.append(res.pseudo.gather(prep.stream_x))
            accs.append(accuracy(model.predict(prep.test_x), prep.test_y))
        result.accuracies[algo] = accs
        if algo == "scadann":
            result.pseudo_audit[algo] = audit
    return result


def _pseudo_audit(pseudo, stream_y, status) -> dict:
    if pseudo is None or stream_y is None:
        return {"status": status}
    out = {
        "status": status,
        "kept": int(pseudo.kept_count),
        "total": int(pseudo.length),
        "kept_fraction": float(pseudo.kept_count / max(1, pseudo.length)),
    }
    if pseudo.kept_count:
        out["pseudo_accuracy"] = float(np.mean(pseudo.labels == stream_y[pseudo.indices]))
    return out


def run_experiment(dataset: list[SubjectData], cfg: HarnessConfig, master_seed: int) -> list[SubjectResult]:
    """`run_subject` on every subject, sorted by subject id.

    Two or more subjects run in child processes, at most `cfg.workers` at
    once (see the module docstring); one subject runs in this process.
    """
    if len(dataset) < 2:
        results = [run_subject(sd, cfg, master_seed) for sd in dataset]
    else:
        results = _run_in_children(dataset, cfg, master_seed)
    return sorted(results, key=lambda r: r.subject)


def _child_env() -> dict[str, str]:
    """The caller's environment with one BLAS thread, and this package's root
    first on PYTHONPATH so the child imports the same code."""
    root = str(Path(__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "PYTHONPATH": root + os.pathsep + path if path else root}


def _run_in_children(dataset: list[SubjectData], cfg: HarnessConfig, master_seed: int) -> list[SubjectResult]:
    """One `semgcal.worker` process per subject; every child is reaped on return.

    The first failure stops the study: children not yet started never start,
    running ones are killed, and the failure is raised.
    """
    # Imported here, not with this module: a 1-subject study never starts a
    # child, and with `subprocess` loaded up front the in-process study-convnet
    # workload ran about 10% slower in benchmark pairs, with no code path changed.
    import subprocess

    cmd, env = [sys.executable, "-m", "semgcal.worker"], _child_env()
    lock, started, stopped = threading.Lock(), [], threading.Event()

    def run_child(sd: SubjectData) -> SubjectResult | None:
        with lock:
            if stopped.is_set():
                return None
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env)
            started.append(proc)
        with proc:
            # The request is pickled straight into the pipe, never held whole
            # in memory. `communicate` closes stdin itself (it fails on a
            # stdin already closed) and reads the reply.
            try:
                pickle.dump((sd, cfg, master_seed), proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            except OSError:
                pass  # the child is gone; its exit status and stderr say why
            out, err = proc.communicate()
        return _child_outcome(sd.subject, proc.returncode, out, err)

    with ThreadPoolExecutor(max_workers=min(cfg.workers, len(dataset))) as pool:
        futures = [pool.submit(run_child, sd) for sd in dataset]
        try:
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                if future in done and future.exception() is not None:
                    raise future.exception()
            return [future.result() for future in futures]
        finally:
            with lock:
                stopped.set()
                for proc in started:
                    proc.kill()  # a no-op for a child already reaped


def _child_outcome(subject: int, returncode: int, out: bytes, err: bytes) -> SubjectResult:
    """A worker's SubjectResult, or its SemgCalError raised again here."""
    if returncode == 0:
        try:
            status, value = pickle.loads(out)
        except Exception:  # whatever makes the reply unreadable, the worker failed
            status, value = None, None
        if status == "ok":
            return value
        if status == "error":
            raise value
        how = "exited with status 0 but sent no readable result"
    elif returncode < 0:
        how = f"died from signal {-returncode}"
    else:
        how = f"exited with status {returncode}"
    tail = err.decode(errors="replace").strip()[-2000:]
    raise SemgCalError(f"subject {subject}: worker process {how}"
                       + (f"; its stderr ends with:\n{tail}" if tail else ", with nothing on stderr"))


# -- benchmark ----------------------------------------------------------------


@dataclass
class BenchmarkConfig:
    """Desk-scale synthetic benchmark: small recordings, trimmed schedules.

    The adaptation learning rate and VAT radius are calibrated to the TSD
    feature scale; the drift magnitude keeps the session-2 pseudo-labels
    informative while still degrading the uncalibrated model markedly.
    """

    seed: int = 0
    synth: SynthConfig = field(default_factory=lambda: SynthConfig(
        subjects=20, sessions=3, gestures=11,
        shift_scale=0.25, noise_scale=0.15,
        cycles=3, cycle_block_seconds=2.0,
        eval_recordings=1, eval_blocks=36, eval_block_seconds=2.5,
    ))
    harness: HarnessConfig = field(default_factory=lambda: HarnessConfig(
        input_kind="tsd", gestures=11,
        algorithms=("nocal", "dann", "vada", "adabn", "scadann"),
        train=default_train_config("tsd_dnn", max_epochs=60, batch_size=256,
                                   early_stop_patience=10, anneal_patience=5),
        adapt_train=default_train_config(
            "tsd_dnn", learning_rate=5e-4, max_epochs=15, batch_size=256,
            early_stop_patience=4, anneal_patience=3),
        adapt=AdaptConfig(vat_epsilon=0.01),
    ))

    def __post_init__(self):
        check_int("seed", self.seed, None)  # it only keys `cell_seed`, so any integer


def run_benchmark(cfg: BenchmarkConfig) -> dict:
    """Full synthetic benchmark; returns a deterministic report dictionary."""
    if cfg.synth.gestures != cfg.harness.gestures:
        raise ParameterError(f"synth.gestures {cfg.synth.gestures} != harness.gestures "
                             f"{cfg.harness.gestures}: the classifier would not match the data")
    algorithms = list(cfg.harness.algorithms)
    n_sessions = cfg.synth.sessions
    # Each session after the first gets the statistics battery when NoCal has
    # a rival, and Friedman's test ranks the algorithms over >= 2 subjects.
    battery = "nocal" in algorithms and len(algorithms) >= 2
    if battery and n_sessions >= 2 and cfg.synth.subjects < 2:
        raise ParameterError(f"the statistics battery (nocal among {len(algorithms)} algorithms) "
                             f"needs >= 2 subjects, got {cfg.synth.subjects}")
    synth_cfg = dataclasses.replace(cfg.synth, seed=cell_seed(cfg.seed, "synth"))
    dataset = synth_generate(synth_cfg)
    results = run_experiment(dataset, cfg.harness, cfg.seed)

    accuracy_tables = {}
    stats = {}
    for s in range(n_sessions):
        matrix = np.array(
            [[r.accuracies[a][s] for a in algorithms] for r in results], dtype=np.float64
        )
        accuracy_tables[str(s)] = {"algorithms": algorithms, "matrix": matrix.tolist()}
        if s >= 1 and battery:
            stats[str(s)] = _session_stats(matrix, algorithms)

    audit = {}
    for r in results:
        for algo, sessions in r.pseudo_audit.items():
            for s, info in sessions.items():
                audit.setdefault(algo, {}).setdefault(str(s), {})[str(r.subject)] = info

    return {
        "seed": cfg.seed,
        "config_digest": config_digest(cfg),
        "subjects": cfg.synth.subjects,
        "sessions": n_sessions,
        "gestures": cfg.synth.gestures,
        "input_kind": cfg.harness.input_kind,
        "algorithms": algorithms,
        "accuracy": accuracy_tables,
        "stats": stats,
        "pseudo_audit": audit,
    }


def _session_stats(matrix: np.ndarray, algorithms: list[str]) -> dict:
    control = algorithms.index("nocal")
    fr = friedman_test(matrix)
    holm = holm_posthoc(fr.avg_ranks, n=matrix.shape[0], control=control)
    dz = {}
    wilcoxon = {}
    for j, algo in enumerate(algorithms):
        if j == control:
            continue
        try:
            dz[algo] = cohens_dz(matrix[:, j], matrix[:, control])
        except NumericError:
            dz[algo] = None
        wilcoxon[algo] = wilcoxon_signed_rank(matrix[:, j], matrix[:, control])
    return {
        "friedman": {
            "avg_ranks": {a: fr.avg_ranks[j] for j, a in enumerate(algorithms)},
            "statistic": fr.statistic,
            "p_value": fr.p_value,
        },
        "holm": {
            a: {
                "z": None if np.isnan(holm.z_values[j]) else holm.z_values[j],
                "p": None if np.isnan(holm.p_values[j]) else holm.p_values[j],
                "p_adjusted": None if np.isnan(holm.p_adjusted[j]) else holm.p_adjusted[j],
                "reject": bool(holm.reject[j]),
            }
            for j, a in enumerate(algorithms)
            if j != control
        },
        "cohens_dz": dz,
        "wilcoxon_p": wilcoxon,
    }


def benchmark_report(cfg: BenchmarkConfig, out_dir) -> dict:
    """Run the benchmark and persist report, tables and manifest."""
    report = run_benchmark(cfg)
    save_report(report, out_dir)
    save_manifest(out_dir, cfg.seed, cfg)
    return report

"""Experiment harness: calibration settings, determinism, report layout."""

import dataclasses
import filecmp
import io
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import semgcal.experiment as experiment
from semgcal import DataError, EmptyInputError, ParameterError, SemgCalError, features, worker
from semgcal.adapt import AdaptConfig
from semgcal.dataio import canonical_json, config_digest, save_manifest, save_report
from semgcal.errors import check_real
from semgcal.experiment import (
    ALGORITHMS,
    UNSUPERVISED,
    BenchmarkConfig,
    HarnessConfig,
    adapt_model,
    benchmark_report,
    cell_seed,
    featurize,
    fit_new,
    from_overrides,
    prepare_session,
    run_benchmark,
    run_experiment,
    run_subject,
)
from semgcal.relabel import HeuristicConfig
from semgcal.signal import RawRecording, segment_stream
from semgcal.synth import SessionData, SynthConfig, synth_generate
from semgcal.train import CONVNET_LR, default_train_config


def tiny_synth(subjects=2, sessions=2, gestures=7, seed=3, **kw):
    kw.setdefault("shift_scale", 0.25)
    kw.setdefault("noise_scale", 0.15)
    kw.setdefault("cycles", 3)
    kw.setdefault("cycle_block_seconds", 0.8)
    kw.setdefault("eval_recordings", 1)
    kw.setdefault("eval_blocks", 8)
    kw.setdefault("eval_block_seconds", 1.2)
    return SynthConfig(subjects=subjects, sessions=sessions, gestures=gestures, seed=seed, **kw)


def tiny_harness(**kw):
    kw.setdefault("input_kind", "tsd")
    kw.setdefault("gestures", 7)
    kw.setdefault("algorithms", ("nocal", "adabn"))
    kw.setdefault("train", default_train_config(
        "tsd_dnn", max_epochs=15, batch_size=128, early_stop_patience=5, anneal_patience=3))
    kw.setdefault("adapt_train", default_train_config(
        "tsd_dnn", learning_rate=8e-4, max_epochs=5, batch_size=128,
        early_stop_patience=3, anneal_patience=3))
    kw.setdefault("adapt", AdaptConfig(vat_epsilon=0.01))
    return HarnessConfig(**kw)


@pytest.fixture(scope="module")
def tiny_dataset():
    return synth_generate(tiny_synth())


class TestPrepareSession:
    def test_train_test_split_uses_last_cycle_for_test(self, tiny_dataset):
        cfg = tiny_harness()
        sess = tiny_dataset[0].sessions[0]
        prep = prepare_session(sess, cfg)
        per_cycle = sum(
            len(segment_stream(rec)) for rec in sess.cycles[0].values()
        )
        assert len(prep.train_x) == 2 * per_cycle
        assert len(prep.test_x) == per_cycle
        assert set(np.unique(prep.train_y)) == set(range(7))

    def test_stream_is_time_ordered_with_labels(self, tiny_dataset):
        prep = prepare_session(tiny_dataset[0].sessions[0], tiny_harness())
        assert prep.stream_x is not None
        assert len(prep.stream_x) == len(prep.stream_y)

    def test_spectrogram_kind_shapes(self, tiny_dataset):
        cfg = tiny_harness(input_kind="spectrogram")
        prep = prepare_session(tiny_dataset[0].sessions[0], cfg)
        assert prep.train_x.shape[1:] == (4, 10, 24)

    def test_featurize_marks_unlabeled(self):
        from semgcal.signal import RawRecording

        rec = RawRecording(samples=np.zeros((10, 400), dtype=np.int16))
        segs = segment_stream(rec)
        _, y = featurize(segs, "tsd")
        assert np.all(y == -1)


@dataclasses.dataclass
class EagerSession:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    stream_x: np.ndarray | None
    stream_y: np.ndarray | None


def eager_prepare_session(session, cfg):
    """`prepare_session` as it was before parts were featurized on first
    read, kept as an oracle: every part windowed and featurized at once."""
    if len(session.cycles) < 2:
        raise DataError(f"session {session.session} needs >= 2 cycles")
    train_windows = []
    for cycle in session.cycles[:-1]:
        for g in sorted(cycle):
            train_windows.append(segment_stream(cycle[g]))
    test_windows = []
    for g in sorted(session.cycles[-1]):
        test_windows.append(segment_stream(session.cycles[-1][g]))
    train_x, train_y = featurize(train_windows, cfg.input_kind)
    test_x, test_y = featurize(test_windows, cfg.input_kind)
    stream_x = stream_y = None
    if session.evals:
        stream_x, stream_y = featurize(segment_stream(session.evals[0]), cfg.input_kind)
    return EagerSession(train_x, train_y, test_x, test_y, stream_x, stream_y)


PARTS = {"train": ("train_x", "train_y"), "test": ("test_x", "test_y"), "stream": ("stream_x", "stream_y")}


def quick_harness(**kw):
    """The tiny harness on a short schedule: these tests count work, not accuracy."""
    kw.setdefault("train", default_train_config(
        "tsd_dnn", max_epochs=2, batch_size=128, early_stop_patience=5, anneal_patience=3))
    kw.setdefault("adapt_train", default_train_config(
        "tsd_dnn", learning_rate=8e-4, max_epochs=1, batch_size=128,
        early_stop_patience=3, anneal_patience=3))
    return tiny_harness(**kw)


@pytest.fixture(scope="module")
def three_sessions():
    return synth_generate(tiny_synth(subjects=1, sessions=3, seed=8))


def record_featurized_parts(monkeypatch):
    """Capture every PreparedSession the harness makes and count featurize calls."""
    preps, calls = [], []
    prepare, featurize_ = experiment.prepare_session, experiment.featurize

    def recording_prepare(session, cfg):
        preps.append(prepare(session, cfg))
        return preps[-1]

    def counting_featurize(windows, input_kind):
        calls.append(len(windows))
        return featurize_(windows, input_kind)

    monkeypatch.setattr(experiment, "prepare_session", recording_prepare)
    monkeypatch.setattr(experiment, "featurize", counting_featurize)

    def featurized():
        return {(s, part) for s, prep in enumerate(preps) for part in prep._parts}

    return calls, featurized


class TestLazyPreparation:
    def test_shipped_algorithms_featurize_only_what_they_read(self, three_sessions, monkeypatch):
        calls, featurized = record_featurized_parts(monkeypatch)
        run_subject(three_sessions[0], quick_harness(algorithms=HarnessConfig().algorithms), 3)
        expected = {(0, "train"), (0, "test"), (1, "test"), (1, "stream"), (2, "test"), (2, "stream")}
        assert featurized() == expected
        assert len(calls) == len(expected)

    def test_every_algorithm_equals_eager_preparation(self, three_sessions, monkeypatch):
        cfg = quick_harness(algorithms=ALGORITHMS)
        calls, featurized = record_featurized_parts(monkeypatch)
        lazy = run_experiment(three_sessions, cfg, master_seed=4)
        # recal and recal_scadann read every train part and session 0's stream
        assert featurized() == {(s, part) for s in range(3) for part in PARTS}
        assert len(calls) == 3 * len(PARTS)
        monkeypatch.setattr(experiment, "prepare_session", eager_prepare_session)
        assert lazy == run_experiment(three_sessions, cfg, master_seed=4)

    @pytest.mark.parametrize("input_kind", ["tsd", "spectrogram"])
    def test_parts_equal_direct_featurize_and_are_read_once(self, tiny_dataset, monkeypatch, input_kind):
        session = tiny_dataset[1].sessions[1]
        cfg = tiny_harness(input_kind=input_kind)
        oracle = eager_prepare_session(session, cfg)
        calls, _ = record_featurized_parts(monkeypatch)
        prep = prepare_session(session, cfg)
        assert calls == []
        for attrs in PARTS.values():
            for attr in attrs:
                first = getattr(prep, attr)
                assert getattr(prep, attr) is first
                np.testing.assert_array_equal(first, getattr(oracle, attr), err_msg=attr)
                assert first.dtype == getattr(oracle, attr).dtype
        assert len(calls) == len(PARTS)

    def test_no_eval_recording_leaves_stream_none(self, tiny_dataset, monkeypatch):
        session = dataclasses.replace(tiny_dataset[0].sessions[0], evals=[])
        calls, _ = record_featurized_parts(monkeypatch)
        prep = prepare_session(session, tiny_harness())
        assert prep.stream_x is None and prep.stream_y is None
        assert calls == []


def _recording(t):
    return RawRecording(samples=np.zeros((10, t), dtype=np.int16), labels=np.zeros(t, dtype=np.int64))


GOOD, SHORT = _recording(400), _recording(149)  # one window is 150 samples
CYCLE = {0: GOOD, 1: GOOD}

BAD_SESSIONS = {
    "one-cycle": SessionData(0, 0, [CYCLE], [GOOD]),
    "no-cycles": SessionData(0, 0, [], [GOOD]),
    "empty-train": SessionData(0, 0, [{}, CYCLE], [GOOD]),
    "empty-test": SessionData(0, 0, [CYCLE, {}], [GOOD]),
    "short-train": SessionData(0, 0, [{0: GOOD, 1: SHORT}, CYCLE], [GOOD]),
    "short-test": SessionData(0, 0, [CYCLE, {0: SHORT}], [GOOD]),
    "short-stream": SessionData(0, 0, [CYCLE, CYCLE], [SHORT]),
    "empty-train-and-short-test": SessionData(0, 0, [{}, {0: SHORT}], [GOOD]),
    "empty-test-and-short-stream": SessionData(0, 0, [CYCLE, {}], [SHORT]),
}


class TestBadSessions:
    @pytest.mark.parametrize("name", list(BAD_SESSIONS))
    def test_prepare_session_raises_what_eager_preparation_raised(self, name):
        session, cfg = BAD_SESSIONS[name], tiny_harness()
        with pytest.raises((DataError, EmptyInputError)) as eager:
            eager_prepare_session(session, cfg)
        with pytest.raises(type(eager.value)) as lazy:
            prepare_session(session, cfg)
        assert str(lazy.value) == str(eager.value)

    def test_later_eval_recordings_are_not_read(self):
        session = SessionData(0, 0, [CYCLE, CYCLE], [GOOD, SHORT])
        prep = prepare_session(session, tiny_harness())
        assert len(prep.stream_x) == len(segment_stream(GOOD))


class TestRunExperiment:
    def test_session0_unsupervised_equals_nocal(self, tiny_dataset):
        cfg = tiny_harness(algorithms=("nocal", "dann", "adabn", "scadann"))
        results = run_experiment(tiny_dataset, cfg, master_seed=11)
        for r in results:
            for algo in ("dann", "adabn", "scadann"):
                assert r.accuracies[algo][0] == r.accuracies["nocal"][0]

    def test_deterministic_across_runs(self, tiny_dataset):
        cfg = tiny_harness()
        r1 = run_experiment(tiny_dataset, cfg, master_seed=7)
        r2 = run_experiment(tiny_dataset, cfg, master_seed=7)
        assert [r.accuracies for r in r1] == [r.accuracies for r in r2]

    def test_worker_count_does_not_change_results(self, tiny_dataset):
        serial = run_experiment(tiny_dataset, tiny_harness(workers=1), master_seed=5)
        threaded = run_experiment(tiny_dataset, tiny_harness(workers=2), master_seed=5)
        assert serial == threaded

    def test_master_seed_changes_results(self, tiny_dataset):
        cfg = tiny_harness(algorithms=("nocal",))
        r1 = run_experiment(tiny_dataset, cfg, master_seed=1)
        r2 = run_experiment(tiny_dataset, cfg, master_seed=2)
        assert [r.accuracies for r in r1] != [r.accuracies for r in r2]

    def test_cell_seed_stable(self):
        assert cell_seed(1, 2, "dann") == cell_seed(1, 2, "dann")
        assert cell_seed(1, 2, "dann") != cell_seed(1, 3, "dann")
        assert cell_seed(1, 2, "dann") != cell_seed(1, 2, "vada")


class Exits:
    """Unpickles, in a worker, by running `code` there: a way to make a worker fail."""

    def __init__(self, code):
        self.code = code

    def __reduce__(self):
        return exec, (self.code,)


class TestChildProcesses:
    """Two or more subjects run in `semgcal.worker` processes."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Fail a call that hangs in place of hanging, and leave no child behind."""
        def hung(signum, frame):
            raise TimeoutError("the study did not end within 300 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(300)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture(scope="class")
    def three_subjects(self):
        return synth_generate(tiny_synth(subjects=3, seed=13))

    def test_one_subject_runs_in_this_process(self, tiny_dataset, monkeypatch):
        def no_child(*args, **kwargs):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(subprocess, "Popen", no_child)
        [result] = run_experiment(tiny_dataset[1:], quick_harness(), master_seed=5)
        assert result == run_subject(tiny_dataset[1], quick_harness(), master_seed=5)

    def test_child_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        env = experiment._child_env()
        assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
        root = str(Path(experiment.__file__).resolve().parents[1])
        assert env["PYTHONPATH"].split(os.pathsep) == [root, "elsewhere"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"

    def test_default_workers_is_the_usable_cpu_count(self):
        assert HarnessConfig().workers == len(os.sched_getaffinity(0))
        assert BenchmarkConfig().harness.workers == len(os.sched_getaffinity(0))

    def test_workers_left_out_of_digest_and_manifest(self, tmp_path):
        base = BenchmarkConfig()
        one, two = (dataclasses.replace(base, harness=dataclasses.replace(base.harness, workers=w))
                    for w in (1, 2))
        assert config_digest(one) == config_digest(two)
        assert "workers" not in canonical_json(one)
        save_manifest(tmp_path / "one", 0, one)
        save_manifest(tmp_path / "two", 0, two)
        assert (tmp_path / "one" / "manifest.json").read_bytes() == (tmp_path / "two" / "manifest.json").read_bytes()

    def test_worker_count_leaves_every_file_byte_identical(self, tmp_path):
        base = small_benchmark_cfg()
        base.synth = dataclasses.replace(base.synth, subjects=3)
        for workers in (1, 2, 3):
            cfg = dataclasses.replace(base, harness=dataclasses.replace(quick_harness(), workers=workers))
            benchmark_report(cfg, tmp_path / f"w{workers}")
        names = ["report.json", "manifest.json", "accuracy_0.csv", "accuracy_1.csv"]
        assert sorted(p.name for p in (tmp_path / "w1").iterdir()) == sorted(names)
        for workers in (2, 3):
            for name in names:
                assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / f"w{workers}" / name,
                                   shallow=False), (workers, name)

    def test_results_equal_run_subject_with_one_blas_thread(self, three_subjects):
        cfg = quick_harness(algorithms=("nocal", "dann", "scadann"))
        children = run_experiment(three_subjects, cfg, master_seed=6)
        serial = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys\n"
             "from semgcal.experiment import run_subject\n"
             "dataset, cfg, seed = pickle.load(sys.stdin.buffer)\n"
             "sys.stdout.buffer.write(pickle.dumps([run_subject(sd, cfg, seed) for sd in dataset]))"],
            input=pickle.dumps((three_subjects, cfg, 6)), capture_output=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "PYTHONPATH": str(Path(experiment.__file__).resolve().parents[1])},
        )
        assert children == pickle.loads(serial.stdout)

    def test_worker_starts_no_tsd_helper_thread(self, tiny_dataset, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(features, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(features, "max_threads", None)
        monkeypatch.setattr(features, "ThreadPoolExecutor", no_pool)
        cfg = quick_harness()
        out = io.BytesIO()
        assert worker.main(io.BytesIO(pickle.dumps((tiny_dataset[0], cfg, 5))), out) == 0
        status, result = pickle.loads(out.getvalue())
        assert status == "ok"
        assert result == run_experiment(tiny_dataset, cfg, master_seed=5)[0]

    def test_semgcal_error_in_a_child_is_raised_again(self, tiny_dataset):
        one_cycle = dataclasses.replace(tiny_dataset[1].sessions[0],
                                        cycles=tiny_dataset[1].sessions[0].cycles[:1])
        bad = dataclasses.replace(tiny_dataset[1], sessions=[one_cycle, *tiny_dataset[1].sessions[1:]])
        with pytest.raises(DataError) as in_process:
            run_subject(bad, quick_harness(), master_seed=5)
        with pytest.raises(DataError) as child:
            run_experiment([tiny_dataset[0], bad], quick_harness(), master_seed=5)
        assert type(child.value) is type(in_process.value)
        assert str(child.value) == str(in_process.value) == "session 0 needs >= 2 cycles"

    @pytest.mark.parametrize("code, how", [
        ("import sys; sys.stderr.write('worker gave up'); sys.exit(3)", "exited with status 3"),
        ("import os, signal, sys; sys.stderr.write('worker gave up'); sys.stderr.flush(); "
         "os.kill(os.getpid(), signal.SIGKILL)", "died from signal 9"),
        ("import os, sys; sys.stderr.write('worker gave up'); sys.stderr.flush(); "
         "os.close(1); sys.exit(0)", "exited with status 0 but sent no readable result"),
    ], ids=["exit-status", "killed", "no-result"])
    def test_a_dead_child_ends_in_semgcal_error(self, tiny_dataset, code, how):
        dying = dataclasses.replace(tiny_dataset[1], sessions=Exits(code))
        with pytest.raises(SemgCalError) as exc:
            run_experiment([tiny_dataset[0], dying], quick_harness(workers=2), master_seed=5)
        assert type(exc.value) is SemgCalError
        message = str(exc.value)
        assert message.startswith(f"subject {tiny_dataset[1].subject}: worker process {how}")
        assert message.endswith("worker gave up")

    def test_a_child_dead_before_reading_its_request(self, tiny_dataset, monkeypatch):
        # The request is written into a pipe that has no reader left, so the
        # write fails; the study still ends in the child's own failure.
        real_popen = subprocess.Popen

        def exits_at_once(cmd, **kwargs):
            proc = real_popen([sys.executable, "-c",
                               "import sys; sys.stderr.write('worker gave up'); sys.exit(3)"], **kwargs)
            proc.wait()
            return proc

        monkeypatch.setattr(subprocess, "Popen", exits_at_once)
        cfg = quick_harness(workers=1)
        assert len(pickle.dumps((tiny_dataset[0], cfg, 5))) > 1 << 16  # more than a pipe holds
        with pytest.raises(SemgCalError) as exc:
            run_experiment(tiny_dataset, cfg, master_seed=5)
        assert type(exc.value) is SemgCalError
        message = str(exc.value)
        assert message.startswith(f"subject {tiny_dataset[0].subject}: worker process exited with status 3")
        assert message.endswith("worker gave up")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failure_stops_the_other_children(self, tiny_dataset, workers):
        # With 1 worker the second child does not start (or is killed if it
        # just did); with 2 it is killed, in place of sleeping for 10 minutes.
        dying = dataclasses.replace(tiny_dataset[1], sessions=Exits("import sys; sys.exit(5)"))
        slow = dataclasses.replace(tiny_dataset[0], sessions=Exits("import time; time.sleep(600)"))
        start = time.perf_counter()
        with pytest.raises(SemgCalError, match="exited with status 5"):
            run_experiment([dying, slow], quick_harness(workers=workers), master_seed=5)
        assert time.perf_counter() - start < 60


@pytest.fixture(scope="module")
def adapt_setup(tiny_dataset):
    cfg = tiny_harness(adapt_train=default_train_config(
        "tsd_dnn", learning_rate=8e-4, max_epochs=2, batch_size=128,
        early_stop_patience=3, anneal_patience=3))
    src, tgt = (prepare_session(s, cfg) for s in tiny_dataset[0].sessions)
    return cfg, fit_new(cfg, src.train_x, src.train_y, seed=1), src, tgt


class TestAdaptModel:
    @pytest.mark.parametrize("algo", UNSUPERVISED)
    def test_input_model_unchanged(self, adapt_setup, algo):
        cfg, model, src, tgt = adapt_setup
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        adapted, res = adapt_model(algo, model, src.train_x, src.train_y, [tgt.stream_x], cfg, seed=2)
        assert adapted is not model
        assert (res is not None) == (algo == "scadann")
        after = model.state_arrays()
        assert sorted(after) == sorted(before)
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr, err_msg=name)

    @pytest.mark.parametrize("streams", [[], [None], [np.zeros((0, 385), np.float32)]],
                             ids=["none", "missing", "empty"])
    def test_missing_stream_is_data_error(self, adapt_setup, streams):
        cfg, model, src, _ = adapt_setup
        with pytest.raises(DataError):
            adapt_model("dann", model, src.train_x, src.train_y, streams, cfg, seed=2)

    def test_supervised_algorithm_rejected(self, adapt_setup):
        cfg, model, src, tgt = adapt_setup
        with pytest.raises(ParameterError):
            adapt_model("recal", model, src.train_x, src.train_y, [tgt.stream_x], cfg, seed=2)


class TestFromOverrides:
    def test_nested_values_applied_and_lists_become_tuples(self):
        cfg = from_overrides(BenchmarkConfig(), {
            "synth": {"subjects": 2},
            "harness": {"algorithms": ["nocal", "mv"], "train": {"max_epochs": 3}},
        })
        assert cfg.synth.subjects == 2
        assert cfg.harness.algorithms == ("nocal", "mv")
        assert cfg.harness.train.max_epochs == 3
        assert cfg.harness.train.learning_rate == BenchmarkConfig().harness.train.learning_rate

    def test_does_not_modify_its_input(self):
        base = BenchmarkConfig()
        from_overrides(base, {"harness": {"gestures": 7, "heuristic": None}})
        assert base.harness.gestures == 11
        assert base.harness.heuristic.threshold_stable == 0.65

    def test_none_rederives_gesture_dependent_threshold(self):
        cfg = from_overrides(BenchmarkConfig(), {"harness": {"gestures": 7, "heuristic": None}})
        assert cfg.harness.heuristic.threshold_stable == 0.85

    def test_gestures_override_rederives_threshold(self):
        cfg = from_overrides(BenchmarkConfig(), {"harness": {"gestures": 7}})
        assert cfg.harness.heuristic.threshold_stable == 0.85
        back = from_overrides(cfg, {"harness": {"gestures": 11}})
        assert back.harness.heuristic.threshold_stable == 0.65

    def test_explicit_heuristic_survives_gestures_override(self):
        base = HarnessConfig(heuristic=HeuristicConfig(threshold_stable=0.7))
        cfg = from_overrides(base, {"gestures": 7})
        assert cfg.heuristic.threshold_stable == 0.7
        cfg = from_overrides(HarnessConfig(), {"gestures": 7, "heuristic": {"threshold_stable": 0.6}})
        assert cfg.heuristic.threshold_stable == 0.6

    def test_train_override_reaches_derived_adapt_train(self):
        cfg = from_overrides(HarnessConfig(), {"train": {"max_epochs": 3}})
        assert cfg.train.max_epochs == 3
        assert cfg.adapt_train == cfg.train

    def test_train_override_leaves_explicit_adapt_train(self):
        base = BenchmarkConfig()
        cfg = from_overrides(base, {"harness": {"train": {"max_epochs": 3}}})
        assert cfg.harness.train.max_epochs == 3
        assert cfg.harness.adapt_train == base.harness.adapt_train

    def test_input_kind_override_sets_its_network_rate(self):
        base = BenchmarkConfig()
        cfg = from_overrides(base, {"harness": {"input_kind": "spectrogram"}})
        assert cfg.harness.train == dataclasses.replace(base.harness.train, learning_rate=CONVNET_LR)
        assert cfg.harness.adapt_train == base.harness.adapt_train
        back = from_overrides(cfg, {"harness": {"input_kind": "tsd"}})
        assert back == base

    @pytest.mark.parametrize("kind", ["tsd", "spectrogram"])
    def test_constructor_and_override_give_one_schedule(self, kind):
        direct = HarnessConfig(input_kind=kind)
        assert direct.train == default_train_config(experiment.INPUT_KINDS[kind])
        assert direct.adapt_train == direct.train
        assert from_overrides(HarnessConfig(), {"input_kind": kind}) == direct
        other = "tsd" if kind == "spectrogram" else "spectrogram"
        assert from_overrides(HarnessConfig(input_kind=other), {"input_kind": kind}) == direct

    def test_explicit_rate_survives_input_kind_override(self):
        cfg = from_overrides(BenchmarkConfig(), {
            "harness": {"input_kind": "spectrogram", "train": {"learning_rate": 0.01}}})
        assert cfg.harness.train.learning_rate == 0.01

    @pytest.mark.parametrize("overrides", [{}, {"synth": {}, "harness": {}}], ids=["none", "empty"])
    def test_no_overrides_keep_config_digest(self, overrides):
        base = BenchmarkConfig(seed=4)
        cfg = from_overrides(base, overrides)
        assert cfg == base
        assert canonical_json(cfg) == canonical_json(base)
        assert config_digest(cfg) == config_digest(base)
        assert "_derived" not in canonical_json(cfg)

    @pytest.mark.parametrize("overrides", [
        {"synth": {"subjectz": 1}},
        {"harness": {"adapt": {"lambda_q": 1.0}}},
        {"harness": {"input_kind": "bogus"}},
        {"harness": {"gestures": 9}},
        {"harness": {"algorithms": ["nocal", "magic"]}},
        {"harness": {"train": {"batch_size": 0}}},
        {"harness": {"workers": 0}},
        {"harness": {"workers": "2"}},
        {"harness": {"workers": 1.5}},
        {"harness": {"workers": True}},
        {"harness": 3},
        {"synth": None},
    ])
    def test_invalid_overrides_raise_parameter_error(self, overrides):
        with pytest.raises(ParameterError):
            from_overrides(BenchmarkConfig(), overrides)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.25), np.float64(1e-300)])
    def test_finite_numbers_in_range_pass(self, value):
        check_real("x", value, 0.0, 1.0)

    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan"), float("inf"), 10**400, -0.1, 1.5])
    def test_others_raise(self, value):
        with pytest.raises(ParameterError, match=r"x must be a finite number in \[0.0, 1.0\]"):
            check_real("x", value, 0.0, 1.0)

    def test_strict_excludes_the_bounds(self):
        for value in (0.0, 1.0):
            with pytest.raises(ParameterError, match=r"in \(0.0, 1.0\)"):
                check_real("x", value, 0.0, 1.0, strict=True)
        check_real("x", 0.5, 0.0, 1.0, strict=True)
        check_real("x", -1e300)  # no bound


class TestCalibrationSettings:
    """NoCal, Recal, an unsupervised algorithm and RecalSCADANN in one run."""

    @pytest.fixture(scope="class")
    def accuracies(self, tiny_dataset):
        cfg = tiny_harness(algorithms=("nocal", "recal", "adabn", "recal_scadann"))
        results = run_experiment(tiny_dataset, cfg, master_seed=5)
        return {a: np.array([r.accuracies[a] for r in results]) for a in cfg.algorithms}

    def test_every_setting_scores_each_session(self, accuracies, tiny_dataset):
        for algo, acc in accuracies.items():
            assert acc.shape == (len(tiny_dataset), 2), algo
            assert np.all((acc >= 0) & (acc <= 1)), algo

    def test_recal_setting_trains_per_session(self, accuracies):
        nocal, recal = accuracies["nocal"], accuracies["recal"]
        # session 0 identical by construction; session 1 retrained with labels
        np.testing.assert_array_equal(nocal[:, 0], recal[:, 0])
        assert recal[:, 1].mean() >= nocal[:, 1].mean() - 0.02

    def test_recal_scadann_setting_runs(self, accuracies):
        assert np.all(np.isfinite(accuracies["recal_scadann"]))


def small_benchmark_cfg(seed=9):
    cfg = BenchmarkConfig(seed=seed)
    cfg.synth = dataclasses.replace(
        cfg.synth, subjects=2, sessions=2, gestures=7,
        cycle_block_seconds=0.8, eval_blocks=8, eval_block_seconds=1.2,
    )
    cfg.harness = tiny_harness(algorithms=("nocal", "adabn"))
    return cfg


class TestRunBenchmark:
    @pytest.mark.parametrize("synth_gestures, harness_gestures", [(5, 11), (7, 11), (11, 7)])
    def test_gesture_mismatch_raises_before_synthesis(self, monkeypatch, synth_gestures,
                                                      harness_gestures):
        def no_run(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(experiment, "synth_generate", no_run)
        cfg = from_overrides(BenchmarkConfig(), {"synth": {"gestures": synth_gestures},
                                                 "harness": {"gestures": harness_gestures}})
        with pytest.raises(ParameterError, match="synth.gestures"):
            run_benchmark(cfg)


class TestBenchmarkReport:
    def test_report_structure_and_completeness(self, tmp_path):
        cfg = small_benchmark_cfg()
        report = benchmark_report(cfg, tmp_path / "run")
        assert report["subjects"] == 2
        for s in ("0", "1"):
            matrix = np.asarray(report["accuracy"][s]["matrix"])
            assert matrix.shape == (2, 2)
            assert not np.any(np.isnan(matrix))
        assert "1" in report["stats"]
        assert "friedman" in report["stats"]["1"]
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "accuracy_0.csv").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_rerun_with_same_manifest_byte_identical(self, tmp_path):
        cfg = small_benchmark_cfg()
        benchmark_report(cfg, tmp_path / "a")
        benchmark_report(small_benchmark_cfg(), tmp_path / "b")
        for name in ("report.json", "manifest.json", "accuracy_0.csv", "accuracy_1.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    def test_csv_table_layout(self, tmp_path):
        cfg = small_benchmark_cfg()
        report = benchmark_report(cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "accuracy_1.csv").read_text().strip().splitlines()
        assert lines[0] == "subject,nocal,adabn"
        assert len(lines) == 1 + cfg.synth.subjects

"""Dataset persistence, the synthetic generator, reports and the CLI."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgcal import ShapeError, SynthConfig, synth_generate
import semgcal.cli as cli
import semgcal.experiment as experiment
from semgcal.cli import main
from semgcal.dataio import (
    _read_int_csv,
    canonical_json,
    config_digest,
    load_report,
    load_session,
    load_subject,
    save_dataset,
    save_manifest,
    save_report,
)
from semgcal.errors import DataError, ParameterError, ParseError, SemgCalError
from semgcal.experiment import BenchmarkConfig
from semgcal.nn import load_network
from semgcal.signal import segment_stream
from semgcal.train import default_train_config


@pytest.fixture(scope="module")
def trained_cli_model(tmp_path_factory):
    """A two-session 7-gesture dataset and a model trained on session 0 by the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data_dir, model_dir = root / "data", root / "models"
    assert main([
        "synth", "--seed", "1", "--out", str(data_dir),
        "--subjects", "1", "--sessions", "2", "--gestures", "7",
        "--block-seconds", "0.8", "--eval-blocks", "6", "--eval-block-seconds", "0.8",
    ]) == 0
    assert main([
        "train", "--data", str(data_dir), "--subject", "0", "--session", "0",
        "--gestures", "7", "--seed", "3", "--out", str(model_dir),
    ]) == 0
    return data_dir, model_dir / "model_subject0_session0.bin"


def small_cfg(**kw):
    kw.setdefault("subjects", 1)
    kw.setdefault("sessions", 2)
    kw.setdefault("gestures", 3)
    kw.setdefault("cycles", 2)
    kw.setdefault("cycle_block_seconds", 0.6)
    kw.setdefault("eval_recordings", 1)
    kw.setdefault("eval_blocks", 4)
    kw.setdefault("eval_block_seconds", 0.6)
    kw.setdefault("seed", 5)
    return SynthConfig(**kw)


class TestSynthGenerate:
    def test_same_seed_byte_identical(self):
        a = synth_generate(small_cfg())
        b = synth_generate(small_cfg())
        for sa, sb in zip(a, b):
            for ka, kb in zip(sa.sessions, sb.sessions):
                for ca, cb in zip(ka.cycles, kb.cycles):
                    for g in ca:
                        assert ca[g].samples.tobytes() == cb[g].samples.tobytes()
                for ea, eb in zip(ka.evals, kb.evals):
                    assert ea.samples.tobytes() == eb.samples.tobytes()
                    assert ea.labels.tobytes() == eb.labels.tobytes()

    def test_zero_shift_sessions_statistically_identical(self):
        data = synth_generate(small_cfg(shift_scale=0.0, sessions=3))[0]
        stds = []
        for sess in data.sessions:
            x = np.concatenate([sess.cycles[0][g].samples.astype(float) for g in sess.cycles[0]], axis=1)
            stds.append(x.std(axis=1))
        # per-channel spread stays put across sessions when no drift is applied
        for s in stds[1:]:
            np.testing.assert_allclose(s, stds[0], rtol=0.2)

    def test_shift_changes_channel_profile(self):
        data = synth_generate(small_cfg(shift_scale=0.8, sessions=3))[0]
        prof = []
        for sess in data.sessions:
            x = sess.cycles[0][0].samples.astype(float)
            prof.append(x.std(axis=1))
        assert not np.allclose(prof[0], prof[2], rtol=0.05)

    def test_eval_labels_cover_blocks(self):
        data = synth_generate(small_cfg())[0]
        ev = data.sessions[0].evals[0]
        assert len(np.unique(ev.labels)) > 1
        assert ev.samples.shape[1] == len(ev.labels)

    def test_preprocessing_accepts_synth_output(self):
        data = synth_generate(small_cfg())[0]
        for sess in data.sessions:
            for rec in [sess.cycles[0][g] for g in sess.cycles[0]] + list(sess.evals):
                segments = segment_stream(rec)
                assert len(segments) >= 1

    @pytest.mark.parametrize("kw", [
        {"cycle_block_seconds": 0.0},
        {"cycle_block_seconds": 0.0004},  # rounds to 0 samples
        {"eval_block_seconds": 0.0, "transition_ms": 0},
        {"eval_block_seconds": 0.149},  # shorter than the 150 ms transition
        {"transition_ms": -1},
        {"cycle_block_seconds": float("nan")},
        {"eval_block_seconds": float("inf")},
    ])
    def test_block_shorter_than_a_sample_or_its_transition_rejected(self, kw):
        with pytest.raises(ParameterError):
            small_cfg(**kw)

    def test_eval_block_as_long_as_its_transition_generates(self):
        rec = synth_generate(small_cfg(eval_block_seconds=0.15, eval_blocks=3))[0].sessions[0].evals[0]
        assert rec.samples.shape == (10, 450)

    @pytest.mark.parametrize("flags", [["--block-seconds", "0"], ["--eval-block-seconds", "0.01"]])
    def test_cli_synth_short_block_exits_1(self, tmp_path, capsys, flags):
        argv = ["synth", "--seed", "1", "--out", str(tmp_path / "data"), "--subjects", "1",
                "--sessions", "1", "--gestures", "7", "--eval-blocks", "2"]
        assert main(argv + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "data").exists()


class TestDatasetRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        dataset = synth_generate(small_cfg())
        save_dataset(dataset, tmp_path)
        loaded = load_session(tmp_path, 0, 1)
        orig = dataset[0].sessions[1]
        assert len(loaded.cycles) == len(orig.cycles)
        for g, rec in orig.cycles[0].items():
            np.testing.assert_array_equal(loaded.cycles[0][g].samples, rec.samples)
        np.testing.assert_array_equal(loaded.evals[0].samples, orig.evals[0].samples)
        np.testing.assert_array_equal(loaded.evals[0].labels, orig.evals[0].labels)

    def test_load_subject_lists_sessions(self, tmp_path):
        save_dataset(synth_generate(small_cfg()), tmp_path)
        sub = load_subject(tmp_path, 0)
        assert [s.session for s in sub.sessions] == [0, 1]

    def test_wrong_column_count_names_file(self, tmp_path):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        bad = d / "train_cycle0_gesture0.csv"
        bad.write_text("1,2,3,4,5,6,7,8,9\n" * 200)
        with pytest.raises(ShapeError) as err:
            load_session(tmp_path, 0, 0)
        assert "train_cycle0_gesture0.csv" in str(err.value)

    def test_non_integer_cell_is_parse_error_with_location(self, tmp_path):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        bad = d / "train_cycle0_gesture0.csv"
        bad.write_text("1,2,3,4,5,6,7,8,9,x\n")
        with pytest.raises(SemgCalError) as err:
            load_session(tmp_path, 0, 0)
        assert ":1" in str(err.value)

    @pytest.mark.parametrize("value", [40000, -40000, 2**70], ids=["above", "below", "past-int64"])
    def test_sample_outside_int16_is_parse_error_with_location(self, tmp_path, value):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        (d / "train_cycle0_gesture0.csv").write_text("1,2,3,4,5,6,7,8,9,10\n\n" + f"1,2,3,{value},5,6,7,8,9,10\n")
        with pytest.raises(ParseError) as err:
            load_session(tmp_path, 0, 0)
        assert f"train_cycle0_gesture0.csv:3: {value} outside" in str(err.value)

    def test_int16_extremes_load_exactly(self, tmp_path):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        (d / "train_cycle0_gesture0.csv").write_text("32767,-32768,-32767,0,0,0,0,0,0,0\n" * 3)
        (d / "eval_0.csv").write_text("-32768,32767,0,0,0,0,0,0,0,0,2\n" * 3)
        loaded = load_session(tmp_path, 0, 0)
        assert loaded.cycles[0][0].samples[:3, 0].tolist() == [32767, -32768, -32767]
        assert loaded.evals[0].samples[:2, 0].tolist() == [-32768, 32767]
        assert loaded.evals[0].labels.tolist() == [2, 2, 2]

    def test_load_subject_ignores_stray_session_entries(self, tmp_path):
        save_dataset(synth_generate(small_cfg()), tmp_path)
        (tmp_path / "subject_0" / "session_x").mkdir()
        (tmp_path / "subject_0" / "session_1.bak").mkdir()
        sub = load_subject(tmp_path, 0)
        assert [s.session for s in sub.sessions] == [0, 1]

    def test_missing_session_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_session(tmp_path, 3, 0)

    def test_eleven_gesture_ids_load(self, tmp_path):
        save_dataset(synth_generate(small_cfg(gestures=11, cycle_block_seconds=0.3)), tmp_path)
        loaded = load_session(tmp_path, 0, 0)
        assert sorted(loaded.cycles[0]) == list(range(11))


class TestReports:
    def test_report_round_trip_and_schema(self, tmp_path):
        report = {"seed": 1, "accuracy": {"0": {"algorithms": ["a"], "matrix": [[0.5]]}}}
        path = save_report(report, tmp_path)
        loaded = load_report(path)
        assert loaded["schema_version"] == 1
        matrix = loaded["accuracy"]["0"]["matrix"]
        assert matrix.dtype == np.float64 and matrix.tolist() == [[0.5]]
        assert (tmp_path / "accuracy_0.csv").exists()

    def test_manifest_contains_seed_and_digest(self, tmp_path):
        cfg = small_cfg()
        save_manifest(tmp_path, 42, cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["config_digest"] == config_digest(cfg)

    def test_canonical_json_stable(self):
        cfg = small_cfg()
        assert canonical_json(cfg) == canonical_json(small_cfg())
        assert config_digest(cfg) != config_digest(small_cfg(seed=6))


class TestCli:
    def test_synth_then_train_then_adapt_smoke(self, tmp_path):
        data_dir = tmp_path / "data"
        rc = main([
            "synth", "--seed", "1", "--out", str(data_dir),
            "--subjects", "1", "--sessions", "2", "--gestures", "7",
            "--block-seconds", "0.8", "--eval-blocks", "6", "--eval-block-seconds", "0.8",
        ])
        assert rc == 0
        assert (data_dir / "subject_0" / "session_1" / "eval_0.csv").exists()

        model_dir = tmp_path / "models"
        rc = main([
            "train", "--data", str(data_dir), "--subject", "0", "--session", "0",
            "--gestures", "7", "--input-kind", "tsd", "--seed", "3", "--out", str(model_dir),
        ])
        assert rc == 0
        model_path = model_dir / "model_subject0_session0.bin"
        assert model_path.exists()

        rc = main([
            "adapt", "adabn", "--data", str(data_dir), "--model", str(model_path),
            "--subject", "0", "--session", "1", "--gestures", "7",
            "--seed", "3", "--out", str(model_dir),
        ])
        assert rc == 0
        assert (model_dir / "model_adabn_subject0_session1.bin").exists()

    def test_preprocess_writes_npz(self, tmp_path):
        data_dir = tmp_path / "data"
        main([
            "synth", "--seed", "2", "--out", str(data_dir), "--subjects", "1",
            "--sessions", "1", "--gestures", "7", "--block-seconds", "0.6",
            "--eval-blocks", "4", "--eval-block-seconds", "0.6",
        ])
        out = tmp_path / "prep"
        rc = main([
            "preprocess", "--data", str(data_dir), "--subject", "0", "--session", "0",
            "--input-kind", "tsd", "--gestures", "7", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        npz = np.load(out / "subject0_session0_tsd.npz")
        assert npz["train_x"].shape[1] == 385

    def test_adapt_scadann_without_eval_data_fails_cleanly(self, tmp_path):
        data_dir = tmp_path / "data"
        main([
            "synth", "--seed", "4", "--out", str(data_dir), "--subjects", "1",
            "--sessions", "2", "--gestures", "7", "--block-seconds", "0.8",
            "--eval-blocks", "4", "--eval-block-seconds", "0.8",
        ])
        # remove the unlabeled evaluation streams from the target session
        for f in (data_dir / "subject_0" / "session_1").glob("eval_*.csv"):
            f.unlink()
        model_dir = tmp_path / "models"
        main([
            "train", "--data", str(data_dir), "--subject", "0", "--session", "0",
            "--gestures", "7", "--input-kind", "tsd", "--seed", "3", "--out", str(model_dir),
        ])
        rc = main([
            "adapt", "scadann", "--data", str(data_dir),
            "--model", str(model_dir / "model_subject0_session0.bin"),
            "--subject", "0", "--session", "1", "--gestures", "7",
            "--seed", "3", "--out", str(model_dir),
        ])
        assert rc == 1

    def test_evaluate_with_config_overrides_writes_report(self, tmp_path):
        cfg_path = tmp_path / "overrides.json"
        cfg_path.write_text(json.dumps({
            "synth": {"subjects": 2, "sessions": 2, "cycle_block_seconds": 0.8,
                      "eval_blocks": 8, "eval_block_seconds": 1.2},
            "harness": {"algorithms": ["nocal", "adabn"],
                        "train": {"max_epochs": 10, "batch_size": 128},
                        "adapt_train": {"max_epochs": 4, "batch_size": 128}},
        }))
        out = tmp_path / "report"
        rc = main(["evaluate", "--seed", "5", "--config", str(cfg_path),
                   "--gestures", "7", "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "accuracy_1.csv").exists()
        rc = main(["report", "--report", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("algo", ["dann", "vada", "dirtt", "adabn", "mv", "scadann"])
    def test_adapt_each_algorithm(self, trained_cli_model, tmp_path, algo):
        data_dir, model_path = trained_cli_model
        before = model_path.read_bytes()
        rc = main([
            "adapt", algo, "--data", str(data_dir), "--model", str(model_path),
            "--subject", "0", "--session", "1", "--gestures", "7",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        adapted = load_network(tmp_path / f"model_{algo}_subject0_session1.bin")
        assert adapted.num_gestures == 7
        assert model_path.read_bytes() == before

    @pytest.mark.parametrize("command, kind", [
        ("train", "tsd"), ("train", "spectrogram"), ("adapt", "tsd"),
    ])
    def test_train_and_adapt_run_the_evaluate_schedule(self, trained_cli_model, tmp_path,
                                                       monkeypatch, command, kind):
        data_dir, model_path = trained_cli_model
        seen = {}

        def stop(*args):
            seen["cfg"] = args[0] if command == "train" else args[5]
            raise SemgCalError("stopped before training")

        monkeypatch.setattr(cli, "fit_new" if command == "train" else "adapt_model", stop)
        argv = ["--data", str(data_dir), "--subject", "0", "--session", "1", "--gestures", "7",
                "--input-kind", kind, "--seed", "3", "--out", str(tmp_path)]
        argv = ["train", *argv] if command == "train" else ["adapt", "vada", "--model", str(model_path), *argv]
        assert main(argv) == 1
        cfg, bench = seen["cfg"], BenchmarkConfig().harness
        kind_lr = default_train_config("tsd_dnn" if kind == "tsd" else "spectrogram_convnet").learning_rate
        assert (cfg.input_kind, cfg.gestures) == (kind, 7)
        assert cfg.heuristic.threshold_stable == 0.85
        assert cfg.train == dataclasses.replace(bench.train, learning_rate=kind_lr)
        assert cfg.adapt_train == bench.adapt_train
        assert cfg.adapt == bench.adapt

    def test_adapt_rejects_model_with_other_gesture_count(self, trained_cli_model, tmp_path):
        data_dir, model_path = trained_cli_model
        rc = main([
            "adapt", "scadann", "--data", str(data_dir), "--model", str(model_path),
            "--subject", "0", "--session", "1", "--gestures", "11",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert not list(tmp_path.glob("model_*.bin"))

    @pytest.mark.parametrize("content", [
        json.dumps({"synth": {"subjectz": 2}}),
        json.dumps({"harness": {"train": {"max_epochz": 3}}}),
        json.dumps({"harness": {"input_kind": "bogus"}}),
        json.dumps({"harness": {"heuristic": {"threshold_stable": 1.5}}}),
        json.dumps({"harness": None}),
        json.dumps(["synth"]),
        '{"synth": {"subjects": 2',
        None,
    ], ids=["unknown-synth-key", "unknown-train-key", "bogus-input-kind", "invalid-threshold",
            "null-section", "not-an-object", "malformed-json", "missing-file"])
    def test_evaluate_bad_override_file_exits_1(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "overrides.json"
        if content is not None:
            cfg_path.write_text(content)
        rc = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "report")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("workers", ["2", 0], ids=["string", "zero"])
    def test_evaluate_bad_workers_exits_1_before_anything_runs(self, tmp_path, capsys,
                                                               monkeypatch, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(experiment, "synth_generate", no_run)
        cfg_path = tmp_path / "overrides.json"
        cfg_path.write_text(json.dumps({"harness": {"workers": workers}}))
        rc = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "report")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: workers must be an integer >= 1, got {workers!r}\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("gestures", [5, 7])
    def test_evaluate_synth_gestures_unlike_harness_exits_1_before_anything_runs(
            self, tmp_path, capsys, monkeypatch, gestures):
        def no_run(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(experiment, "synth_generate", no_run)
        cfg_path = tmp_path / "overrides.json"
        cfg_path.write_text(json.dumps({"synth": {"gestures": gestures}}))
        rc = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "report")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: synth.gestures {gestures} != harness.gestures 11")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("kind", ["spectrogram", "tsd"])
    def test_evaluate_input_kind_from_file_equals_the_flag(self, tmp_path, monkeypatch, kind):
        seen = []

        def stop(cfg, out_dir):
            seen.append(cfg)
            raise SemgCalError("stopped before the study")

        monkeypatch.setattr(cli, "benchmark_report", stop)
        cfg_path = tmp_path / "overrides.json"
        cfg_path.write_text(json.dumps({"harness": {"input_kind": kind}}))
        out = ["--out", str(tmp_path / "report")]
        assert main(["evaluate", "--config", str(cfg_path), *out]) == 1
        assert main(["evaluate", "--input-kind", kind, *out]) == 1
        from_file, from_flag = seen
        assert from_file == from_flag
        network = "tsd_dnn" if kind == "tsd" else "spectrogram_convnet"
        assert from_file.harness.train.learning_rate == default_train_config(network).learning_rate

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    def test_report_on_bad_path_exits_1(self, tmp_path, content):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", "--report", str(path)]) == 1

    @pytest.mark.parametrize("table", [
        {"matrix": [[0.5, 0.6]]},
        {"algorithms": ["nocal", "dann"], "matrix": 0.5},
        {"algorithms": ["nocal", "dann"], "matrix": [0.5, 0.6]},
        {"algorithms": ["nocal", "dann"], "matrix": [[0.5]]},
        {"algorithms": ["nocal", "dann"], "matrix": [[0.5, "x"]]},
        {"algorithms": ["nocal", "dann"], "matrix": [["0.5", 0.6]]},
        {"algorithms": ["nocal", "dann"], "matrix": [[None, 0.6]]},
        {"algorithms": ["nocal", "dann"], "matrix": [[0.5, 0.6], [0.4]]},
        {"algorithms": ["nocal", "dann"], "matrix": []},
        {"algorithms": ["nocal", "dann"], "matrix": [[10 ** 400, 0.6]]},
        "not a table",
    ], ids=["no-algorithms", "matrix-0d", "matrix-1d", "column-count", "non-numeric", "string-number",
            "null-cell", "ragged", "no-rows", "overflow", "not-an-object"])
    def test_report_with_malformed_table_exits_1(self, tmp_path, capsys, table):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema_version": 1, "accuracy": {"1": table}}))
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("stats", [
        {"1": {"holm": {}, "cohens_dz": {}}},
        {"1": {"friedman": {"avg_ranks": {"dann": "high"}}, "holm": {}, "cohens_dz": {}}},
        {"1": {"friedman": {"avg_ranks": {}}, "holm": {"dann": {"reject": True}}, "cohens_dz": {}}},
        [],
    ], ids=["no-friedman", "non-numeric-rank", "holm-without-p", "not-an-object"])
    def test_report_with_malformed_stats_exits_1(self, tmp_path, capsys, stats):
        path = tmp_path / "report.json"
        table = {"algorithms": ["nocal", "dann"], "matrix": [[0.5, 0.6], [0.4, 0.7]]}
        path.write_text(json.dumps({"schema_version": 1, "accuracy": {"1": table}, "stats": stats}))
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus", "1", "--out", "x"])
        assert exc.value.code == 2


def _reference_read_int_csv(path, columns):
    """The line parser `_read_int_csv` replaced, kept as the oracle of its
    accepted set, its values and its error messages."""
    int16, int64 = np.iinfo(np.int16), np.iinfo(np.int64)
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != columns:
                raise ShapeError(f"{path}: line {lineno} has {len(parts)} columns, expected {columns}")
            try:
                rows.append([int(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty recording")
    try:
        data = np.asarray(rows, dtype=np.int64)
        samples = data[:, :10]
        in_range = samples.min() >= int16.min and samples.max() <= int16.max
    except OverflowError:
        in_range = False
    if in_range:
        return data
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            for k, part in enumerate(line.split(",") if line.strip() else ()):
                v = int(part)
                limits = int16 if k < 10 else int64
                if not limits.min <= v <= limits.max:
                    raise ParseError(f"{path}:{lineno}: {v} outside [{limits.min}, {limits.max}]")
    raise ParseError(f"{path}: a value outside its column's range")


def _outcome(read, path, columns):
    """The array `read` returns, or the type and message of what it raises."""
    try:
        return read(path, columns)
    except Exception as exc:  # the oracle's raw errors are compared too
        return type(exc), str(exc)


def _assert_same_outcome(path, columns):
    want = _outcome(_reference_read_int_csv, path, columns)
    got = _outcome(_read_int_csv, path, columns)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


def _row(first, columns=10, last=None):
    """One line: `first` in column 0, zeros after it, `last` in the final column."""
    cells = [str(first)] + ["0"] * (columns - 1)
    if last is not None:
        cells[-1] = str(last)
    return ",".join(cells)


_ROW = _row(7)
_LABELLED = _row(7, 11, last=3)

# (text, columns): each case of the accepted and refused set.
_READER_CASES = {
    "blank-lines": ("\n" + _ROW + "\n\n\n" + _ROW + "\n\n", 10),
    "whitespace-only-lines": (_ROW + "\n  \t \n" + _ROW + "\n \n", 10),
    "crlf": (_ROW + "\r\n" + _ROW + "\r\n", 10),
    "lone-cr": (_ROW + "\r" + _row(8) + "\r", 10),
    "form-feed-between-rows": (_ROW + "\x0c" + _ROW + "\n", 10),
    "unicode-line-separator": (_ROW + "\u2028" + _ROW + "\n", 10),
    "plus-sign": (_row("+5") + "\n", 10),
    "spaced-cell": (_row(" 5 ") + "\n" + _row("\t-5\t") + "\n", 10),
    "underscore": (_row("1_000") + "\n", 10),
    "decimal-point": (_row("1.0") + "\n", 10),
    "exponent": (_row("1e3") + "\n", 10),
    "hash": (_row("2#x") + "\n", 10),
    "bare-sign": (_ROW + "\n" + _row("-") + "\n", 10),
    "double-sign": (_ROW + "\n" + _row("+-5") + "\n", 10),
    "inner-space": (_ROW + "\n" + _row("5 5") + "\n", 10),
    "trailing-comma": (_ROW + ",\n", 10),
    "trailing-comma-in-count": (_ROW[:-2] + ",\n", 10),
    "ragged-rows": (_ROW + "\n" + _ROW + "\n" + _ROW[:-2] + "\n", 10),
    "every-row-short": ((_ROW[:-2] + "\n") * 3, 10),
    "empty-file": ("", 10),
    "whitespace-only-file": (" \n\t\r\n\n", 10),
    "single-row": (_ROW + "\n", 10),
    "single-row-no-newline": (_ROW, 10),
    "int16-extremes": (_row(32767) + "\n" + _row(-32768) + "\n", 10),
    "int16-above": (_ROW + "\n" + _row(32768) + "\n", 10),
    "int16-below": (_ROW + "\n\n" + _row(-32769) + "\n", 10),
    "int64-label-extremes": (_row(1, 11, 2**63 - 1) + "\n" + _row(1, 11, -2**63) + "\n", 11),
    "int64-label-above": (_LABELLED + "\n" + _row(1, 11, 2**63) + "\n", 11),
    "int64-label-below": (_LABELLED + "\n" + _row(1, 11, -2**63 - 1) + "\n", 11),
    "sample-2**70": (_ROW + "\n" + _row(2**70) + "\n", 10),
    "label-2**70": (_LABELLED + "\n" + _row(1, 11, 2**70) + "\n", 11),
    "labelled-rows": ((_LABELLED + "\n") * 4, 11),
}


class TestCsvReaderParity:
    """`_read_int_csv` returns what the line parser it replaced returns, or
    raises the same error type with the same message."""

    @pytest.mark.parametrize("case", list(_READER_CASES))
    def test_same_outcome_as_line_parser(self, tmp_path, case):
        text, columns = _READER_CASES[case]
        path = tmp_path / "rec.csv"
        path.write_bytes(text.encode())
        _assert_same_outcome(path, columns)

    @given(st.lists(st.lists(st.sampled_from(["0", "7", "-3", "+5", " 9", "32767", "-32768", "32768",
                                                "1_0", "1.0", "", "-", "x"]),
                             min_size=1, max_size=4),
                    min_size=0, max_size=5),
           st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"]))
    @settings(max_examples=200, deadline=None)
    def test_random_small_files_match_line_parser(self, tmp_path_factory, lines, newline):
        path = tmp_path_factory.mktemp("fuzz") / "rec.csv"
        path.write_bytes(newline.join(",".join(cells) for cells in lines).encode())
        _assert_same_outcome(path, 2)


class TestFileBoundary:
    def _session_dir(self, tmp_path):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        (d / "train_cycle0_gesture0.csv").write_text((_ROW + "\n") * 3)
        return d

    def _preprocess(self, tmp_path):
        return main(["preprocess", "--data", str(tmp_path), "--subject", "0", "--session", "0",
                     "--gestures", "7", "--out", str(tmp_path / "prep")])

    def test_non_utf8_recording_is_parse_error_naming_file(self, tmp_path, capsys):
        d = self._session_dir(tmp_path)
        (d / "eval_0.csv").write_bytes((_LABELLED + "\n").encode() * 2 + b"\xff\xfe,0\n")
        with pytest.raises(ParseError, match=r"eval_0\.csv:3: not UTF-8 text"):
            load_session(tmp_path, 0, 0)
        assert self._preprocess(tmp_path) == 1
        assert capsys.readouterr().err.startswith(f"error: {d / 'eval_0.csv'}:3")

    def test_directory_named_like_a_recording_is_data_error(self, tmp_path, capsys):
        d = self._session_dir(tmp_path)
        (d / "eval_0.csv").mkdir()
        with pytest.raises(DataError, match=r"eval_0\.csv"):
            load_session(tmp_path, 0, 0)
        assert self._preprocess(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read recording") and "eval_0.csv" in err


def _tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))}


class TestSaveDatasetTarget:
    def test_fewer_gestures_over_an_old_dataset_is_refused(self, tmp_path):
        save_dataset(synth_generate(small_cfg(gestures=11, cycle_block_seconds=0.3)), tmp_path)
        before = _tree_digest(tmp_path)
        with pytest.raises(DataError, match="train_cycle0_gesture10.csv") as err:
            save_dataset(synth_generate(small_cfg(gestures=7, cycle_block_seconds=0.3)), tmp_path)
        assert "train_cycle0_gesture7.csv" in str(err.value)
        assert _tree_digest(tmp_path) == before  # refused before writing anything, deleted nothing

    def test_cli_synth_over_an_old_dataset_exits_1(self, tmp_path, capsys):
        argv = ["synth", "--seed", "1", "--out", str(tmp_path), "--subjects", "1", "--sessions", "1",
                "--block-seconds", "0.3", "--eval-blocks", "2", "--eval-block-seconds", "0.3"]
        assert main(argv + ["--gestures", "11"]) == 0
        assert main(argv + ["--gestures", "7"]) == 1
        assert "gesture10.csv" in capsys.readouterr().err
        assert sorted(load_session(tmp_path, 0, 0).cycles[0]) == list(range(11))

    def test_same_dataset_rewritten_is_byte_identical(self, tmp_path):
        dataset = synth_generate(small_cfg())
        save_dataset(dataset, tmp_path)
        before = _tree_digest(tmp_path)
        save_dataset(dataset, tmp_path)
        assert _tree_digest(tmp_path) == before

    def test_fewer_sessions_over_an_old_dataset_is_refused(self, tmp_path):
        save_dataset(synth_generate(small_cfg(sessions=3)), tmp_path)
        before = _tree_digest(tmp_path)
        with pytest.raises(DataError, match="session_2"):
            save_dataset(synth_generate(small_cfg(sessions=2, seed=6)), tmp_path)
        assert _tree_digest(tmp_path) == before  # refused before writing anything, deleted nothing
        assert len(load_subject(tmp_path, 0).sessions) == 3

    def test_session_directory_without_recordings_does_not_block_a_write(self, tmp_path):
        extra = tmp_path / "subject_0" / "session_7"
        extra.mkdir(parents=True)
        (extra / "notes.txt").write_text("kept")
        save_dataset(synth_generate(small_cfg(sessions=2)), tmp_path)
        assert (extra / "notes.txt").read_text() == "kept"

    def test_other_files_in_a_session_do_not_block_a_write(self, tmp_path):
        d = tmp_path / "subject_0" / "session_0"
        d.mkdir(parents=True)
        (d / "notes.txt").write_text("kept")
        (d / "eval_0.csv.bak").write_text("kept")
        save_dataset(synth_generate(small_cfg()), tmp_path)
        assert (d / "notes.txt").read_text() == "kept"

"""Dataset persistence, the synthetic generator, reports and the CLI."""

import dataclasses
import json

import numpy as np
import pytest

from semgcal import ShapeError, SynthConfig, synth_generate
import semgcal.cli as cli
from semgcal.cli import main
from semgcal.dataio import (
    canonical_json,
    config_digest,
    load_report,
    load_session,
    load_subject,
    save_dataset,
    save_manifest,
    save_report,
)
from semgcal.errors import DataError, ParseError, SemgCalError
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
        path = save_report(report, tmp_path, accuracy_tables=report["accuracy"])
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

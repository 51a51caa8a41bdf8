"""Experiment harness: calibration settings, determinism, report layout."""

import dataclasses
import filecmp

import numpy as np
import pytest

from semgcal import DataError, ParameterError
from semgcal.adapt import AdaptConfig
from semgcal.dataio import canonical_json, config_digest, save_manifest, save_report
from semgcal.experiment import (
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
    run_calibration_experiment,
    run_experiment,
)
from semgcal.relabel import HeuristicConfig
from semgcal.signal import segment_stream
from semgcal.synth import SynthConfig, synth_generate
from semgcal.train import default_train_config


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
        {"harness": 3},
        {"synth": None},
    ])
    def test_invalid_overrides_raise_parameter_error(self, overrides):
        with pytest.raises(ParameterError):
            from_overrides(BenchmarkConfig(), overrides)


class TestCalibrationSettings:
    def test_nocal_setting_column(self, tiny_dataset):
        cfg = tiny_harness()
        table = run_calibration_experiment(tiny_dataset, "nocal", "NoCal", cfg, master_seed=5)
        assert sorted(table) == [0, 1]
        assert table[0].shape == (len(tiny_dataset),)
        assert np.all((table[0] >= 0) & (table[0] <= 1))

    def test_recal_setting_trains_per_session(self, tiny_dataset):
        cfg = tiny_harness()
        nocal = run_calibration_experiment(tiny_dataset, "nocal", "NoCal", cfg, master_seed=5)
        recal = run_calibration_experiment(tiny_dataset, "recal", "Recal", cfg, master_seed=5)
        # session 0 identical by construction; session 1 retrained with labels
        np.testing.assert_array_equal(nocal[0], recal[0])
        assert recal[1].mean() >= nocal[1].mean() - 0.02

    def test_unsup_setting_requires_unsupervised_algorithm(self, tiny_dataset):
        with pytest.raises(ParameterError):
            run_calibration_experiment(tiny_dataset, "recal", "Unsup", tiny_harness())

    def test_unknown_setting(self, tiny_dataset):
        with pytest.raises(ParameterError):
            run_calibration_experiment(tiny_dataset, "dann", "Sideways", tiny_harness())

    def test_unsup_adabn_column(self, tiny_dataset):
        cfg = tiny_harness()
        table = run_calibration_experiment(tiny_dataset, "adabn", "Unsup", cfg, master_seed=5)
        assert table[1].shape == (len(tiny_dataset),)

    def test_recal_scadann_setting_runs(self, tiny_dataset):
        cfg = tiny_harness()
        table = run_calibration_experiment(
            tiny_dataset, "recal_scadann", "RecalSCADANN", cfg, master_seed=5
        )
        assert sorted(table) == [0, 1]


def small_benchmark_cfg(seed=9):
    cfg = BenchmarkConfig(seed=seed)
    cfg.synth = dataclasses.replace(
        cfg.synth, subjects=2, sessions=2, gestures=7,
        cycle_block_seconds=0.8, eval_blocks=8, eval_block_seconds=1.2,
    )
    cfg.harness = tiny_harness(algorithms=("nocal", "adabn"))
    return cfg


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

"""ADAM contracts and the supervised training loop."""

import numpy as np
import pytest

from semgcal import Adam, DataError, NumericError, TrainConfig, build_tsd_dnn, fit
from semgcal.autodiff import Tensor, mean_all, mul, sum_all
from semgcal.train import CONVNET_LR, TSD_DNN_LR, _eval_loss, default_train_config, stratified_split


class TestAdam:
    def test_first_step_magnitude(self):
        g = np.array([0.5, -2.0, 1e-3])
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = g.copy()
        opt = Adam({"p": p}, lr=0.01)
        opt.step()
        # bias-corrected first step is lr * g / (|g| + eps) per coordinate
        np.testing.assert_allclose(p.data, -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-6)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(0)
        theta = Tensor(rng.standard_normal(10), requires_grad=True)
        theta.data /= np.linalg.norm(theta.data)
        opt = Adam({"theta": theta}, lr=0.01)
        for _ in range(2000):
            opt.zero_grad()
            loss = mul(sum_all(mul(theta, theta)), 0.5)
            loss.backward()
            opt.step()
        assert np.linalg.norm(theta.data) < 1e-3

    def test_nan_gradient_aborts(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.array([np.nan, 0.0])
        opt = Adam({"p": p}, lr=0.1)
        with pytest.raises(NumericError):
            opt.step()


class TestTrainConfig:
    def test_architecture_default_learning_rates(self):
        assert default_train_config("spectrogram_convnet").learning_rate == pytest.approx(0.001316)
        assert default_train_config("tsd_dnn").learning_rate == pytest.approx(0.002515)
        assert CONVNET_LR == 0.001316 and TSD_DNN_LR == 0.002515

    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 512
        assert cfg.early_stop_patience == 10
        assert cfg.anneal_factor == 5.0
        assert cfg.anneal_patience == 5

    def test_invalid_values(self):
        with pytest.raises(Exception):
            TrainConfig(validation_fraction=1.5)
        with pytest.raises(Exception):
            TrainConfig(anneal_factor=1.0)
        with pytest.raises(Exception):
            TrainConfig(early_stop_patience=0)


def separable_tsd_data(seed=0, n_per_class=80, classes=2, margin=5.0):
    """Two (or more) classes separated by `margin` standard deviations."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(classes):
        center = np.zeros(385)
        center[c * 3 : c * 3 + 3] = margin * (c + 1)
        xs.append(rng.standard_normal((n_per_class, 385)) + center)
        ys.append(np.full(n_per_class, c))
    return np.vstack(xs).astype(np.float32), np.concatenate(ys).astype(np.int64)


class TestStratifiedSplit:
    def test_every_class_in_train(self):
        y = np.array([0] * 50 + [1] * 3 + [2] * 7)
        tr, va = stratified_split(y, 0.1, np.random.default_rng(0))
        assert set(np.unique(y[tr])) == {0, 1, 2}
        assert len(tr) + len(va) == len(y)
        assert len(np.intersect1d(tr, va)) == 0

    def test_tiny_dataset_still_has_validation(self):
        y = np.array([0, 0, 1, 1])
        tr, va = stratified_split(y, 0.1, np.random.default_rng(0))
        assert len(va) >= 1


class TestFit:
    def test_separable_data_reaches_99_percent(self):
        x, y = separable_tsd_data(seed=3)
        model = build_tsd_dnn(11, seed=0)
        cfg = TrainConfig(learning_rate=TSD_DNN_LR, batch_size=64, max_epochs=40, seed=1)
        history = fit(model, x, y, cfg)
        acc = np.mean(model.predict(x) == y)
        assert acc >= 0.99
        assert history.best_epoch >= 0

    def test_best_checkpoint_beats_later_epochs(self):
        x, y = separable_tsd_data(seed=5, n_per_class=40)
        model = build_tsd_dnn(11, seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=25, seed=7,
                          early_stop_patience=25, anneal_patience=26 - 1)
        history = fit(model, x, y, cfg)
        val_losses = [e.val_loss for e in history.epochs]
        best = history.best_val_loss
        assert best == min(val_losses)
        # the returned parameters reproduce the best validation loss
        rng = np.random.default_rng(cfg.seed)
        tr, va = stratified_split(y, cfg.validation_fraction, rng)
        recomputed = _eval_loss(model, x[va], y[va])
        assert recomputed == pytest.approx(best, rel=1e-5)
        assert all(best <= v + 1e-12 for v in val_losses[history.best_epoch:])

    def test_bad_data_raises(self):
        x, y = separable_tsd_data(seed=1, classes=2)
        model = build_tsd_dnn(11, seed=0)
        with pytest.raises(DataError):
            fit(model, x, np.where(y == 1, 42, 0), TrainConfig())
        with pytest.raises(DataError):
            fit(model, x[:0], y[:0], TrainConfig())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_inputs_rejected_before_training(self, bad):
        x, y = separable_tsd_data(seed=1, n_per_class=10)
        model = build_tsd_dnn(11, seed=0)
        before = model.state_arrays()
        x_bad = x.copy()
        x_bad[3, 7] = bad
        with pytest.raises(DataError):
            fit(model, x_bad, y, TrainConfig(max_epochs=1))
        with pytest.raises(DataError):
            fit(model, x, y, TrainConfig(max_epochs=1), val_data=(x_bad, y))
        for name, arr in model.state_arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name

    def test_never_finite_validation_loss_raises(self):
        # NaN running variance: training-mode steps use batch statistics and
        # stay finite, while every eval-mode validation loss is NaN.
        x, y = separable_tsd_data(seed=2, n_per_class=20)
        model = build_tsd_dnn(11, seed=0)
        model.bn_layers()[0].running_var[:] = np.nan
        cfg = TrainConfig(batch_size=16, max_epochs=4, early_stop_patience=2, seed=1)
        with pytest.raises(NumericError):
            fit(model, x, y, cfg)

    def test_every_observed_class_survives_the_split(self):
        x, y = separable_tsd_data(seed=6, n_per_class=12, classes=4)
        model = build_tsd_dnn(11, seed=0)
        cfg = TrainConfig(learning_rate=TSD_DNN_LR, batch_size=16, max_epochs=3, seed=5)
        history = fit(model, x, y, cfg)
        assert len(history.epochs) >= 1

    def test_bit_identical_reproducibility(self):
        x, y = separable_tsd_data(seed=9, n_per_class=30)
        cfg = TrainConfig(learning_rate=TSD_DNN_LR, batch_size=32, max_epochs=8,
                          seed=11, early_stop_patience=10)

        def run():
            model = build_tsd_dnn(11, seed=4)
            fit(model, x, y, cfg)
            return model.state_arrays()

        a, b = run(), run()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_annealing_reduces_lr_on_stagnation(self):
        x, y = separable_tsd_data(seed=13, n_per_class=20)
        model = build_tsd_dnn(11, seed=1)
        cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=30, seed=3,
                          early_stop_patience=30 - 1, anneal_patience=2)
        history = fit(model, x, y, cfg)
        lrs = [e.lr for e in history.epochs]
        assert min(lrs) < 0.5  # at least one anneal happened at lr/5 steps
        assert any(abs(l - 0.1) < 1e-9 or l < 0.1 for l in lrs)

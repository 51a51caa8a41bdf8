"""ADAM contracts and the supervised training loop."""

import numpy as np
import pytest

from semgcal import DataError, NumericError, build_tsd_dnn, fit
from semgcal.autodiff import Tensor, cross_entropy, mul, sum_all
from semgcal.nn import build_spectrogram_convnet
from semgcal.optim import BETA1, BETA2, EPS, Adam
from semgcal.train import (
    CONVNET_LR,
    TSD_DNN_LR,
    TrainConfig,
    _eval_loss,
    _snapshot,
    default_train_config,
    stratified_split,
)


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


def _frozen_adam_step(opt: Adam):
    """`Adam.step` as it was before it updated the moments in place, kept as
    an oracle (finite gradients only)."""
    opt.t += 1
    b1, b2 = BETA1, BETA2
    for k, p in opt.params.items():
        g = p.grad
        if g is None:
            continue
        opt.m[k] = b1 * opt.m[k] + (1.0 - b1) * g
        opt.v[k] = b2 * opt.v[k] + (1.0 - b2) * g * g
        m_hat = opt.m[k] / (1.0 - b1 ** opt.t)
        v_hat = opt.v[k] / (1.0 - b2 ** opt.t)
        p.data = p.data - opt.lr * m_hat / (np.sqrt(v_hat) + EPS)


class TestAdamInPlaceMoments:
    @pytest.mark.parametrize("build, batch", [(build_tsd_dnn, 32), (build_spectrogram_convnet, 4)],
                             ids=["tsd_dnn", "spectrogram_convnet"])
    def test_twenty_steps_equal_the_frozen_step(self, build, batch):
        models = [build(7, seed=3) for _ in range(2)]
        opts = [Adam(m.named_parameters(), lr=0.002) for m in models]
        data = np.random.default_rng(4)
        for _ in range(20):
            x = data.standard_normal((batch, *models[0].input_shape)).astype(np.float32)
            y = data.integers(0, 7, batch)
            for model, opt in zip(models, opts):
                opt.zero_grad()
                cross_entropy(model.logits(x, rng=np.random.default_rng(5)), y).backward()
            before = {k: p.data for k, p in opts[0].params.items()}
            opts[0].step()
            _frozen_adam_step(opts[1])
            for k, p in opts[0].params.items():
                # The parameter is updated in place: the same array object.
                assert p.data is before[k]
                np.testing.assert_array_equal(p.data, opts[1].params[k].data, err_msg=k)
                np.testing.assert_array_equal(opts[0].m[k], opts[1].m[k], err_msg=k)
                np.testing.assert_array_equal(opts[0].v[k], opts[1].v[k], err_msg=k)
                assert opts[0].m[k].dtype == opts[1].m[k].dtype == p.data.dtype


class TestAdamInPlaceParameters:
    def test_nothing_else_holds_a_parameter_array(self):
        # Snapshots, clones (the DIRT-T teacher is one) and loaded states
        # copy, so an in-place step changes none of them.
        model = build_tsd_dnn(7, seed=2)
        snap, twin = _snapshot(model), model.clone()
        loaded = build_tsd_dnn(7, seed=5)
        loaded.load_state_arrays(snap)
        frozen = {k: a.copy() for k, a in snap.items()}
        opt = Adam(model.named_parameters(), lr=0.01)
        x = np.random.default_rng(6).standard_normal((16, *model.input_shape)).astype(np.float32)
        cross_entropy(model.logits(x, rng=np.random.default_rng(7)), np.arange(16) % 7).backward()
        opt.step()
        for k, p in model.named_parameters().items():
            assert p.grad is None or not np.array_equal(p.data, frozen[k]), k
            for other in (snap[k], twin.state_arrays()[k], loaded.state_arrays()[k]):
                assert not np.shares_memory(other, p.data), k
                assert np.array_equal(other, frozen[k]), k


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

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_raise(self, rows):
        with pytest.raises(DataError, match="at least 2 rows"):
            stratified_split(np.zeros(rows, dtype=np.int64), 0.1, np.random.default_rng(0))

    def test_two_rows_split_one_and_one(self):
        tr, va = stratified_split(np.array([3, 3]), 0.1, np.random.default_rng(0))
        assert len(tr) == len(va) == 1 and tr.dtype.kind == va.dtype.kind == "i"


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

    def test_one_row_raises_before_any_step(self):
        model = build_tsd_dnn(11, seed=0)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        with pytest.raises(DataError, match="at least 2 rows"):
            fit(model, np.ones((1, 385), np.float32), np.zeros(1, np.int64), TrainConfig())
        for name, arr in model.state_arrays().items():
            assert np.array_equal(arr, before[name]), name

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

    def test_empty_validation_set_rejected_before_training(self):
        x, y = separable_tsd_data(seed=1, n_per_class=10)
        model = build_tsd_dnn(11, seed=0)
        before = model.state_arrays()
        with pytest.raises(DataError, match="empty validation set"):
            fit(model, x, y, TrainConfig(max_epochs=1), val_data=(x[:0], y[:0]))
        for name, arr in model.state_arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("build, shape", [(build_tsd_dnn, (385,)),
                                              (build_spectrogram_convnet, (4, 10, 24))],
                             ids=["tsd_dnn", "convnet"])
    def test_returned_model_and_its_clone_hold_no_gradients(self, build, shape):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, *shape)).astype(np.float32)
        y = np.arange(40) % 7
        model = build(7, seed=0)
        fit(model, x, y, TrainConfig(batch_size=16, max_epochs=1, seed=1))
        for m in (model, model.clone()):
            for name, p in m.named_parameters().items():
                assert p.grad is None, name

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

"""Adaptation algorithms: entropy/VAT losses, DANN, VADA, DIRT-T, AdaBN, SCADANN."""

import numpy as np
import pytest
from _helpers import cluster_task, graph_sinks, mini_net, saved_arrays

import semgcal.adapt as adapt_mod
from semgcal import DataError, UsageError, scadann_calibrate
from semgcal.adapt import (
    AdaptConfig,
    _domain_loss,
    adabn_adapt,
    dann_train,
    dirt_t_refine,
    mv_calibrate,
    prediction_stream,
    vada_train,
    vat_loss,
)
from semgcal.autodiff import Node, Tensor, entropy_of_softmax, log_softmax_rows as _np_log_softmax
from semgcal.nn import BatchNorm, Linear, Network, build_spectrogram_convnet, build_tsd_dnn
from semgcal.relabel import entropy_rows
from semgcal.train import TrainConfig, fit


def tcfg(seed=0, **kw):
    kw.setdefault("learning_rate", 0.01)
    kw.setdefault("batch_size", 64)
    kw.setdefault("max_epochs", 10)
    kw.setdefault("early_stop_patience", 10)
    kw.setdefault("anneal_patience", 5)
    return TrainConfig(seed=seed, **kw)


def fisher_probe(x_fit, y_fit, x_eval):
    """Two-class linear discriminant: 1 where x_eval is scored as class 1.

    Pooled within-class covariance with a 1e-6 * trace / d ridge, and the
    log ratio of the class priors as the offset.
    """
    means = np.stack([x_fit[y_fit == c].mean(axis=0) for c in (0, 1)])
    centered = x_fit - means[y_fit]
    d = x_fit.shape[1]
    cov = centered.T @ centered / (len(x_fit) - 2)
    cov += 1e-6 * np.trace(cov) / d * np.eye(d)
    w = np.linalg.solve(cov, means[1] - means[0])
    log_prior = np.log(np.mean(y_fit == 1) / np.mean(y_fit == 0))
    return ((x_eval - 0.5 * (means[0] + means[1])) @ w + log_prior > 0).astype(int)


def mean_entropy(model, x) -> float:
    """Mean Shannon entropy (nats) of the model's softmax rows on `x`."""
    return float(np.mean(entropy_rows(model.predict_probs(x))))


class TestConditionalEntropy:
    """The conditional-entropy penalty VADA and DIRT-T minimize on target logits."""

    def entropy(self, logits):
        return float(entropy_of_softmax(Tensor(np.asarray(logits, dtype=np.float64))).data)

    def test_one_hot_rows_zero(self):
        logits = 100.0 * np.eye(5)[[0, 2, 4]]
        assert self.entropy(logits) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_seven_classes_ln7(self):
        assert self.entropy(np.zeros((10, 7))) == pytest.approx(np.log(7), abs=1e-9)

    def test_mixed_batch_matches_per_row_oracle(self):
        rng = np.random.default_rng(0)
        raw = rng.random((20, 6))
        rows = raw / raw.sum(axis=1, keepdims=True)
        per_row = [-sum(p * np.log(p) for p in row if p > 0) for row in rows]
        assert self.entropy(np.log(rows)) == pytest.approx(np.mean(per_row), rel=1e-9)

    def test_non_negative(self):
        logits = np.random.default_rng(1).standard_normal((50, 4)) * 3.0
        assert self.entropy(logits) >= 0.0


def manual_kl(model, x, delta):
    """KL(h(x) || h(x + delta)) per example, inference passes, numpy only."""
    import semgcal.autodiff as ad

    with ad.no_grad():
        ls0 = _np_log_softmax(model.logits(x).data.astype(np.float64))
        ls1 = _np_log_softmax(model.logits(x + delta).data.astype(np.float64))
    p0 = np.exp(ls0)
    return np.sum(p0 * (ls0 - ls1), axis=1).mean()


class TestVatLoss:
    def test_zero_epsilon_zero_loss(self):
        model = mini_net(seed=1)
        x = np.random.default_rng(0).standard_normal((8, 16)).astype(np.float32)
        loss = vat_loss(model, x, epsilon=0.0, rng=np.random.default_rng(1))
        assert float(loss.data) == 0.0

    def test_constant_output_model_zero_loss(self):
        model = mini_net(seed=2)
        for name, p in model.named_parameters().items():
            p.data = np.zeros_like(p.data)
        x = np.random.default_rng(3).standard_normal((6, 16)).astype(np.float32)
        loss = vat_loss(model, x, epsilon=2.0, rng=np.random.default_rng(4))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-10)

    def test_adversarial_direction_beats_random(self):
        model = mini_net(seed=5, with_bn=False)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 16)).astype(np.float32)
        eps = 1.0
        adv = float(vat_loss(model, x, epsilon=eps, xi=1e-6, rng=np.random.default_rng(7)).data)
        wins = 0
        for k in range(100):
            d = rng.standard_normal(x.shape)
            d *= eps / np.linalg.norm(d)
            if adv >= manual_kl(model, x, d.astype(np.float32)):
                wins += 1
        assert wins >= 95

    def test_loss_is_differentiable_wrt_params(self):
        model = mini_net(seed=8)
        x = np.random.default_rng(9).standard_normal((4, 16)).astype(np.float32)
        model.zero_grad()
        loss = vat_loss(model, x, epsilon=1.0, rng=np.random.default_rng(10))
        loss.backward()
        grads = [p.grad for p in model.named_parameters().values()]
        assert any(g is not None and np.any(g != 0) for g in grads)

    def test_perturbation_search_leaves_param_grads_clean(self):
        model = mini_net(seed=11)
        x = np.random.default_rng(12).standard_normal((4, 16)).astype(np.float32)
        model.zero_grad()
        vat_loss(model, x, epsilon=1.0, rng=np.random.default_rng(13))
        assert all(p.grad is None for p in model.named_parameters().values())

    def test_generator_is_required(self):
        # no silent default stream: the caller's generator draws the probe
        model = mini_net(seed=14)
        x = np.random.default_rng(15).standard_normal((4, 16)).astype(np.float32)
        with pytest.raises(TypeError, match="rng"):
            vat_loss(model, x, epsilon=1.0)


class TestDann:
    def test_lambda_zero_identical_to_supervised(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=1)
        a = mini_net(seed=3, dropout=True)
        b = mini_net(seed=3, dropout=True)
        fit(a, x_src, y_src, tcfg(seed=5, max_epochs=6))
        dann_train(b, x_src, y_src, x_tgt, lambda_d=0.0, cfg=tcfg(seed=5, max_epochs=6))
        for name, arr in a.state_arrays().items():
            assert arr.tobytes() == b.state_arrays()[name].tobytes(), name

    def test_dann_at_least_as_good_as_nocal_on_shifted_clusters(self):
        gains = []
        for seed in range(5):
            x_src, y_src, x_tgt, y_tgt = cluster_task(seed=seed, shift=2.0)
            base = mini_net(seed=seed)
            fit(base, x_src, y_src, tcfg(seed=seed, max_epochs=12))
            nocal_acc = np.mean(base.predict(x_tgt) == y_tgt)
            adapted = base.clone()
            dann_train(adapted, x_src, y_src, x_tgt, lambda_d=0.1,
                       cfg=tcfg(seed=seed, max_epochs=12, learning_rate=0.003))
            dann_acc = np.mean(adapted.predict(x_tgt) == y_tgt)
            gains.append(dann_acc - nocal_acc)
        assert np.mean(gains) >= 0.0

    def test_domain_head_confused_on_separable_domains(self):
        # Feature-confusion oracle: the domains stay linearly separable (a
        # Fisher discriminant on frozen features succeeds), yet the adversarially
        # trained domain head itself sits near 50% on held-out data.
        x_src, y_src, x_tgt, _ = cluster_task(seed=9, shift=3.0, n_per=80)
        half_s, half_t = len(x_src) // 2, len(x_tgt) // 2
        base = mini_net(seed=2)
        fit(base, x_src[:half_s], y_src[:half_s], tcfg(seed=2, max_epochs=10))
        adapted = base.clone()
        dann_train(adapted, x_src[:half_s], y_src[:half_s], x_tgt[:half_t], lambda_d=1.0,
                   cfg=tcfg(seed=4, max_epochs=30, learning_rate=0.01, early_stop_patience=30))

        import semgcal.autodiff as ad

        with ad.no_grad():
            f_s = adapted.features(x_src).data
            f_t = adapted.features(x_tgt).data
        probe_acc = np.mean(
            fisher_probe(np.vstack([f_s[:half_s], f_t[:half_t]]),
                         np.array([0] * half_s + [1] * half_t),
                         np.vstack([f_s[half_s:], f_t[half_t:]]))
            == np.array([0] * (len(f_s) - half_s) + [1] * (len(f_t) - half_t))
        )

        def domain_votes(x):
            with ad.no_grad():
                return ad.softmax_rows(adapted.head_logits(adapted.features(x), "domain").data).argmax(1)

        own_head = np.mean(np.concatenate([
            domain_votes(x_src[half_s:]) == 0,
            domain_votes(x_tgt[half_t:]) == 1,
        ]))
        assert probe_acc >= 0.7  # the signal is there for a fresh classifier
        assert abs(own_head - 0.5) < abs(probe_acc - 0.5)  # but the head was pushed toward chance
        assert own_head <= 0.72

    def test_missing_domain_head_rejected(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=0)
        model = mini_net(seed=0)
        model.domain_head = None
        with pytest.raises(UsageError):
            dann_train(model, x_src, y_src, x_tgt, lambda_d=0.1, cfg=tcfg())

    def test_empty_target_rejected(self):
        x_src, y_src, _, _ = cluster_task(seed=0)
        model = mini_net(seed=0)
        with pytest.raises(DataError):
            dann_train(model, x_src, y_src, np.empty((0, 16), dtype=np.float32),
                       lambda_d=0.1, cfg=tcfg())

    def test_lambda_scales_feature_gradient_linearly(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=3)
        model = mini_net(seed=7)
        rng = np.random.default_rng(0)  # training passes; mini_net has no dropout to draw

        def feature_grad(lam):
            model.zero_grad()
            feats_s = model.features(x_src[:32], rng)
            loss, _ = _domain_loss(model, rng, feats_s, x_tgt[:32], lam)
            loss.backward()
            return model.named_parameters()["fc0.w"].grad.copy()

        g1 = feature_grad(0.05)
        g2 = feature_grad(0.1)
        g3 = feature_grad(0.2)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-4)
        np.testing.assert_allclose(g3, 4.0 * g1, rtol=1e-4)


class TestVada:
    def test_default_weights(self):
        cfg = AdaptConfig()
        assert cfg.lambda_d == pytest.approx(1e-2)
        assert cfg.lambda_vs == pytest.approx(1.0)
        assert cfg.lambda_vt == pytest.approx(1e-2)
        assert cfg.lambda_c == pytest.approx(1e-2)
        assert cfg.beta == pytest.approx(1e-2)

    def test_ablated_vada_equals_dann_trajectory(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=2)
        a = mini_net(seed=1, dropout=True)
        b = mini_net(seed=1, dropout=True)
        lam = 0.05
        dann_train(a, x_src, y_src, x_tgt, lambda_d=lam, cfg=tcfg(seed=9, max_epochs=5))
        acfg = AdaptConfig(lambda_d=lam, lambda_vs=0.0, lambda_vt=0.0, lambda_c=0.0)
        vada_train(b, x_src, y_src, x_tgt, acfg=acfg, cfg=tcfg(seed=9, max_epochs=5))
        for name, arr in a.state_arrays().items():
            assert arr.tobytes() == b.state_arrays()[name].tobytes(), name

    def test_target_entropy_decreases(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=4, shift=2.0, n_per=50)
        model = mini_net(seed=3)
        fit(model, x_src, y_src, tcfg(seed=3, max_epochs=8))
        before = mean_entropy(model, x_tgt)
        acfg = AdaptConfig(lambda_d=1e-2, lambda_vs=0.1, lambda_vt=1e-2, lambda_c=0.5,
                           vat_epsilon=0.5)
        vada_train(model, x_src, y_src, x_tgt, acfg=acfg,
                   cfg=tcfg(seed=6, max_epochs=12, learning_rate=0.003))
        after = mean_entropy(model, x_tgt)
        assert after < before


class TestDirtT:
    def test_huge_beta_anchors_parameters(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=5)
        model = mini_net(seed=4)
        fit(model, x_src, y_src, tcfg(seed=4, max_epochs=6))
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        acfg = AdaptConfig(beta=1e6, lambda_vt=1e-2, lambda_c=1e-2, vat_epsilon=0.5,
                           dirt_t_iterations=1, dirt_t_steps_per_iter=1)
        dirt_t_refine(model, x_tgt, acfg=acfg, cfg=tcfg(seed=8, learning_rate=1e-4))
        moved = max(
            np.max(np.abs(model.named_parameters()[k].data - before[k]))
            for k in model.named_parameters()
        )
        assert moved < 1e-3

    def test_small_beta_moves_parameters(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=5)
        model = mini_net(seed=4)
        fit(model, x_src, y_src, tcfg(seed=4, max_epochs=6))
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        acfg = AdaptConfig(beta=1e-2, dirt_t_iterations=1)
        dirt_t_refine(model, x_tgt, acfg=acfg, cfg=tcfg(seed=8, learning_rate=1e-2))
        moved = max(
            np.max(np.abs(model.named_parameters()[k].data - before[k]))
            for k in model.named_parameters()
        )
        assert moved > 1e-3

    def test_refined_model_holds_no_gradients(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=5)
        model = mini_net(seed=4)
        fit(model, x_src, y_src, tcfg(seed=4, max_epochs=2))
        acfg = AdaptConfig(beta=1e-2, vat_epsilon=0.5, dirt_t_iterations=2)
        dirt_t_refine(model, x_tgt, acfg=acfg, cfg=tcfg(seed=8, learning_rate=1e-2))
        for m in (model, model.clone()):
            for name, p in m.named_parameters().items():
                assert p.grad is None, name

    def test_entropy_trend_across_iterations(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=6, shift=1.5, n_per=50)
        model = mini_net(seed=5)
        fit(model, x_src, y_src, tcfg(seed=5, max_epochs=10))
        vada_train(model, x_src, y_src, x_tgt, acfg=AdaptConfig(vat_epsilon=0.5),
                   cfg=tcfg(seed=7, max_epochs=6, learning_rate=0.003))
        entropies = [mean_entropy(model, x_tgt)]
        acfg = AdaptConfig(beta=1e-2, vat_epsilon=0.5, dirt_t_iterations=1)
        for it in range(5):
            dirt_t_refine(model, x_tgt, acfg=acfg, cfg=tcfg(seed=20 + it, learning_rate=0.002))
            entropies.append(mean_entropy(model, x_tgt))
        assert entropies[-1] < entropies[0]
        assert all(b <= a * 1.05 for a, b in zip(entropies, entropies[1:]))


class TestAdaBn:
    def test_weights_bit_identical_stats_replaced(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=7)
        model = mini_net(seed=6)
        fit(model, x_src, y_src, tcfg(seed=6, max_epochs=6))
        adapted = adabn_adapt(model, x_tgt)
        before = model.state_arrays()
        after = adapted.state_arrays()
        for name in model.named_parameters():
            assert before[name].tobytes() == after[name].tobytes(), name
        stats_changed = [
            name for name in model.named_stats()
            if before[name].tobytes() != after[name].tobytes()
        ]
        assert stats_changed  # only BN statistics may differ, and they do

    def test_single_bn_layer_recovers_target_moments(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm("bn", 5, np.float32)
        head = Linear("gesture_head", 5, 3, rng, np.float32)
        domain = Linear("domain_head", 5, 2, rng, np.float32)
        net = Network("tsd_dnn", 3, [bn], head, domain, (5,))
        mu = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        sigma2 = np.array([0.5, 2.0, 1.0, 4.0, 0.25])
        x = (rng.standard_normal((4000, 5)) * np.sqrt(sigma2) + mu).astype(np.float32)
        adapted = adabn_adapt(net, x)
        got = adapted.bn_layers()[0]
        np.testing.assert_allclose(got.running_mean, x.mean(axis=0), atol=1e-4)
        np.testing.assert_allclose(got.running_var, x.var(axis=0), atol=1e-4)

    def test_fixed_point_on_same_data(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=8)
        model = mini_net(seed=7)
        fit(model, x_src, y_src, tcfg(seed=7, max_epochs=5))
        once = adabn_adapt(model, x_tgt)
        twice = adabn_adapt(once, x_tgt)
        out1 = once.predict_probs(x_tgt)
        out2 = twice.predict_probs(x_tgt)
        np.testing.assert_allclose(out1, out2, atol=1e-4)

    def test_too_few_examples(self):
        model = mini_net(seed=0)
        with pytest.raises(DataError):
            adabn_adapt(model, np.zeros((1, 16), dtype=np.float32))


class TestScadann:
    def test_self_consistency_on_source_distribution(self):
        # current session drawn from the source distribution + confident model:
        # pseudo-labels track the model's own predictions and step 3 keeps the
        # held-out source accuracy within 2 points
        x_src, y_src, x_more, y_more = cluster_task(seed=10, shift=0.0, n_per=80)
        stream_x = np.repeat(x_more[np.argsort(y_more)], 1, axis=0)  # sorted = slow class changes
        model = mini_net(seed=9)
        fit(model, x_src, y_src, tcfg(seed=9, max_epochs=15))
        held_before = np.mean(model.predict(x_src) == y_src)
        preds_before = model.clone().predict(stream_x)
        res = scadann_calibrate(
            model, x_src, y_src, [], stream_x,
            acfg=AdaptConfig(dann_lambda_d=0.1, vat_epsilon=0.5),
            cfg=tcfg(seed=12, max_epochs=8, learning_rate=0.002),
        )
        assert res.status == "ok"
        kept_preds = preds_before[res.pseudo.indices]
        agreement = np.mean(res.pseudo.labels == kept_preds)
        assert agreement > 0.9
        held_after = np.mean(res.model.predict(x_src) == y_src)
        assert held_after >= held_before - 0.02

    def test_empty_pseudo_labels_falls_back_to_step1(self):
        x_src, y_src, x_tgt, _ = cluster_task(seed=11)
        model = mini_net(seed=10)
        fit(model, x_src, y_src, tcfg(seed=10, max_epochs=5))
        short_stream = x_tgt[:10]  # shorter than the 30-segment window
        res = scadann_calibrate(model, x_src, y_src, [], short_stream,
                                cfg=tcfg(seed=11, max_epochs=3))
        assert res.status == "empty-pseudo-labels"
        assert res.pseudo.kept_count == 0

    def test_step3_source_includes_prior_pseudo_sessions(self, monkeypatch):
        x_src, y_src, x_tgt, y_tgt = cluster_task(seed=12, n_per=60)
        stream_x = x_tgt[np.argsort(y_tgt)]
        model = mini_net(seed=11)
        fit(model, x_src, y_src, tcfg(seed=11, max_epochs=8))
        prior = (x_src[:25].copy(), y_src[:25].copy())
        seen_sizes = []
        real_fit = adapt_mod.fit

        def spy_fit(mdl, x, y, cfg, step_extra=None, val_data=None):
            seen_sizes.append(len(x))
            return real_fit(mdl, x, y, cfg, step_extra=step_extra, val_data=val_data)

        monkeypatch.setattr(adapt_mod, "fit", spy_fit)
        res = scadann_calibrate(model, x_src, y_src, [prior], stream_x,
                                cfg=tcfg(seed=13, max_epochs=4, learning_rate=0.002))
        assert res.status == "ok"
        # first fit = step 1 on the source alone; second fit = step 3 on
        # source + prior pseudo-labels
        assert seen_sizes[0] == len(x_src)
        assert seen_sizes[1] == len(x_src) + 25

    def test_prediction_stream_is_eval_softmax_one_stride_apart(self):
        _, _, x_stream, _ = cluster_task(seed=14)
        model = mini_net(seed=12)
        stream = prediction_stream(model, x_stream)
        assert np.array_equal(stream.rows, model.predict_probs(x_stream).astype(np.float64))

    def test_empty_source_rejected(self):
        model = mini_net(seed=0)
        with pytest.raises(DataError):
            scadann_calibrate(model, np.empty((0, 16), dtype=np.float32),
                              np.empty(0, dtype=np.int64), [], np.zeros((50, 16), dtype=np.float32))


class TestMvCalibrate:
    def test_improves_or_holds_on_sorted_stream(self):
        x_src, y_src, x_tgt, y_tgt = cluster_task(seed=13, shift=1.0, n_per=60)
        stream_x = x_tgt[np.argsort(y_tgt)]
        model = mini_net(seed=12)
        fit(model, x_src, y_src, tcfg(seed=12, max_epochs=10))
        before = np.mean(model.predict(x_tgt) == y_tgt)
        calibrated, pooled = mv_calibrate(model.clone(), x_src, y_src, [stream_x],
                                          cfg=tcfg(seed=14, max_epochs=8, learning_rate=0.002))
        after = np.mean(calibrated.predict(x_tgt) == y_tgt)
        assert len(pooled) == len(stream_x)
        assert after >= before - 0.05

    def test_requires_streams(self):
        model = mini_net(seed=0)
        with pytest.raises(DataError):
            mv_calibrate(model, np.zeros((4, 16), np.float32), np.zeros(4, np.int64), [])


def _copying_accumulate(self, g, owned=False):
    """`Tensor._accumulate` as it was before it took ownership of fresh
    gradients, kept as an oracle: every first gradient is copied."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.dtype, copy=True)
    else:
        self.grad += g


_ARCHITECTURES = {
    "tsd_dnn": (build_tsd_dnn, (385,)),
    "spectrogram_convnet": (build_spectrogram_convnet, (4, 10, 24)),
}


def _arch_task(kind, n_per=6, gestures=7, seed=0):
    """Random inputs of an architecture's shape: labeled source, unlabeled target."""
    _, shape = _ARCHITECTURES[kind]
    rng = np.random.default_rng(seed)
    n = n_per * gestures
    x_src = rng.standard_normal((n, *shape)).astype(np.float32)
    y_src = np.repeat(np.arange(gestures), n_per).astype(np.int64)
    x_tgt = (rng.standard_normal((n, *shape)) + 0.5).astype(np.float32)
    return x_src, y_src, x_tgt


class TestGradientOwnership:
    """Gradients are fresh arrays taken over without a copy; none may alias."""

    @pytest.mark.parametrize("kind", sorted(_ARCHITECTURES))
    @pytest.mark.parametrize("algo", ["dann", "vada"])
    def test_no_gradient_shares_memory(self, monkeypatch, kind, algo):
        # backward() releases every node as it walks, so the arrays on the
        # tape (the leaves' values and what each closure saved) are
        # collected before the walk, and each gradient array is recorded,
        # and kept alive, when `_accumulate` first sets it.
        original_backward, original_accumulate = Tensor.backward, Tensor._accumulate
        graphs, recorded = [], []

        def recording_accumulate(self, g, owned=False):
            first = self.grad is None
            original_accumulate(self, g, owned)
            if first:
                recorded.append(self.grad)

        def checked_backward(self):
            tape = [self.data]
            for s in graph_sinks(self):
                tape.extend(saved_arrays(s) if isinstance(s, Node) else [s.data])
            recorded.clear()
            original_backward(self)
            grads = list(recorded)
            for i, g in enumerate(grads):
                assert not any(np.shares_memory(g, other) for other in grads[i + 1 :])
                assert not any(np.shares_memory(g, a) for a in tape)
            graphs.append(len(grads))

        for cls in (Tensor, Node):
            monkeypatch.setattr(cls, "_accumulate", recording_accumulate)
        monkeypatch.setattr(Tensor, "backward", checked_backward)
        build, _ = _ARCHITECTURES[kind]
        x_src, y_src, x_tgt = _arch_task(kind)
        cfg = tcfg(seed=1, batch_size=14, max_epochs=1)
        if algo == "dann":
            dann_train(build(7, seed=2), x_src, y_src, x_tgt, lambda_d=0.5, cfg=cfg)
        else:
            vada_train(build(7, seed=2), x_src, y_src, x_tgt, acfg=AdaptConfig(vat_epsilon=0.5), cfg=cfg)
        # DANN: one backward per step; VADA adds a VAT probe per domain.
        assert len(graphs) >= 2 and min(graphs) > 0

    @pytest.mark.parametrize("kind", sorted(_ARCHITECTURES))
    def test_fit_then_adabn_equals_copying_accumulate(self, monkeypatch, kind):
        build, _ = _ARCHITECTURES[kind]
        x_src, y_src, x_tgt = _arch_task(kind, seed=3)

        def run():
            model = build(7, seed=4)
            fit(model, x_src, y_src, tcfg(seed=5, batch_size=14, max_epochs=2))
            vada_train(model, x_src, y_src, x_tgt, acfg=AdaptConfig(vat_epsilon=0.5),
                       cfg=tcfg(seed=6, batch_size=14, max_epochs=1))
            return adabn_adapt(model, x_tgt).state_arrays()

        owned = run()
        for cls in (Tensor, Node):
            monkeypatch.setattr(cls, "_accumulate", _copying_accumulate)
        copied = run()
        assert sorted(owned) == sorted(copied)
        for name, arr in owned.items():
            np.testing.assert_array_equal(arr, copied[name], err_msg=name)

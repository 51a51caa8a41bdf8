"""Architecture fidelity, batch-norm behavior, dropout and serialization."""

import json
import struct
import zlib

import numpy as np
import pytest
from _helpers import mini_net
from hypothesis import given, settings
from hypothesis import strategies as st

import semgcal.autodiff as ad
from semgcal import DataError, ParameterError, SemgCalError, ShapeError, UsageError, build_tsd_dnn
from semgcal.adapt import vat_loss_at, vat_perturbation, vat_reference
from semgcal.autodiff import Tensor
from semgcal.nn import (
    EVAL_BATCH,
    TSD_HIDDEN,
    Dropout,
    Network,
    build_spectrogram_convnet,
    load_network,
    save_network,
)
from semgcal.train import _eval_loss


class TestSpectrogramConvnet:
    def test_parameter_count_11_gestures(self):
        assert build_spectrogram_convnet(11).num_parameters() == 206_548

    def test_input_output_shapes(self):
        model = build_spectrogram_convnet(11)
        x = np.random.default_rng(0).standard_normal((5, 4, 10, 24)).astype(np.float32)
        assert model.predict_probs(x).shape == (5, 11)
        assert model.head_logits(model.features(x), "domain").data.shape == (5, 2)

    def test_seven_gesture_build_differs_only_in_head(self):
        m11 = build_spectrogram_convnet(11, seed=3)
        m7 = build_spectrogram_convnet(7, seed=3)
        p11, p7 = m11.named_parameters(), m7.named_parameters()
        assert set(p11) == set(p7)
        for name in p11:
            if name.startswith("gesture_head"):
                assert p11[name].data.shape != p7[name].data.shape
            else:
                assert p11[name].data.shape == p7[name].data.shape
        assert m7.predict_probs(np.zeros((2, 4, 10, 24), dtype=np.float32)).shape == (2, 7)

    def test_invalid_gesture_count(self):
        with pytest.raises(ParameterError):
            build_spectrogram_convnet(5)

    def test_four_blocks_conv_bn(self):
        model = build_spectrogram_convnet(11)
        names = list(model.named_parameters())
        for i in range(4):
            assert f"b{i}.conv.w" in names
            assert f"b{i}.bn.gamma" in names


class TestTsdDnn:
    def test_hidden_widths(self):
        assert TSD_HIDDEN == (200, 200, 200)
        model = build_tsd_dnn(11)
        params = model.named_parameters()
        assert params["fc0.w"].data.shape == (200, 385)
        assert params["fc1.w"].data.shape == (200, 200)
        assert params["fc2.w"].data.shape == (200, 200)

    def test_leaky_slope(self):
        from semgcal.nn import LeakyReLU

        model = build_tsd_dnn(11)
        layers = [l for l in model.feature_layers if isinstance(l, LeakyReLU)]
        assert len(layers) == 3
        for layer in layers:
            out = layer(Tensor(np.array([-2.0, 0.0, 3.0])), None)
            np.testing.assert_array_equal(out.data, [-0.2, 0.0, 3.0])

    def test_zero_vector_eval_finite(self):
        model = build_tsd_dnn(7)
        out = model.predict_probs(np.zeros((1, 385), dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out.shape == (1, 7)


_NETWORKS = pytest.mark.parametrize("build, shape", [(build_tsd_dnn, (385,)),
                                                     (build_spectrogram_convnet, (4, 10, 24))],
                                    ids=["tsd_dnn", "convnet"])


class TestForwardContracts:
    def test_softmax_rows_sum_to_one(self):
        model = build_tsd_dnn(11)
        x = np.random.default_rng(1).standard_normal((9, 385)).astype(np.float32)
        p = model.predict_probs(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-5)

    def test_eval_mode_deterministic(self):
        model = build_spectrogram_convnet(11)
        x = np.random.default_rng(2).standard_normal((3, 4, 10, 24)).astype(np.float32)
        np.testing.assert_array_equal(model.predict_probs(x), model.predict_probs(x))

    def test_eval_output_independent_of_batch_composition(self):
        model = build_tsd_dnn(11)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 385)).astype(np.float32)
        alone = model.predict_probs(x[:1])
        batched = model.predict_probs(x)[:1]
        np.testing.assert_allclose(alone, batched, atol=1e-5)

    @_NETWORKS
    @pytest.mark.parametrize("gestures", [7, 11])
    def test_zero_rows_give_an_empty_gesture_width_array(self, build, shape, gestures):
        model = build(gestures)
        rows = model.predict_probs(np.zeros((5, *shape), dtype=np.float32))
        p = model.predict_probs(np.zeros((0, *shape), dtype=np.float32))
        assert p.shape == (0, gestures) == (0, rows.shape[1])
        assert p.dtype == rows.dtype == np.float32
        assert model.predict(np.zeros((0, *shape), dtype=np.float32)).shape == (0,)

    def test_zero_rows_still_check_shape(self):
        model = build_tsd_dnn(11)
        with pytest.raises(ShapeError):
            model.predict_probs(np.zeros((0, 384), dtype=np.float32))

    def test_unknown_head(self):
        model = build_tsd_dnn(11)
        with pytest.raises(UsageError):
            model.head_logits(model.features(np.zeros((1, 385), dtype=np.float32)), "color")

    def test_missing_domain_head(self):
        model = build_tsd_dnn(11)
        model.domain_head = None
        with pytest.raises(UsageError):
            model.head_logits(model.features(np.zeros((1, 385), dtype=np.float32)), "domain")


def _uniform_reference(n):
    p0 = np.full((n, 4), 0.25)  # mini_net's 4 gestures
    return p0, np.log(p0)


# Every inference forward outside a training step, as a call on (model, x).
_EVAL_MODE_CALLS = {
    "eval_logits": lambda m, x: m.eval_logits(x),
    "predict_probs": lambda m, x: m.predict_probs(x),
    "vat_reference": vat_reference,
    "vat_perturbation": lambda m, x: vat_perturbation(m, x, *_uniform_reference(len(x)), 1.0, 1e-6,
                                                      np.random.default_rng(0)),
    "vat_loss_at": lambda m, x: vat_loss_at(m, x, np.zeros_like(x), *_uniform_reference(len(x))),
    "_eval_loss": lambda m, x: _eval_loss(m, x, np.zeros(len(x), dtype=np.int64)),
}


class TestEvalModeForward:
    @pytest.mark.parametrize("call", _EVAL_MODE_CALLS.values(), ids=_EVAL_MODE_CALLS.keys())
    @pytest.mark.parametrize("width", [16, 15], ids=["ok", "shape_error"])
    def test_running_statistics_unchanged(self, call, width):
        model = mini_net(dropout=True)
        stats = {k: v.copy() for k, v in model.named_stats().items()}
        x = np.random.default_rng(1).standard_normal((6, width)).astype(np.float32)
        if width == 16:
            call(model, x)
        else:
            with pytest.raises(ShapeError):
                call(model, x)
        for k, v in model.named_stats().items():
            np.testing.assert_array_equal(v, stats[k])

    def test_eval_logits_off_the_tape_in_eval_mode(self):
        model = mini_net(dropout=True)
        stats = {k: v.copy() for k, v in model.named_stats().items()}
        x = np.random.default_rng(2).standard_normal((9, 16)).astype(np.float32)
        out = model.eval_logits(x)
        assert type(out) is np.ndarray and out.shape == (9, 4)
        np.testing.assert_array_equal(out, model.eval_logits(x))  # no dropout draw
        for k, v in model.named_stats().items():
            np.testing.assert_array_equal(v, stats[k])  # no running-statistics update

    def test_eval_logits_chunks_of_eval_batch_rows(self):
        model = mini_net()
        x = np.random.default_rng(3).standard_normal((2 * EVAL_BATCH + 5, 16)).astype(np.float32)
        out = model.eval_logits(x)
        with ad.no_grad():
            want = [model.logits(x[lo : lo + EVAL_BATCH]).data for lo in range(0, len(x), EVAL_BATCH)]
        np.testing.assert_array_equal(out, np.concatenate(want))
        np.testing.assert_array_equal(model.predict_probs(x), ad.softmax_rows(out))

    def test_eval_logits_zero_rows(self):
        model = mini_net()
        out = model.eval_logits(np.zeros((0, 16), dtype=np.float32))
        assert out.shape == (0, 4) and out.dtype == np.float32
        with pytest.raises(ShapeError):
            model.eval_logits(np.zeros((0, 15), dtype=np.float32))


class TestBatchNormBehavior:
    def test_train_eval_gap_shrinks_with_exposure(self):
        # Batch statistics without a dropout draw: the TSD DNN without its
        # dropout layers, so a training pass's generator is never drawn from.
        model = build_tsd_dnn(11, seed=5)
        model.feature_layers = [l for l in model.feature_layers if not isinstance(l, Dropout)]
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((256, 385)) * 2.0 + 1.0).astype(np.float32)
        held = x[:64]

        def gap():
            with ad.no_grad():
                train_out = model.logits(held, rng).data.copy()
                eval_out = model.logits(held).data
            return np.max(np.abs(train_out - eval_out))

        gaps = [gap()]
        for epoch in range(10):
            with ad.no_grad():
                for lo in range(0, 256, 64):
                    model.logits(x[lo : lo + 64], rng)  # updates running stats
            gaps.append(gap())
        # the gap decays toward the irreducible held-batch sampling noise
        assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.4 * gaps[0]


class TestForwardMode:
    """A forward given a dropout generator is a training pass; one given
    none is an inference pass."""

    @_NETWORKS
    def test_inference_is_repeatable_and_keeps_the_statistics(self, build, shape):
        model = build(7, seed=1)
        stats = {k: v.copy() for k, v in model.named_stats().items()}
        x = np.random.default_rng(2).standard_normal((6, *shape)).astype(np.float32)
        with ad.no_grad():
            first = model.logits(x).data.copy()
            assert model.logits(x).data.tobytes() == first.tobytes()
        for k, v in model.named_stats().items():
            assert v.tobytes() == stats[k].tobytes(), k

    @_NETWORKS
    def test_training_updates_the_statistics_and_draws_dropout(self, build, shape):
        model = build(7, seed=1)
        stats = {k: v.copy() for k, v in model.named_stats().items()}
        x = np.random.default_rng(2).standard_normal((6, *shape)).astype(np.float32)
        with ad.no_grad():
            outs = [model.clone().logits(x, np.random.default_rng(s)).data for s in (3, 4)]
            model.logits(x, np.random.default_rng(3))
        for k, v in model.named_stats().items():
            assert not np.array_equal(v, stats[k]), k
        assert not np.array_equal(outs[0], outs[1])

    def test_dropout_without_generator_is_identity(self):
        x = Tensor(np.ones((200, 50)))
        assert Dropout()(x, None) is x

    def test_dropout_with_generator_keeps_the_expectation(self):
        layer = Dropout()
        x = Tensor(np.ones((200, 50)))
        rng = np.random.default_rng(1)
        acc = np.zeros((200, 50))
        n_masks = 10_000 // 50
        for _ in range(n_masks):
            acc += layer(x, rng).data
        mean = acc / n_masks
        assert abs(mean.mean() - 1.0) < 0.02  # Monte-Carlo expectation matches inference


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_spectrogram_convnet(11, seed=9)
        # make running stats non-trivial
        for bn in model.bn_layers():
            bn.set_stats(np.random.default_rng(1).standard_normal(bn.running_mean.shape),
                         np.random.default_rng(2).uniform(0.5, 2.0, bn.running_var.shape))
        path = tmp_path / "model.bin"
        save_network(model, path)
        loaded = load_network(path)
        assert loaded.kind == model.kind and loaded.num_gestures == 11
        for name, arr in model.state_arrays().items():
            assert arr.astype("<f4").tobytes() == loaded.state_arrays()[name].astype("<f4").tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = build_tsd_dnn(7, seed=4)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_network(model, p1)
        save_network(load_network(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("layer, attr", [(0, "running_mean"), (2, "running_var")])
    def test_running_statistic_of_the_wrong_shape_rejected(self, tmp_path, layer, attr):
        model = build_tsd_dnn(7, seed=4)
        setattr(model.bn_layers()[layer], attr, np.zeros(5, dtype=np.float32))
        save_network(model, tmp_path / "model.bin")
        with pytest.raises(ShapeError, match=f"fc{layer}.bn.{attr}"):
            load_network(tmp_path / "model.bin")

    @pytest.mark.parametrize("name", ["fc0.bn.running_mean", "fc2.bn.running_var"])
    def test_missing_running_statistic_rejected(self, tmp_path, name):
        model = build_tsd_dnn(7, seed=4)
        model.state_arrays = lambda: {k: v for k, v in Network.state_arrays(model).items() if k != name}
        save_network(model, tmp_path / "model.bin")
        with pytest.raises(UsageError, match=name):
            load_network(tmp_path / "model.bin")

    def test_rejected_state_sets_nothing(self):
        model = build_tsd_dnn(7, seed=4)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        state = build_tsd_dnn(7, seed=5).state_arrays()
        state["fc2.bn.running_var"] = np.ones(5, dtype=np.float32)
        with pytest.raises(ShapeError):
            model.load_state_arrays(state)
        for k, v in model.state_arrays().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a container")
        with pytest.raises(UsageError):
            load_network(path)


@pytest.fixture(scope="module")
def saved_blob(tmp_path_factory):
    """A saved 7-gesture TSD DNN and a scratch path for damaged copies of it."""
    d = tmp_path_factory.mktemp("blob")
    save_network(build_tsd_dnn(7, seed=4), d / "model.bin")
    return (d / "model.bin").read_bytes(), d / "damaged.bin"


def _seal(body: bytes) -> bytes:
    """A v2 container around `body`: magic, body, CRC32 of the body."""
    return b"SEMGNET2" + body + struct.pack("<I", zlib.crc32(body))


def _as_v1(blob: bytes) -> bytes:
    """The same network in the retired v1 layout, which had no checksum."""
    return b"SEMGNET1" + blob[8:-4]


# Most of a container is float data; weight the draws toward the headers.
_HEADER_BYTES = 512


def _flip(blob: bytes, data) -> bytes:
    bit = data.draw(st.one_of(st.integers(0, 8 * _HEADER_BYTES - 1), st.integers(0, 8 * len(blob) - 1)))
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


class TestCorruptContainers:
    def test_layout_is_magic_body_checksum(self, saved_blob):
        blob, _ = saved_blob
        assert blob[:8] == b"SEMGNET2"
        assert blob == _seal(blob[8:-4])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_raises_semgcal_error(self, saved_blob, data):
        blob, path = saved_blob
        cut = data.draw(st.one_of(st.integers(0, _HEADER_BYTES), st.integers(0, len(blob) - 1)))
        path.write_bytes(blob[:cut])
        with pytest.raises(SemgCalError):
            load_network(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_bit_flip_raises_semgcal_error(self, saved_blob, data):
        blob, path = saved_blob
        path.write_bytes(_flip(blob, data))
        with pytest.raises(SemgCalError):
            load_network(path)

    def test_flipped_data_bit_fails_the_checksum(self, saved_blob):
        blob, path = saved_blob
        damaged = bytearray(blob)
        damaged[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(damaged))
        with pytest.raises(DataError, match="checksum"):
            load_network(path)

    def test_v1_container_is_not_a_network_container(self, saved_blob):
        blob, path = saved_blob
        path.write_bytes(_as_v1(blob))
        with pytest.raises(UsageError, match="not a network container"):
            load_network(path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_v1_bit_flip_is_not_a_network_container(self, saved_blob, data):
        blob, path = saved_blob
        path.write_bytes(_flip(_as_v1(blob), data))
        with pytest.raises(UsageError, match="not a network container"):
            load_network(path)

    @pytest.mark.parametrize("meta", [{"kind": "lstm", "num_gestures": 7}, {"num_gestures": 7},
                                      ["tsd_dnn", 7], {"kind": "tsd_dnn", "num_gestures": 7.0}])
    def test_bad_metadata_raises_semgcal_error(self, saved_blob, meta):
        blob, path = saved_blob
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        meta_bytes = json.dumps(meta).encode()
        body = struct.pack("<I", len(meta_bytes)) + meta_bytes + blob[12 + meta_len : -4]
        path.write_bytes(_seal(body))
        with pytest.raises(SemgCalError):
            load_network(path)

    def test_trailing_bytes_rejected(self, saved_blob):
        blob, path = saved_blob
        path.write_bytes(blob + b"\0")
        with pytest.raises(DataError):
            load_network(path)
        path.write_bytes(_seal(blob[8:-4] + b"\0"))
        with pytest.raises(DataError, match="trailing"):
            load_network(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_network(tmp_path / "absent.bin")


class TestReproducibility:
    def test_same_seed_same_init(self):
        a = build_tsd_dnn(11, seed=33)
        b = build_tsd_dnn(11, seed=33)
        for name, arr in a.state_arrays().items():
            np.testing.assert_array_equal(arr, b.state_arrays()[name])

    def test_different_seed_different_init(self):
        a = build_tsd_dnn(11, seed=1)
        b = build_tsd_dnn(11, seed=2)
        assert any(
            not np.array_equal(a.state_arrays()[n], b.state_arrays()[n])
            for n in a.state_arrays()
        )

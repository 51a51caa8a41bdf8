"""Architecture fidelity, batch-norm behavior, dropout and serialization."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgcal import (
    DataError,
    Network,
    ParameterError,
    SemgCalError,
    UsageError,
    build_spectrogram_convnet,
    build_tsd_dnn,
    load_network,
    save_network,
)
from semgcal.autodiff import Tensor
from semgcal.nn import TSD_HIDDEN, Dropout, _Ctx


class TestSpectrogramConvnet:
    def test_parameter_count_11_gestures(self):
        assert build_spectrogram_convnet(11).num_parameters() == 206_548

    def test_input_output_shapes(self):
        model = build_spectrogram_convnet(11).eval()
        x = np.random.default_rng(0).standard_normal((5, 4, 10, 24)).astype(np.float32)
        assert model.predict_probs(x).shape == (5, 11)
        assert model.predict_probs(x, head="domain").shape == (5, 2)

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
        slopes = [l.slope for l in model.feature_layers if isinstance(l, LeakyReLU)]
        assert slopes == [0.1, 0.1, 0.1]

    def test_zero_vector_eval_finite(self):
        model = build_tsd_dnn(7).eval()
        out = model.predict_probs(np.zeros((1, 385), dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out.shape == (1, 7)


class TestForwardContracts:
    def test_softmax_rows_sum_to_one(self):
        model = build_tsd_dnn(11).eval()
        x = np.random.default_rng(1).standard_normal((9, 385)).astype(np.float32)
        p = model.predict_probs(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-5)

    def test_eval_mode_deterministic(self):
        model = build_spectrogram_convnet(11).eval()
        x = np.random.default_rng(2).standard_normal((3, 4, 10, 24)).astype(np.float32)
        np.testing.assert_array_equal(model.predict_probs(x), model.predict_probs(x))

    def test_eval_output_independent_of_batch_composition(self):
        model = build_tsd_dnn(11).eval()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 385)).astype(np.float32)
        alone = model.predict_probs(x[:1])
        batched = model.predict_probs(x)[:1]
        np.testing.assert_allclose(alone, batched, atol=1e-5)

    def test_unknown_head(self):
        model = build_tsd_dnn(11)
        with pytest.raises(UsageError):
            model.logits(np.zeros((1, 385), dtype=np.float32), head="color")

    def test_missing_domain_head(self):
        model = build_tsd_dnn(11)
        model.domain_head = None
        with pytest.raises(UsageError):
            model.logits(np.zeros((1, 385), dtype=np.float32), head="domain")


class TestBatchNormBehavior:
    def test_train_eval_gap_shrinks_with_exposure(self):
        model = build_tsd_dnn(11, seed=5)
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((256, 385)) * 2.0 + 1.0).astype(np.float32)
        held = x[:64]

        def gap():
            model.train()
            import semgcal.autodiff as ad

            with ad.no_grad():
                train_out = model.logits(held).data.copy()
            model.eval()
            with ad.no_grad():
                eval_out = model.logits(held).data
            return np.max(np.abs(train_out - eval_out))

        gaps = [gap()]
        for epoch in range(10):
            model.train()
            import semgcal.autodiff as ad

            with ad.no_grad():
                for lo in range(0, 256, 64):
                    model.logits(x[lo : lo + 64])  # updates running stats
            gaps.append(gap())
        # the gap decays toward the irreducible held-batch sampling noise
        assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.4 * gaps[0]

    def test_dropout_eval_identity_train_expectation(self):
        layer = Dropout(0.5)
        x = Tensor(np.ones((200, 50)))
        out_eval = layer(x, _Ctx(False, np.random.default_rng(0)))
        assert out_eval is x
        rng = np.random.default_rng(1)
        acc = np.zeros((200, 50))
        n_masks = 10_000 // 50
        for _ in range(n_masks):
            acc += layer(x, _Ctx(True, rng)).data
        mean = acc / n_masks
        assert abs(mean.mean() - 1.0) < 0.02  # Monte-Carlo expectation matches eval


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


# Most of a container is float data; weight the draws toward the headers.
_HEADER_BYTES = 512


class TestCorruptContainers:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_raises_semgcal_error(self, saved_blob, data):
        blob, path = saved_blob
        cut = data.draw(st.one_of(st.integers(0, _HEADER_BYTES), st.integers(0, len(blob) - 1)))
        path.write_bytes(blob[:cut])
        with pytest.raises(SemgCalError):
            load_network(path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_flip_loads_or_raises_semgcal_error(self, saved_blob, data):
        blob, path = saved_blob
        bit = data.draw(st.one_of(st.integers(0, 8 * _HEADER_BYTES - 1), st.integers(0, 8 * len(blob) - 1)))
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(damaged))
        try:
            assert isinstance(load_network(path), Network)
        except SemgCalError:
            pass

    @pytest.mark.parametrize("meta", [{"kind": "lstm", "num_gestures": 7}, {"num_gestures": 7},
                                      ["tsd_dnn", 7], {"kind": "tsd_dnn", "num_gestures": 7.0}])
    def test_bad_metadata_raises_semgcal_error(self, saved_blob, meta):
        blob, path = saved_blob
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + blob[12 + meta_len:])
        with pytest.raises(SemgCalError):
            load_network(path)

    def test_trailing_bytes_rejected(self, saved_blob):
        blob, path = saved_blob
        path.write_bytes(blob + b"\0")
        with pytest.raises(DataError):
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

"""TD features, TSD descriptors/features and the LDA baseline."""

import threading

import numpy as np
import pytest

from semgcal import (
    DataError,
    EmptyInputError,
    FeatureExample,
    NumericError,
    Segment,
    ShapeError,
    lda_fit,
    lda_predict,
    td_features,
    tsd_descriptor,
    tsd_features,
)
from semgcal import features
from semgcal.experiment import _filter_stack, featurize
from semgcal.features import (
    TSD_EPS,
    _real_cepstrum,
    _similarity_combine,
    lda_discriminants,
    lda_fit_arrays,
    tsd_matrix,
)
from semgcal.signal import segment_stream
from semgcal.synth import SynthConfig, synth_generate


def seg_with_channel(values, channel=0, width=None):
    width = width or len(values)
    data = np.zeros((10, width))
    data[channel, : len(values)] = values
    return Segment(data=data, start_index=0)


class TestTdFeatures:
    def test_zero_segment(self):
        fe = td_features(seg_with_channel(np.zeros(150)))
        assert fe.kind == "TD" and fe.values.shape == (40,)
        assert np.all(fe.values == 0)

    def test_alternating_toy(self):
        fe = td_features(seg_with_channel([1.0, -1.0, 1.0, -1.0]))
        mav, zc, ssc, wl = fe.values[:4]
        assert mav == pytest.approx(1.0)
        assert zc == 3
        assert wl == pytest.approx(6.0)
        # untouched channels stay all-zero
        assert np.all(fe.values[4:] == 0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(150)
        base = td_features(seg_with_channel(x)).values[:4]
        scaled = td_features(seg_with_channel(4.0 * x)).values[:4]
        assert scaled[0] == pytest.approx(4.0 * base[0])  # MAV
        assert scaled[3] == pytest.approx(4.0 * base[3])  # WL
        assert scaled[1] == base[1] and scaled[2] == base[2]  # ZC, SSC

    def test_channel_major_layout(self):
        data = np.zeros((10, 20))
        data[7] = np.linspace(-1, 1, 20)
        fe = td_features(Segment(data=data, start_index=0))
        assert np.any(fe.values[28:32] != 0)
        mask = np.ones(40, dtype=bool)
        mask[28:32] = False
        assert np.all(fe.values[mask] == 0)


class TestTsdDescriptor:
    def test_all_zero_fallback(self):
        d = tsd_descriptor(np.zeros(150))
        np.testing.assert_allclose(d, np.log(TSD_EPS))

    def test_hand_computed_moments_on_123(self):
        x = np.array([1.0, 2.0, 3.0])
        m0, m2, m4 = np.sqrt(14.0), np.sqrt(2.0), 0.0
        tk = abs(2.0**2 - 1.0 * 3.0)  # == 1
        d = tsd_descriptor(x)
        assert d[0] == pytest.approx(np.log(TSD_EPS + m0))
        assert d[1] == pytest.approx(np.log(TSD_EPS + abs(m0 - m2)))
        assert d[2] == pytest.approx(np.log(TSD_EPS + abs(m0 - m4)))
        assert d[6] == pytest.approx(np.log(TSD_EPS + tk))

    def test_brute_force_oracle(self):
        # independent scalar-loop implementation of the same descriptor set
        def oracle(x):
            x = np.asarray(x, dtype=float)
            d1 = [x[i + 1] - x[i] for i in range(len(x) - 1)]
            d2 = [d1[i + 1] - d1[i] for i in range(len(d1) - 1)]
            m0 = sum(v * v for v in x) ** 0.5
            m2 = sum(v * v for v in d1) ** 0.5
            m4 = sum(v * v for v in d2) ** 0.5
            sparse = m0 / max(abs((m0 - m2) * (m0 - m4)) ** 0.5, TSD_EPS)
            irr = m2 / max(abs(m0 * m4) ** 0.5, TSD_EPS)
            mean = sum(x) / len(x)
            std = (sum((v - mean) ** 2 for v in x) / len(x)) ** 0.5
            cov = std / max(sum(abs(v) for v in x) / len(x), TSD_EPS)
            tk = sum(abs(x[i] ** 2 - x[i - 1] * x[i + 1]) for i in range(1, len(x) - 1))
            comps = [m0, abs(m0 - m2), abs(m0 - m4), sparse, irr, cov, tk]
            return np.log(TSD_EPS + np.abs(comps))

        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(3, 60))
            np.testing.assert_allclose(tsd_descriptor(x), oracle(x), rtol=1e-12)

    def test_doubling_shifts_m0_by_log2(self):
        x = np.random.default_rng(1).standard_normal(150) * 10
        d1 = tsd_descriptor(x)[0]
        d2 = tsd_descriptor(2.0 * x)[0]
        assert d2 - d1 == pytest.approx(np.log(2.0), abs=1e-6)


class TestTsdFeatures:
    def test_length_385(self):
        seg = Segment(data=np.random.default_rng(0).standard_normal((10, 150)), start_index=0)
        fe = tsd_features(seg)
        assert fe.values.shape == (385,)
        assert fe.kind == "TSD"

    def test_identical_descriptor_pair_gives_one(self):
        a = np.array([1.0, -2.0, 0.5, 3.0, -0.1, 2.2, 1.1])
        f = _similarity_combine(a, a)
        np.testing.assert_allclose(f, 1.0, atol=1e-6)

    def test_zero_segment_gives_zeros(self):
        fe = tsd_features(Segment(data=np.zeros((10, 150)), start_index=0))
        np.testing.assert_allclose(fe.values, 0.0, atol=1e-9)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            seg = Segment(data=rng.standard_normal((10, 150)) * 50, start_index=0)
            v = tsd_features(seg).values
            assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1.0 + 1e-12)
            assert np.all(np.isfinite(v))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        batch = rng.standard_normal((4, 10, 150))
        mat = tsd_matrix(batch)
        for i in range(4):
            single = tsd_features(Segment(data=batch[i], start_index=0)).values
            np.testing.assert_allclose(mat[i], single, rtol=1e-12)

    def test_cepstrum_shape_and_determinism(self):
        x = np.random.default_rng(2).standard_normal(150)
        c1, c2 = _real_cepstrum(x), _real_cepstrum(x)
        assert c1.shape == (150,)
        assert np.array_equal(c1, c2)


# -- frozen reference: the TSD extraction as it stood before the flat-buffer
# rewrite, kept verbatim so the rewrite is held to the same float64 bits.


def _reference_descriptors(x):
    x = np.asarray(x, dtype=np.float64)
    d1 = x[..., 1:] - x[..., :-1]
    d2 = d1[..., 1:] - d1[..., :-1]
    m0 = np.sqrt(np.einsum("...i,...i->...", x, x))
    m2 = np.sqrt(np.einsum("...i,...i->...", d1, d1))
    m4 = np.sqrt(np.einsum("...i,...i->...", d2, d2))

    sparse_den = np.maximum(np.sqrt(np.abs((m0 - m2) * (m0 - m4))), TSD_EPS)
    sparseness = m0 / sparse_den
    irr_den = np.maximum(np.sqrt(np.abs(m0 * m4)), TSD_EPS)
    irregularity = m2 / irr_den

    mean_abs = np.mean(np.abs(x), axis=-1)
    cov = np.std(x, axis=-1) / np.maximum(mean_abs, TSD_EPS)
    tk = np.sum(np.abs(x[..., 1:-1] ** 2 - x[..., :-2] * x[..., 2:]), axis=-1)

    comps = np.stack(
        [m0, np.abs(m0 - m2), np.abs(m0 - m4), sparseness, irregularity, cov, tk], axis=-1
    )
    out = np.log(TSD_EPS + np.abs(comps))
    zero_rows = ~np.any(x != 0.0, axis=-1)
    out[zero_rows] = np.log(TSD_EPS)
    return out


def _reference_cepstrum(x):
    spec = np.abs(np.fft.rfft(x, axis=-1))
    return np.fft.irfft(np.log(spec + TSD_EPS), n=x.shape[-1], axis=-1)


def _reference_tsd_matrix(batch, chunk=96):
    batch = np.asarray(batch, dtype=np.float64)
    n, c, _ = batch.shape
    pi, pj = np.triu_indices(c, k=1)
    out = np.empty((n, 7 * (c + len(pi))), dtype=np.float64)
    for lo in range(0, n, chunk):
        part = batch[lo : lo + chunk]
        signals = np.concatenate([part, part[:, pi, :] - part[:, pj, :]], axis=1)
        a = _reference_descriptors(signals)
        b = _reference_descriptors(_reference_cepstrum(signals))
        combined = 2.0 * a * b / (a * a + b * b + TSD_EPS)  # (chunk, 55, 7)
        zero_rows = ~np.any(signals != 0.0, axis=-1)
        combined[zero_rows] = 0.0
        out[lo : lo + chunk] = combined.reshape(len(part), -1)
    return out


@pytest.fixture(scope="module")
def tsd_windows():
    """97 windows (10, 150) with every edge case the descriptors special-case."""
    rng = np.random.default_rng(2024)
    synth = synth_generate(SynthConfig(subjects=1, sessions=1, gestures=3, seed=5, cycles=1,
                                       cycle_block_seconds=1.0, eval_blocks=1, eval_block_seconds=1.0))
    segs = [s for rec in synth[0].sessions[0].cycles[0].values() for s in segment_stream(rec)]
    filtered = _filter_stack(segs)[:40]
    scales = rng.uniform(0.01, 3000.0, size=(57, 1, 1))
    windows = np.concatenate([rng.standard_normal((57, 10, 150)) * scales, filtered])
    windows = windows[rng.permutation(97)]
    windows[0, 4] = 0.0  # one silent channel
    windows[14] = rng.integers(-32768, 32768, size=(10, 150))  # int16 range
    windows[15] = 0.0  # a silent window, last row of the first 16-row pass
    windows[16, 7] = windows[16, 2]  # identical channels: a zero pair difference
    windows[30, 1] = 0.0
    windows[30, 1, 75] = 1e-310  # one subnormal sample
    windows[96] = 0.0
    return windows


class TestTsdMatrixBitExact:
    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 33, 97])
    def test_equals_frozen_reference(self, tsd_windows, rows):
        batch = tsd_windows[:rows]
        assert np.array_equal(tsd_matrix(batch), _reference_tsd_matrix(batch))

    def test_row_alone_equals_row_in_batch(self, tsd_windows):
        whole = tsd_matrix(tsd_windows)
        for i, window in enumerate(tsd_windows):
            assert np.array_equal(tsd_matrix(window[None])[0], whole[i]), i

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_split_gives_the_same_bits(self, tsd_windows, monkeypatch, cpus):
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        assert np.array_equal(tsd_matrix(tsd_windows), _reference_tsd_matrix(tsd_windows))

    def test_descriptor_and_cepstrum_equal_reference(self, tsd_windows):
        rng = np.random.default_rng(9)
        signals = [rng.standard_normal(n) * 40 for n in (3, 4, 17, 150, 301)]
        signals += [tsd_windows[0, 2], np.zeros(150)]
        for x in signals:
            assert np.array_equal(tsd_descriptor(x), _reference_descriptors(x))
        assert np.array_equal(_real_cepstrum(tsd_windows), _reference_cepstrum(tsd_windows))

    def test_concurrent_callers_get_the_serial_result(self, tsd_windows):
        batches = [tsd_windows, tsd_windows[::-1].copy()]
        results = [[], []]

        def call(i):
            results[i] = [tsd_matrix(batches[i]) for _ in range(3)]

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for batch, outs in zip(batches, results):
            want = _reference_tsd_matrix(batch)
            assert len(outs) == 3 and all(np.array_equal(out, want) for out in outs)


class TestTsdBoundaries:
    @pytest.mark.parametrize("call, error", [
        (lambda: tsd_matrix(np.ones((10, 150))), ShapeError),
        (lambda: tsd_matrix(np.ones((2, 10, 2))), ShapeError),
        (lambda: tsd_matrix(np.ones((2, 9, 150))), ShapeError),
        (lambda: tsd_matrix(np.ones((2, 10, 150, 1))), ShapeError),
        (lambda: featurize([], "tsd"), EmptyInputError),
        (lambda: featurize([], "spectrogram"), EmptyInputError),
    ], ids=["2-D", "2-samples", "9-channels", "4-D", "featurize-empty", "spectrogram-empty"])
    def test_bad_input_raises(self, call, error):
        with pytest.raises(error):
            call()

    def test_empty_and_single_batches_start_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(features, "ThreadPoolExecutor", no_pool)
        assert tsd_matrix(np.zeros((0, 10, 150))).shape == (0, 385)
        assert tsd_matrix(np.ones((1, 10, 150))).shape == (1, 385)
        assert tsd_matrix(np.ones((16, 10, 150))).shape == (16, 385)


def gaussian_clusters(seed=0, n=100, d=8, sep=5.0):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, d)) - sep / 2
    x1 = rng.standard_normal((n, d)) + sep / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestLda:
    def test_separable_clusters_perfect_training_accuracy(self):
        x, y = gaussian_clusters(seed=11)
        model = lda_fit_arrays(x, y)
        preds = lda_predict(model, x)
        assert np.mean(preds == y) == 1.0
        # nearest-mean oracle agrees on this isotropic fixture
        mean0, mean1 = x[y == 0].mean(axis=0), x[y == 1].mean(axis=0)
        oracle = (np.linalg.norm(x - mean1, axis=1) < np.linalg.norm(x - mean0, axis=1)).astype(int)
        assert np.array_equal(preds, oracle)

    def test_duplicated_points_predict_nearer_mean(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0]])
        y = np.array([0, 0, 1, 1])
        model = lda_fit_arrays(x, y)
        assert lda_predict(model, np.array([0.5, 0.5])) == 0
        assert lda_predict(model, np.array([3.5, 3.5])) == 1

    def test_symmetric_midpoint_discriminants_equal(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((60, 3))
        mu = np.array([2.0, -1.0, 0.5])
        x = np.vstack([base - mu, -base + mu])  # exact point symmetry
        y = np.array([0] * 60 + [1] * 60)
        model = lda_fit_arrays(x, y)
        scores = lda_discriminants(model, np.zeros(3))[0]
        assert abs(scores[0] - scores[1]) < 1e-9

    def test_affine_invariance_of_predictions(self):
        x, y = gaussian_clusters(seed=21, d=5)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        b = rng.standard_normal(5)
        x2 = x @ a.T + b
        p1 = lda_predict(lda_fit_arrays(x, y), x)
        p2 = lda_predict(lda_fit_arrays(x2, y), x2)
        assert np.array_equal(p1, p2)

    def test_fit_from_feature_examples(self):
        x, y = gaussian_clusters(seed=2, n=10, d=385, sep=8.0)
        examples = [FeatureExample(values=row, label=int(lab)) for row, lab in zip(x, y)]
        model = lda_fit(examples)
        assert np.mean(lda_predict(model, x) == y) == 1.0

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(DataError):
            lda_fit_arrays(x, np.zeros(10, dtype=int))

    def test_one_example_per_class_rejected(self):
        x = np.eye(2)
        with pytest.raises(DataError):
            lda_fit_arrays(x, np.array([0, 1]))

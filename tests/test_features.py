"""TSD descriptors and features."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from semgcal import EmptyInputError, ParameterError, ShapeError
from semgcal import features
from semgcal.experiment import _FEATURIZE_BLOCK, featurize
from semgcal.features import (
    TSD_EPS,
    _descriptors,
    _real_cepstrum,
    _similarity_combine,
    tsd_matrix,
)
from semgcal.signal import (
    RawRecording,
    Windows,
    _window_labels,
    bandpass,
    segment_stream,
    spectrograms,
    window_starts,
)
from semgcal.synth import SynthConfig, synth_generate


def descriptors_of(x):
    """`_descriptors` of one 1-D signal: its seven values."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty((1, 7))
    _descriptors(x[None, :], np.empty((2, len(x))), out)
    return out[0]


class TestTsdDescriptor:
    def test_all_zero_fallback(self):
        d = descriptors_of(np.zeros(150))
        np.testing.assert_allclose(d, np.log(TSD_EPS))

    def test_hand_computed_moments_on_123(self):
        x = np.array([1.0, 2.0, 3.0])
        m0, m2, m4 = np.sqrt(14.0), np.sqrt(2.0), 0.0
        tk = abs(2.0**2 - 1.0 * 3.0)  # == 1
        d = descriptors_of(x)
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
            np.testing.assert_allclose(descriptors_of(x), oracle(x), rtol=1e-12)

    def test_doubling_shifts_m0_by_log2(self):
        x = np.random.default_rng(1).standard_normal(150) * 10
        d1 = descriptors_of(x)[0]
        d2 = descriptors_of(2.0 * x)[0]
        assert d2 - d1 == pytest.approx(np.log(2.0), abs=1e-6)


class TestTsdFeatures:
    def test_length_385(self):
        window = np.random.default_rng(0).standard_normal((10, 150))
        assert tsd_matrix(window[None])[0].shape == (385,)

    def test_identical_descriptor_pair_gives_one(self):
        a = np.array([1.0, -2.0, 0.5, 3.0, -0.1, 2.2, 1.1])
        f = _similarity_combine(a, a)
        np.testing.assert_allclose(f, 1.0, atol=1e-6)

    def test_zero_segment_gives_zeros(self):
        window = np.zeros((10, 150))
        np.testing.assert_allclose(tsd_matrix(window[None])[0], 0.0, atol=1e-9)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            window = rng.standard_normal((10, 150)) * 50
            v = tsd_matrix(window[None])[0]
            assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1.0 + 1e-12)
            assert np.all(np.isfinite(v))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        batch = rng.standard_normal((4, 10, 150))
        mat = tsd_matrix(batch)
        for i in range(4):
            single = tsd_matrix(batch[i][None])[0]
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
    views = [segment_stream(rec).data for rec in synth[0].sessions[0].cycles[0].values()]
    filtered = bandpass(np.concatenate(views, dtype=np.float64))[:40]
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
            assert np.array_equal(descriptors_of(x), _reference_descriptors(x))
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
        (lambda: featurize(Windows(data=np.ones((1, 10, 150)), starts=range(1), labels=None), "bogus"),
         ParameterError),
    ], ids=["2-D", "2-samples", "9-channels", "4-D", "featurize-empty", "spectrogram-empty",
            "featurize-unknown-kind"])
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


class TestFeaturizeBlocks:
    """`featurize` runs `_FEATURIZE_BLOCK` windows at a time into one output."""

    @pytest.mark.parametrize("kind", ["tsd", "spectrogram"])
    def test_block_boundaries_change_no_bits(self, kind):
        n = 2 * _FEATURIZE_BLOCK + 3
        rng = np.random.default_rng(21)
        windows = rng.standard_normal((n, 10, 150)) * rng.uniform(1.0, 3000.0, (n, 1, 1))
        windows[_FEATURIZE_BLOCK, 4] = 0.0  # an all-zero channel, first window of the second block
        m = _FEATURIZE_BLOCK + 7  # a labeled recording, then an unlabeled one: block 2 spans both
        labels = [i % 11 for i in range(m)]
        parts = [Windows(data=windows[:m], starts=range(0, 50 * m, 50), labels=labels),
                 Windows(data=windows[m:], starts=range(0, 50 * (n - m), 50), labels=None)]
        x, y = featurize(parts, kind)
        assert x.dtype == np.float32 and len(x) == len(y) == n
        for i in range(n):
            label = labels[i] if i < m else None
            alone = Windows(data=windows[i : i + 1], starts=range(1), labels=[label] if i < m else None)
            alone_x, alone_y = featurize(alone, kind)
            assert np.array_equal(x[i], alone_x[0]), i
            assert y[i] == alone_y[0] == (-1 if label is None else label), i

    def test_peak_grows_only_with_the_output(self, monkeypatch):
        # Besides X and y, featurize holds one block of windows, so past one
        # block its traced peak grows with the output alone: from N to 4N
        # windows by exactly the output's growth, plus the interpreter's own
        # allocations (64 KiB). The old stack-everything path grew by ~23 KB
        # per window, 15 times the output's 1548 bytes. One TSD thread keeps
        # the peak from depending on how two threads' scratch overlaps.
        monkeypatch.setattr(features, "max_threads", 1)
        rng = np.random.default_rng(8)

        def traced(windows):
            samples = rng.integers(-3000, 3000, (10, 150 + 50 * (windows - 1))).astype(np.int16)
            segs = segment_stream(RawRecording(samples=samples))
            assert len(segs) == windows
            tracemalloc.start()
            try:
                x, y = featurize(segs, "tsd")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, x.nbytes + y.nbytes

        traced(_FEATURIZE_BLOCK + 1)  # first-call allocations stay out of the measurement
        n = 2 * _FEATURIZE_BLOCK
        peak, out = traced(n)
        peak4, out4 = traced(4 * n)
        assert peak4 - peak <= out4 - out + 64 * 1024, (peak, peak4, out, out4)


# -- frozen reference: the window path as it stood when every window was a
# float64 copy in its own segment object, kept verbatim as the oracle of the
# strided view.


@dataclasses.dataclass(frozen=True)
class _FrozenSegment:
    data: np.ndarray
    start_index: int
    label: int | None = None


def _frozen_segment_stream(rec):
    window, starts = window_starts(rec)
    data = np.asarray(rec.samples, dtype=np.float64)
    if rec.labels is None:
        labels = [None] * len(starts)
    else:
        labels = _window_labels(np.asarray(rec.labels), window, starts)
    return [
        _FrozenSegment(data=data[:, start : start + window], start_index=start, label=label)
        for start, label in zip(starts, labels)
    ]


def _frozen_filter_stack(segments):
    return bandpass(np.stack([s.data for s in segments]))


def _frozen_featurize(segments, input_kind):
    n = len(segments)
    features_of = tsd_matrix if input_kind == "tsd" else spectrograms
    x = None
    for lo in range(0, n, 256):
        rows = features_of(_frozen_filter_stack(segments[lo : lo + 256]))
        if x is None:
            x = np.empty((n, *rows.shape[1:]), dtype=np.float32)
        x[lo : lo + len(rows)] = rows
    y = np.fromiter((-1 if s.label is None else s.label for s in segments), dtype=np.int64, count=n)
    return x, y


def _recording(t, labels=None, seed=0):
    samples = np.random.default_rng(seed).integers(-3000, 3000, (10, t)).astype(np.int16)
    return RawRecording(samples=samples, labels=None if labels is None else np.asarray(labels))


WINDOW_CASES = {
    "labeled": _recording(3000, np.repeat(np.arange(3), 1000), seed=1),
    "unlabeled": _recording(2000, seed=2),
    "one-window": _recording(150, np.zeros(150, dtype=np.int64), seed=3),
    "partial-stride": _recording(150 + 50 * 7 + 23, np.zeros(523, dtype=np.int64), seed=4),
    # the window at 100 holds 75 samples of each label: a tie, to the later label
    "straddles-a-change": _recording(400, [2] * 175 + [5] * 225, seed=5),
}


class TestWindowPath:
    """A recording's windows are one strided view of its samples."""

    @pytest.mark.parametrize("kind", ["tsd", "spectrogram"])
    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_featurize_equals_the_segment_path(self, case, kind):
        rec = WINDOW_CASES[case]
        x, y = featurize(segment_stream(rec), kind)
        want_x, want_y = _frozen_featurize(_frozen_segment_stream(rec), kind)
        assert x.dtype == want_x.dtype and y.dtype == want_y.dtype
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)

    @pytest.mark.parametrize("kind", ["tsd", "spectrogram"])
    def test_recordings_of_a_part_equal_their_stacked_segments(self, kind):
        # 306 windows: the second block starts inside the third recording
        recs = [_recording(5000, np.repeat(np.arange(5), 1000), seed=s) for s in range(3)]
        recs.append(_recording(700, seed=9))
        x, y = featurize([segment_stream(rec) for rec in recs], kind)
        segments = [seg for rec in recs for seg in _frozen_segment_stream(rec)]
        assert len(segments) > _FEATURIZE_BLOCK
        want_x, want_y = _frozen_featurize(segments, kind)
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)

    def test_windows_are_a_read_only_view_of_the_samples(self):
        rec = WINDOW_CASES["labeled"]
        windows = segment_stream(rec)
        assert np.shares_memory(windows.data, rec.samples)
        assert windows.data.dtype == rec.samples.dtype and not windows.data.flags.writeable
        for i, start in enumerate(windows.starts):
            assert np.array_equal(windows.data[i], rec.samples[:, start : start + 150])

    def test_windowing_a_90_s_recording_holds_no_copy(self):
        # 1,798 windows: a float64 copy of the samples alone is 7.2 MB
        t = 90 * 1000
        rec = _recording(t, np.repeat(np.arange(36) % 11, t // 36), seed=6)
        segment_stream(rec)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            windows = segment_stream(rec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(windows) == 1798
        assert held < 64 * 1024, held

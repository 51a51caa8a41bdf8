"""Preprocessing: windowing, band-pass filter, Hann window, spectrograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from semgcal import EmptyInputError, ParameterError, ShapeError
from semgcal.experiment import featurize
from semgcal.signal import (
    BANDPASS_HIGH_HZ,
    BANDPASS_LOW_HZ,
    BANDPASS_ORDER,
    SAMPLE_RATE_HZ,
    SPEC_HOP,
    SPEC_WIN,
    _BANDPASS_SOS,
    RawRecording,
    Segment,
    _frame_spectra,
    _hann,
    bandpass,
    build_spectrogram_example,
    segment_stream,
    spectrograms,
    window_starts,
)


def make_recording(t, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-2000, 2000, size=(10, t)).astype(np.int16)
    return RawRecording(samples=samples, labels=labels)


def sliding_window_count(t, w, s):
    """Independent counting oracle: enumerate window starts."""
    count = 0
    start = 0
    while start + w <= t:
        count += 1
        start += s
    return count


class TestSegmentStream:
    def test_5000_samples_gives_98_segments(self):
        rec = make_recording(5000)
        windows = segment_stream(rec, window_ms=150, overlap_ms=100)
        assert len(windows) == sliding_window_count(5000, 150, 50) == 98

    def test_single_window(self):
        rec = make_recording(150)
        windows = segment_stream(rec)
        assert len(windows) == 1
        assert windows.starts[0] == 0

    def test_paper_defaults_window_and_stride(self):
        rec = make_recording(400)
        windows = segment_stream(rec, window_ms=150, overlap_ms=100)
        assert windows.data[0].shape == (10, 150)
        assert windows.starts[1] - windows.starts[0] == 50

    def test_count_formula_against_oracle_randomized(self):
        rng = np.random.default_rng(42)
        rec_cache = {}
        for _ in range(1000):
            w = int(rng.integers(2, 60)) * 10  # multiple of stride granularity
            s_ms = int(rng.integers(1, w // 10)) * 10
            t = int(rng.integers(w, w * 8))
            if t not in rec_cache:
                rec_cache[t] = make_recording(t)
            windows = segment_stream(rec_cache[t], window_ms=w, overlap_ms=w - s_ms)
            assert len(windows) == sliding_window_count(t, w, s_ms)

    def test_segments_ordered_by_start(self):
        starts = list(segment_stream(make_recording(1234)).starts)
        assert starts == sorted(starts)

    def test_majority_label(self):
        labels = np.array([0] * 100 + [3] * 50)
        rec = make_recording(150, labels=labels)
        (label,) = segment_stream(rec).labels
        assert label == 0

    def test_majority_tie_goes_to_later_label(self):
        labels = np.array([2] * 75 + [5] * 75)
        rec = make_recording(150, labels=labels)
        (label,) = segment_stream(rec).labels
        assert label == 5

    def test_too_short_stream(self):
        with pytest.raises(EmptyInputError):
            segment_stream(make_recording(100))

    def test_wrong_channel_count(self):
        with pytest.raises(ShapeError):
            RawRecording(samples=np.zeros((9, 500), dtype=np.int16))

    def test_bad_window_params(self):
        with pytest.raises(ParameterError):
            segment_stream(make_recording(500), window_ms=100, overlap_ms=100)

    @pytest.mark.parametrize("window_ms, overlap_ms", [(150, 100), (200, 150), (100, 0), (250, 50)])
    def test_windows_sized_at_the_sample_rate(self, window_ms, overlap_ms):
        # one sample rate for cutting and filtering: milliseconds become
        # samples at SAMPLE_RATE_HZ
        rec = make_recording(1000)
        window, starts = window_starts(rec, window_ms, overlap_ms)
        assert window == window_ms * SAMPLE_RATE_HZ // 1000
        assert starts.step == (window_ms - overlap_ms) * SAMPLE_RATE_HZ // 1000
        windows = segment_stream(rec, window_ms=window_ms, overlap_ms=overlap_ms)
        assert list(windows.starts) == list(starts)
        assert {w.shape for w in windows.data} == {(10, window)}


def _frozen_window_labels(labels, window, stride):
    """The per-window label rule as it was before the one-pass labeling, kept
    verbatim as an oracle: np.unique per window, a tie to the latest label."""
    out = []
    for start in range(0, len(labels) - window + 1, stride):
        window_labels = labels[start : start + window]
        values, counts = np.unique(window_labels, return_counts=True)
        best = counts.max()
        tied = values[counts == best]
        if len(tied) == 1:
            out.append(int(tied[0]))
            continue
        last_seen = [np.flatnonzero(window_labels == v)[-1] for v in tied]
        out.append(int(tied[int(np.argmax(last_seen))]))
    return out


@st.composite
def _label_streams(draw):
    """Label runs over a small alphabet (many ties), one-sample runs included,
    with a window and a stride that may equal it."""
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), min_size=1, max_size=30))
    labels = np.concatenate([np.full(n, g, dtype=np.int64) for g, n in runs])
    window = draw(st.integers(1, min(24, len(labels))))
    stride = draw(st.one_of(st.just(window), st.integers(1, window)))
    return labels, window, stride


class TestWindowLabels:
    @given(_label_streams())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_labels_match_the_per_window_rule(self, stream):
        labels, window, stride = stream
        rec = make_recording(len(labels), labels=labels)
        windows = segment_stream(rec, window_ms=window, overlap_ms=window - stride)
        assert windows.labels == _frozen_window_labels(labels, window, stride)
        assert all(type(label) is int for label in windows.labels)

    def test_alternating_one_sample_runs(self):
        labels = np.tile([4, 1], 75)
        rec = make_recording(150, labels=labels)
        (label,) = segment_stream(rec).labels
        assert label == _frozen_window_labels(labels, 150, 50)[0] == 1


class TestBandpass:
    def channels(self, x):
        return np.tile(x, (10, 1))

    def test_dc_input_decays(self):
        out = bandpass(self.channels(np.full(150, 500.0)))
        assert abs(out[0, -50:].mean()) < 0.01 * 500.0

    def test_100hz_within_1db(self):
        # frequency-response oracle for the designed filter
        w, h = sps.sosfreqz(_BANDPASS_SOS, worN=[100.0], fs=1000)
        oracle_db = 20 * np.log10(np.abs(h[0]))
        assert abs(oracle_db) <= 1.0

        t = np.arange(3000)
        x = np.sin(2 * np.pi * 100.0 * t / 1000.0)
        out = bandpass(self.channels(x))
        amp = np.sqrt(2.0) * np.sqrt(np.mean(out[0, -1000:] ** 2))
        assert abs(20 * np.log10(amp)) <= 1.0

    def test_5hz_attenuated_20db(self):
        w, h = sps.sosfreqz(_BANDPASS_SOS, worN=[5.0], fs=1000)
        assert 20 * np.log10(np.abs(h[0])) <= -20.0

        t = np.arange(5000)
        x = np.sin(2 * np.pi * 5.0 * t / 1000.0)
        out = bandpass(self.channels(x))
        amp = np.sqrt(2.0) * np.sqrt(np.mean(out[0, -1000:] ** 2))
        assert 20 * np.log10(amp) <= -20.0

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 150))
        y = rng.standard_normal((10, 150))
        a, b = 2.5, -1.25
        lhs = bandpass(a * x + b * y)
        rhs = a * bandpass(x) + b * bandpass(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_filter_is_order_four(self):
        # two second-order sections == fourth order
        assert _BANDPASS_SOS.shape[0] == 2

    def test_shipped_constants_are_a_valid_design(self):
        # nothing checks the constants at run time
        assert 0.0 < BANDPASS_LOW_HZ < BANDPASS_HIGH_HZ < SAMPLE_RATE_HZ / 2
        assert BANDPASS_ORDER > 0 and BANDPASS_ORDER % 2 == 0
        assert _BANDPASS_SOS.shape == (BANDPASS_ORDER // 2, 6)

    def test_zeros_at_dc_and_nyquist(self):
        sos = _BANDPASS_SOS
        zeros = np.sort(np.concatenate([np.roots(section[:3]) for section in sos]).real)
        np.testing.assert_allclose(zeros, [-1.0, -1.0, 1.0, 1.0], atol=1e-6)
        nyquist = np.tile((-1.0) ** np.arange(3000), (10, 1))
        assert np.max(np.abs(bandpass(nyquist)[:, -500:])) < 1e-6

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
    def test_input_dtype_filtered_as_float64(self, dtype):
        x = np.random.default_rng(5).integers(-2000, 2000, size=(10, 300)).astype(dtype)
        out = bandpass(x)
        assert out.shape == x.shape and out.dtype == np.float64
        assert np.array_equal(out, bandpass(x.astype(np.float64)))


# scipy is the oracle for the numpy design and filter; the package itself
# does not import it.


class TestBandpassMatchesScipy:
    def test_shipped_design_bit_identical(self):
        want = sps.butter(2, [20.0, 495.0], btype="bandpass", fs=1000, output="sos")
        assert np.array_equal(_BANDPASS_SOS, want)

    def test_poles_are_two_complex_pairs(self):
        # the design takes no real-pole branch
        sos = _BANDPASS_SOS
        poles = np.concatenate([np.roots(section[3:]) for section in sos])
        _, want, _ = sps.butter(2, [20.0, 495.0], btype="bandpass", fs=1000, output="zpk")
        key = lambda p: (round(p.real, 6), p.imag)
        np.testing.assert_allclose(sorted(poles, key=key), sorted(want, key=key), atol=1e-9)
        for section in sos:
            p = np.roots(section[3:])
            assert np.all(p.imag != 0) and np.isclose(p[0], np.conj(p[1]))
        assert np.all(np.abs(poles) < 1)
        np.testing.assert_allclose(sorted(poles, key=key),
                                   [-0.978 - 0.022j, -0.978 + 0.022j, 0.911 - 0.082j, 0.911 + 0.082j],
                                   atol=1e-3)

    @pytest.mark.parametrize("freq", [5, 10, 20, 50, 100, 200, 300, 400, 450, 490])
    def test_steady_state_gain_equals_design_response(self, freq):
        # a sine of a whole number of cycles per second, past the transient
        t = np.arange(4 * SAMPLE_RATE_HZ)
        out = bandpass(np.sin(2 * np.pi * freq * t / SAMPLE_RATE_HZ))
        amp = np.sqrt(2.0 * np.mean(out[-SAMPLE_RATE_HZ:] ** 2))
        _, h = sps.sosfreqz(_BANDPASS_SOS, worN=[freq], fs=SAMPLE_RATE_HZ)
        np.testing.assert_allclose(amp, np.abs(h[0]), rtol=1e-9)

    @pytest.mark.parametrize("edge", [BANDPASS_LOW_HZ, BANDPASS_HIGH_HZ])
    def test_band_edges_at_half_power(self, edge):
        _, h = sps.sosfreqz(_BANDPASS_SOS, worN=[edge], fs=SAMPLE_RATE_HZ)
        np.testing.assert_allclose(np.abs(h[0]), np.sqrt(0.5), rtol=1e-9)

    @pytest.mark.parametrize("length", [1, 2, 149, 150, 151, 300, 4000])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 10)])
    def test_bandpass_equals_sosfilt(self, length, lead):
        x = np.random.default_rng(length).integers(-2000, 2000, size=(*lead, length)).astype(float)
        want = sps.sosfilt(_BANDPASS_SOS.copy(), x, axis=-1)  # scipy takes no read-only sos
        got = bandpass(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("length", [150, 149, 300])
    def test_window_alone_equals_its_row_in_a_batch(self, length):
        # what the online controller's per-window predictions rely on
        batch = np.random.default_rng(length).integers(-2000, 2000, (300, 10, length)).astype(float)
        filtered = bandpass(batch)
        for i in range(0, 300, 7):
            assert np.array_equal(bandpass(batch[i]), filtered[i])


class TestHannWindow:
    def test_endpoint_zero(self):
        assert _hann(48)[0] == 0.0

    def test_midpoint_one(self):
        assert _hann(48)[24] == pytest.approx(1.0, abs=1e-15)

    def test_n4_values(self):
        np.testing.assert_allclose(_hann(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_range(self):
        w = _hann(48)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            _hann(1)


def direct_dft_magnitudes(x, win, hop):
    """O(n^2) DFT oracle for the windowed frames."""
    n_frames = (len(x) - win) // hop + 1
    w = 0.5 * (1 - np.cos(2 * np.pi * np.arange(win) / win))
    out = np.zeros((n_frames, win // 2 + 1))
    for f in range(n_frames):
        frame = x[f * hop : f * hop + win] * w
        for k in range(win // 2 + 1):
            re = np.sum(frame * np.cos(-2 * np.pi * k * np.arange(win) / win))
            im = np.sum(frame * np.sin(-2 * np.pi * k * np.arange(win) / win))
            out[f, k] = np.hypot(re, im)
    return out


class TestSpectrogram:
    def test_150_samples_four_frames_25_bins(self):
        x = np.random.default_rng(3).standard_normal(150)
        s = _frame_spectra(x, 48, 34)
        assert s.shape == (4, 25)

    def test_frame_offsets_from_overlap_14(self):
        # hop = 48 - 14 = 34; frames land at 0, 34, 68, 102, so energy placed
        # past sample 116 is visible to the last frame only
        x = np.zeros(150)
        x[120:150] = np.random.default_rng(5).standard_normal(30)
        s = _frame_spectra(x, SPEC_WIN, SPEC_HOP)
        assert np.allclose(s[:3], 0)
        assert s[3].sum() > 0

    def test_all_zero_input(self):
        assert np.all(_frame_spectra(np.zeros(150), SPEC_WIN, SPEC_HOP) == 0)

    def test_bin5_cosine_dominates_and_matches_dft_oracle(self):
        t = np.arange(150)
        x = np.cos(2 * np.pi * 5.0 * t / 48.0)
        s = _frame_spectra(x, SPEC_WIN, SPEC_HOP)
        assert np.all(np.argmax(s, axis=1) == 5)
        np.testing.assert_allclose(s, direct_dft_magnitudes(x, 48, 34), atol=1e-9)

    def test_non_negative(self):
        x = np.random.default_rng(11).standard_normal(150)
        assert np.all(_frame_spectra(x, SPEC_WIN, SPEC_HOP) >= 0)

    def test_too_short_signal(self):
        with pytest.raises(ShapeError):
            _frame_spectra(np.zeros(40), SPEC_WIN, SPEC_HOP)

    @pytest.mark.parametrize("hop", [0, -3])
    def test_hop_below_one_rejected(self, hop):
        with pytest.raises(ParameterError):
            _frame_spectra(np.zeros(150), SPEC_WIN, hop)

    @pytest.mark.parametrize("call", [
        lambda: spectrograms(np.zeros((2, 10, 40))),
        lambda: build_spectrogram_example(Segment(data=np.zeros((10, 40)), start_index=0)),
    ], ids=["batch", "example"])
    def test_too_short_windows(self, call):
        with pytest.raises(ShapeError):
            call()


class TestSpectrogramExample:
    def rand_segment(self, seed=0):
        return Segment(data=np.random.default_rng(seed).standard_normal((10, 150)), start_index=0, label=2)

    def test_shape(self):
        ex = build_spectrogram_example(self.rand_segment())
        assert ex.tensor.shape == (4, 10, 24)
        assert ex.label == 2

    def test_all_zero_segment(self):
        ex = build_spectrogram_example(Segment(data=np.zeros((10, 150)), start_index=0))
        assert np.all(ex.tensor == 0)

    def test_channel_independence(self):
        data = np.zeros((10, 150))
        data[3] = np.random.default_rng(9).standard_normal(150)
        ex = build_spectrogram_example(Segment(data=data, start_index=0))
        mask = np.zeros(10, dtype=bool)
        mask[3] = True
        assert np.all(ex.tensor[:, mask, :] != 0) or np.any(ex.tensor[:, mask, :] != 0)
        assert np.all(ex.tensor[:, ~mask, :] == 0)

    def test_matches_per_channel_spectrograms(self):
        seg = self.rand_segment(4)
        ex = build_spectrogram_example(seg)
        for c in range(10):
            np.testing.assert_allclose(
                ex.tensor[:, c, :], _frame_spectra(seg.data[c], SPEC_WIN, SPEC_HOP)[:, 1:], rtol=1e-6, atol=1e-6
            )

    def test_non_negative(self):
        assert np.all(build_spectrogram_example(self.rand_segment(8)).tensor >= 0)

    def test_dc_offset_confined_to_dropped_and_adjacent_bin(self):
        # The Hann window's spectrum has support on bins {0, 1}, so a constant
        # offset moves only those two bins of the pre-drop 4x25 spectrogram;
        # bins >= 2 are unchanged and bin 0 absorbs the larger share.
        filtered = bandpass(self.rand_segment(6).data)
        base = np.stack([_frame_spectra(ch, SPEC_WIN, SPEC_HOP) for ch in filtered])
        shifted = np.stack([_frame_spectra(ch + 10.0, SPEC_WIN, SPEC_HOP) for ch in filtered])
        np.testing.assert_allclose(shifted[:, :, 2:], base[:, :, 2:], rtol=1e-9, atol=1e-9)
        delta0 = np.abs(shifted[:, :, 0] - base[:, :, 0]).mean()
        delta1 = np.abs(shifted[:, :, 1] - base[:, :, 1]).mean()
        assert delta0 > delta1

    def test_pipeline_deterministic(self):
        rec = make_recording(2000, seed=21)
        def run():
            out = []
            windows = segment_stream(rec)
            for data, start in zip(windows.data, windows.starts):
                filtered = Segment(data=bandpass(data), start_index=start)
                out.append(build_spectrogram_example(filtered).tensor)
            return np.stack(out)
        a, b = run(), run()
        assert a.tobytes() == b.tobytes()


# -- frozen reference: the spectrograms as they stood before the shared
# framing helper, kept verbatim so the rewrite is held to the same bits.


def _reference_spectrogram_channel(x, win=SPEC_WIN, hop=SPEC_HOP):
    x = np.asarray(x, dtype=np.float64)
    n_frames = (len(x) - win) // hop + 1
    w = _hann(win)
    frames = np.stack([x[i * hop : i * hop + win] for i in range(n_frames)])
    return np.abs(np.fft.rfft(frames * w, axis=-1))


def _reference_spectrogram_tensor(data):
    x = np.asarray(data, dtype=np.float64)
    n_frames = (x.shape[1] - SPEC_WIN) // SPEC_HOP + 1
    w = _hann(SPEC_WIN)
    frames = np.stack(
        [x[:, i * SPEC_HOP : i * SPEC_HOP + SPEC_WIN] for i in range(n_frames)], axis=1
    )
    mags = np.abs(np.fft.rfft(frames * w, axis=-1))[:, :, 1:]
    return np.ascontiguousarray(np.swapaxes(mags, 0, 1), dtype=np.float32)


class TestSpectrogramsMatchFrozen:
    @pytest.mark.parametrize("win, hop", [(48, 34), (32, 16), (16, 5), (150, 1), (2, 1)])
    @pytest.mark.parametrize("length", [150, 151, 200])
    def test_channel_bit_identical(self, win, hop, length):
        x = np.random.default_rng(length + win).standard_normal(length) * 300
        assert np.array_equal(_frame_spectra(x, win, hop),
                              _reference_spectrogram_channel(x, win, hop))

    @pytest.mark.parametrize("samples", [150, 167, 183])
    def test_batch_and_example_bit_identical(self, samples):
        batch = np.random.default_rng(samples).standard_normal((7, 10, samples)) * 2000
        batch[3] = 0.0
        want = np.stack([_reference_spectrogram_tensor(x) for x in batch])
        got = spectrograms(batch)
        assert got.dtype == np.float32 and got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, want)
        for x, tensor in zip(batch, want):
            ex = build_spectrogram_example(Segment(data=x, start_index=0))
            assert np.array_equal(ex.tensor, tensor)

    def test_featurize_equals_per_segment_path(self):
        rec = make_recording(3000, labels=np.repeat(np.arange(3), 1000), seed=17)
        windows = segment_stream(rec)
        x, y = featurize(windows, "spectrogram")
        want = np.stack([_reference_spectrogram_tensor(bandpass(w)) for w in windows.data])
        assert x.shape == (len(windows), 4, 10, 24)
        assert np.array_equal(x, want)
        assert y.tolist() == windows.labels

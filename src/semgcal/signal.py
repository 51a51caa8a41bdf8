"""Deterministic sEMG preprocessing: segmentation, band-pass filtering, spectrograms.

The pipeline turns a continuous 10-channel recording sampled at 1 kHz into
fixed-size classifier inputs: 150 ms windows advanced every 50 ms, band-pass
filtered 20-495 Hz, and (for the ConvNet input) per-channel magnitude
spectrograms arranged as a 4x10x24 (time x channel x frequency) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps

from .errors import EmptyInputError, ParameterError, ShapeError

NUM_CHANNELS = 10
SAMPLE_RATE_HZ = 1000
WINDOW_MS = 150
OVERLAP_MS = 100
BANDPASS_LOW_HZ = 20.0
BANDPASS_HIGH_HZ = 495.0
BANDPASS_ORDER = 4
SPEC_WIN = 48
SPEC_OVERLAP = 14
SPEC_HOP = SPEC_WIN - SPEC_OVERLAP  # 34
STRIDE_MS = WINDOW_MS - OVERLAP_MS  # 50


@dataclass(frozen=True)
class RawRecording:
    """A multichannel integer sample stream, optionally with per-sample labels."""

    samples: np.ndarray  # (channels, time), integer-valued
    rate_hz: int = SAMPLE_RATE_HZ
    labels: np.ndarray | None = None  # (time,) gesture ids

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_CHANNELS:
            raise ShapeError(
                f"expected ({NUM_CHANNELS}, time) samples, got {self.samples.shape}"
            )
        if self.rate_hz <= 0:
            raise ParameterError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.labels is not None and len(self.labels) != self.samples.shape[1]:
            raise ShapeError(
                f"labels length {len(self.labels)} != stream length {self.samples.shape[1]}"
            )

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Segment:
    """One classification window: (channels, window_samples) real values."""

    data: np.ndarray  # (10, 150) float64
    start_index: int
    label: int | None = None

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] != NUM_CHANNELS:
            raise ShapeError(f"expected ({NUM_CHANNELS}, W) segment, got {self.data.shape}")


@dataclass(frozen=True)
class SpectrogramExample:
    """ConvNet input: (4, 10, 24) = (time, channel, frequency), non-negative."""

    tensor: np.ndarray
    label: int | None = None

    def __post_init__(self):
        if self.tensor.shape != (4, NUM_CHANNELS, SPEC_WIN // 2):
            raise ShapeError(f"expected (4, 10, 24) tensor, got {self.tensor.shape}")


def _majority_label(window_labels: np.ndarray) -> int:
    """Majority label of a window; ties go to the label seen latest (incoming gesture)."""
    values, counts = np.unique(window_labels, return_counts=True)
    best = counts.max()
    tied = values[counts == best]
    if len(tied) == 1:
        return int(tied[0])
    last_seen = [np.flatnonzero(window_labels == v)[-1] for v in tied]
    return int(tied[int(np.argmax(last_seen))])


def window_starts(
    rec: RawRecording, window_ms: int = WINDOW_MS, overlap_ms: int = OVERLAP_MS
) -> tuple[int, range]:
    """Window length in samples and the start index of every window of `rec`.

    The one windowing rule: windows of `window_ms` advanced every
    `window_ms - overlap_ms`, at the recording's rate, so a stream of T
    samples has floor((T - window) / stride) + 1 of them. Raises what
    `segment_stream` raises before it slices anything.
    """
    if not window_ms > overlap_ms >= 0:
        raise ParameterError(f"need window_ms > overlap_ms >= 0, got {window_ms}, {overlap_ms}")
    window = window_ms * rec.rate_hz // 1000
    stride = (window_ms - overlap_ms) * rec.rate_hz // 1000
    if stride < 1:
        raise ParameterError("stride shorter than one sample")
    t = rec.num_samples
    if t < window:
        raise EmptyInputError(f"stream of {t} samples is shorter than one {window}-sample window")
    return window, range(0, t - window + 1, stride)


def _window_labels(labels: np.ndarray, window: int, starts: range) -> list[int]:
    """`_majority_label` of every window, in one pass over the label stream.

    A window with no label change inside takes its first label; only the
    windows that straddle a change are counted out by `_majority_label`.
    """
    changes = np.concatenate(([0], np.cumsum(labels[1:] != labels[:-1])))
    first = np.asarray(starts)
    out = [int(v) for v in labels[first]]
    for i in np.flatnonzero(changes[first + window - 1] != changes[first]):
        start = starts[i]
        out[i] = _majority_label(labels[start : start + window])
    return out


def segment_stream(
    rec: RawRecording, window_ms: int = WINDOW_MS, overlap_ms: int = OVERLAP_MS
) -> list[Segment]:
    """Slice a recording into overlapping windows.

    With the defaults (150 ms window, 100 ms overlap at 1 kHz) the stride is
    50 samples and a stream of T samples yields floor((T - 150) / 50) + 1
    segments ordered by start index (see `window_starts`). A labeled
    recording gives each segment the majority label of its window.
    """
    window, starts = window_starts(rec, window_ms, overlap_ms)
    data = np.asarray(rec.samples, dtype=np.float64)
    if rec.labels is None:
        labels = [None] * len(starts)
    else:
        labels = _window_labels(np.asarray(rec.labels), window, starts)
    return [
        Segment(data=data[:, start : start + window], start_index=start, label=label)
        for start, label in zip(starts, labels)
    ]


@lru_cache(maxsize=16)
def _bandpass_sos(low_hz: float, high_hz: float, rate_hz: int, order: int) -> np.ndarray:
    # scipy doubles the order for band-pass designs, so N = order // 2 gives
    # an overall filter of the requested order.
    return sps.butter(order // 2, [low_hz, high_hz], btype="bandpass", fs=rate_hz, output="sos")


def bandpass_filter(
    seg: Segment,
    low_hz: float = BANDPASS_LOW_HZ,
    high_hz: float = BANDPASS_HIGH_HZ,
    order: int = BANDPASS_ORDER,
    rate_hz: int = SAMPLE_RATE_HZ,
) -> Segment:
    """Causal Butterworth band-pass, applied independently per channel.

    Forward-only (no zero-phase pass): the windows feed a latency-sensitive
    control loop, so the filter may not look ahead.
    """
    sos = design_bandpass(low_hz, high_hz, order, rate_hz)
    filtered = sps.sosfilt(sos, np.asarray(seg.data, dtype=np.float64), axis=-1)
    return Segment(data=filtered, start_index=seg.start_index, label=seg.label)


def design_bandpass(
    low_hz: float = BANDPASS_LOW_HZ,
    high_hz: float = BANDPASS_HIGH_HZ,
    order: int = BANDPASS_ORDER,
    rate_hz: int = SAMPLE_RATE_HZ,
) -> np.ndarray:
    """Second-order sections of the band-pass filter (bilinear-transform design)."""
    if not 0 < low_hz < high_hz:
        raise ParameterError(f"need 0 < low < high, got {low_hz}, {high_hz}")
    if high_hz >= rate_hz / 2:
        raise ParameterError(f"high cutoff {high_hz} Hz >= Nyquist {rate_hz / 2} Hz")
    if order < 2 or order % 2 != 0:
        raise ParameterError(f"order must be a positive even integer, got {order}")
    return _bandpass_sos(float(low_hz), float(high_hz), int(rate_hz), int(order))


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window w[k] = 0.5 * (1 - cos(2 pi k / n))."""
    if n < 2:
        raise ParameterError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def _frame_spectra(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Magnitude spectra of the Hann-windowed frames of the last axis of `x`.

    Frames of `win` samples start at multiples of `hop`, so a last axis of T
    samples gives (T - win) // hop + 1 of them; the result has shape
    (..., frames, win // 2 + 1).
    """
    if hop < 1:
        raise ParameterError(f"hop must be >= 1, got {hop}")
    if x.shape[-1] < win:
        raise ShapeError(f"signal of {x.shape[-1]} samples shorter than window {win}")
    w = hann_window(win)
    frames = sliding_window_view(x, win, axis=-1)[..., ::hop, :]
    return np.abs(np.fft.rfft(frames * w, axis=-1))


def spectrogram_channel(
    channel_signal: np.ndarray, win: int = SPEC_WIN, hop: int = SPEC_HOP
) -> np.ndarray:
    """Magnitude spectrogram of one channel: (frames, win // 2 + 1).

    Frames start at multiples of `hop`; each is Hann-windowed and transformed
    with a real DFT. For a 150-sample window with win=48, hop=34 this yields
    a 4x25 matrix (frames at offsets 0, 34, 68, 102).
    """
    x = np.asarray(channel_signal, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected 1-D channel signal, got shape {x.shape}")
    return _frame_spectra(x, win, hop)


def spectrograms(windows: np.ndarray) -> np.ndarray:
    """ConvNet inputs of a batch of windows (N, channels, samples), in one pass.

    Per-channel spectrograms with the DC bin dropped, as float32 with axes
    (N, time, channel, freq): (N, 4, 10, 24) for 150-sample windows. Removing
    bin 0 discards baseline drift and motion artifacts; the remaining 24 bins
    cover roughly 21-500 Hz at the 48-point window.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected a batch (N, channels, samples), got shape {x.shape}")
    mags = _frame_spectra(x, SPEC_WIN, SPEC_HOP)[..., 1:]  # (N, channels, frames, 24)
    return np.ascontiguousarray(np.swapaxes(mags, 1, 2), dtype=np.float32)


def build_spectrogram_example(seg: Segment) -> SpectrogramExample:
    """`spectrograms` of one segment: a (4, 10, 24) (time, channel, freq) tensor."""
    return SpectrogramExample(tensor=spectrograms(seg.data[None])[0], label=seg.label)

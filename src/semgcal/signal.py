"""Deterministic sEMG preprocessing: segmentation, band-pass filtering, spectrograms.

The pipeline turns a continuous 10-channel recording sampled at 1 kHz into
fixed-size classifier inputs: 150 ms windows advanced every 50 ms, band-pass
filtered 20-495 Hz, and (for the ConvNet input) per-channel magnitude
spectrograms arranged as a 4x10x24 (time x channel x frequency) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
_FILTER_BLOCK = WINDOW_MS * SAMPLE_RATE_HZ // 1000  # 150: one window


@dataclass(frozen=True)
class RawRecording:
    """A multichannel integer sample stream, optionally with per-sample labels."""

    samples: np.ndarray  # (channels, time), integer-valued, at SAMPLE_RATE_HZ
    labels: np.ndarray | None = None  # (time,) gesture ids

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_CHANNELS:
            raise ShapeError(
                f"expected ({NUM_CHANNELS}, time) samples, got {self.samples.shape}"
            )
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
class Windows:
    """A recording's classification windows, as `segment_stream` cuts them."""

    data: np.ndarray  # (N, channels, window) read-only view of the recording's samples
    starts: range  # start index of each window
    labels: list[int] | None  # majority label of each window; None if unlabeled

    def __len__(self) -> int:
        return len(self.starts)


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
    `window_ms - overlap_ms` at `SAMPLE_RATE_HZ`, so a stream of T
    samples has floor((T - window) / stride) + 1 of them. Raises what
    `segment_stream` raises before it slices anything.
    """
    if not window_ms > overlap_ms >= 0:
        raise ParameterError(f"need window_ms > overlap_ms >= 0, got {window_ms}, {overlap_ms}")
    window = window_ms * SAMPLE_RATE_HZ // 1000
    stride = (window_ms - overlap_ms) * SAMPLE_RATE_HZ // 1000
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
    The changes are found by position, so no per-sample count is built.
    """
    changes = np.flatnonzero(labels[1:] != labels[:-1])  # c: labels[c] != labels[c + 1]
    first = np.asarray(starts)
    out = [int(v) for v in labels[first]]
    inside = np.searchsorted(changes, first + window - 1) - np.searchsorted(changes, first)
    for i in np.flatnonzero(inside):
        start = starts[i]
        out[i] = _majority_label(labels[start : start + window])
    return out


def segment_stream(
    rec: RawRecording, window_ms: int = WINDOW_MS, overlap_ms: int = OVERLAP_MS
) -> Windows:
    """The overlapping windows of a recording, as one view of its samples.

    With the defaults (150 ms window, 100 ms overlap at 1 kHz) the stride is
    50 samples and a stream of T samples yields floor((T - 150) / 50) + 1
    windows ordered by start index (see `window_starts`). Nothing is copied:
    `data` is a read-only strided view of `rec.samples`, in their dtype. A
    labeled recording gives each window the majority label of its samples.
    """
    window, starts = window_starts(rec, window_ms, overlap_ms)
    # The view `sliding_window_view(samples, window, axis=1)[:, ::step]` gives,
    # axes swapped, built directly: that function's checks cost about 9 us a
    # call, more than the rest of windowing one 150-sample recording.
    channel, sample = rec.samples.strides
    data = as_strided(rec.samples, (len(starts), NUM_CHANNELS, window),
                      (starts.step * sample, channel, sample), writeable=False)
    labels = None if rec.labels is None else _window_labels(np.asarray(rec.labels), window, starts)
    return Windows(data=data, starts=starts, labels=labels)


# The band-pass's Butterworth sections: `scipy.signal.butter(BANDPASS_ORDER
# // 2, [BANDPASS_LOW_HZ, BANDPASS_HIGH_HZ], btype="bandpass",
# fs=SAMPLE_RATE_HZ, output="sos")`, written out with `repr` so that every
# float round-trips (tests/test_signal.py checks them against scipy). Each
# section is one conjugate pole pair (0.911 +- 0.082j, then -0.978 +- 0.022j),
# and the gain is in section 0.
_BANDPASS_SOS = np.array([
    [0.894858606122569, -1.789717212245138, 0.894858606122569, 1.0, -1.822668140394411, 0.8371834026695899],
    [1.0, 2.0, 1.0, 1.0, 1.9555765195931698, 0.9565438637604617],
])
_BANDPASS_SOS.flags.writeable = False


def _sections_filter(sos: np.ndarray, x: np.ndarray, state: np.ndarray):
    """`scipy.signal.sosfilt`'s direct-form II transposed recursion over the
    rows of `x` (M, L) from `state` (M, 2 * sections): (outputs, final state)."""
    y = x.copy()
    z = state.reshape(len(x), len(sos), 2).copy()
    for t in range(x.shape[1]):
        cur = y[:, t]
        for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
            out = b0 * cur + z[:, s, 0]
            z[:, s, 0] = (b1 * cur - a1 * out) + z[:, s, 1]
            z[:, s, 1] = b2 * cur - a2 * out
            cur = out
        y[:, t] = cur
    return y, z.reshape(len(x), -1)


@cache
def _block_matrices():
    """(resp, state_resp, state_in, carry): the band-pass over one
    `_FILTER_BLOCK`-sample block as linear maps of its input u and its initial
    state s (2 values a section). The block's output is
    u @ resp + s @ state_resp and its final state u @ state_in + s @ carry.

    resp[i, t] = h[t - i] for t >= i and 0 otherwise, h being the impulse
    response. All four come from one run of the recursion over unit inputs
    and unit states.
    """
    sos = _BANDPASS_SOS
    b, s = _FILTER_BLOCK, 2 * len(sos)
    units = np.eye(b + s)
    y, final = _sections_filter(sos, units[:, :b], units[:, b:])
    lag = np.abs(np.subtract.outer(np.arange(b), np.arange(b)))
    mats = (np.triu(y[0][lag]), y[b:], final[:b], final[b:])
    for m in mats:
        m.flags.writeable = False
    return mats


def bandpass(x: np.ndarray) -> np.ndarray:
    """Causal Butterworth band-pass of the last axis of `x`, from zero state.

    The exact zero-state response of `_BANDPASS_SOS`'s sections, computed
    as one matrix product: a signal of W <= 150 samples (one window) comes
    out as x @ T[:W, :W], where T[i, t] = h[t - i] (t >= i) holds the
    impulse response h. Longer signals run in 150-sample blocks that carry
    the filter state from one block to the next. Forward-only (no zero-phase
    pass): the windows feed a latency-sensitive control loop, so the filter
    may not look ahead.

    A 1-D signal and the same signal as one row of a batch can differ in the
    last bits: numpy's matmul sends a single row to BLAS gemv and a batch to
    gemm, which sum in different orders. A (channels, samples) window gives
    the same bits alone and inside a stack of windows.
    """
    x = np.asarray(x, dtype=np.float64)
    resp, state_resp, state_in, carry = _block_matrices()
    n = x.shape[-1]
    if n <= _FILTER_BLOCK:
        return x @ resp[:n, :n]
    y = np.empty_like(x)
    state = None
    for lo in range(0, n, _FILTER_BLOCK):
        u = x[..., lo : lo + _FILTER_BLOCK]
        w = u.shape[-1]
        out = u @ resp[:w, :w]
        if state is not None:
            out += state @ state_resp[:, :w]
        y[..., lo : lo + w] = out
        if lo + w < n:
            state = u @ state_in if state is None else u @ state_in + state @ carry
    return y


def _hann(n: int) -> np.ndarray:
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
    w = _hann(win)
    frames = sliding_window_view(x, win, axis=-1)[..., ::hop, :]
    return np.abs(np.fft.rfft(frames * w, axis=-1))


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

"""Temporal-spatial descriptor (TSD) features.

TSD combines seven moment/energy descriptors of each channel signal (and of
each pairwise channel difference) with the descriptors of its cepstral
representation through a normalized similarity, yielding 385 values for ten
channels.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ShapeError
from .signal import NUM_CHANNELS

TSD_EPS = 1e-8
_SIGNALS = NUM_CHANNELS + NUM_CHANNELS * (NUM_CHANNELS - 1) // 2  # channels and pair differences, 55
TSD_LENGTH = 7 * _SIGNALS  # 385

# Most threads one `tsd_matrix` call may use; None means one per usable CPU.
# A study's subject worker (`semgcal.worker`) sets 1: it shares the CPUs with
# the other subjects' workers.
max_threads: int | None = None


def _descriptors(x: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Seven log-scaled descriptors of each row of a C-contiguous `x` (rows, samples).

    The seven are the root-squared moments m0, m0-m2 and m0-m4, sparseness,
    irregularity factor, coefficient of variation and the summed
    Teager-Kaiser energy, each passed through log(eps + |.|). Writes them
    into `out` (rows, 7), using `work` (2, >= x.size) as scratch,
    and returns the mask of rows that are identically zero; those fall back to
    log(eps) in every component. Radicands are made non-negative with an
    absolute value and zero denominators are floored at eps.

    The differences and the Teager-Kaiser term are taken along the flat
    buffer: the first (samples - k) values of each row of the result are that
    row's own terms, the rest straddle two rows and are never read. Every
    reduction runs along one row in numpy's own order, so the bits equal those
    of ``np.einsum``, ``np.mean(np.abs(x))`` and ``np.std`` on each signal.
    """
    rows, w = x.shape
    size = rows * w
    flat = x.reshape(-1)
    a, b = work[0, :size], work[1, :size]
    rows_a, rows_b = a.reshape(rows, w), b.reshape(rows, w)

    np.subtract(flat[1:], flat[:-1], out=a[: size - 1])  # d1
    np.subtract(a[1 : size - 1], a[: size - 2], out=b[: size - 2])  # d2
    d1, d2 = rows_a[:, : w - 1], rows_b[:, : w - 2]
    m0 = np.sqrt(np.einsum("ij,ij->i", x, x))
    m2 = np.sqrt(np.einsum("ij,ij->i", d1, d1))
    m4 = np.sqrt(np.einsum("ij,ij->i", d2, d2))

    tk_terms = a[: size - 2]
    np.square(flat[1:-1], out=tk_terms)
    np.multiply(flat[:-2], flat[2:], out=b[: size - 2])
    np.subtract(tk_terms, b[: size - 2], out=tk_terms)
    np.abs(tk_terms, out=tk_terms)
    tk = np.add.reduce(rows_a[:, : w - 2], axis=-1)

    np.abs(x, out=rows_a)
    abs_sum = np.add.reduce(rows_a, axis=-1)
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= w
    np.subtract(x, mean, out=rows_a)
    np.square(rows_a, out=rows_a)
    std = np.add.reduce(rows_a, axis=-1)
    std /= w
    np.sqrt(std, out=std)

    out[:, 0] = m0
    out[:, 1] = m0 - m2
    out[:, 2] = m0 - m4
    out[:, 3] = m0 / np.maximum(np.sqrt(np.abs((m0 - m2) * (m0 - m4))), TSD_EPS)  # sparseness
    out[:, 4] = m2 / np.maximum(np.sqrt(np.abs(m0 * m4)), TSD_EPS)  # irregularity
    out[:, 5] = std / np.maximum(abs_sum / w, TSD_EPS)  # coefficient of variation
    out[:, 6] = tk
    np.abs(out, out=out)
    out += TSD_EPS
    np.log(out, out=out)
    zero_rows = abs_sum == 0.0  # a sum of |x| is 0 only if every sample is (NaN compares unequal)
    out[zero_rows] = np.log(TSD_EPS)
    return zero_rows


def _real_cepstrum(x: np.ndarray) -> np.ndarray:
    """Real cepstrum: inverse DFT of log(|DFT| + eps), along the last axis."""
    spec = np.fft.rfft(x, axis=-1)
    log_mag = np.abs(spec)
    log_mag += TSD_EPS
    np.log(log_mag, out=log_mag)
    # a complex input spares irfft its slow buffered real-to-complex cast
    spec.real = log_mag
    spec.imag = 0.0
    return np.fft.irfft(spec, n=x.shape[-1], axis=-1)


def _similarity_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise normalized similarity 2ab / (a^2 + b^2 + eps), in [-1, 1]."""
    return 2.0 * a * b / (a * a + b * b + TSD_EPS)


# Segments per descriptor pass: 880 signals, about 1 MB per 150-sample temporary.
_CHUNK = 16


def _tsd_rows(batch: np.ndarray, out: np.ndarray) -> None:
    """TSD vectors of `batch` (n, NUM_CHANNELS, samples) written into `out` (n, TSD_LENGTH)."""
    n, c, w = batch.shape
    size = min(n, _CHUNK)
    signals = np.empty((size, _SIGNALS, w))
    work = np.empty((2, signals.size))
    a = np.empty((size * _SIGNALS, 7))
    b = np.empty_like(a)
    for lo in range(0, n, _CHUNK):
        part = batch[lo : lo + _CHUNK]
        k = len(part)
        rows = k * _SIGNALS
        # the channels, then the pair differences x_i - x_j (i < j) in triu order
        block = signals[:k]
        block[:, :c] = part
        at = c
        for i in range(c - 1):
            np.subtract(part[:, i : i + 1], part[:, i + 1 :], out=block[:, at : at + c - 1 - i])
            at += c - 1 - i
        flat = block.reshape(rows, w)
        zero_rows = _descriptors(flat, work, a[:rows])
        _descriptors(_real_cepstrum(flat), work, b[:rows])
        combined = _similarity_combine(a[:rows], b[:rows])
        combined[zero_rows] = 0.0
        out[lo : lo + k] = combined.reshape(k, TSD_LENGTH)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tsd_matrix(batch: np.ndarray) -> np.ndarray:
    """Vectorized TSD extraction for a batch of segments (N, NUM_CHANNELS, samples).

    Each row is 7 x (10 channels + 45 channel pairs) values: every block
    combines the descriptors of a signal (a channel, or the difference of a
    channel pair) with the descriptors of its cepstral representation. Blocks
    whose source signal is identically zero carry no information and are
    emitted as zeros.

    Rows are independent: the result is bit-identical for any batch split and
    thread count. A batch longer than one 16-segment pass is cut into
    contiguous row ranges, one per usable CPU (at most `max_threads`); the
    calling thread computes the first range and helper threads the others,
    each writing its own rows of the output (numpy's loops and FFTs release
    the interpreter lock).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] != NUM_CHANNELS or batch.shape[2] < 3:
        raise ShapeError(
            f"TSD needs a batch (N, {NUM_CHANNELS}, samples >= 3), got shape {batch.shape}"
        )
    n = len(batch)
    out = np.empty((n, TSD_LENGTH), dtype=np.float64)
    parts = min(max_threads or _usable_cpus(), -(-n // _CHUNK))
    if parts <= 1:
        _tsd_rows(batch, out)
        return out
    bounds = [n * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        helpers = [
            pool.submit(_tsd_rows, batch[lo:hi], out[lo:hi])
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        _tsd_rows(batch[: bounds[1]], out[: bounds[1]])
        for done in helpers:
            done.result()
    return out

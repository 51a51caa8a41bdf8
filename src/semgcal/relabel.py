"""Pseudo-label generation from time-ordered softmax streams.

Two relabeling schemes operate on a `PredictionStream`: a median-vote scheme
that replaces each prediction with the argmax of per-class medians over a
symmetric temporal window, and a stable/unstable state machine that detects
gesture transitions, relabels backward to the entropy rise that precedes
them, and drops stretches whose instability lasted too long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError, check_real
from .signal import STRIDE_MS

_MV_BLOCK = 1024  # median-vote windows per vectorized median


@dataclass(frozen=True)
class PredictionStream:
    """Time-ordered per-segment softmax rows, one window stride (`STRIDE_MS`)
    apart."""

    rows: np.ndarray  # (N, num_classes)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or len(rows) == 0:
            raise ShapeError(f"rows must be a nonempty (N, K) matrix, got {rows.shape}")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-5):
            raise ParameterError("softmax rows must sum to 1 within 1e-5")
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return len(self.rows)

    @property
    def predictions(self) -> np.ndarray:
        return np.argmax(self.rows, axis=1)


@dataclass(frozen=True)
class HeuristicConfig:
    """Durations are seconds; they convert to segment counts at the window
    stride, and each must come to at least one segment."""

    unstable_len_s: float = 1.5
    threshold_stable: float = 0.85  # 0.85 for 7 gestures, 0.65 for 11
    max_len_unstable_s: float = 2.0
    max_look_back_s: float = 0.5
    threshold_derivative: float = 0.05

    def __post_init__(self):
        for name in ("unstable_len_s", "max_len_unstable_s", "max_look_back_s", "threshold_derivative"):
            check_real(name, getattr(self, name))
        check_real("threshold_stable", self.threshold_stable, 0.0, 1.0, strict=True)
        durations = (self.unstable_len_s, self.max_len_unstable_s, self.max_look_back_s)
        counts = [seconds * 1000.0 / STRIDE_MS for seconds in durations]  # as `segments` counts
        if not all(math.isfinite(count) and round(count) >= 1 for count in counts):
            raise ParameterError(f"durations must be finite and round to at least one "
                                 f"{STRIDE_MS} ms segment, got {durations}")

    def segments(self, seconds: float) -> int:
        return int(round(seconds * 1000.0 / STRIDE_MS))


@dataclass
class PseudoLabeledDataset:
    """Kept stream indices with heuristic labels; dropped ranges are half-open."""

    length: int
    indices: np.ndarray  # kept source indices, sorted
    labels: np.ndarray  # pseudo-label per kept index
    relabeled_in_transition: np.ndarray  # bool per kept index
    dropped_ranges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def kept_count(self) -> int:
        return len(self.indices)

    def dropped_mask(self) -> np.ndarray:
        mask = np.zeros(self.length, dtype=bool)
        for lo, hi in self.dropped_ranges:
            mask[lo:hi] = True
        return mask

    def gather(self, examples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair kept pseudo-labels with their source examples."""
        if len(examples) != self.length:
            raise ShapeError(f"{len(examples)} examples for a stream of length {self.length}")
        return examples[self.indices], self.labels.copy()


def entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each softmax row, with the log clamped at 1e-12."""
    p = np.asarray(rows, dtype=np.float64)
    return -np.sum(p * np.log(np.maximum(p, 1e-12)), axis=1)


def mv_relabel(stream: PredictionStream, t_seconds: float = 1.0) -> np.ndarray:
    """Median-vote labels: argmax over per-class medians of the rows within
    +- t_seconds of each index (window truncated at the stream boundaries)."""
    if t_seconds < 0:
        raise ParameterError(f"t_seconds must be >= 0, got {t_seconds}")
    rows = stream.rows
    w = int(round(t_seconds * (1000.0 / STRIDE_MS)))
    n = len(rows)
    labels = np.empty(n, dtype=np.int64)
    # Windows cut by a stream boundary differ in length: one median each.
    for i in (*range(min(w, n)), *range(max(w, n - w), n)):
        window = rows[max(0, i - w) : min(n, i + w + 1)]
        labels[i] = int(np.argmax(np.median(window, axis=0)))
    # Every other window holds 2w + 1 rows; their medians are taken in blocks
    # of at most _MV_BLOCK windows, each over a strided view of the rows.
    if n > 2 * w:
        full = sliding_window_view(rows, 2 * w + 1, axis=0)  # (n - 2w, K, 2w + 1)
        for lo in range(0, len(full), _MV_BLOCK):
            block = full[lo : lo + _MV_BLOCK]
            labels[w + lo : w + lo + len(block)] = np.argmax(np.median(block, axis=-1), axis=1)
    return labels


def find_transition_start(
    rows: np.ndarray,
    first_index_unstable: int,
    max_look_back: int,
    threshold_derivative: float,
) -> int:
    """Earliest index in the look-back window where the prediction entropy
    jumps by more than `threshold_derivative` from one segment to the next.

    Returns `first_index_unstable` when no jump exceeds the threshold. The
    window is clipped at the stream start.
    """
    lo = max(0, first_index_unstable - max_look_back)
    window = np.asarray(rows[lo : first_index_unstable + 1], dtype=np.float64)
    ent = entropy_rows(window)
    for i in range(1, len(ent)):
        if ent[i] - ent[i - 1] > threshold_derivative:
            return lo + i
    return first_index_unstable


def _mask_to_ranges(mask: np.ndarray) -> list[tuple[int, int]]:
    ranges = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            ranges.append((i, j))
            i = j
        else:
            i += 1
    return ranges


def generate_pseudo_labels(stream: PredictionStream, hcfg: HeuristicConfig) -> PseudoLabeledDataset:
    """Stable/unstable relabeling state machine.

    Stable predictions are emitted with the current class. A disagreement
    opens an unstable span whose softmax rows accumulate in a sliding window;
    once the window holds `unstable_len` rows, the class with the highest
    median share may be confirmed against `threshold_stable`. On confirmation
    the span is either dropped (instability outlasted `max_len_unstable`),
    relabeled wholesale (class unchanged), or relabeled together with the
    trailing stable segments back to the entropy rise that announced the
    transition (class changed). A span still unconfirmed at the end of the
    stream is dropped.
    """
    rows = stream.rows
    preds = stream.predictions
    n = len(rows)
    ul = hcfg.segments(hcfg.unstable_len_s)
    max_unstable = hcfg.segments(hcfg.max_len_unstable_s)
    look_back = hcfg.segments(hcfg.max_look_back_s)

    labels = np.full(n, -1, dtype=np.int64)
    flags = np.zeros(n, dtype=bool)
    dropped = np.zeros(n, dtype=bool)

    if n < ul:
        dropped[:] = True
        return PseudoLabeledDataset(
            length=n,
            indices=np.empty(0, dtype=np.int64),
            labels=np.empty(0, dtype=np.int64),
            relabeled_in_transition=np.empty(0, dtype=bool),
            dropped_ranges=_mask_to_ranges(dropped),
        )

    # the first unstable_len rows seed the current class and are emitted with it
    current = int(np.argmax(np.median(rows[:ul], axis=0)))
    labels[:ul] = current
    stable = True
    fiu = -1

    for i in range(ul, n):
        if stable and preds[i] != current:
            stable = False
            fiu = i
        if stable:
            labels[i] = current
            continue
        window_lo = max(fiu, i - ul + 1)
        if i - window_lo + 1 < ul:
            continue
        med = np.median(rows[window_lo : i + 1], axis=0)
        total = med.sum()
        if total <= 0:
            continue
        pct = med / total
        found = int(np.argmax(pct))
        if pct[found] <= hcfg.threshold_stable:
            continue
        span_len = i - fiu + 1
        if span_len > max_unstable:
            dropped[fiu : i + 1] = True
            labels[fiu : i + 1] = -1
        elif found == current:
            labels[fiu : i + 1] = found
        else:
            start = find_transition_start(rows, fiu, look_back, hcfg.threshold_derivative)
            labels[fiu : i + 1] = found
            flags[fiu : i + 1] = True
            relabel = np.arange(start, fiu)
            relabel = relabel[~dropped[relabel]] if len(relabel) else relabel
            labels[relabel] = found
            flags[relabel] = True
        current = found
        stable = True

    if not stable:
        dropped[fiu:] = True
        labels[fiu:] = -1

    kept = np.flatnonzero(~dropped)
    return PseudoLabeledDataset(
        length=n,
        indices=kept,
        labels=labels[kept],
        relabeled_in_transition=flags[kept],
        dropped_ranges=_mask_to_ranges(dropped),
    )

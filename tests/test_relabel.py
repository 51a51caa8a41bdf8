"""Median-vote relabeling and the stable/unstable pseudo-labeling heuristic."""

import statistics

import numpy as np
import pytest

from semgcal import ParameterError, ShapeError
from semgcal.relabel import (
    HeuristicConfig,
    PredictionStream,
    entropy_rows,
    find_transition_start,
    generate_pseudo_labels,
    mv_relabel,
)
from semgcal.signal import SAMPLE_RATE_HZ, STRIDE_MS, RawRecording, segment_stream


def confident_rows(labels, p=0.95, classes=7):
    """Softmax rows with probability p on the given label per segment."""
    labels = np.asarray(labels)
    rows = np.full((len(labels), classes), (1.0 - p) / (classes - 1))
    rows[np.arange(len(labels)), labels] = p
    return rows


def stream_of(labels, p=0.95, classes=7):
    return PredictionStream(rows=confident_rows(labels, p, classes))


def mv_oracle(rows, w):
    """Brute-force per-index median/argmax using the statistics module."""
    n, k = rows.shape
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = max(0, i - w), min(n, i + w + 1)
        medians = [statistics.median(rows[lo:hi, j].tolist()) for j in range(k)]
        best = max(medians)
        out[i] = medians.index(best)  # lowest class index wins ties
    return out


def mv_loop(rows, w):
    """`mv_relabel` as it was before it was vectorized, kept frozen here."""
    n = len(rows)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        window = rows[max(0, i - w) : min(n, i + w + 1)]
        labels[i] = int(np.argmax(np.median(window, axis=0)))
    return labels


class TestPredictionStream:
    def test_rejects_non_normalized_rows(self):
        with pytest.raises(ParameterError):
            PredictionStream(rows=np.full((4, 3), 0.5))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            PredictionStream(rows=np.empty((0, 5)))

    def test_predictions_argmax(self):
        s = stream_of([0, 3, 6])
        assert s.predictions.tolist() == [0, 3, 6]

    def test_seconds_count_windows_at_the_window_stride(self):
        # one row per segment_stream window: the heuristics' seconds count
        # windows at the stride that cut them
        rec = RawRecording(samples=np.zeros((10, 400), dtype=np.int16))
        first, second = segment_stream(rec).starts[:2]
        step_ms = (second - first) * 1000 // SAMPLE_RATE_HZ
        assert STRIDE_MS == step_ms
        assert HeuristicConfig().segments(1.0) == 1000 // step_ms == 20


class TestMvRelabel:
    def test_constant_stream_equals_argmax(self):
        s = stream_of([2] * 50)
        assert np.array_equal(mv_relabel(s), s.predictions)

    def test_default_window_is_one_second(self):
        # t = 1 s at 50 ms stride -> 20 segments either side; a 5-segment blip
        # inside a 41-wide window is voted away
        labels = [1] * 30 + [4] * 5 + [1] * 30
        s = stream_of(labels)
        relabeled = mv_relabel(s, t_seconds=1.0)
        assert np.all(relabeled == 1)

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(5, 60)) if trial < 900 else 200
            k = int(rng.integers(2, 8))
            raw = rng.random((n, k))
            rows = raw / raw.sum(axis=1, keepdims=True)
            s = PredictionStream(rows=rows)
            t = float(rng.choice([0.25, 0.5, 1.0]))
            w = int(round(t * 20))
            assert np.array_equal(mv_relabel(s, t_seconds=t), mv_oracle(rows, w)), trial

    def test_tie_breaks_to_lowest_class(self):
        rows = np.full((10, 4), 0.25)
        s = PredictionStream(rows=rows)
        assert np.all(mv_relabel(s) == 0)

    @pytest.mark.parametrize("n, w", [
        (1, 0), (1, 1), (1, 20), (2, 1), (7, 0), (7, 1), (7, 3), (7, 4), (8, 4), (9, 4),
        (60, 0), (60, 1), (60, 20), (60, 29), (60, 30), (60, 31), (61, 30), (300, 20), (3000, 20),
    ])
    def test_equals_the_per_index_loop(self, n, w):
        """Bit for bit against the loop of one `np.median` per index it replaced."""
        rng = np.random.default_rng(n * 100 + w)
        for trial in range(5):
            raw = rng.random((n, int(rng.integers(2, 12))))
            if trial % 2:
                raw = np.round(raw, 1) + 0.01  # many ties between classes and rows
            s = PredictionStream(rows=raw / raw.sum(axis=1, keepdims=True))
            t = w * STRIDE_MS / 1000  # w rows either side
            assert np.array_equal(mv_relabel(s, t_seconds=t), mv_loop(s.rows, w)), trial


class TestFindTransitionStart:
    def ramp_rows(self, flat_len, ramp_len, classes=7):
        """Constant-entropy rows followed by an entropy ramp."""
        rows = confident_rows([0] * (flat_len + ramp_len), p=0.95, classes=classes)
        for i in range(ramp_len):
            # progressively flatter distributions raise the entropy
            p = 0.95 - 0.5 * (i + 1) / ramp_len
            rows[flat_len + i] = (1 - p) / (classes - 1)
            rows[flat_len + i, 0] = p
        return rows

    def test_constant_entropy_returns_first_unstable(self):
        rows = confident_rows([0] * 40)
        assert find_transition_start(rows, 30, 10, 0.05) == 30

    def test_step_at_window_position_j(self):
        # entropy steps upward at absolute index 25; window [20, 30]
        rows = confident_rows([0] * 40, p=0.95)
        rows[25:] = confident_rows([0] * 15, p=0.55)
        ent = entropy_rows(rows)
        j = 25 - 20  # window position of the step
        assert ent[25] - ent[24] > 0.05
        assert find_transition_start(rows, 30, 10, 0.05) == 20 + j == 25

    def test_look_back_window_of_half_second_is_ten_segments(self):
        hcfg = HeuristicConfig()
        assert hcfg.segments(hcfg.max_look_back_s) == 10

    def test_clipped_at_stream_start(self):
        rows = confident_rows([0] * 6)
        assert find_transition_start(rows, 3, 10, 0.05) == 3

    def test_returns_first_crossing_only(self):
        rows = confident_rows([0] * 40, p=0.95)
        rows[24:] = confident_rows([0] * 16, p=0.6)
        rows[28:] = confident_rows([0] * 12, p=0.4)
        assert find_transition_start(rows, 30, 10, 0.05) == 24


def hcfg7():
    return HeuristicConfig(threshold_stable=0.85)


class TestGeneratePseudoLabels:
    def test_stable_confident_stream_all_kept(self):
        s = stream_of([3] * 120)
        out = generate_pseudo_labels(s, hcfg7())
        assert out.kept_count == 120
        assert np.all(out.labels == 3)
        assert out.dropped_ranges == []

    def test_clean_transition_with_entropy_ramp(self):
        # 100 segments of class A, 100 of class B, with an entropy ramp over
        # the 5 segments preceding the switch. Hand trace: instability opens
        # at index 100, confirms at 129 (30 accumulated rows, all confident B),
        # the look-back finds the entropy rise at 95, so B labels start at 95.
        classes = 7
        rows = np.vstack([
            confident_rows([1] * 100, p=0.95, classes=classes),
            confident_rows([2] * 100, p=0.95, classes=classes),
        ])
        for i, p in zip(range(95, 100), np.linspace(0.9, 0.55, 5)):
            rows[i] = (1 - p) / (classes - 1)
            rows[i, 1] = p
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        assert out.kept_count == 200
        assert out.dropped_ranges == []
        labels = np.full(200, -1)
        labels[out.indices] = out.labels
        assert np.all(labels[:95] == 1)
        assert np.all(labels[95:] == 2)
        flags = np.zeros(200, dtype=bool)
        flags[out.indices] = out.relabeled_in_transition
        assert np.all(flags[95:130])
        assert not np.any(flags[:95])

    def test_long_oscillating_instability_dropped(self):
        # 60 low-confidence oscillating segments (3 s > max 2 s) between two
        # confident stretches: the unstable span must land in dropped ranges.
        classes = 7
        osc_labels = [(1, 2)[i % 2] for i in range(60)]
        rows = np.vstack([
            confident_rows([0] * 80, p=0.95, classes=classes),
            confident_rows(osc_labels, p=0.3, classes=classes),
            confident_rows([2] * 80, p=0.95, classes=classes),
        ])
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        dropped = out.dropped_mask()
        assert np.all(dropped[80:140])
        labels = np.full(220, -1)
        labels[out.indices] = out.labels
        assert np.all(labels[:80] == 0)
        assert np.all(labels[out.indices[out.indices >= 140]] == 2)

    def test_partition_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(40, 300))
            k = 7
            raw = rng.random((n, k)) ** 3
            rows = raw / raw.sum(axis=1, keepdims=True)
            out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
            dropped = out.dropped_mask()
            kept_mask = np.zeros(n, dtype=bool)
            kept_mask[out.indices] = True
            assert np.all(kept_mask ^ dropped)  # exact partition
            assert np.all(out.labels >= 0) and np.all(out.labels < k)

    def test_no_kept_index_inside_overlong_instability(self):
        classes = 7
        osc_labels = [(3, 4)[i % 2] for i in range(70)]
        rows = np.vstack([
            confident_rows([0] * 50, p=0.95, classes=classes),
            confident_rows(osc_labels, p=0.35, classes=classes),
            confident_rows([4] * 60, p=0.95, classes=classes),
        ])
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        assert not np.any((out.indices >= 50) & (out.indices < 120))

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        raw = rng.random((400, 7)) ** 2
        rows = raw / raw.sum(axis=1, keepdims=True)
        counts = []
        for thr in (0.5, 0.65, 0.85, 0.95):
            out = generate_pseudo_labels(
                PredictionStream(rows=rows), HeuristicConfig(threshold_stable=thr)
            )
            counts.append(out.kept_count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_agreement_with_mv_and_argmax_on_agreeing_stream(self):
        s = stream_of([5] * 90)
        out = generate_pseudo_labels(s, hcfg7())
        labels = np.full(90, -1)
        labels[out.indices] = out.labels
        assert np.array_equal(labels, mv_relabel(s))
        assert np.array_equal(labels, s.predictions)

    def test_short_stream_yields_empty_kept_set(self):
        s = stream_of([1] * 10)
        out = generate_pseudo_labels(s, hcfg7())
        assert out.kept_count == 0
        assert out.dropped_ranges == [(0, 10)]

    def test_trailing_unconfirmed_span_dropped(self):
        rows = np.vstack([
            confident_rows([2] * 60, p=0.95),
            confident_rows([(1, 3)[i % 2] for i in range(20)], p=0.3),
        ])
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        assert out.dropped_mask()[60:].all()

    def test_same_class_reconfirmation_relabels_span_only(self):
        # dip in confidence without a class change: span relabeled with the
        # same class, nothing dropped, no transition look-back
        classes = 7
        rows = confident_rows([1] * 150, p=0.95, classes=classes)
        rows[70:75] = confident_rows([3] * 5, p=0.40, classes=classes)
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        labels = np.full(150, -1)
        labels[out.indices] = out.labels
        assert np.all(labels == 1)
        assert out.dropped_ranges == []

    def test_duration_to_segment_conversions(self):
        hcfg = HeuristicConfig()
        assert hcfg.segments(hcfg.unstable_len_s) == 30
        assert hcfg.segments(hcfg.max_len_unstable_s) == 40
        assert hcfg.segments(1.0) == 20

    @pytest.mark.parametrize("field", ["unstable_len_s", "max_len_unstable_s", "max_look_back_s"])
    @pytest.mark.parametrize("seconds", [0.02, 0.025, 0.0, -1.0, float("nan"), float("inf"), 1e308])
    def test_duration_under_one_segment_rejected(self, field, seconds):
        # 0.025 s is half a 50 ms stride, which round() takes to 0 segments
        with pytest.raises(ParameterError):
            HeuristicConfig(**{field: seconds})

    @pytest.mark.parametrize("field", ["unstable_len_s", "max_len_unstable_s", "max_look_back_s"])
    def test_one_segment_duration_accepted(self, field):
        hcfg = HeuristicConfig(**{field: 0.05})
        assert hcfg.segments(getattr(hcfg, field)) == 1

    def test_oscillation_is_a_dropped_range(self):
        rows = np.vstack([
            confident_rows([0] * 80, p=0.95),
            confident_rows([(1, 2)[i % 2] for i in range(60)], p=0.3),
            confident_rows([2] * 80, p=0.95),
        ])
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg7())
        assert out.length == 220
        assert out.dropped_ranges
        lo, hi = out.dropped_ranges[0]
        assert lo <= 80 and hi >= 140

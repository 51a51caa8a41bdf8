"""Property-based checks of the module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgcal import (
    HeuristicConfig,
    PredictionStream,
    RawRecording,
    Segment,
    generate_pseudo_labels,
    mv_relabel,
    segment_stream,
    wilcoxon_signed_rank,
)
from semgcal.dataio import _WRITE_BLOCK_ROWS, _read_int_csv, _write_csv
from semgcal.features import tsd_matrix
from semgcal.stats import friedman_test


@pytest.mark.parametrize("n", [1, 7, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS,
                               _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 3])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_csv_write_read_round_trip(tmp_path_factory, n, seed):
    """int16 samples beside an int64 label column, in blocks shorter than,
    equal to and longer than the writer's block size."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(-(2**15), 2**15, size=(n, 10), dtype=np.int16)
    samples[rng.random((n, 10)) < 0.01] = rng.choice([-(2**15), 2**15 - 1])
    labels = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64, endpoint=True)
    rows = np.vstack([samples.T, labels[None, :]]).T
    path = tmp_path_factory.mktemp("csv") / "eval_0.csv"
    _write_csv(path, rows)
    assert path.read_bytes() == "".join(",".join(str(int(v)) for v in row) + "\n" for row in rows).encode()
    back = _read_int_csv(path, 11)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back[:, :10], samples)
    np.testing.assert_array_equal(back[:, 10], labels)


@st.composite
def window_triples(draw):
    w = draw(st.integers(min_value=2, max_value=400))
    s = draw(st.integers(min_value=1, max_value=w - 1))
    t = draw(st.integers(min_value=w, max_value=4 * w + 37))
    return t, w, s


@given(window_triples())
@settings(max_examples=150, deadline=None)
def test_segment_count_formula(triple):
    t, w, s = triple
    rec = RawRecording(samples=np.zeros((10, t), dtype=np.int16))
    segments = segment_stream(rec, window_ms=w, overlap_ms=w - s)
    starts = list(range(0, t - w + 1, s))
    assert len(segments) == len(starts) == (t - w) // s + 1
    assert [seg.start_index for seg in segments] == starts


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_tsd_values_bounded_and_finite(seed):
    rng = np.random.default_rng(seed)
    seg = Segment(data=rng.standard_normal((10, 150)) * rng.uniform(0.1, 40), start_index=0)
    values = tsd_matrix(seg.data[None])[0]
    assert values.shape == (385,)
    assert np.all(np.isfinite(values))
    assert np.all(values >= -1.0 - 1e-12) and np.all(values <= 1.0 + 1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=35, max_value=250))
@settings(max_examples=40, deadline=None)
def test_pseudo_label_partition_invariant(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, 7)) ** rng.integers(1, 5)
    rows = raw / raw.sum(axis=1, keepdims=True)
    out = generate_pseudo_labels(PredictionStream(rows=rows), HeuristicConfig(threshold_stable=0.65))
    kept = np.zeros(n, dtype=bool)
    kept[out.indices] = True
    assert np.all(kept ^ out.dropped_mask())
    assert np.all((out.labels >= 0) & (out.labels < 7))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mv_agrees_with_argmax_on_confident_constant_streams(seed):
    rng = np.random.default_rng(seed)
    label = int(rng.integers(0, 7))
    rows = np.full((60, 7), 0.02 / 6)
    rows[:, label] = 0.98
    stream = PredictionStream(rows=rows)
    assert np.array_equal(mv_relabel(stream), stream.predictions)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=10))
@settings(max_examples=30, deadline=None)
def test_friedman_rank_bounds(seed, k):
    rng = np.random.default_rng(seed)
    table = rng.random((6, k))
    res = friedman_test(table)
    np.testing.assert_allclose(res.avg_ranks.sum(), k * (k + 1) / 2)
    assert np.all(res.avg_ranks >= 1) and np.all(res.avg_ranks <= k)
    assert 0.0 <= res.p_value <= 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=10))
@settings(max_examples=25, deadline=None)
def test_wilcoxon_p_in_unit_interval_and_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    p_ab = wilcoxon_signed_rank(a, b)
    p_ba = wilcoxon_signed_rank(b, a)
    assert 0.0 <= p_ab <= 1.0
    assert p_ab == p_ba  # two-sided symmetry
    assert wilcoxon_signed_rank(a, b, "greater") == wilcoxon_signed_rank(b, a, "less")

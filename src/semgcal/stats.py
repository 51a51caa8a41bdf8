"""Accuracy metric and the nonparametric test battery.

Algorithms are compared per session with a Friedman rank test over subjects,
a one-sided Holm step-down post-hoc against the no-calibration control, and
paired effect sizes (Cohen's Dz). A two-sided Wilcoxon signed-rank test
(exact null up to n = 20) backs pairwise comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyInputError, NumericError, ShapeError

HOLM_ALPHA = 0.05  # family-wise level of the Holm step-down
WILCOXON_EXACT_MAX = 20  # the most pairs that get the exact null

_SQRT1_2 = math.sqrt(0.5)


def _rankdata(a: np.ndarray) -> np.ndarray:
    """Ranks of a 1-D array, 1 for the smallest; tied values share the mean of
    their ranks (mid-ranks, exact in float64). All NaN if a value is NaN."""
    a = np.asarray(a, dtype=np.float64)
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    values = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(a))
    ranks = np.empty(len(a))
    ranks[order] = ((starts + 1 + ends) / 2.0)[np.cumsum(first) - 1]
    return ranks


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square upper tail P(X > x) for an integer number of degrees of freedom.

    In closed form: Q(dof / 2, x / 2), the regularized upper incomplete gamma,
    built up from Q(1/2, y) = erfc(sqrt(y)) or Q(1, y) = exp(-y) by
    Q(a + 1, y) = Q(a, y) + y**a exp(-y) / Gamma(a + 1).
    """
    if x <= 0:
        return 1.0
    y = x / 2.0
    if dof % 2:
        total, term, a = math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi) * math.exp(-y), 1.5
    else:
        total, term, a = 0.0, math.exp(-y), 1.0
    for _ in range(dof // 2):
        total += term
        term *= y / a
        a += 1.0
    return total


def _norm_sf(z: float) -> float:
    """Standard normal upper tail P(Z > z); the lower tail is `_norm_sf(-z)`."""
    return 0.5 * math.erfc(z * _SQRT1_2)


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"predictions {predictions.shape} vs labels {labels.shape}")
    if predictions.size == 0:
        raise EmptyInputError("no predictions to score")
    return float(np.mean(predictions == labels))


@dataclass(frozen=True)
class FriedmanResult:
    avg_ranks: np.ndarray  # (k,), rank 1 = best
    statistic: float
    p_value: float


def friedman_test(table: np.ndarray) -> FriedmanResult:
    """Friedman rank test over an (n subjects x k algorithms) accuracy table.

    Each row is ranked with rank 1 for the highest accuracy and mid-ranks for
    ties; the chi-square approximation gives the p-value. A table where every
    row is constant yields statistic 0 and p = 1.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ShapeError(f"expected (subjects, algorithms) table, got {table.shape}")
    n, k = table.shape
    if n < 2 or k < 2:
        raise DataError(f"need >= 2 subjects and >= 2 algorithms, got {table.shape}")
    ranks = np.vstack([_rankdata(-row) for row in table])
    avg = ranks.mean(axis=0)
    statistic = 12.0 * n / (k * (k + 1)) * float(np.sum((avg - (k + 1) / 2.0) ** 2))
    p_value = _chi2_sf(statistic, k - 1) if statistic > 0 else 1.0
    return FriedmanResult(avg_ranks=avg, statistic=statistic, p_value=p_value)


@dataclass(frozen=True)
class HolmResult:
    control: int
    z_values: np.ndarray  # per algorithm; NaN at the control
    p_values: np.ndarray  # one-sided raw p; NaN at the control
    p_adjusted: np.ndarray  # Holm-adjusted; NaN at the control
    reject: np.ndarray  # bool; False at the control


def holm_posthoc(avg_ranks: np.ndarray, n: int, control: int) -> HolmResult:
    """One-sided Holm step-down versus a control algorithm.

    The alternative is "algorithm ranks better (lower) than the control":
    z_j = (R_control - R_j) / sqrt(k (k + 1) / (6 n)). Comparisons are ordered
    by ascending p and rejected while p_(i) <= HOLM_ALPHA / (m - i + 1).
    """
    avg_ranks = np.asarray(avg_ranks, dtype=np.float64)
    k = len(avg_ranks)
    if not 0 <= control < k:
        raise DataError(f"control index {control} outside 0..{k - 1}")
    se = np.sqrt(k * (k + 1) / (6.0 * n))
    z = (avg_ranks[control] - avg_ranks) / se
    p = np.array([_norm_sf(v) for v in z])
    others = [j for j in range(k) if j != control]
    order = sorted(others, key=lambda j: p[j])
    m = len(others)
    adjusted = np.full(k, np.nan)
    reject = np.zeros(k, dtype=bool)
    running_max = 0.0
    still_rejecting = True
    for i, j in enumerate(order):
        running_max = max(running_max, (m - i) * p[j])
        adjusted[j] = min(1.0, running_max)
        if still_rejecting and p[j] <= HOLM_ALPHA / (m - i):
            reject[j] = True
        else:
            still_rejecting = False
    z_out = z.copy()
    p_out = p.copy()
    z_out[control] = np.nan
    p_out[control] = np.nan
    return HolmResult(control=control, z_values=z_out, p_values=p_out,
                      p_adjusted=adjusted, reject=reject)


def _signed_rank_statistic(diffs: np.ndarray) -> tuple[float, np.ndarray]:
    ranks = _rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    return w_plus, ranks


def _exact_tail_probs(ranks: np.ndarray, w_plus: float) -> tuple[float, float]:
    """P(W+ <= w) and P(W+ >= w) by dynamic programming over sign patterns.

    Ranks are doubled so mid-ranks become integers; the distribution of W+
    under sign flips is enumerated exactly.
    """
    scaled = np.round(ranks * 2).astype(np.int64)
    total = int(scaled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in scaled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    counts /= counts.sum()
    w2 = int(round(w_plus * 2))
    p_le = float(counts[: w2 + 1].sum())
    p_ge = float(counts[w2:].sum())
    return p_le, p_ge


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided paired signed-rank test p-value; zero differences are dropped.

    Uses the exact sign-flip null up to `WILCOXON_EXACT_MAX` nonzero pairs
    and the tie-corrected normal approximation (with continuity correction)
    beyond.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"paired samples must be equal-length vectors, got {a.shape}, {b.shape}")
    diffs = a - b
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    w_plus, ranks = _signed_rank_statistic(diffs)
    if n <= WILCOXON_EXACT_MAX:
        p_le, p_ge = _exact_tail_probs(ranks, w_plus)
        return min(1.0, 2.0 * min(p_le, p_ge))
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(tie_counts**3 - tie_counts) / 48.0
    sd = np.sqrt(var)
    z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / sd
    return float(min(1.0, 2.0 * _norm_sf(abs(z))))


def cohens_dz(a: np.ndarray, b: np.ndarray) -> float:
    """Paired effect size: mean(a - b) / sample std of the differences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"paired samples must be equal-length vectors, got {a.shape}, {b.shape}")
    if len(a) < 2:
        raise DataError(f"need >= 2 pairs, got {len(a)}")
    diffs = a - b
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        raise NumericError("zero-variance differences: effect size undefined")
    return float(np.mean(diffs) / sd)

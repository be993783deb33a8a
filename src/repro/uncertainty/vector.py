"""Vectorized counterparts of the scalar moment/comparison routines.

The scalar functions in :mod:`repro.uncertainty.moments` follow the
paper's equations one term at a time and are the reference the test
suite trusts; this module re-implements them over numpy arrays so the
pair builder can price hundreds of thousands of candidate pairs per
time instance.  Tests assert scalar/vector agreement.

Interval arrays describe per-dimension uniform supports: a set of ``k``
boxes is four arrays ``(x_lo, x_hi, y_lo, y_hi)`` of shape ``(k,)``.
All pairwise outputs broadcast worker axes against task axes.

Per-entity tables.  Every term of Sec. III-B's moment combination
except the final cross products depends on one entity's box alone:
its mean, its variance and its raw moments ``E(X^1..4)``.
:func:`interval_moment_table` computes those once per entity and
:func:`distance_stats_pairs` gathers them per ``(row, col)`` pair,
then runs the same float expressions :func:`distance_stats_vec`
runs on the broadcast grid, in the same order.  The values are
exact, not approximate: a gathered entry is the very float the
per-pair recomputation would produce (numpy's elementwise kernels
give the same value for the same operands whatever the array's
shape, stride or length), so the pair kernel's outputs are
bit-identical to the dense oracle's ``[rows, cols]`` entries.  What
the table saves is the per-pair ``pow`` work of the raw moments,
which dominated pricing when it ran once per pair.
"""

from __future__ import annotations

import numpy as np


def uniform_raw_moments_vec(lb: np.ndarray, ub: np.ndarray, k: int) -> np.ndarray:
    """``E(X^k)`` elementwise for ``X ~ Uniform[lb, ub]``.

    Degenerate intervals (``lb == ub``) return ``lb**k``.
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    width = ub - lb
    # Near-degenerate lanes hit catastrophic cancellation in the
    # closed form; treat them as points (matches the scalar version).
    scale = np.maximum(np.maximum(np.abs(lb), np.abs(ub)), 1.0)
    degenerate = width <= 1e-12 * scale
    # All-or-nothing shortcuts skip the unused branch; the selected
    # expressions are the same, so the values are bit-identical.  The
    # all-degenerate case is the workhorse: current entities are
    # points, so whole interval sets collapse to it.
    if degenerate.all():
        return lb**k
    moments = (ub ** (k + 1) - lb ** (k + 1)) / ((k + 1) * np.where(degenerate, 1.0, width))
    if not degenerate.any():
        return moments
    return np.where(degenerate, lb**k, moments)


def _difference_moments_vec(
    w_lb: np.ndarray, w_ub: np.ndarray, t_lb: np.ndarray, t_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(E(Z_r^2), E(Z_r^4))`` for ``Z_r = w[r] - t[r]``.

    Worker arrays are expected with a trailing broadcast axis (shape
    ``(k, 1)``), task arrays with shape ``(m,)``; outputs are
    ``(k, m)``.
    """
    w_mean = (w_lb + w_ub) / 2.0
    t_mean = (t_lb + t_ub) / 2.0
    w_var = (w_ub - w_lb) ** 2 / 12.0
    t_var = (t_ub - t_lb) ** 2 / 12.0
    second = w_var + t_var + (w_mean - t_mean) ** 2

    w1 = uniform_raw_moments_vec(w_lb, w_ub, 1)
    w2 = uniform_raw_moments_vec(w_lb, w_ub, 2)
    w3 = uniform_raw_moments_vec(w_lb, w_ub, 3)
    w4 = uniform_raw_moments_vec(w_lb, w_ub, 4)
    t1 = uniform_raw_moments_vec(t_lb, t_ub, 1)
    t2 = uniform_raw_moments_vec(t_lb, t_ub, 2)
    t3 = uniform_raw_moments_vec(t_lb, t_ub, 3)
    t4 = uniform_raw_moments_vec(t_lb, t_ub, 4)
    fourth = w4 - 4.0 * w3 * t1 + 6.0 * w2 * t2 - 4.0 * w1 * t3 + t4
    return second, fourth


def _interval_gap_vec(a_lo, a_hi, b_lo, b_hi):
    """Vectorized minimum distance between 1-D intervals."""
    below = np.maximum(b_lo - a_hi, 0.0)
    above = np.maximum(a_lo - b_hi, 0.0)
    return below + above


def _interval_span_vec(a_lo, a_hi, b_lo, b_hi):
    """Vectorized maximum distance between 1-D intervals."""
    return np.maximum(np.abs(a_hi - b_lo), np.abs(b_hi - a_lo))


def distance_stats_vec(
    worker_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    task_intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise distance statistics between two box sets.

    Args:
        worker_intervals: ``(x_lo, x_hi, y_lo, y_hi)`` arrays, shape ``(k,)``.
        task_intervals: same, shape ``(m,)``.

    Returns:
        ``(mean, variance, lower, upper)`` arrays of shape ``(k, m)``,
        matching :func:`repro.uncertainty.moments.distance_value`
        elementwise (delta-method mean/variance, exact bounds).
    """
    wx_lo, wx_hi, wy_lo, wy_hi = (np.asarray(a, dtype=float)[:, None] for a in worker_intervals)
    tx_lo, tx_hi, ty_lo, ty_hi = (np.asarray(a, dtype=float) for a in task_intervals)

    e_z1_sq, e_z1_4 = _difference_moments_vec(wx_lo, wx_hi, tx_lo, tx_hi)
    e_z2_sq, e_z2_4 = _difference_moments_vec(wy_lo, wy_hi, ty_lo, ty_hi)
    lower = np.hypot(
        _interval_gap_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_gap_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    upper = np.hypot(
        _interval_span_vec(wx_lo, wx_hi, tx_lo, tx_hi),
        _interval_span_vec(wy_lo, wy_hi, ty_lo, ty_hi),
    )
    return _distance_from_moments((e_z1_sq, e_z2_sq), (e_z1_4, e_z2_4), lower, upper)


def _distance_from_moments(second, fourth, lower, upper):
    """Delta-method ``(mean, variance, lower, upper)`` of the distance.

    ``second``/``fourth`` hold ``E(Z_r^2)``/``E(Z_r^4)`` for the x and
    y axes; the mean is clipped into the exact ``[lower, upper]``.
    """
    e_z1_sq, e_z2_sq = second
    e_z1_4, e_z2_4 = fourth
    mean_sq = e_z1_sq + e_z2_sq
    e_z4 = e_z1_4 + 2.0 * e_z1_sq * e_z2_sq + e_z2_4
    variance_sq = np.maximum(e_z4 - mean_sq * mean_sq, 0.0)

    positive = mean_sq > 0.0
    safe_mean_sq = np.where(positive, mean_sq, 1.0)
    mean = np.where(positive, np.sqrt(safe_mean_sq), 0.0)
    variance = np.where(positive, variance_sq / (4.0 * safe_mean_sq), 0.0)
    mean = np.clip(mean, lower, upper)
    return mean, variance, lower, upper


#: Columns of one axis of an :func:`interval_moment_table`.
_LB, _UB, _MEAN, _VAR, _M1, _M2, _M3, _M4 = range(8)


def interval_moment_table(
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-entity moment table of a box set, shape ``(2, 8, k)``.

    ``table[axis]`` (0 = x, 1 = y) holds, per entity, the rows ``lb,
    ub, mean, var, E(X), E(X^2), E(X^3), E(X^4)`` of the axis's
    uniform support — the same floats :func:`_difference_moments_vec`
    derives from each box, computed once per entity instead of once
    per pair.
    """
    x_lo, x_hi, y_lo, y_hi = (np.asarray(a, dtype=float) for a in intervals)
    table = np.empty((2, 8, x_lo.size))
    for axis, (lb, ub) in enumerate(((x_lo, x_hi), (y_lo, y_hi))):
        rows = table[axis]
        rows[_LB] = lb
        rows[_UB] = ub
        rows[_MEAN] = (lb + ub) / 2.0
        rows[_VAR] = (ub - lb) ** 2 / 12.0
        for k in (1, 2, 3, 4):
            rows[_M1 + k - 1] = uniform_raw_moments_vec(lb, ub, k)
    return table


#: Pairs per pass of :func:`distance_stats_pairs`.  A pass's dozens of
#: temporaries then stay cache-sized and are recycled by the allocator;
#: whole-family temporaries would be fresh page-faulted memory each.
_PAIR_BLOCK = 16384


def distance_stats_pairs(
    w_table: np.ndarray,
    t_table: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distance statistics of the pairs ``(rows[i], cols[i])``.

    ``w_table``/``t_table`` come from :func:`interval_moment_table`.
    The per-entity columns are gathered per pair and combined by the
    float expressions of :func:`distance_stats_vec`, operation for
    operation, so every output equals
    ``distance_stats_vec(w, t)[j][rows, cols]`` bit for bit.  Returns
    ``(mean, variance, lower, upper)`` of shape ``(len(rows),)``.
    """
    out = np.empty((4, rows.size))
    for start in range(0, rows.size, _PAIR_BLOCK):
        stop = start + _PAIR_BLOCK
        block = _pair_block_stats(
            np.take(w_table, rows[start:stop], axis=2),
            np.take(t_table, cols[start:stop], axis=2),
        )
        for column, values in zip(out, block):
            column[start:stop] = values
    mean, variance, lower, upper = out
    return mean, variance, lower, upper


def _pair_block_stats(w_cols: np.ndarray, t_cols: np.ndarray):
    """:func:`distance_stats_pairs` on gathered ``(2, 8, c)`` tables."""
    second: list[np.ndarray] = []
    fourth: list[np.ndarray] = []
    gap: list[np.ndarray] = []
    span: list[np.ndarray] = []
    for w, t in zip(w_cols, t_cols):
        second.append(w[_VAR] + t[_VAR] + (w[_MEAN] - t[_MEAN]) ** 2)
        fourth.append(
            w[_M4]
            - 4.0 * w[_M3] * t[_M1]
            + 6.0 * w[_M2] * t[_M2]
            - 4.0 * w[_M1] * t[_M3]
            + t[_M4]
        )
        gap.append(_interval_gap_vec(w[_LB], w[_UB], t[_LB], t[_UB]))
        span.append(_interval_span_vec(w[_LB], w[_UB], t[_LB], t[_UB]))
    return _distance_from_moments(second, fourth, np.hypot(*gap), np.hypot(*span))


# Abramowitz & Stegun 7.1.26 coefficients (same as uncertainty.normal).
_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_P = 0.3275911
_SQRT2 = np.sqrt(2.0)
_VARIANCE_FLOOR = 1e-24


def erf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (A&S 7.1.26, |error| < 1.5e-7)."""
    x = np.asarray(x, dtype=float)
    sign = np.where(x >= 0.0, 1.0, -1.0)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _P * ax)
    poly = ((((_A[4] * t + _A[3]) * t + _A[2]) * t + _A[1]) * t + _A[0]) * t
    return sign * (1.0 - poly * np.exp(-ax * ax))


def phi_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized standard normal CDF."""
    return 0.5 * (1.0 + erf_vec(np.asarray(z, dtype=float) / _SQRT2))


def prob_greater_vec(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Pr{A > B}`` (Eq. 7) with deterministic fallback.

    Matches :func:`repro.uncertainty.comparison.prob_greater`
    elementwise: when the combined variance vanishes the result is the
    {0, 0.5, 1} indicator of the mean comparison.
    """
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    gap = mean_a - mean_b
    combined = np.asarray(var_a, dtype=float) + np.asarray(var_b, dtype=float)
    deterministic = combined <= _VARIANCE_FLOOR
    safe = np.where(deterministic, 1.0, combined)
    stochastic = 1.0 - phi_vec(-gap / np.sqrt(safe))
    indicator = np.where(gap > 0.0, 1.0, np.where(gap < 0.0, 0.0, 0.5))
    return np.where(deterministic, indicator, stochastic)


def prob_less_or_equal_vec(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Pr{A <= B}`` (Eq. 8) with deterministic fallback."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    gap = mean_a - mean_b
    combined = np.asarray(var_a, dtype=float) + np.asarray(var_b, dtype=float)
    deterministic = combined <= _VARIANCE_FLOOR
    safe = np.where(deterministic, 1.0, combined)
    stochastic = phi_vec(-gap / np.sqrt(safe))
    indicator = np.where(gap < 0.0, 1.0, np.where(gap > 0.0, 0.0, 0.5))
    return np.where(deterministic, indicator, stochastic)

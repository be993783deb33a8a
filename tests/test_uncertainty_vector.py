"""Scalar/vector agreement tests for repro.uncertainty.vector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.box import Box
from repro.model.sparse import _price_distance, _rowmajor_order
from repro.uncertainty.comparison import prob_greater, prob_less_or_equal
from repro.uncertainty.moments import distance_value, uniform_raw_moment
from repro.uncertainty.values import UncertainValue
from repro.uncertainty.vector import (
    _PAIR_BLOCK,
    distance_stats_pairs,
    distance_stats_vec,
    erf_vec,
    interval_moment_table,
    phi_vec,
    prob_greater_vec,
    prob_less_or_equal_vec,
    uniform_raw_moments_vec,
)


def random_boxes(rng, count):
    lo = rng.uniform(0.0, 0.8, size=(count, 2))
    width = rng.uniform(0.0, 0.2, size=(count, 2))
    return [Box(x, x + w, y, y + h) for (x, y), (w, h) in zip(lo, width)]


def intervals_of(boxes):
    return (
        np.array([b.x_lo for b in boxes]),
        np.array([b.x_hi for b in boxes]),
        np.array([b.y_lo for b in boxes]),
        np.array([b.y_hi for b in boxes]),
    )


class TestVectorMoments:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60)
    def test_raw_moments_match_scalar(self, lo, width, k):
        vec = uniform_raw_moments_vec(np.array([lo]), np.array([lo + width]), k)
        assert vec[0] == pytest.approx(uniform_raw_moment(lo, lo + width, k))

    def test_distance_stats_match_scalar(self, rng):
        workers = random_boxes(rng, 6)
        tasks = random_boxes(rng, 5)
        mean, var, lb, ub = distance_stats_vec(intervals_of(workers), intervals_of(tasks))
        for i, wb in enumerate(workers):
            for j, tb in enumerate(tasks):
                scalar = distance_value(wb, tb)
                assert mean[i, j] == pytest.approx(scalar.mean, abs=1e-9)
                assert var[i, j] == pytest.approx(scalar.variance, abs=1e-9)
                assert lb[i, j] == pytest.approx(scalar.lower, abs=1e-9)
                assert ub[i, j] == pytest.approx(scalar.upper, abs=1e-9)

    def test_distance_stats_shapes(self, rng):
        workers = random_boxes(rng, 3)
        tasks = random_boxes(rng, 7)
        mean, var, lb, ub = distance_stats_vec(intervals_of(workers), intervals_of(tasks))
        assert mean.shape == var.shape == lb.shape == ub.shape == (3, 7)

    def test_degenerate_boxes(self):
        point_boxes = [Box(0.5, 0.5, 0.5, 0.5)]
        mean, var, lb, ub = distance_stats_vec(
            intervals_of(point_boxes), intervals_of(point_boxes)
        )
        assert mean[0, 0] == 0.0
        assert var[0, 0] == 0.0


#: Half-widths around ``uniform_raw_moments_vec``'s degeneracy cut
#: (``width <= 1e-12 * scale``, scale 1 in the unit square): boxes
#: ``c ± h`` land on both sides of it.
_NEAR_CUT = st.sampled_from(
    [2.5e-13, 5e-13, float(np.nextafter(5e-13, 0.0)), float(np.nextafter(5e-13, 1.0)), 1e-12]
)
_HALF_WIDTH = st.one_of(
    st.just(0.0), _NEAR_CUT, st.floats(4e-13, 6e-13), st.floats(0.0, 0.3)
)


@st.composite
def box_sets(draw, max_size: int = 8):
    """Box sets clipped to the unit square: all points, or a mix of
    points, near-degenerate and wide boxes."""
    size = draw(st.integers(0, max_size))
    points = draw(st.booleans())
    axes = []
    for _ in range(2):
        lo, hi = [], []
        for _ in range(size):
            center = draw(st.floats(0.0, 1.0))
            half = 0.0 if points else draw(_HALF_WIDTH)
            lo.append(max(center - half, 0.0))
            hi.append(min(center + half, 1.0))
        axes.append((np.array(lo, dtype=float), np.array(hi, dtype=float)))
    (x_lo, x_hi), (y_lo, y_hi) = axes
    return x_lo, x_hi, y_lo, y_hi


def _assert_pairs_match_dense(w, t, rows, cols):
    got = distance_stats_pairs(
        interval_moment_table(w), interval_moment_table(t), rows, cols
    )
    for dense, pairs in zip(distance_stats_vec(w, t), got):
        assert pairs.shape == rows.shape
        assert np.array_equal(dense[rows, cols], pairs)


class TestPairsKernel:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_dense_oracle(self, data):
        w = data.draw(box_sets())
        t = data.draw(box_sets())
        k, m = w[0].size, t[0].size
        size = data.draw(st.integers(0, 40)) if k and m else 0
        # Repeats allowed: a row meets many columns and vice versa.
        rows = np.array(
            data.draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=size, max_size=size)),
            dtype=np.int64,
        )
        cols = np.array(
            data.draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=size, max_size=size)),
            dtype=np.int64,
        )
        _assert_pairs_match_dense(w, t, rows, cols)

    def test_every_pair_of_a_grid_across_blocks(self, rng):
        """All ``k x m`` pairs, more than one pass's worth, row-major."""
        w = intervals_of(random_boxes(rng, 130))
        t = list(intervals_of(random_boxes(rng, 140)))
        t[1] = t[0]  # a point-like x axis on the task side
        rows, cols = (a.ravel() for a in np.indices((130, 140)))
        assert rows.size > _PAIR_BLOCK
        _assert_pairs_match_dense(w, tuple(t), rows, cols)

    @pytest.mark.parametrize("num_pairs", [3, 500])
    def test_price_distance_either_table(self, rng, num_pairs):
        """Fewer pairs than entities tabulate the gathered boxes, more
        tabulate the entities; both equal the dense oracle."""
        w = intervals_of(random_boxes(rng, 40))
        t = list(intervals_of(random_boxes(rng, 30)))
        t[3] = t[2]  # a point-like y axis on the task side
        rows = np.sort(rng.integers(0, 40, num_pairs))
        cols = rng.integers(0, 30, num_pairs)
        dense = distance_stats_vec(w, tuple(t))
        for full, priced in zip(dense, _price_distance(w, tuple(t), rows, cols)):
            assert np.array_equal(full[rows, cols], priced)

    def test_empty_pairs_and_empty_sets(self):
        empty = (np.zeros(0),) * 4
        idx = np.zeros(0, dtype=np.int64)
        _assert_pairs_match_dense(empty, empty, idx, idx)

    def test_table_layout(self):
        table = interval_moment_table(
            (np.array([0.2]), np.array([0.6]), np.array([0.5]), np.array([0.5]))
        )
        assert table.shape == (2, 8, 1)
        x, y = table[:, :, 0]
        assert x[:4].tolist() == [0.2, 0.6, (0.2 + 0.6) / 2.0, (0.6 - 0.2) ** 2 / 12.0]
        assert x[4:] == pytest.approx([uniform_raw_moment(0.2, 0.6, k) for k in (1, 2, 3, 4)])
        assert y.tolist() == [0.5, 0.5, 0.5, 0.0, 0.5, 0.25, 0.125, 0.0625]


class TestRowMajorOrder:
    @given(
        pairs=st.sets(st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort_on_unique_pairs(self, pairs, seed):
        keys = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        keys = np.random.default_rng(seed).permutation(keys)
        rows, cols = keys[:, 0], keys[:, 1]
        assert np.array_equal(_rowmajor_order(rows, cols), np.lexsort((cols, rows)))

    def test_large_shuffled_join(self, rng):
        flat = rng.choice(4000 * 3000, size=200_000, replace=False)
        rows, cols = np.divmod(flat.astype(np.int64), 3000)
        assert np.array_equal(_rowmajor_order(rows, cols), np.lexsort((cols, rows)))

    @pytest.mark.parametrize("size", [0, 1])
    def test_tiny(self, size):
        rows = np.arange(size, dtype=np.int64) + 7
        cols = np.arange(size, dtype=np.int64) + 3
        assert np.array_equal(_rowmajor_order(rows, cols), np.lexsort((cols, rows)))

    def test_ids_next_to_the_bound(self, rng):
        # (max_row + 1) * (max_col + 1) == 2**63 - 2**31: the largest
        # packed key is just under the int64 limit.
        top_row, top_col = 2**32 - 2, 2**31 - 1
        rows = np.array([top_row, 0, top_row, top_row - 1, 5, top_row], dtype=np.int64)
        cols = np.array([top_col, top_col, 0, top_col, 0, top_col - 1], dtype=np.int64)
        perm = rng.permutation(rows.size)
        rows, cols = rows[perm], cols[perm]
        assert np.array_equal(_rowmajor_order(rows, cols), np.lexsort((cols, rows)))

    def test_guard_on_both_sides_of_the_bound(self):
        cols = np.array([0, 2**31 - 1], dtype=np.int64)
        below = np.array([2**32 - 2, 0], dtype=np.int64)  # product 2**63 - 2**31
        at = np.array([2**32 - 1, 0], dtype=np.int64)  # product exactly 2**63
        _rowmajor_order(below, cols)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            _rowmajor_order(at, cols)


class TestVectorNormal:
    @given(st.floats(min_value=-6, max_value=6))
    def test_erf_vec_matches_math(self, x):
        assert float(erf_vec(np.array([x]))[0]) == pytest.approx(math.erf(x), abs=2e-7)

    def test_phi_vec_midpoint(self):
        assert float(phi_vec(np.array([0.0]))[0]) == pytest.approx(0.5, abs=1e-7)


class TestVectorComparisons:
    def test_prob_greater_matches_scalar(self, rng):
        means = rng.uniform(0.0, 3.0, size=8)
        variances = rng.uniform(0.0, 1.0, size=8)
        variances[::3] = 0.0  # mix in deterministic lanes
        matrix = prob_greater_vec(
            means[:, None], variances[:, None], means[None, :], variances[None, :]
        )
        for i in range(8):
            for j in range(8):
                a = UncertainValue(means[i], variances[i], means[i] - 5, means[i] + 5)
                b = UncertainValue(means[j], variances[j], means[j] - 5, means[j] + 5)
                assert matrix[i, j] == pytest.approx(prob_greater(a, b), abs=2e-7)

    def test_prob_less_or_equal_matches_scalar(self, rng):
        means = rng.uniform(0.0, 3.0, size=6)
        variances = rng.uniform(0.0, 0.5, size=6)
        variances[1] = 0.0
        matrix = prob_less_or_equal_vec(
            means[:, None], variances[:, None], means[None, :], variances[None, :]
        )
        for i in range(6):
            for j in range(6):
                a = UncertainValue(means[i], variances[i], means[i] - 5, means[i] + 5)
                b = UncertainValue(means[j], variances[j], means[j] - 5, means[j] + 5)
                assert matrix[i, j] == pytest.approx(prob_less_or_equal(a, b), abs=2e-7)

    def test_deterministic_tie_lanes(self):
        out = prob_greater_vec(
            np.array([1.0]), np.array([0.0]), np.array([1.0]), np.array([0.0])
        )
        assert out[0] == 0.5

"""The cold-build ordering kernel must equal numpy's stable sorts.

:func:`repro.core.triplet_select.build_selection_orders` sorts on
numpy's unstable quicksort and restores stability itself
(``_stable_argsort``, packed-key ``_group``).  Selections are only
bit-identical to the rescan loop if every order it returns equals the
``kind="stable"`` order it replaced, so this module checks the kernel
against those sorts directly:

- ``_stable_argsort`` against ``np.argsort(kind="stable")`` on float64
  with heavy ties, signed zeros, infinities and NaN, on int64, and at
  the degenerate sizes;
- ``_group`` against the ``np.unique``-based grouping, plus both sides
  of the int64 packing bound;
- ``build_selection_orders`` against a local copy of the stable-sort
  body, array by array and dtype by dtype, on tie-heavy pools with
  full-pool and strict-subset row sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import _VARIANCE_FLOOR, _phi_threshold
from repro.core.triplet_select import (
    SelectionOrders,
    _group,
    _stable_argsort,
    build_selection_orders,
)
from repro.model.pairs import PairPool

_SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25)

#: Few distinct values (ties everywhere) mixed with arbitrary floats.
_floats = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
)
_ints = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# _stable_argsort
# ---------------------------------------------------------------------------


class TestStableArgsort:
    @given(values=st.lists(_floats, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_float64_matches_stable_argsort(self, values):
        keys = np.array(values, dtype=np.float64)
        _assert_same(_stable_argsort(keys), np.argsort(keys, kind="stable"))

    @given(values=st.lists(_ints, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_int64_matches_stable_argsort(self, values):
        keys = np.array(values, dtype=np.int64)
        _assert_same(_stable_argsort(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("size", [0, 1])
    def test_degenerate_sizes(self, dtype, size):
        keys = np.zeros(size, dtype=dtype)
        _assert_same(_stable_argsort(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("distinct", [1, 3, 1000, None])
    def test_large_pool_sized_inputs(self, distinct):
        # Pool-sized arrays take the vectorized quicksort path, whose
        # tie order differs from the small-array networks.
        rng = np.random.default_rng(distinct or 0)
        n = 50_000
        if distinct is None:
            keys = rng.random(n)
        else:
            keys = rng.integers(0, distinct, n).astype(np.float64)
        keys[rng.integers(0, n, 200)] = np.nan
        keys[rng.integers(0, n, 200)] = -0.0
        keys[rng.integers(0, n, 200)] = np.inf
        _assert_same(_stable_argsort(keys), np.argsort(keys, kind="stable"))
        ints = rng.integers(0, distinct or 2**40, n)
        _assert_same(_stable_argsort(ints), np.argsort(ints, kind="stable"))


# ---------------------------------------------------------------------------
# _group
# ---------------------------------------------------------------------------


def _reference_group(keys: np.ndarray):
    """The stable-argsort + ``np.unique`` grouping the kernel replaced."""
    order = np.argsort(keys, kind="stable").astype(np.int64)
    sorted_keys = keys[order]
    uniq, first = np.unique(sorted_keys, return_index=True)
    starts = np.concatenate((first, [sorted_keys.size])).astype(np.int64)
    return uniq, starts, order


class TestGroup:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=40), max_size=300),
        scale=st.sampled_from([1, 7, 2**40]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_unique_grouping(self, values, scale):
        keys = np.array(values, dtype=np.int64) * scale
        for got, want in zip(_group(keys), _reference_group(keys)):
            _assert_same(got, want)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match=r"\(max_key \+ 1\) \* n < 2\*\*63"):
            _group(np.array([3, -1, 2], dtype=np.int64))

    def test_packing_bound_both_sides(self):
        # n = 2: the largest packable key is 2**62 - 2, since
        # (2**62 - 1) * 2 < 2**63 <= 2**62 * 2.
        below = np.array([2**62 - 2, 0], dtype=np.int64)
        for got, want in zip(_group(below), _reference_group(below)):
            _assert_same(got, want)
        at = np.array([2**62 - 1, 0], dtype=np.int64)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            _group(at)


# ---------------------------------------------------------------------------
# build_selection_orders
# ---------------------------------------------------------------------------


def _reference_orders(pool: PairPool, rows: np.ndarray, thresholds) -> SelectionOrders:
    """The cold build as written on ``kind="stable"`` sorts and lexsort."""
    orders = SelectionOrders()
    orders.size = rows.size
    cost = pool.cost_mean[rows]
    orders.w_keys, orders.w_starts, orders.w_members = _reference_group(
        pool.worker_idx[rows]
    )
    orders.t_keys, orders.t_starts, orders.t_members = _reference_group(
        pool.task_idx[rows]
    )
    orders.weight_positions = np.lexsort((rows, cost, -pool.quality_mean[rows]))
    orders.ub_order = np.argsort(pool.cost_ub[rows], kind="stable")
    is_current = pool.is_current[rows]
    by_cost = np.argsort(cost, kind="stable")
    orders.by_cost = by_cost.astype(np.int64, copy=False)
    orders.cur_sweep = by_cost[is_current[by_cost]]
    orders.fut_sweep = by_cost[~is_current[by_cost]]
    variance = pool.cost_var[rows]
    deterministic = variance <= _VARIANCE_FLOOR
    orders.det_sweep = by_cost[deterministic[by_cost]]
    z_lo, z_hi = thresholds
    sto_positions = np.nonzero(~deterministic)[0]
    std = np.sqrt(variance[sto_positions])
    fail_key = cost[sto_positions] + z_lo * std
    pass_key = cost[sto_positions] + z_hi * std
    orders.sto_fail_sweep = sto_positions[np.argsort(fail_key, kind="stable")]
    orders.band_entry = sto_positions[np.argsort(pass_key, kind="stable")]
    return orders


def _tied_pool(rng: np.random.Generator, n: int, distinct: int) -> PairPool:
    """A pool whose order-determining columns take few distinct values."""
    cost = rng.integers(0, distinct, n) * 0.5
    variance = np.where(rng.random(n) < 0.4, 0.0, rng.integers(1, distinct + 1, n) * 0.25)
    quality = rng.integers(0, distinct, n) * 0.125
    return PairPool(
        worker_idx=rng.integers(0, max(n // 3, 1), n),
        task_idx=rng.integers(0, max(n // 2, 1), n),
        cost_mean=cost,
        cost_var=variance,
        cost_lb=cost - 1.0,
        cost_ub=cost + rng.integers(0, distinct, n) * 0.5,
        quality_mean=quality,
        quality_var=np.zeros(n),
        quality_lb=quality - 0.5,
        quality_ub=quality + 0.5,
        existence=np.ones(n),
        is_current=rng.random(n) < 0.6,
    )


def _assert_orders_equal(got: SelectionOrders, want: SelectionOrders) -> None:
    assert got.size == want.size
    for name in SelectionOrders.__slots__:
        if name == "size":
            continue
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


class TestBuildSelectionOrders:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=400),
        distinct=st.integers(min_value=1, max_value=8),
        subset=st.booleans(),
        delta=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_sort_build(self, seed, n, distinct, subset, delta):
        rng = np.random.default_rng(seed)
        pool = _tied_pool(rng, n, distinct)
        rows = np.arange(n, dtype=np.int64)
        if subset and n:
            rows = rows[rng.random(n) < 0.5]
        thresholds = _phi_threshold(delta)
        _assert_orders_equal(
            build_selection_orders(pool, rows, thresholds),
            _reference_orders(pool, rows, thresholds),
        )

    @pytest.mark.parametrize("subset", [False, True])
    def test_pool_sized_tie_heavy_build(self, subset):
        # Pool-sized, with tens of thousands of tied quality values
        # per build, as on a citywide prime.
        rng = np.random.default_rng(11)
        n = 60_000
        pool = _tied_pool(rng, n, 200)
        rows = np.arange(n, dtype=np.int64)
        if subset:
            rows = rows[rng.random(n) < 0.7]
        thresholds = _phi_threshold(0.5)
        _assert_orders_equal(
            build_selection_orders(pool, rows, thresholds),
            _reference_orders(pool, rows, thresholds),
        )

"""Incremental round-over-round candidate-pool maintenance.

The streaming engine's entity sets barely change between micro-batch
rounds, yet :func:`~repro.model.sparse.build_problem_sparse` regenerates
the whole current×current candidate family from scratch every round:
column extraction, cell joins, exact distances and quality scores are
recomputed for pairs that were identical one round earlier.
:class:`DeltaPoolBuilder` persists that family across rounds and
*repairs* it instead:

- Worker rows are joined once against the maintained task CSR with a
  radius inflated by a **motion slack** (kinetic-data-structure style:
  the cached gather stays a superset of every future valid set as long
  as no endpoint drifts further than the slack from its join-time
  anchor; joins inflate by ``3 × slack`` because a pair couples a
  worker within ``slack`` of its row anchor to a task within ``slack``
  of a bucket position that is itself within ``slack`` of the task's
  anchor).
- Each round only three deltas run: rows/columns of arrived, expired
  and assigned entities are spliced in or dropped; entities whose
  accumulated displacement since their anchor exceeds the slack are
  dropped and re-joined (their cached superset can no longer be
  trusted); and one vectorized exact-validity pass re-prices time:
  the per-pair horizon test is the only quantity that changes when
  nothing moves, and it is a handful of elementwise ops over cached
  distances.
- The Section III-B quality statistics, existence probabilities and
  the reservation filter are *recomputed from the cached triplets in
  canonical row-major order* every round and flow through the same
  :func:`~repro.model.sparse._predicted_family_coupling` helper the
  sparse and sharded builders share — identical inputs in identical
  order, so every downstream float matches the fresh builder exactly.
- The predicted families are inherently fresh (prediction resamples
  entities each round) and run through the same batched join kernels,
  but against the cached CSR and cached current-entity columns, so no
  per-round Python attribute extraction or index snapshotting remains.

The emitted :class:`~repro.model.instance.ProblemInstance` is
**bit-for-bit identical** to ``build_problem_sparse`` on the same
inputs (hypothesis-enforced by ``tests/test_model_delta.py``): cached
distances/qualities are pure functions of unchanged operands, the
cached gather is a proven superset of the exact valid set, and the
canonical pair order is maintained under splices (engine list removals
preserve relative order; arrivals append — both verified against the
passed lists every round).

The builder is *total*: whenever the incremental path cannot be
trusted — first round, change-journal overflow, clock regression,
churn above ``rebuild_churn_ratio``, or any inconsistency between the
journal and the entity lists — it falls back to a full rebuild
(re-prime) of the cache and still returns the exact pool.  The fall
back triggers are observable through :class:`DeltaBuildStats`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geo.grid import GridIndex
from repro.geo.spatial_index import SpatialIndex
from repro.model.entities import Task, Worker
from repro.model.instance import (
    ProblemInstance,
    _box_intervals,
    _task_columns,
    _worker_columns,
    quality_sample_stats,
    validate_predicted_flags,
)
from repro.model.pairs import PairPool
from repro.model.quality import QualityModel
from repro.obs.metrics import monotonic
from repro.model.sparse import (
    _EMPTY_IDX,
    SparseBuildStats,
    _CandidateCSR,
    _pair_quality,
    _predicted_family_coupling,
    _price_distance,
    _reach,
    _rowmajor_order,
    _triplet_pool,
    _uncertain_pairs_batched,
)
from repro.uncertainty.vector import _interval_gap_vec

_EMPTY_F = np.zeros(0)


@dataclass
class ChurnRecord:
    """One round's churn, shared by the pool builder and the selector.

    The streaming engine journals its own entity churn here (the
    trusted hints that previously traveled as bare keyword arguments),
    hands the record to :meth:`DeltaPoolBuilder.build`, and the builder
    annotates it with the *row-level* consequence of that churn: for
    every row of the emitted pool, the row it occupied in the previous
    round's emission (or ``-1`` for rows with no verbatim predecessor —
    new pairs, re-priced pairs, and the always-fresh predicted
    families).  Downstream, :class:`~repro.core.triplet_select.
    SelectionState` repairs its sorted orders from exactly this
    mapping.

    Attributes:
        worker_arrivals: workers that joined since the previous build
            (engine journal; ``None`` when the caller wants the
            builder to self-diff).
        worker_removed_ids: ids of workers removed since the previous
            build (same trust contract as ``worker_arrivals``).
        row_origin: per emitted pool row, the row index it had in the
            previous emission, or ``-1``; non-negative entries are
            strictly increasing (splices preserve canonical order).
        prev_pool_rows: row count of the previous emission (what
            ``row_origin`` indexes into), ``-1`` before the first.
    """

    worker_arrivals: Sequence[Worker] | None = None
    worker_removed_ids: Sequence[int] | None = None
    row_origin: np.ndarray | None = None
    prev_pool_rows: int = -1


@dataclass
class PredictedWorkerColumns:
    """Packed per-round predicted-worker columns (no entity objects).

    The partition-emission path (:meth:`DeltaPoolBuilder.
    emit_partition`) consumes predicted entities as plain arrays so a
    process-backend shard worker can run the predicted families from a
    shared-memory view without ever unpickling ``Worker`` objects.
    Built once per round by :func:`predicted_worker_columns`.
    """

    xs: np.ndarray
    ys: np.ndarray
    vel: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    reach: np.ndarray

    @property
    def size(self) -> int:
        return int(self.xs.size)

    def take(self, rows: np.ndarray) -> "PredictedWorkerColumns":
        """The aligned subset at ``rows`` (a tile's owned entities)."""
        return PredictedWorkerColumns(
            xs=self.xs[rows],
            ys=self.ys[rows],
            vel=self.vel[rows],
            arr=self.arr[rows],
            intervals=tuple(a[rows] for a in self.intervals),
            reach=self.reach[rows],
        )


@dataclass
class PredictedTaskColumns:
    """Packed per-round predicted-task columns (no entity objects)."""

    xs: np.ndarray
    ys: np.ndarray
    deadline: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    reach: np.ndarray
    deadline_max: float
    max_reach: float

    @property
    def size(self) -> int:
        return int(self.xs.size)


def predicted_worker_columns(predicted_workers) -> PredictedWorkerColumns | None:
    """Pack one round's predicted workers into plain arrays."""
    if not predicted_workers:
        return None
    intervals = _box_intervals(predicted_workers)
    xs, ys, vel, arr = _worker_columns(predicted_workers)
    return PredictedWorkerColumns(
        xs=xs, ys=ys, vel=vel, arr=arr,
        intervals=intervals, reach=_reach(intervals, xs, ys),
    )


def predicted_task_columns(predicted_tasks) -> PredictedTaskColumns | None:
    """Pack one round's predicted tasks into plain arrays."""
    if not predicted_tasks:
        return None
    xs, ys, deadline, arr = _task_columns(predicted_tasks)
    intervals = _box_intervals(predicted_tasks)
    reach = _reach(intervals, xs, ys)
    return PredictedTaskColumns(
        xs=xs, ys=ys, deadline=deadline, arr=arr,
        intervals=intervals, reach=reach,
        deadline_max=float(deadline.max()),
        max_reach=float(reach.max()),
    )


@dataclass
class PartitionEmission:
    """One partition's half of a fused round build.

    The raw material :func:`repro.streaming.pipeline` assembles into a
    global :class:`ProblemInstance`: the partition's revalidated
    current×current triplets (local row/column indices into the
    partition's own worker/task lists) plus the index pairs of the
    always-fresh predicted families, with pricing and Section III-B
    coupling deferred to the global reconcile pass — the same division
    of labor as the sharded builder's phase 1 / phase 2 split, which is
    what makes the merged output bit-identical to the serial builders.
    ``prev_origin`` maps each cc row to the rank it held in this
    partition's previous emission (or ``-1``), letting the parent
    compose a trusted global row-origin map for warm selection.
    """

    cc_rows: np.ndarray = None
    cc_cols: np.ndarray = None
    cc_dist: np.ndarray = None
    cc_quality: np.ndarray = None
    prev_origin: np.ndarray = None
    pw_ct: tuple = (None, None)
    cw_pt: tuple = (None, None)
    pw_pt: tuple = (None, None)
    incremental: bool = False
    build_seconds: float = 0.0


@dataclass
class DeltaBuildStats:
    """Observable counters of the incremental maintenance.

    Attributes:
        rounds: builds served.
        primes: full cache rebuilds (first round + every fallback).
        incremental_rounds: builds served purely by delta repair.
        rows_joined: worker rows (re)joined against the CSR.
        cols_joined: task columns (re)joined against the worker set.
        pairs_cached: current size of the cached candidate superset.
        revalidated: cached pairs swept by the exact validity pass,
            summed over rounds.
        moved_within_slack: motion events absorbed by the slack
            (coordinates updated, cached pairs kept).
        rejoined_for_motion: entities whose accumulated displacement
            exceeded the slack and forced a drop-and-rejoin.
    """

    rounds: int = 0
    primes: int = 0
    incremental_rounds: int = 0
    rows_joined: int = 0
    cols_joined: int = 0
    pairs_cached: int = 0
    revalidated: int = 0
    moved_within_slack: int = 0
    rejoined_for_motion: int = 0


def _ids_of(entities) -> np.ndarray:
    return np.fromiter((e.id for e in entities), dtype=np.int64, count=len(entities))


def _require_current(entities, kind: str) -> None:
    """Delta caching assumes id-stable current entities with degenerate
    boxes (the engine's invariant); reject anything else loudly."""
    for e in entities:
        if e.predicted:
            raise ValueError(f"{kind} {e.id}: predicted entities cannot enter the cache")
        box = e.box
        loc = e.location
        if (
            box.x_lo != loc.x
            or box.x_hi != loc.x
            or box.y_lo != loc.y
            or box.y_hi != loc.y
        ):
            raise ValueError(
                f"{kind} {e.id}: delta caching requires a degenerate "
                "(current-entity) box"
            )


class DeltaPoolBuilder:
    """Round-over-round maintained equivalent of ``build_problem_sparse``.

    Construct once per stream with the engine's incrementally
    maintained *current-task* :class:`SpatialIndex` (the builder
    subscribes to its mutation journal) and call :meth:`build` every
    round with the same arguments the fresh builder would receive.

    Args:
        quality_model: pair scorer; its ``quality_pairs_by_ids`` hook
            is used when present (scores are cached per pair, so the
            model must be a pure function of the pair — the same
            contract the sparse builder documents).
        unit_cost: price per traveled distance.
        task_index: the maintained index over current tasks.  Only its
            mutation journal and grid resolution are consumed; the
            entity lists passed to :meth:`build` stay authoritative,
            and any disagreement between the two triggers a re-prime.
            ``None`` runs the builder in **external-journal mode**
            (``index_gamma`` then required): nothing is subscribed and
            the caller feeds each round's pre-split mutation ops to
            :meth:`repair`/:meth:`build` itself — the mode the fused
            per-tile round pipelines drive, where one parent-side
            splitter fans a single index journal out to many builders.
        slack: motion slack in unit-square distance.  ``0.0`` (the
            engine default — its entities never move) keeps joins
            exact; a positive slack lets entities drift up to it from
            their join-time anchors before a rejoin is forced, at the
            price of ``3 x slack``-inflated gathers.
        rebuild_churn_ratio: when more than this fraction of the
            cached population changes in one round, repairing costs
            more than rebuilding — fall back to a prime.
        assume_static_queries: skip the per-round motion scan of the
            query (worker) side.  The engine's workers are immutable
            and id-stable, so it passes ``True``; drive it with
            ``False`` to support callers that move workers in place.
    """

    def __init__(
        self,
        quality_model: QualityModel,
        unit_cost: float,
        task_index: SpatialIndex | None,
        *,
        discount_by_existence: bool = True,
        reservation_filter: bool = True,
        include_future_future_pairs: bool = True,
        exact_predicted_quality: bool = False,
        index_gamma: int | None = None,
        slack: float = 0.0,
        rebuild_churn_ratio: float = 0.5,
        assume_static_queries: bool = True,
        stats: SparseBuildStats | None = None,
    ) -> None:
        if unit_cost < 0.0:
            raise ValueError(f"unit cost must be non-negative, got {unit_cost}")
        if slack < 0.0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        if not 0.0 < rebuild_churn_ratio <= 1.0:
            raise ValueError(
                f"rebuild_churn_ratio must be in (0, 1], got {rebuild_churn_ratio}"
            )
        if task_index is None and not index_gamma:
            raise ValueError("external-journal mode (task_index=None) needs index_gamma")
        self._quality_model = quality_model
        self._unit_cost = float(unit_cost)
        self._index = task_index
        self._log = task_index.subscribe() if task_index is not None else None
        self._discount = discount_by_existence
        self._reservation = reservation_filter
        self._future_future = include_future_future_pairs
        self._exact_predicted = exact_predicted_quality
        self._gamma = index_gamma or task_index.grid.gamma
        self._empty_grid = task_index.grid if task_index is not None else GridIndex(self._gamma)
        self._slack = float(slack)
        self._churn_ratio = float(rebuild_churn_ratio)
        self._static_queries = assume_static_queries
        self._stats = stats
        self._by_ids = (
            getattr(quality_model, "quality_pairs_by_ids", None)
        )
        self.delta_stats = DeltaBuildStats()

        self._primed = False
        self._last_now = -np.inf
        #: Row count of the previous emission and the churn record of
        #: the latest build — survives primes (origins just go all-
        #: fresh across one), reset only with the builder itself.
        self._last_emitted_rows = -1
        self.last_churn: ChurnRecord | None = None
        self._reset_cache()

    # -- cache state --------------------------------------------------------

    def _reset_cache(self) -> None:
        self._w_ids = _EMPTY_IDX
        self._wx = self._wy = self._wvel = self._warr = _EMPTY_F
        self._w_ax = self._w_ay = _EMPTY_F
        self._t_ids = _EMPTY_IDX
        # Mirror of _t_ids for O(1) membership in the journal replay,
        # maintained incrementally (rebuilding a set per round would
        # cost O(cached population) in Python).
        self._t_id_set: set[int] = set()
        self._tx = self._ty = self._tdl = self._tarr = _EMPTY_F
        self._t_ax = self._t_ay = _EMPTY_F
        self._csr = _CandidateCSR.empty(self._empty_grid)
        # Worker-side CSR: lets the <w, t_hat> family run *transposed*
        # (few predicted-task queries against the cached worker
        # buckets) instead of re-bucketing every worker each round.
        self._w_csr = _CandidateCSR.empty(self._empty_grid)
        self._p_w = self._p_t = _EMPTY_IDX
        self._p_dist = self._p_qual = _EMPTY_F
        # Per cached pair: its row in the previous *emission*, or -1.
        # Maintained through every splice so the emitted ChurnRecord
        # can hand the selector a verbatim-survivor mapping.
        self._p_origin = _EMPTY_IDX

    def invalidate(self) -> None:
        """Force a full rebuild on the next :meth:`build`."""
        self._primed = False
        self._reset_cache()

    @property
    def num_cached_pairs(self) -> int:
        return int(self._p_w.size)

    # -- pair-store maintenance (canonical (row, col) order throughout) -----

    def _pair_key_base(self) -> int:
        return int(self._t_ids.size) + 1

    def _merge_pairs(
        self, rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, qual: np.ndarray
    ) -> None:
        if rows.size == 0:
            return
        # Joined pairs are unique, so the packed-key sort is exact.
        order = _rowmajor_order(rows, cols)
        rows, cols = rows[order], cols[order]
        dist, qual = dist[order], qual[order]
        if self._p_w.size == 0:
            self._p_w, self._p_t = rows, cols
            self._p_dist, self._p_qual = dist, qual
            self._p_origin = np.full(rows.size, -1, dtype=np.int64)
            return
        base = self._pair_key_base()
        positions = np.searchsorted(
            self._p_w * base + self._p_t, rows * base + cols
        )
        self._p_w = np.insert(self._p_w, positions, rows)
        self._p_t = np.insert(self._p_t, positions, cols)
        self._p_dist = np.insert(self._p_dist, positions, dist)
        self._p_qual = np.insert(self._p_qual, positions, qual)
        self._p_origin = np.insert(self._p_origin, positions, -1)

    def _drop_worker_positions(self, remove: np.ndarray) -> None:
        """Remove worker rows; compaction preserves canonical order."""
        if not remove.any():
            return
        keep_pairs = ~remove[self._p_w]
        shift = np.cumsum(remove)
        self._p_w = (self._p_w - shift[self._p_w])[keep_pairs]
        self._p_t = self._p_t[keep_pairs]
        self._p_dist = self._p_dist[keep_pairs]
        self._p_qual = self._p_qual[keep_pairs]
        self._p_origin = self._p_origin[keep_pairs]
        keep = ~remove
        self._w_csr = self._w_csr.remove_columns(keep)
        self._w_ids = self._w_ids[keep]
        self._wx, self._wy = self._wx[keep], self._wy[keep]
        self._wvel, self._warr = self._wvel[keep], self._warr[keep]
        self._w_ax, self._w_ay = self._w_ax[keep], self._w_ay[keep]

    def _drop_task_positions(self, remove: np.ndarray) -> None:
        if not remove.any():
            return
        keep_pairs = ~remove[self._p_t]
        shift = np.cumsum(remove)
        self._p_t = (self._p_t - shift[self._p_t])[keep_pairs]
        self._p_w = self._p_w[keep_pairs]
        self._p_dist = self._p_dist[keep_pairs]
        self._p_qual = self._p_qual[keep_pairs]
        self._p_origin = self._p_origin[keep_pairs]
        keep = ~remove
        self._csr = self._csr.remove_columns(keep)
        self._t_id_set.difference_update(self._t_ids[remove].tolist())
        self._t_ids = self._t_ids[keep]
        self._tx, self._ty = self._tx[keep], self._ty[keep]
        self._tdl, self._tarr = self._tdl[keep], self._tarr[keep]
        self._t_ax, self._t_ay = self._t_ax[keep], self._t_ay[keep]

    def _drop_pairs_with_tasks(self, positions: np.ndarray) -> None:
        if positions.size == 0 or self._p_t.size == 0:
            return
        keep = ~np.isin(self._p_t, positions)
        self._p_w, self._p_t = self._p_w[keep], self._p_t[keep]
        self._p_dist, self._p_qual = self._p_dist[keep], self._p_qual[keep]
        self._p_origin = self._p_origin[keep]

    def _drop_pairs_with_workers(self, positions: np.ndarray) -> None:
        if positions.size == 0 or self._p_w.size == 0:
            return
        keep = ~np.isin(self._p_w, positions)
        self._p_w, self._p_t = self._p_w[keep], self._p_t[keep]
        self._p_dist, self._p_qual = self._p_dist[keep], self._p_qual[keep]
        self._p_origin = self._p_origin[keep]

    # -- joins --------------------------------------------------------------

    def _join_radius(self, deadline_max: float, now: float) -> np.ndarray:
        """Slack-inflated per-worker gather radius (see module docs)."""
        bound = np.maximum(0.0, deadline_max - np.maximum(now, self._warr))
        return self._wvel * bound + 3.0 * self._slack

    def _quality_of(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> np.ndarray:
        """Quality of new cache pairs (global positions this round)."""
        started = monotonic()
        if self._by_ids is not None:
            values = np.asarray(
                self._by_ids(self._w_ids[rows], self._t_ids[cols]), dtype=float
            )
        else:
            values = _pair_quality(
                self._quality_model, current_workers, current_tasks, rows, cols
            )
        local.price_seconds += monotonic() - started
        return values

    def _join_worker_rows(
        self,
        positions: np.ndarray,
        now: float,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> None:
        """(Re)join the given worker rows against the full task CSR."""
        if positions.size == 0 or self._csr.cols.size == 0:
            return
        radius = self._join_radius(
            float(self._tdl.max()), now
        )[positions]
        rows_local, cols = self._csr.join(
            self._wx[positions], self._wy[positions], radius, local
        )
        if rows_local.size == 0:
            return
        rows = positions[rows_local]
        dist = np.hypot(self._wx[rows] - self._tx[cols], self._wy[rows] - self._ty[cols])
        qual = self._quality_of(rows, cols, current_workers, current_tasks, local)
        local.gathered += int(rows.size)
        self._merge_pairs(rows, cols, dist, qual)
        self.delta_stats.rows_joined += int(positions.size)

    def _join_task_columns(
        self,
        positions: np.ndarray,
        query_positions: np.ndarray,
        now: float,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> None:
        """Join the given task columns against the given worker rows."""
        if positions.size == 0 or query_positions.size == 0:
            return
        target = _CandidateCSR.from_coordinates(
            self._tx[positions], self._ty[positions], self._gamma
        )
        radius = self._join_radius(
            float(self._tdl[positions].max()), now
        )[query_positions]
        rows_local, cols_local = target.join(
            self._wx[query_positions], self._wy[query_positions], radius, local
        )
        if rows_local.size == 0:
            self.delta_stats.cols_joined += int(positions.size)
            return
        rows = query_positions[rows_local]
        cols = positions[cols_local]
        dist = np.hypot(self._wx[rows] - self._tx[cols], self._wy[rows] - self._ty[cols])
        qual = self._quality_of(rows, cols, current_workers, current_tasks, local)
        local.gathered += int(rows.size)
        self._merge_pairs(rows, cols, dist, qual)
        self.delta_stats.cols_joined += int(positions.size)

    # -- prime (full rebuild) ----------------------------------------------

    def _prime(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        local: SparseBuildStats,
    ) -> None:
        _require_current(current_workers, "worker")
        _require_current(current_tasks, "task")
        self._reset_cache()
        n, m = len(current_workers), len(current_tasks)
        if n:
            self._wx, self._wy, self._wvel, self._warr = _worker_columns(current_workers)
            self._w_ids = _ids_of(current_workers)
            self._w_ax, self._w_ay = self._wx.copy(), self._wy.copy()
            self._w_csr = _CandidateCSR.from_coordinates(self._wx, self._wy, self._gamma)
        if m:
            self._tx, self._ty, self._tdl, self._tarr = _task_columns(current_tasks)
            self._t_ids = _ids_of(current_tasks)
            self._t_id_set = set(self._t_ids.tolist())
            self._t_ax, self._t_ay = self._tx.copy(), self._ty.copy()
            self._csr = _CandidateCSR.from_coordinates(self._tx, self._ty, self._gamma)
        if n and m:
            self._join_worker_rows(
                np.arange(n, dtype=np.int64), now, current_workers, current_tasks, local
            )
        self._primed = True
        self.delta_stats.primes += 1

    # -- delta application --------------------------------------------------

    def _parse_ops(self, ops) -> tuple | None:
        """Net effect of the journal batch; ``None`` when inconsistent."""
        cached = self._t_id_set
        removed: dict[int, None] = {}
        new: dict[int, tuple[float, float]] = {}
        moved: dict[int, tuple[float, float]] = {}
        for op, key, x, y in ops:
            if op == "insert":
                if key in new or (key in cached and key not in removed):
                    return None
                new[key] = (x, y)
            elif op == "remove":
                if key in new:
                    del new[key]
                elif key in cached and key not in removed:
                    removed[key] = None
                    moved.pop(key, None)
                else:
                    return None
            elif op == "move":
                if key in new:
                    new[key] = (x, y)
                elif key in cached and key not in removed:
                    moved[key] = (x, y)
                else:
                    return None
            else:  # pragma: no cover - journal only emits the three ops
                return None
        return removed, new, moved

    def _apply_deltas(
        self,
        ops,
        worker_arrivals,
        worker_removed_ids,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        local: SparseBuildStats,
    ) -> bool:
        """Repair the cache in place; ``False`` demands a re-prime."""
        parsed = self._parse_ops(ops)
        if parsed is None:
            return False
        removed_t, new_t, moved_t = parsed

        if worker_arrivals is not None:
            # Trusted churn hints (the engine's own journal): no
            # per-entity diff needed.  Coherence is re-checked on the
            # aggregate counts below.
            if worker_removed_ids:
                removed_ids = np.fromiter(
                    worker_removed_ids, dtype=np.int64, count=len(worker_removed_ids)
                )
                in_round = ~np.isin(self._w_ids, removed_ids, assume_unique=True)
                if int(in_round.sum()) != self._w_ids.size - removed_ids.size:
                    return False
            else:
                in_round = np.ones(self._w_ids.size, dtype=bool)
            num_persist = self._w_ids.size - (
                len(worker_removed_ids) if worker_removed_ids else 0
            )
            num_new_w = len(worker_arrivals)
            if num_persist + num_new_w != len(current_workers):
                return False
        else:
            # Worker diff against the passed list: persistent ids must
            # keep their relative order and new ids must be appended at
            # the tail (the engine's list discipline); anything else
            # re-primes.
            w_ids_round = _ids_of(current_workers)
            in_round = np.isin(self._w_ids, w_ids_round, assume_unique=True)
            new_w_mask = ~np.isin(w_ids_round, self._w_ids, assume_unique=True)
            num_persist = int(in_round.sum())
            if not np.array_equal(self._w_ids[in_round], w_ids_round[~new_w_mask]):
                return False
            if new_w_mask.any() and not new_w_mask[num_persist:].all():
                return False
            num_new_w = int(new_w_mask.sum())

        churn = (
            (self._w_ids.size - num_persist)
            + num_new_w
            + len(removed_t)
            + len(new_t)
        )
        population = max(self._w_ids.size + self._t_ids.size, 1)
        if churn > self._churn_ratio * population:
            return False

        # 1. removals
        self._drop_worker_positions(~in_round)
        if removed_t:
            removed_ids = np.fromiter(removed_t, dtype=np.int64, count=len(removed_t))
            remove_mask = np.isin(self._t_ids, removed_ids)
            if int(remove_mask.sum()) != len(removed_t):
                return False
            self._drop_task_positions(remove_mask)

        # 2. query-side motion (only when the caller may move workers)
        rejoin_w = _EMPTY_IDX
        if not self._static_queries and num_persist:
            if len(current_workers) != num_persist + num_new_w:
                return False
            live = current_workers[:num_persist]
            wx = np.array([w.location.x for w in live], dtype=float)
            wy = np.array([w.location.y for w in live], dtype=float)
            vel = np.array([w.velocity for w in live], dtype=float)
            arr = np.array([w.arrival for w in live], dtype=float)
            if not (
                np.array_equal(vel, self._wvel) and np.array_equal(arr, self._warr)
            ):
                return False
            moved_mask = (wx != self._wx) | (wy != self._wy)
            if moved_mask.any():
                disp = np.hypot(wx - self._w_ax, wy - self._w_ay)
                beyond = moved_mask & (disp > self._slack)
                within = moved_mask & ~beyond
                self._wx, self._wy = wx, wy
                if within.any():
                    within_pos = np.flatnonzero(within)
                    touched = np.isin(self._p_w, within_pos)
                    self._p_dist[touched] = np.hypot(
                        self._wx[self._p_w[touched]] - self._tx[self._p_t[touched]],
                        self._wy[self._p_w[touched]] - self._ty[self._p_t[touched]],
                    )
                    # Re-priced pairs are no verbatim survivors.
                    self._p_origin[touched] = -1
                    self.delta_stats.moved_within_slack += int(within.sum())
                if beyond.any():
                    rejoin_w = np.flatnonzero(beyond).astype(np.int64)
                    self._drop_pairs_with_workers(rejoin_w)
                    keep_w = np.ones(self._w_ids.size, dtype=bool)
                    keep_w[rejoin_w] = False
                    self._w_csr = self._w_csr.remove_columns(
                        keep_w, renumber=False
                    ).insert_columns(
                        self._w_csr.grid.cells_of_coordinates(
                            self._wx[rejoin_w], self._wy[rejoin_w]
                        ),
                        rejoin_w,
                    )
                    self._w_ax[rejoin_w] = self._wx[rejoin_w]
                    self._w_ay[rejoin_w] = self._wy[rejoin_w]
                    self.delta_stats.rejoined_for_motion += int(beyond.sum())

        # 3. target-side motion
        rejoin_t = _EMPTY_IDX
        if moved_t:
            moved_ids = np.fromiter(moved_t, dtype=np.int64, count=len(moved_t))
            positions = np.flatnonzero(np.isin(self._t_ids, moved_ids))
            if positions.size != len(moved_t):
                return False
            moved_xy = np.array(
                [moved_t[int(key)] for key in self._t_ids[positions]], dtype=float
            )
            self._tx[positions] = moved_xy[:, 0]
            self._ty[positions] = moved_xy[:, 1]
            disp = np.hypot(
                self._tx[positions] - self._t_ax[positions],
                self._ty[positions] - self._t_ay[positions],
            )
            beyond = disp > self._slack
            within_pos = positions[~beyond]
            if within_pos.size:
                touched = np.isin(self._p_t, within_pos)
                self._p_dist[touched] = np.hypot(
                    self._wx[self._p_w[touched]] - self._tx[self._p_t[touched]],
                    self._wy[self._p_w[touched]] - self._ty[self._p_t[touched]],
                )
                # Re-priced pairs are no verbatim survivors.
                self._p_origin[touched] = -1
                self.delta_stats.moved_within_slack += int(within_pos.size)
            if beyond.any():
                rejoin_t = positions[beyond].astype(np.int64)
                self._drop_pairs_with_tasks(rejoin_t)
                # The stale buckets of the rejoined columns come out of
                # the CSR (without renumbering) and fresh buckets go
                # back in below, together with the new columns.
                keep = np.ones(self._t_ids.size, dtype=bool)
                keep[rejoin_t] = False
                self._csr = self._csr.remove_columns(keep, renumber=False)
                self._t_ax[rejoin_t] = self._tx[rejoin_t]
                self._t_ay[rejoin_t] = self._ty[rejoin_t]
                self.delta_stats.rejoined_for_motion += int(beyond.sum())

        # 4. new tasks: append columns, join them against the persistent
        #    workers, splice their buckets (plus rejoined ones) in.
        num_old_w = self._w_ids.size
        if new_t:
            tail = list(current_tasks[len(current_tasks) - len(new_t):])
            if [t.id for t in tail] != list(new_t):
                return False
            _require_current(tail, "task")
            ntx, nty, ntdl, ntarr = _task_columns(tail)
            offset = self._t_ids.size
            self._t_id_set.update(new_t)
            self._t_ids = np.concatenate((self._t_ids, _ids_of(tail)))
            self._tx = np.concatenate((self._tx, ntx))
            self._ty = np.concatenate((self._ty, nty))
            self._tdl = np.concatenate((self._tdl, ntdl))
            self._tarr = np.concatenate((self._tarr, ntarr))
            self._t_ax = np.concatenate((self._t_ax, ntx))
            self._t_ay = np.concatenate((self._t_ay, nty))
            new_positions = np.arange(offset, self._t_ids.size, dtype=np.int64)
        else:
            new_positions = _EMPTY_IDX
        join_cols = np.concatenate((rejoin_t, new_positions))
        if join_cols.size:
            # Workers pending a row rejoin are excluded here: their full
            # rows (step 5) already cover the rejoined/new columns, and
            # joining them twice would duplicate the shared pairs.
            query_w = np.arange(num_old_w, dtype=np.int64)
            if rejoin_w.size:
                keep_query = np.ones(num_old_w, dtype=bool)
                keep_query[rejoin_w] = False
                query_w = query_w[keep_query]
            self._join_task_columns(
                join_cols,
                query_w,
                now,
                current_workers,
                current_tasks,
                local,
            )
            grid = self._csr.grid
            self._csr = self._csr.insert_columns(
                grid.cells_of_coordinates(self._tx[join_cols], self._ty[join_cols]),
                join_cols,
            )

        # 5. new workers (appended at the tail) and rejoined movers get
        #    full rows against the spliced CSR.
        if num_new_w:
            tail_w = list(current_workers[num_persist:])
            _require_current(tail_w, "worker")
            nwx, nwy, nwvel, nwarr = _worker_columns(tail_w)
            offset_w = self._w_ids.size
            self._w_ids = np.concatenate((self._w_ids, _ids_of(tail_w)))
            self._wx = np.concatenate((self._wx, nwx))
            self._wy = np.concatenate((self._wy, nwy))
            self._wvel = np.concatenate((self._wvel, nwvel))
            self._warr = np.concatenate((self._warr, nwarr))
            self._w_ax = np.concatenate((self._w_ax, nwx))
            self._w_ay = np.concatenate((self._w_ay, nwy))
            self._w_csr = self._w_csr.insert_columns(
                self._w_csr.grid.cells_of_coordinates(nwx, nwy),
                np.arange(offset_w, self._w_ids.size, dtype=np.int64),
            )
        join_rows = np.concatenate(
            (rejoin_w, np.arange(num_old_w, self._w_ids.size, dtype=np.int64))
        )
        if join_rows.size and self._t_ids.size:
            self._join_worker_rows(
                join_rows, now, current_workers, current_tasks, local
            )

        # Final coherence: the repaired cache must mirror the passed
        # lists — id-for-id, position-for-position.  With trusted
        # hints, the per-entity comparison is replaced by size and
        # endpoint checks (the engine's list discipline guarantees the
        # rest, and the hypothesis suite drives both modes).
        if self._w_ids.size != len(current_workers) or self._t_ids.size != len(
            current_tasks
        ):
            return False
        if worker_arrivals is not None:
            if len(current_workers) and (
                current_workers[0].id != self._w_ids[0]
                or current_workers[-1].id != self._w_ids[-1]
            ):
                return False
            if len(current_tasks) and (
                current_tasks[0].id != self._t_ids[0]
                or current_tasks[-1].id != self._t_ids[-1]
            ):
                return False
            return True
        if not np.array_equal(self._w_ids, w_ids_round):
            return False
        if not np.array_equal(self._t_ids, _ids_of(current_tasks)):
            return False
        return True

    # -- the round ----------------------------------------------------------

    def repair(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        worker_arrivals: Sequence[Worker] | None = None,
        worker_removed_ids: Sequence[int] | None = None,
        ops=None,
        local: SparseBuildStats | None = None,
    ) -> bool:
        """Bring the cache up to date with one round's churn.

        Drains the subscribed journal (or consumes the caller-split
        ``ops`` batch in external-journal mode; ``None`` there means
        "cannot trust the feed" and forces a re-prime, the analogue of
        a journal overflow), applies the deltas, and falls back to a
        full prime whenever the incremental path cannot be trusted.
        Returns ``True`` when the round was served incrementally.
        """
        if local is None:
            local = SparseBuildStats()
        if self._log is not None:
            ops, overflowed = self._log.drain()
        else:
            overflowed = ops is None
            if ops is None:
                ops = []
        incremental = (
            self._primed
            and not overflowed
            and now >= self._last_now
            and self._apply_deltas(
                ops, worker_arrivals, worker_removed_ids,
                current_workers, current_tasks, now, local,
            )
        )
        if not incremental:
            self._prime(current_workers, current_tasks, now, local)
        else:
            self.delta_stats.incremental_rounds += 1
        self.delta_stats.rounds += 1
        self._last_now = now
        return incremental

    def build(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        predicted_workers: Sequence[Worker],
        predicted_tasks: Sequence[Task],
        now: float,
        worker_arrivals: Sequence[Worker] | None = None,
        worker_removed_ids: Sequence[int] | None = None,
        churn: ChurnRecord | None = None,
        ops=None,
    ) -> ProblemInstance:
        """One round's problem, repaired from the cached pool.

        Same contract (and bit-identical output) as
        :func:`~repro.model.sparse.build_problem_sparse` on the same
        arguments; ``now`` may not decrease without forcing a re-prime.

        ``worker_arrivals``/``worker_removed_ids`` are the engine's own
        churn journal for the query side since the previous build: when
        provided they replace the per-entity id diff (an O(n) Python
        pass), and the caller vouches that the list discipline holds
        (removals preserve order, arrivals append at the tail).  Omit
        them to have the builder derive the diff itself.

        ``churn`` carries the same hints as a :class:`ChurnRecord`
        (explicit keyword arguments win when both are given); after the
        build it is annotated with ``row_origin``/``prev_pool_rows``
        and also exposed as :attr:`last_churn` — a record is annotated
        there every round even when the caller passes none.
        """
        if churn is not None:
            if worker_arrivals is None:
                worker_arrivals = churn.worker_arrivals
            if worker_removed_ids is None:
                worker_removed_ids = churn.worker_removed_ids
        validate_predicted_flags(predicted_workers, predicted_tasks)
        n, m = len(current_workers), len(current_tasks)
        k, l = len(predicted_workers), len(predicted_tasks)
        local = SparseBuildStats()
        local.dense_equivalent = n * m + k * m + n * l
        if self._future_future:
            local.dense_equivalent += k * l

        self.repair(
            current_workers, current_tasks, now,
            worker_arrivals=worker_arrivals,
            worker_removed_ids=worker_removed_ids,
            ops=ops,
            local=local,
        )

        instance = self._emit(
            current_workers, current_tasks, predicted_workers, predicted_tasks,
            now, n, m, k, l, local, churn,
        )
        # Gauge the cache after emission: the slack-0 sweep purges the
        # pairs it just proved dead, and that post-purge size is what
        # the next round will actually carry.
        self.delta_stats.pairs_cached = int(self._p_w.size)
        if self._stats is not None:
            self._stats.merge(local)
        return instance

    # -- emission (mirrors build_problem_sparse family for family) ----------

    def _sweep_current(self, now: float, local: SparseBuildStats):
        """One exact revalidation sweep over the cached cc pairs.

        Returns ``(rows, cols, dist, quality, prev_origin)`` — the
        valid current×current triplets in canonical order plus each
        emitted row's rank in the previous emission — and rolls the
        per-pair origins forward to this emission's ranks (purging the
        proven-dead pairs when joins are exact).
        """
        if self._p_w.size:
            departure = np.maximum(
                now, np.maximum(self._warr[self._p_w], self._tarr[self._p_t])
            )
            horizon = self._tdl[self._p_t] - departure
            valid = (horizon > 0.0) & (
                self._p_dist <= horizon * self._wvel[self._p_w]
            )
            cc_rows = self._p_w[valid]
            cc_cols = self._p_t[valid]
            cc_dist = self._p_dist[valid]
            cc_quality = self._p_qual[valid]
            # Origins of the emitted cc rows (previous-emission rows),
            # gathered before the per-pair origins roll forward to
            # *this* emission's row numbering below.
            prev_origin = self._p_origin[valid]
            emitted_rank = np.cumsum(valid, dtype=np.int64) - 1
            local.gathered += int(self._p_w.size)
            self.delta_stats.revalidated += int(self._p_w.size)
            if self._slack == 0.0:
                # Exact joins: validity is monotone in time for every
                # unmoved pair, and any move forces a drop-and-rejoin
                # of the whole row/column — so pairs invalid *now* can
                # never become valid again and the cache shrinks to
                # exactly the valid set (the emission gather doubles
                # as the purge).  A positive slack keeps the superset:
                # a within-slack move may resurrect an invalid pair.
                self._p_w, self._p_t = cc_rows, cc_cols
                self._p_dist, self._p_qual = cc_dist, cc_quality
                self._p_origin = np.arange(cc_rows.size, dtype=np.int64)
            else:
                self._p_origin = np.where(valid, emitted_rank, -1)
        else:
            cc_rows = cc_cols = _EMPTY_IDX
            cc_dist = cc_quality = _EMPTY_F
            prev_origin = _EMPTY_IDX
        local.candidates += int(cc_rows.size)
        return cc_rows, cc_cols, cc_dist, cc_quality, prev_origin

    def _join_current_predicted_tasks(
        self,
        ptx: np.ndarray,
        pty: np.ndarray,
        pt_deadline: np.ndarray,
        pt_arr: np.ndarray,
        pt_intervals,
        pt_reach: np.ndarray,
        now: float,
        local: SparseBuildStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``<w, t_hat>`` family against the cached worker CSR.

        Transposed join: the few predicted tasks query the cached
        worker buckets, so the per-round cost scales with the
        prediction volume instead of the standing worker pool.  The
        gather stays a superset (the radius covers the fastest worker
        over each task's horizon plus the kernel reach and the motion
        slack), and the exact validity predicate runs the same float
        arithmetic as ``_uncertain_pairs_batched`` on the same
        operands, so the surviving pairs — and their canonical
        ``(row, col)`` order — are identical to the query-by-worker
        orientation (the pairs are unique, so :func:`_rowmajor_order`
        restores the lexsort's order exactly).  Pricing is deferred, as
        everywhere.
        """
        pt_hb = np.maximum(0.0, pt_deadline - np.maximum(now, pt_arr))
        vel_max = float(self._wvel.max())
        radius = vel_max * pt_hb + pt_reach + 3.0 * self._slack
        t_rows, w_cols = self._w_csr.join(ptx, pty, radius, local)
        if t_rows.size == 0:
            return _EMPTY_IDX, _EMPTY_IDX
        local.gathered += int(t_rows.size)
        departure = np.maximum(
            now, np.maximum(self._warr[w_cols], pt_arr[t_rows])
        )
        horizon = pt_deadline[t_rows] - departure
        wx_g = self._wx[w_cols]
        wy_g = self._wy[w_cols]
        d_lb = np.hypot(
            _interval_gap_vec(
                wx_g, wx_g, pt_intervals[0][t_rows], pt_intervals[1][t_rows]
            ),
            _interval_gap_vec(
                wy_g, wy_g, pt_intervals[2][t_rows], pt_intervals[3][t_rows]
            ),
        )
        valid = (horizon > 0.0) & (d_lb <= horizon * self._wvel[w_cols])
        rows, cols = w_cols[valid], t_rows[valid]
        local.candidates += int(rows.size)
        if rows.size == 0:
            return _EMPTY_IDX, _EMPTY_IDX
        order = _rowmajor_order(rows, cols)
        return rows[order], cols[order]

    def emit_partition(
        self,
        now: float,
        predicted_workers: PredictedWorkerColumns | None = None,
        predicted_tasks: PredictedTaskColumns | None = None,
        local: SparseBuildStats | None = None,
    ) -> PartitionEmission:
        """This partition's families, raw, for a global reconcile pass.

        The fused round pipeline's emission half: the revalidated
        current×current triplets (cached distances and qualities,
        local indices) plus the index pairs of the predicted families
        joined against the cached CSRs — no Section III-B statistics,
        no coupling, no pricing.  Those are genuinely global and run
        once in the parent's reconcile pass over the merged triplets,
        exactly like ``build_problem_sharded`` phase 2, which is what
        keeps the assembled pool bit-identical to the serial builders.

        Call :meth:`repair` first; predicted entities arrive as packed
        columns (:func:`predicted_worker_columns`/
        :func:`predicted_task_columns`) so shard workers can source
        them from shared memory without object serialization.
        """
        started = monotonic()
        if local is None:
            local = SparseBuildStats()
        out = PartitionEmission()
        out.cc_rows, out.cc_cols, out.cc_dist, out.cc_quality, out.prev_origin = (
            self._sweep_current(now, local)
        )
        pw = predicted_workers
        pt = predicted_tasks
        out.pw_ct = (_EMPTY_IDX, _EMPTY_IDX)
        out.cw_pt = (_EMPTY_IDX, _EMPTY_IDX)
        out.pw_pt = (_EMPTY_IDX, _EMPTY_IDX)
        if pw is not None and pw.size and self._t_ids.size:
            t_intervals = (self._tx, self._tx, self._ty, self._ty)
            rows, cols, _ = _uncertain_pairs_batched(
                self._csr, pw.xs, pw.ys, pw.vel, pw.arr, pw.intervals, pw.reach,
                t_intervals, self._tdl, self._tarr, float(self._tdl.max()),
                3.0 * self._slack,
                now, local,
            )
            out.pw_ct = (rows, cols)
        if pt is not None and pt.size and self._w_ids.size:
            out.cw_pt = self._join_current_predicted_tasks(
                pt.xs, pt.ys, pt.deadline, pt.arr, pt.intervals, pt.reach,
                now, local,
            )
        if (
            pw is not None and pw.size
            and pt is not None and pt.size
            and self._future_future
        ):
            pt_csr = _CandidateCSR.from_coordinates(pt.xs, pt.ys, self._gamma)
            rows, cols, _ = _uncertain_pairs_batched(
                pt_csr, pw.xs, pw.ys, pw.vel, pw.arr, pw.intervals, pw.reach,
                pt.intervals, pt.deadline, pt.arr, pt.deadline_max, pt.max_reach,
                now, local,
            )
            out.pw_pt = (rows, cols)
        self.delta_stats.pairs_cached = int(self._p_w.size)
        if self._stats is not None:
            self._stats.merge(local)
        out.build_seconds = monotonic() - started
        return out

    def _emit(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        predicted_workers: Sequence[Worker],
        predicted_tasks: Sequence[Task],
        now: float,
        n: int,
        m: int,
        k: int,
        l: int,
        local: SparseBuildStats,
        churn: ChurnRecord | None = None,
    ) -> ProblemInstance:
        unit_cost = self._unit_cost
        quality_model = self._quality_model
        pools: list[PairPool] = []
        prior = quality_model.prior()

        # ---- current x current: one exact revalidation sweep --------------
        cc_rows, cc_cols, cc_dist, cc_quality, prev_origin = self._sweep_current(
            now, local
        )

        if cc_rows.size:
            cost_cc = unit_cost * cc_dist
            zeros = np.zeros_like(cc_dist)
            pools.append(
                _triplet_pool(
                    cc_rows,
                    cc_cols,
                    worker_offset=0,
                    task_offset=0,
                    cost=(cost_cc, zeros, cost_cc, cost_cc),
                    quality=(cc_quality, zeros, cc_quality, cc_quality),
                    existence=np.ones_like(cc_dist),
                    is_current=True,
                )
            )
            local.emitted += int(cc_rows.size)

        # ---- Section III-B coupling from the cached triplets --------------
        stats_cc = quality_sample_stats(cc_rows, cc_cols, cc_quality, n, m, prior)
        exist_task = np.minimum(stats_cc.task_count / max(n, 1), 1.0)
        exist_worker = np.minimum(stats_cc.worker_count / max(m, 1), 1.0)

        # ---- cached current-side columns, fresh predicted columns ---------
        if m:
            t_intervals = (self._tx, self._tx, self._ty, self._ty)
            t_deadline_max = float(self._tdl.max())
        else:
            t_intervals = (_EMPTY_F,) * 4
            t_deadline_max = -np.inf
        if k:
            pw_intervals = _box_intervals(predicted_workers)
            pwx, pwy, pw_vel, pw_arr = _worker_columns(predicted_workers)
            pw_reach = _reach(pw_intervals, pwx, pwy)

        def _emit_predicted_block(rows, cols, d_stats, quality, existence,
                                  worker_offset, task_offset) -> None:
            d_mean, d_var, d_lb, d_ub = d_stats
            pools.append(
                _triplet_pool(
                    rows,
                    cols,
                    worker_offset=worker_offset,
                    task_offset=task_offset,
                    cost=(
                        unit_cost * d_mean,
                        unit_cost**2 * d_var,
                        unit_cost * d_lb,
                        unit_cost * d_ub,
                    ),
                    quality=quality,
                    existence=existence,
                    is_current=False,
                )
            )
            local.emitted += int(rows.size)

        # ---- predicted workers x current tasks ----------------------------
        if k and m:
            # target_reach carries the motion slack: the CSR buckets
            # tasks at their join-time anchors, and a within-slack move
            # leaves the bucket (== anchor) up to ``slack`` away from
            # the current position the exact validity scan uses.  The
            # uniform 3x factor matches every other join here.
            rows, cols, d_stats = _uncertain_pairs_batched(
                self._csr, pwx, pwy, pw_vel, pw_arr, pw_intervals, pw_reach,
                t_intervals, self._tdl, self._tarr, t_deadline_max,
                3.0 * self._slack,
                now, local,
            )
            if rows.size:
                existence = exist_task[cols]
                exact_q = (
                    _pair_quality(
                        quality_model, predicted_workers, current_tasks, rows, cols
                    )
                    if self._exact_predicted
                    else None
                )
                quality, keep = _predicted_family_coupling(
                    stats_cc, "task", cols, existence,
                    self._discount, self._reservation, exact_q,
                )
                if keep is not None:
                    rows, cols = rows[keep], cols[keep]
                    if d_stats is not None:
                        d_stats = tuple(a[keep] for a in d_stats)
                    quality = tuple(a[keep] for a in quality)
                    existence = existence[keep]
                if d_stats is None:
                    d_stats = _price_distance(
                        pw_intervals, t_intervals, rows, cols, local
                    )
                _emit_predicted_block(
                    rows, cols, d_stats, quality, existence,
                    worker_offset=n, task_offset=0,
                )

        # ---- current workers x predicted tasks ----------------------------
        build_pt_blocks = l and (n or (k and self._future_future))
        if build_pt_blocks:
            ptx, pty, pt_deadline, pt_arr = _task_columns(predicted_tasks)
            pt_intervals = _box_intervals(predicted_tasks)
            pt_reach = _reach(pt_intervals, ptx, pty)
            pt_deadline_max = float(pt_deadline.max())
            max_pt_reach = float(pt_reach.max())
        if k and l and self._future_future:
            pt_csr = _CandidateCSR.from_coordinates(ptx, pty, self._gamma)
        if n and l:
            cw_intervals = (self._wx, self._wx, self._wy, self._wy)
            rows, cols = self._join_current_predicted_tasks(
                ptx, pty, pt_deadline, pt_arr, pt_intervals, pt_reach, now, local
            )
            d_stats = None
            if rows.size:
                existence = exist_worker[rows]
                exact_q = (
                    _pair_quality(
                        quality_model, current_workers, predicted_tasks, rows, cols
                    )
                    if self._exact_predicted
                    else None
                )
                quality, keep = _predicted_family_coupling(
                    stats_cc, "worker", rows, existence,
                    self._discount, self._reservation, exact_q,
                )
                if keep is not None:
                    rows, cols = rows[keep], cols[keep]
                    if d_stats is not None:
                        d_stats = tuple(a[keep] for a in d_stats)
                    quality = tuple(a[keep] for a in quality)
                    existence = existence[keep]
                if d_stats is None:
                    d_stats = _price_distance(
                        cw_intervals, pt_intervals, rows, cols, local
                    )
                _emit_predicted_block(
                    rows, cols, d_stats, quality, existence,
                    worker_offset=0, task_offset=m,
                )

        # ---- predicted workers x predicted tasks --------------------------
        if k and l and self._future_future:
            existence_value = min(stats_cc.total_valid / max(n * m, 1), 1.0)
            rows, cols, d_stats = _uncertain_pairs_batched(
                pt_csr, pwx, pwy, pw_vel, pw_arr, pw_intervals, pw_reach,
                pt_intervals, pt_deadline, pt_arr, pt_deadline_max, max_pt_reach,
                now, local,
            )
            if rows.size:
                existence = np.full(rows.size, existence_value)
                exact_q = (
                    _pair_quality(
                        quality_model, predicted_workers, predicted_tasks, rows, cols
                    )
                    if self._exact_predicted
                    else None
                )
                quality, _ = _predicted_family_coupling(
                    stats_cc, "global", rows, existence,
                    self._discount, self._reservation, exact_q,
                )
                if d_stats is None:
                    d_stats = _price_distance(
                        pw_intervals, pt_intervals, rows, cols, local
                    )
                _emit_predicted_block(
                    rows, cols, d_stats, quality, existence,
                    worker_offset=n, task_offset=m,
                )

        instance = ProblemInstance(
            workers=list(current_workers) + list(predicted_workers),
            tasks=list(current_tasks) + list(predicted_tasks),
            num_current_workers=n,
            num_current_tasks=m,
            pool=PairPool.concatenate(pools),
            now=now,
        )
        # Annotate the round's churn record: cc rows (emitted first)
        # carry their previous-emission origin, predicted-family rows
        # are fresh every round by construction.
        total = len(instance.pool)
        if churn is None:
            churn = ChurnRecord()
        churn.row_origin = np.concatenate(
            (prev_origin, np.full(total - prev_origin.size, -1, dtype=np.int64))
        )
        churn.prev_pool_rows = self._last_emitted_rows
        self._last_emitted_rows = total
        self.last_churn = churn
        return instance

"""Grid-partitioned parallel candidate generation with border reconciliation.

The assignment problem is spatially local — a worker can only serve
tasks within its reachable radius — so one engine round decomposes
into per-tile sub-problems plus a thin coupling layer.  This module
runs that decomposition:

**Phase 1 (parallel, per shard).**  The unit square is cut into
``K`` rectangular tiles (:class:`~repro.geo.tiles.TileGrid`); every
query-side entity (current worker, predicted worker) is *owned* by
exactly one shard, and each shard receives the candidate tasks inside
its tile expanded by a *border margin* of one reachable radius (the
per-round maximum of ``velocity x remaining horizon``, inflated by the
kernel-box reaches of predicted entities), as a sliced cell-grouped
CSR (:meth:`_CandidateCSR.restrict_to_cells`).  Shards independently
run the batched cell joins, exact validity scans, quality scoring and
delta-method distance pricing over their candidates — the expensive,
embarrassingly parallel bulk of a round.  Because every pair is
generated by its query entity's unique owner, the shard outputs are
disjoint: interior pairs and border-straddling pairs alike are
produced exactly once, with bit-identical per-pair values (every
kernel is an elementwise function of per-pair operands).

**Phase 2 (global reconciliation).**  A small deterministic pass
merges the shard outputs back into the serial builder's canonical
row-major order (one packed-key sort over disjoint ``(row, col)``
keys, exactly a lexsort's order because the keys are unique), then
computes everything that genuinely couples shards: the Section III-B
quality sample statistics (order-sensitive float accumulations over
*all* current pairs), existence probabilities, the reservation filter,
and existence discounting.  Border-zone candidates are thereby
re-priced against global competition, so the assembled
:class:`ProblemInstance` is bit-for-bit identical to
:func:`~repro.model.sparse.build_problem_sparse` on the same inputs —
and the budgeted selection that follows (global, inside the engine)
sees exactly the pool the serial engine sees.

:class:`ShardedStreamingEngine` plugs the sharded build into the
streaming engine's ``_build_problem`` hook; events, prediction RNG
draws and selection stay byte-for-byte shared with the serial engine,
which is what makes the whole sharded run reproduce the serial run
exactly on a fixed seed (enforced by ``tests/test_streaming_sharding``).

Backends: ``process`` (a :class:`~concurrent.futures.
ProcessPoolExecutor`, for CPU-bound scaling), ``thread`` (NumPy's
kernels release the GIL on large arrays, and payloads need no
pickling), and ``serial`` (in-process loop; the differential-testing
reference and the K=1 baseline).
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.triplet_select import SelectionState
from repro.geo.tiles import TileGrid
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
    _RADIUS_SLACK,
    SparseBuildStats,
    _CandidateCSR,
    _current_pairs_batched,
    _default_index_gamma,
    _gather_distinct,
    _pair_quality,
    _predicted_family_coupling,
    _price_distance,
    _reach,
    _rowmajor_order,
    _triplet_pool,
)
from repro.geo.spatial_index import SpatialIndex
from repro.model.sparse import _uncertain_pairs_batched
from repro.simulation.metrics import SimulationResult
from repro.streaming.adapters import load_workload
from repro.streaming.engine import StreamConfig, StreamingEngine

_BACKENDS = ("serial", "thread", "process")

_EMPTY_D4 = tuple(np.zeros(0) for _ in range(4))


@dataclass(frozen=True)
class ShardingConfig:
    """Knobs of the sharded execution layer.

    Attributes:
        num_shards: number of spatial shards ``K``; factored into the
            most-square ``nx x ny`` tiling.
        backend: ``"process"``, ``"thread"`` or ``"serial"``.
        margin: additive floor (in unit-square distance) on the
            per-round border margin.  The margin is always *at least*
            the exact per-round reachable radius — correctness cannot
            be configured away — so this only ever widens the border
            zones (e.g. to absorb round-to-round variation).
        max_workers: pool size for the parallel backends (default:
            ``num_shards``).
        round_deadline_s: process backend only — how long the parent
            waits for one worker's round reply before declaring it
            hung and respawning it; ``None`` restores the unsupervised
            blocking read.
        max_respawns: process backend only — total worker respawns
            allowed before the engine degrades gracefully to the
            inline serial path (the crash-loop budget).
        respawn_backoff_s: initial respawn backoff; doubles per
            respawn, capped at ``respawn_backoff_max_s``.
        faults: an armed :class:`repro.faults.FaultInjector` threaded
            into the process backend for deterministic chaos testing;
            ``None`` (the default) injects nothing and costs nothing.
    """

    num_shards: int = 4
    backend: str = "thread"
    margin: float = 0.0
    max_workers: int | None = None
    round_deadline_s: float | None = 30.0
    max_respawns: int = 3
    respawn_backoff_s: float = 0.05
    respawn_backoff_max_s: float = 1.0
    faults: object | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ValueError(
                f"round_deadline_s must be positive or None, got "
                f"{self.round_deadline_s}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be non-negative, got {self.max_respawns}"
            )
        if self.respawn_backoff_s < 0 or self.respawn_backoff_max_s < 0:
            raise ValueError("respawn backoffs must be non-negative")


# ---------------------------------------------------------------------------
# Shard payloads and the shard worker (phase 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _QuerySide:
    """One shard's owned query entities (current or predicted workers).

    ``rows`` holds the *global* positions (ascending) of the owned
    entities; all columns are aligned subsets.  ``intervals``/``reach``
    are ``None`` for current workers, whose boxes are degenerate.
    """

    rows: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    vel: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
    reach: np.ndarray | None = None
    ids: np.ndarray | None = None


@dataclass(frozen=True)
class _TargetSide:
    """One candidate (task) family as a shard sees it.

    By default the columns are the *full* global arrays and the sliced
    CSR's candidate columns index straight into them, so shard outputs
    carry global column ids with no re-mapping (cheap for the
    in-process backends, which share the arrays).  Under
    ``compact_targets`` (the process backend) the columns are gathered
    down to the margin zone's members and ``col_map`` translates the
    shard's local column ids back to global ones — O(shard) pickled
    per round instead of O(total) times K.
    """

    csr: _CandidateCSR
    xs: np.ndarray
    ys: np.ndarray
    deadline: np.ndarray
    arr: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    deadline_max: float
    max_reach: float
    ids: np.ndarray | None = None
    col_map: np.ndarray | None = None


@dataclass(frozen=True)
class _ShardPayload:
    """Everything one shard needs for its slice of the round."""

    now: float
    workers: _QuerySide | None
    predicted_workers: _QuerySide | None
    current_tasks: _TargetSide | None
    predicted_tasks: _TargetSide | None
    include_future_future_pairs: bool
    quality_model: QualityModel | None


@dataclass
class _ShardResult:
    """One shard's candidate triplets, in global coordinates.

    Families carry ``(rows, cols)`` index pairs; the expensive
    delta-method pricing of the predicted families is *deferred*, like
    in the serial sparse builder, because the reservation filter (a
    phase-2 global decision) usually discards most of them — survivors
    are priced afterwards, in parallel chunks.
    """

    cc_rows: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    cc_cols: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    cc_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cc_quality: np.ndarray | None = None
    pw_ct: tuple = (_EMPTY_IDX, _EMPTY_IDX)
    cw_pt: tuple = (_EMPTY_IDX, _EMPTY_IDX)
    pw_pt: tuple = (_EMPTY_IDX, _EMPTY_IDX)
    candidates: int = 0
    gathered: int = 0
    queries: int = 0
    build_seconds: float = 0.0


def _degenerate_intervals(xs: np.ndarray, ys: np.ndarray):
    return (xs, xs, ys, ys)


def _shard_uncertain_family(
    query: _QuerySide,
    target: _TargetSide,
    now: float,
    local: SparseBuildStats,
) -> tuple[np.ndarray, np.ndarray]:
    """One predicted-pair family on one shard: cell join + exact scan.

    Pricing is deferred to phase 2 (after the global reservation
    filter), mirroring the serial builder's deferral — pricing every
    geometrically valid pair here would do work the filter throws
    away.
    """
    intervals = query.intervals
    reach = query.reach
    if intervals is None:
        intervals = _degenerate_intervals(query.xs, query.ys)
    if reach is None:
        reach = np.zeros(query.xs.size)
    rows, cols, _ = _uncertain_pairs_batched(
        target.csr,
        query.xs,
        query.ys,
        query.vel,
        query.arr,
        intervals,
        reach,
        target.intervals,
        target.deadline,
        target.arr,
        target.deadline_max,
        target.max_reach,
        now,
        local,
    )
    if rows.size == 0:
        return _EMPTY_IDX, _EMPTY_IDX
    if target.col_map is not None:
        cols = target.col_map[cols]
    return query.rows[rows], cols


def _shard_build(payload: _ShardPayload) -> _ShardResult:
    """Phase 1: one shard's candidate generation and pricing.

    Pure function of the payload — safe under every backend.  All
    emitted indices are global; all per-pair values are bit-identical
    to the serial builder's because every kernel involved is an
    elementwise function of per-pair operands.

    The shard times itself (``build_seconds``): only the *duration* is
    shipped back, so the figure is backend-agnostic — process workers
    need no clock alignment with the parent.
    """
    shard_started = monotonic()
    local = SparseBuildStats()
    result = _ShardResult()
    now = payload.now
    w = payload.workers
    pw = payload.predicted_workers
    ct = payload.current_tasks
    pt = payload.predicted_tasks

    if w is not None and ct is not None:
        rows, cols, dist = _current_pairs_batched(
            ct.csr,
            w.xs,
            w.ys,
            w.vel,
            w.arr,
            ct.xs,
            ct.ys,
            ct.deadline,
            ct.arr,
            ct.deadline_max,
            now,
            local,
        )
        if payload.quality_model is not None and rows.size:
            # Quality keys off *local* columns (aligned with ct.ids)
            # before any compact-target re-mapping to global ids.
            result.cc_quality = payload.quality_model.quality_pairs_by_ids(
                w.ids[rows], ct.ids[cols]
            )
        elif payload.quality_model is not None:
            result.cc_quality = np.zeros(0)
        if ct.col_map is not None:
            cols = ct.col_map[cols]
        result.cc_rows = w.rows[rows]
        result.cc_cols = cols
        result.cc_dist = dist

    if pw is not None and ct is not None:
        result.pw_ct = _shard_uncertain_family(pw, ct, now, local)
    if w is not None and pt is not None:
        result.cw_pt = _shard_uncertain_family(w, pt, now, local)
    if pw is not None and pt is not None and payload.include_future_future_pairs:
        result.pw_pt = _shard_uncertain_family(pw, pt, now, local)

    result.candidates = local.candidates
    result.gathered = local.gathered
    result.queries = local.queries
    result.build_seconds = monotonic() - shard_started
    return result


# ---------------------------------------------------------------------------
# Phase 2: merge, couple, assemble (the border reconciliation pass)
# ---------------------------------------------------------------------------


def _merge_rowmajor(parts: list[tuple]) -> tuple:
    """Merge disjoint per-shard triplets into canonical row-major order.

    Each part is ``(rows, cols, *aligned_columns)``; the ``(row, col)``
    keys are globally unique (each pair has exactly one owning shard),
    so one packed-key sort (:func:`_rowmajor_order`, whose permutation
    on unique keys is the lexsort's) restores exactly the order the
    serial builder's single-pass scan would have emitted.  A single
    part is already in that order (shards emit row-major) and passes
    through untouched.
    """
    parts = [p for p in parts if p[0].size]
    if not parts:
        return ()
    if len(parts) == 1:
        return parts[0]
    merged = tuple(np.concatenate([p[i] for p in parts]) for i in range(len(parts[0])))
    order = _rowmajor_order(merged[0], merged[1])
    return tuple(column[order] for column in merged)


#: Survivor count below which phase-2 pricing runs inline — the
#: dispatch overhead would exceed the kernel time.
_PRICE_DISPATCH_MIN = 8192


@dataclass(frozen=True)
class _PriceChunk:
    """One aligned slice of surviving pairs to price (phase 2).

    Ships the slice's gathered boxes, not the entity tables, so a
    chunk's payload stays proportional to its pairs.
    """

    w_iv: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    t_iv: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _price_chunk(chunk: _PriceChunk):
    """Price a chunk: its gathered boxes are their own tables, aligned."""
    aligned = np.arange(chunk.w_iv[0].size)
    return _price_distance(chunk.w_iv, chunk.t_iv, aligned, aligned)


def _price_survivors(
    executor: Executor | None,
    num_chunks: int,
    jobs: list[tuple],
) -> list[tuple]:
    """Price every family's surviving pairs, chunked across workers.

    ``jobs`` holds ``(w_intervals, t_intervals, rows, cols)`` per
    family.  The delta-method kernels are elementwise, so any chunking
    of the aligned pair arrays produces bit-identical columns; chunks
    of *all* families dispatch in one ``executor.map`` so no family
    serializes behind another.  Small jobs price inline, from both
    sides' per-entity moment tables.
    """
    plans: list[list[int] | None] = []  # None: price inline
    payloads: list[_PriceChunk] = []
    for w_intervals, t_intervals, rows, cols in jobs:
        if rows.size == 0:
            plans.append([])
            continue
        if executor is None or rows.size < _PRICE_DISPATCH_MIN or num_chunks < 2:
            plans.append(None)
            continue
        chunk_plan: list[int] = []
        for chunk_rows in np.array_split(np.arange(rows.size), num_chunks):
            if chunk_rows.size == 0:
                continue
            r = rows[chunk_rows]
            c = cols[chunk_rows]
            chunk_plan.append(len(payloads))
            payloads.append(_PriceChunk(
                _gather_distinct(w_intervals, r), _gather_distinct(t_intervals, c)
            ))
        plans.append(chunk_plan)
    priced = list(executor.map(_price_chunk, payloads)) if payloads else []
    results: list[tuple] = []
    for job, plan in zip(jobs, plans):
        if plan is None:
            results.append(_price_distance(*job))
        elif not plan:
            results.append(_EMPTY_D4)
        else:
            parts = [priced[index] for index in plan]
            results.append(
                tuple(np.concatenate([p[i] for p in parts]) for i in range(4))
            )
    return results


@dataclass
class _ReconcileContext:
    """Everything the global phase-2 pass needs beyond the shard results.

    Bundled so the reconcile pass is callable from both entry points —
    the per-round :func:`build_problem_sharded` and the fused
    :class:`~repro.streaming.pipeline.FusedRoundBuilder`, whose
    persistent per-tile pools emit :class:`_ShardResult`-shaped
    triplets from their caches instead of fresh joins.
    """

    current_workers: Sequence[Worker]
    current_tasks: Sequence[Task]
    predicted_workers: Sequence[Worker]
    predicted_tasks: Sequence[Task]
    quality_model: QualityModel
    unit_cost: float
    now: float
    discount_by_existence: bool
    reservation_filter: bool
    include_future_future_pairs: bool
    exact_predicted_quality: bool
    t_intervals: tuple | None = None
    pw_intervals: tuple | None = None
    cw_intervals: tuple | None = None
    pt_intervals: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.current_workers)

    @property
    def m(self) -> int:
        return len(self.current_tasks)

    @property
    def k(self) -> int:
        return len(self.predicted_workers)

    @property
    def l(self) -> int:
        return len(self.predicted_tasks)


def _reconcile(
    results: list[_ShardResult],
    cc_parts: list[tuple],
    has_cc_quality: bool,
    ctx: _ReconcileContext,
    executor: Executor | None,
    num_chunks: int,
    local: SparseBuildStats,
) -> tuple[ProblemInstance, tuple]:
    """Phase 2: merge the disjoint shard triplets, couple, price, emit.

    ``cc_parts`` holds each shard's current×current part as ``(rows,
    cols, dist[, quality][, *extras])`` — ``has_cc_quality`` says
    whether a per-pair quality column rides along (shard-computed via
    the by-ids hook, or served from a fused tile's cache); without one
    the qualities are scored here, globally, from the entity lists.
    Any *extra* aligned columns (the fused path's row-origin plumbing)
    are merged through the same single row-major sort and handed back
    as the second return value, in the emitted cc order.

    Everything here genuinely couples shards: the Section III-B sample
    statistics accumulate over all current pairs in canonical order,
    existence and the reservation filter re-price border candidates
    against global competition, and the surviving predicted pairs are
    priced in parallel chunks.  Identical accumulation inputs in
    identical order make every downstream float match the serial
    builders exactly.
    """
    n, m, k, l = ctx.n, ctx.m, ctx.k, ctx.l
    unit_cost = ctx.unit_cost
    quality_model = ctx.quality_model
    prior = quality_model.prior()
    pools: list[PairPool] = []

    merged = _merge_rowmajor(cc_parts)
    if merged:
        cc_rows, cc_cols, cc_dist = merged[0], merged[1], merged[2]
    else:
        cc_rows = cc_cols = _EMPTY_IDX
        cc_dist = np.zeros(0)
    if has_cc_quality and merged:
        cc_quality = merged[3]
        cc_extras = tuple(merged[4:])
    else:
        cc_quality = _pair_quality(
            quality_model, ctx.current_workers, ctx.current_tasks, cc_rows, cc_cols
        )
        cc_extras = tuple(merged[3:]) if merged else ()
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

    # Global coupling statistics: identical accumulation inputs in
    # identical order, so every downstream float matches the serial
    # build exactly.
    stats_cc = quality_sample_stats(cc_rows, cc_cols, cc_quality, n, m, prior)
    exist_task = np.minimum(stats_cc.task_count / max(n, 1), 1.0)
    exist_worker = np.minimum(stats_cc.worker_count / max(m, 1), 1.0)

    def _emit_predicted_block(
        rows, cols, d_stats, quality, existence, worker_offset, task_offset
    ) -> None:
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

    def _merged_family(select) -> tuple[np.ndarray, np.ndarray]:
        parts = [pair for pair in (select(r) for r in results) if pair[0].size]
        merged = _merge_rowmajor(parts)
        if not merged:
            return _EMPTY_IDX, _EMPTY_IDX
        return merged

    # Each family: apply the global coupling (existence, quality
    # estimates, discount, reservation filter) on the merged index
    # pairs, then queue the survivors for the joint phase-2 pricing
    # pass — exactly the pairs (and values) the serial builder prices.
    pending: list[dict] = []

    # ---- predicted workers x current tasks --------------------------------
    if k and m:
        rows, cols = _merged_family(lambda r: r.pw_ct)
        if rows.size:
            existence = exist_task[cols]
            exact_q = (
                _pair_quality(
                    quality_model, ctx.predicted_workers, ctx.current_tasks, rows, cols
                )
                if ctx.exact_predicted_quality
                else None
            )
            quality, keep = _predicted_family_coupling(
                stats_cc, "task", cols, existence,
                ctx.discount_by_existence, ctx.reservation_filter, exact_q,
            )
            if keep is not None:
                rows, cols = rows[keep], cols[keep]
                quality = tuple(a[keep] for a in quality)
                existence = existence[keep]
            if rows.size:
                pending.append(dict(
                    rows=rows, cols=cols, quality=quality, existence=existence,
                    w_intervals=ctx.pw_intervals, t_intervals=ctx.t_intervals,
                    worker_offset=n, task_offset=0,
                ))

    # ---- current workers x predicted tasks --------------------------------
    if n and l:
        rows, cols = _merged_family(lambda r: r.cw_pt)
        if rows.size:
            existence = exist_worker[rows]
            exact_q = (
                _pair_quality(
                    quality_model, ctx.current_workers, ctx.predicted_tasks, rows, cols
                )
                if ctx.exact_predicted_quality
                else None
            )
            quality, keep = _predicted_family_coupling(
                stats_cc, "worker", rows, existence,
                ctx.discount_by_existence, ctx.reservation_filter, exact_q,
            )
            if keep is not None:
                rows, cols = rows[keep], cols[keep]
                quality = tuple(a[keep] for a in quality)
                existence = existence[keep]
            if rows.size:
                pending.append(dict(
                    rows=rows, cols=cols, quality=quality, existence=existence,
                    w_intervals=ctx.cw_intervals, t_intervals=ctx.pt_intervals,
                    worker_offset=0, task_offset=m,
                ))

    # ---- predicted workers x predicted tasks -------------------------------
    if k and l and ctx.include_future_future_pairs:
        existence_value = min(stats_cc.total_valid / max(n * m, 1), 1.0)
        rows, cols = _merged_family(lambda r: r.pw_pt)
        if rows.size:
            existence = np.full(rows.size, existence_value)
            exact_q = (
                _pair_quality(
                    quality_model, ctx.predicted_workers, ctx.predicted_tasks,
                    rows, cols,
                )
                if ctx.exact_predicted_quality
                else None
            )
            quality, _ = _predicted_family_coupling(
                stats_cc, "global", rows, existence,
                ctx.discount_by_existence, ctx.reservation_filter, exact_q,
            )
            pending.append(dict(
                rows=rows, cols=cols, quality=quality, existence=existence,
                w_intervals=ctx.pw_intervals, t_intervals=ctx.pt_intervals,
                worker_offset=n, task_offset=m,
            ))

    # ---- phase 2b: price the survivors, emit in family order --------------
    price_started = monotonic()
    priced = _price_survivors(
        executor,
        num_chunks,
        [(job["w_intervals"], job["t_intervals"], job["rows"], job["cols"])
         for job in pending],
    )
    local.price_seconds += monotonic() - price_started
    for job, d_stats in zip(pending, priced):
        _emit_predicted_block(
            job["rows"], job["cols"], d_stats, job["quality"], job["existence"],
            worker_offset=job["worker_offset"], task_offset=job["task_offset"],
        )

    instance = ProblemInstance(
        workers=list(ctx.current_workers) + list(ctx.predicted_workers),
        tasks=list(ctx.current_tasks) + list(ctx.predicted_tasks),
        num_current_workers=n,
        num_current_tasks=m,
        pool=PairPool.concatenate(pools),
        now=ctx.now,
    )
    return instance, cc_extras


class _TileSliceCache:
    """Round-over-round caches of the sharded build's slicing work.

    Three layers, all exactness-preserving:

    - the **global candidate CSR** (and its ``key_to_col`` map) keyed
      on the task index's version counter — an unchanged version
      guarantees the indexed set, the engine's task-list order, and
      therefore the snapshot are unchanged, so churn-free rounds skip
      the O(m) snapshot and dict build entirely;
    - per-tile **margin-zone cell lists** keyed on ``(tile, gamma,
      margin quantized up to whole cells)`` — pure geometry, never
      invalidated; the quantized margin is a superset of the exact
      one and the shard's exact validity scans discard the overshoot;
    - per-tile **CSR slices** keyed on the version and the quantized
      margin — invalidated whenever any entity enters, leaves or
      crosses the tile's zone (every such event bumps the version).

    The caches only serve the engine discipline: the task lists passed
    each round must mirror the watched index (the engine's invariant).
    """

    def __init__(self, index: SpatialIndex) -> None:
        self._index = index
        self._csr_version: int | None = None
        self._csr: _CandidateCSR | None = None
        self._key_to_col: dict[int, int] | None = None
        self._cells: dict[tuple[int, int, int], np.ndarray] = {}
        self._slices: dict[int, tuple[int, int, _CandidateCSR]] = {}
        self.csr_hits = 0
        self.slice_hits = 0

    def csr_and_cols(self, current_tasks) -> tuple[_CandidateCSR, dict[int, int]]:
        version = self._index.version
        if self._csr_version == version:
            self.csr_hits += 1
        else:
            self._key_to_col = {
                task.id: col for col, task in enumerate(current_tasks)
            }
            self._csr = _CandidateCSR.from_index(self._index, self._key_to_col)
            self._csr_version = version
            self._slices.clear()
        return self._csr, self._key_to_col

    @staticmethod
    def _quantize(margin: float, grid) -> int:
        return int(np.ceil(margin / grid.cell_side))

    def cells_for(self, tile: int, box, margin: float, grid) -> np.ndarray:
        steps = self._quantize(margin, grid)
        key = (tile, grid.gamma, steps)
        cells = self._cells.get(key)
        if cells is None:
            cells = grid.cells_intersecting_box(box, steps * grid.cell_side)
            self._cells[key] = cells
        return cells

    def slice_for(
        self, tile: int, box, margin: float, csr: _CandidateCSR
    ) -> _CandidateCSR:
        steps = self._quantize(margin, csr.grid)
        entry = self._slices.get(tile)
        if (
            entry is not None
            and entry[0] == self._csr_version
            and entry[1] >= steps
        ):
            self.slice_hits += 1
            return entry[2]
        restricted = csr.restrict_to_cells(
            self.cells_for(tile, box, margin, csr.grid)
        )
        self._slices[tile] = (self._csr_version, steps, restricted)
        return restricted


def _query_subsets(
    rows: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    vel: np.ndarray,
    arr: np.ndarray,
    intervals=None,
    reach=None,
    ids=None,
) -> _QuerySide:
    return _QuerySide(
        rows=rows,
        xs=xs[rows],
        ys=ys[rows],
        vel=vel[rows],
        arr=arr[rows],
        intervals=None if intervals is None else tuple(a[rows] for a in intervals),
        reach=None if reach is None else reach[rows],
        ids=None if ids is None else ids[rows],
    )


def build_problem_sharded(
    current_workers: Sequence[Worker],
    current_tasks: Sequence[Task],
    predicted_workers: Sequence[Worker],
    predicted_tasks: Sequence[Task],
    quality_model: QualityModel,
    unit_cost: float,
    now: float,
    tiles: TileGrid,
    executor: Executor | None = None,
    discount_by_existence: bool = True,
    reservation_filter: bool = True,
    include_future_future_pairs: bool = True,
    exact_predicted_quality: bool = False,
    task_index: SpatialIndex | None = None,
    index_gamma: int | None = None,
    stats: SparseBuildStats | None = None,
    margin_floor: float = 0.0,
    compact_targets: bool = False,
    slice_cache: _TileSliceCache | None = None,
    tile_phases: list[tuple[int, float]] | None = None,
) -> ProblemInstance:
    """Sharded, two-phase equivalent of ``build_problem_sparse``.

    Accepts the sparse builder's arguments plus the tile partition, an
    optional :class:`~concurrent.futures.Executor` (``None`` runs the
    shards serially in-process), a ``margin_floor`` widening the
    border zones beyond the per-round exact reachable radius, and
    ``compact_targets``, which gathers each shard's candidate columns
    down to its margin zone — worth the extra per-shard gather for a
    process pool (payloads shrink from O(total)·K to O(total + border
    duplication)), pointless for the in-process backends, which share
    the arrays.  A ``slice_cache`` (engine-owned, watching the task
    index's version counter) carries the snapshot, margin-zone cell
    lists and per-tile CSR slices across churn-free rounds.

    ``tile_phases``, when given, receives ``(tile, seconds)`` phase
    timings appended in place — one entry per non-empty tile's phase-1
    build (as measured inside the shard, backend-agnostic) and a final
    ``(-1, seconds)`` entry for the phase-2 reconcile pass; the
    sharded engine feeds them to its observer as per-tile spans.

    The emitted :class:`ProblemInstance` is bit-for-bit identical to
    the serial builders'.  ``stats.candidates``/``emitted``/
    ``dense_equivalent`` match the serial sparse build exactly;
    ``gathered`` and ``queries`` differ (each shard issues its own
    cell-join gathers over its sliced CSR).
    """
    if unit_cost < 0.0:
        raise ValueError(f"unit cost must be non-negative, got {unit_cost}")
    validate_predicted_flags(predicted_workers, predicted_tasks)

    n, m = len(current_workers), len(current_tasks)
    k, l = len(predicted_workers), len(predicted_tasks)
    local = SparseBuildStats()
    local.dense_equivalent = n * m + k * m + n * l
    if include_future_future_pairs:
        local.dense_equivalent += k * l

    prior = quality_model.prior()
    by_ids = (
        getattr(quality_model, "quality_pairs_by_ids", None)
        if not exact_predicted_quality
        else None
    )

    # ---- global columns ---------------------------------------------------
    if n:
        wx, wy, w_vel, w_arr = _worker_columns(current_workers)
        w_ids = np.fromiter((w.id for w in current_workers), dtype=np.int64, count=n)
    if m:
        tx, ty, t_deadline, t_arr = _task_columns(current_tasks)
        t_intervals = _box_intervals(current_tasks)
        t_deadline_max = float(t_deadline.max())
        max_t_reach = float(_reach(t_intervals, tx, ty).max())
        t_ids = np.fromiter((t.id for t in current_tasks), dtype=np.int64, count=m)
        if task_index is None:
            gamma = index_gamma or _default_index_gamma(m)
            ct_csr = _CandidateCSR.from_coordinates(tx, ty, gamma)
        else:
            if len(task_index) != m:
                raise ValueError(
                    f"task_index holds {len(task_index)} entries for "
                    f"{m} current tasks"
                )
            if slice_cache is not None:
                ct_csr, _ = slice_cache.csr_and_cols(current_tasks)
            else:
                key_to_col = {task.id: col for col, task in enumerate(current_tasks)}
                ct_csr = _CandidateCSR.from_index(task_index, key_to_col)
    if k:
        pw_intervals = _box_intervals(predicted_workers)
        pwx, pwy, pw_vel, pw_arr = _worker_columns(predicted_workers)
        pw_reach = _reach(pw_intervals, pwx, pwy)
    build_pt_blocks = l and (n or (k and include_future_future_pairs))
    if build_pt_blocks:
        ptx, pty, pt_deadline, pt_arr = _task_columns(predicted_tasks)
        pt_intervals = _box_intervals(predicted_tasks)
        pt_deadline_max = float(pt_deadline.max())
        max_pt_reach = float(_reach(pt_intervals, ptx, pty).max())
        pt_gamma = index_gamma or _default_index_gamma(l)
        pt_csr = _CandidateCSR.from_coordinates(ptx, pty, pt_gamma)
    if n and l:
        cw_intervals = _box_intervals(current_workers)
        cw_reach = _reach(cw_intervals, wx, wy)

    # ---- border margins: one reachable radius, computed per round ---------
    # A valid pair satisfies d_lb <= horizon * velocity with
    # horizon <= deadline_max - now, and the point distance exceeds
    # d_lb by at most the two kernel-box reaches; so every candidate a
    # shard-owned query entity can validly pair with lies within these
    # margins of the shard's tile.  The slack mirrors _RADIUS_SLACK.
    def _margin(radii: list[float]) -> float:
        radius = max(radii, default=0.0)
        return max(radius, 0.0) * (1.0 + _RADIUS_SLACK) + _RADIUS_SLACK + margin_floor

    def _horizon_bound(deadline_max: float, arr: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, deadline_max - np.maximum(now, arr))

    ct_radii: list[float] = []
    pt_radii: list[float] = []
    if n and m:
        ct_radii.append(float((w_vel * _horizon_bound(t_deadline_max, w_arr)).max()))
    if k and m:
        ct_radii.append(
            float(
                (pw_vel * _horizon_bound(t_deadline_max, pw_arr) + pw_reach).max()
            )
            + max_t_reach
        )
    if n and l:
        pt_radii.append(
            float((w_vel * _horizon_bound(pt_deadline_max, w_arr) + cw_reach).max())
            + max_pt_reach
        )
    if k and l and include_future_future_pairs:
        pt_radii.append(
            float((pw_vel * _horizon_bound(pt_deadline_max, pw_arr) + pw_reach).max())
            + max_pt_reach
        )

    # ---- ownership + per-shard payloads -----------------------------------
    w_owner = tiles.tile_of_coordinates(wx, wy) if n else None
    pw_owner = tiles.tile_of_coordinates(pwx, pwy) if k else None
    margin_ct = _margin(ct_radii)
    margin_pt = _margin(pt_radii)

    def _target_side(
        csr: _CandidateCSR,
        xs, ys, deadline, arr, intervals, deadline_max, max_reach, ids,
    ) -> _TargetSide:
        col_map = None
        if compact_targets and csr.cols.size:
            col_map, local_cols = np.unique(csr.cols, return_inverse=True)
            csr = _CandidateCSR(
                csr.grid, csr.cells, csr.starts, local_cols.astype(np.int64)
            )
            xs, ys = xs[col_map], ys[col_map]
            deadline, arr = deadline[col_map], arr[col_map]
            intervals = tuple(a[col_map] for a in intervals)
            ids = None if ids is None else ids[col_map]
        return _TargetSide(
            csr=csr, xs=xs, ys=ys, deadline=deadline, arr=arr,
            intervals=intervals, deadline_max=deadline_max,
            max_reach=max_reach, ids=ids, col_map=col_map,
        )

    payloads: list[_ShardPayload] = []
    payload_tiles: list[int] = []  # payloads skip empty tiles
    for tile in range(tiles.num_tiles):
        w_rows = (
            np.flatnonzero(w_owner == tile).astype(np.int64) if n else _EMPTY_IDX
        )
        pw_rows = (
            np.flatnonzero(pw_owner == tile).astype(np.int64) if k else _EMPTY_IDX
        )
        if w_rows.size == 0 and pw_rows.size == 0:
            continue
        box = tiles.tile_box(tile)
        shard_ct = None
        if m and (w_rows.size or pw_rows.size):
            if slice_cache is not None and task_index is not None:
                restricted = slice_cache.slice_for(tile, box, margin_ct, ct_csr)
            else:
                cells = ct_csr.grid.cells_intersecting_box(box, margin_ct)
                restricted = ct_csr.restrict_to_cells(cells)
            shard_ct = _target_side(
                restricted,
                tx, ty, t_deadline, t_arr, t_intervals,
                t_deadline_max, max_t_reach,
                t_ids if by_ids is not None else None,
            )
        shard_pt = None
        if build_pt_blocks and (
            w_rows.size or (pw_rows.size and include_future_future_pairs)
        ):
            if slice_cache is not None:
                cells = slice_cache.cells_for(tile, box, margin_pt, pt_csr.grid)
            else:
                cells = pt_csr.grid.cells_intersecting_box(box, margin_pt)
            shard_pt = _target_side(
                pt_csr.restrict_to_cells(cells),
                ptx, pty, pt_deadline, pt_arr, pt_intervals,
                pt_deadline_max, max_pt_reach, None,
            )
        query_w = None
        if w_rows.size:
            query_w = _query_subsets(
                w_rows, wx, wy, w_vel, w_arr,
                intervals=cw_intervals if (n and l) else None,
                reach=cw_reach if (n and l) else None,
                ids=w_ids if by_ids is not None else None,
            )
        query_pw = None
        if pw_rows.size:
            query_pw = _query_subsets(
                pw_rows, pwx, pwy, pw_vel, pw_arr,
                intervals=pw_intervals, reach=pw_reach,
            )
        payloads.append(
            _ShardPayload(
                now=now,
                workers=query_w,
                predicted_workers=query_pw,
                current_tasks=shard_ct,
                predicted_tasks=shard_pt,
                include_future_future_pairs=bool(include_future_future_pairs),
                quality_model=quality_model if by_ids is not None else None,
            )
        )
        payload_tiles.append(tile)

    # ---- phase 1: dispatch ------------------------------------------------
    if executor is None:
        results = [_shard_build(p) for p in payloads]
    else:
        results = list(executor.map(_shard_build, payloads))
    for r in results:
        local.candidates += r.candidates
        local.gathered += r.gathered
        local.queries += r.queries
    if tile_phases is not None:
        tile_phases.extend(
            (tile, r.build_seconds) for tile, r in zip(payload_tiles, results)
        )
    reconcile_started = monotonic() if tile_phases is not None else 0.0

    # ---- phase 2: reconcile -----------------------------------------------
    # Shard-computed qualities (the by-ids path) merge in the same
    # single pass as the distances — one concatenate + one row-major sort.
    if by_ids is not None:
        cc_parts = [
            (r.cc_rows, r.cc_cols, r.cc_dist, r.cc_quality)
            for r in results
            if r.cc_rows.size
        ]
    else:
        cc_parts = [
            (r.cc_rows, r.cc_cols, r.cc_dist) for r in results if r.cc_rows.size
        ]
    ctx = _ReconcileContext(
        current_workers=current_workers,
        current_tasks=current_tasks,
        predicted_workers=predicted_workers,
        predicted_tasks=predicted_tasks,
        quality_model=quality_model,
        unit_cost=unit_cost,
        now=now,
        discount_by_existence=discount_by_existence,
        reservation_filter=reservation_filter,
        include_future_future_pairs=include_future_future_pairs,
        exact_predicted_quality=exact_predicted_quality,
        t_intervals=t_intervals if m else None,
        pw_intervals=pw_intervals if k else None,
        cw_intervals=cw_intervals if (n and l) else None,
        pt_intervals=pt_intervals if build_pt_blocks else None,
    )
    instance, _ = _reconcile(
        results, cc_parts, by_ids is not None, ctx, executor, tiles.num_tiles, local
    )

    if stats is not None:
        stats.merge(local)
    if tile_phases is not None:
        tile_phases.append((-1, monotonic() - reconcile_started))
    return instance


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class TileSelectionStates:
    """Per-tile persistent selection states for sharded deployments.

    The engine's budgeted selection is global — one round, one merged
    pool, one :class:`~repro.core.triplet_select.SelectionState` — so
    the sharded engine warm-starts through ``global_state`` exactly
    like the serial engine (the merged pool is bit-identical, and with
    no delta builder behind it the state self-diffs pair identities).
    A deployment that decomposes *selection* by tile ownership — each
    shard solving its own sub-problem against a budget share — needs
    one persistent state per tile instead, each tracking its own
    sub-stream's churn; :meth:`state_for` keys those lazily by tile
    id, so per-tile repair composes with the shared layer rather than
    forking it (locked by ``tests/test_selection_state.py``).
    """

    def __init__(self, num_tiles: int, repair_ratio: float = 0.5) -> None:
        if num_tiles < 1:
            raise ValueError(f"num_tiles must be positive, got {num_tiles}")
        self._num_tiles = num_tiles
        self._repair_ratio = repair_ratio
        self.global_state = SelectionState(repair_ratio=repair_ratio)
        self._by_tile: dict[int, SelectionState] = {}

    @property
    def num_tiles(self) -> int:
        return self._num_tiles

    def state_for(self, tile: int) -> SelectionState:
        """The persistent selection state owned by ``tile`` (lazy)."""
        if not 0 <= tile < self._num_tiles:
            raise ValueError(
                f"tile {tile} out of range for {self._num_tiles} tiles"
            )
        state = self._by_tile.get(tile)
        if state is None:
            state = SelectionState(repair_ratio=self._repair_ratio)
            self._by_tile[tile] = state
        return state


class ShardedStreamingEngine(StreamingEngine):
    """Streaming engine whose rounds build candidates across K shards.

    Everything except the problem build — event handling, prediction
    bookkeeping and RNG draws, budgeted selection, commit — is
    inherited byte-for-byte from :class:`StreamingEngine`, and the
    sharded build emits a bit-identical pool, so a sharded run
    reproduces the serial run *exactly* on a fixed seed, for every
    backend and every K.

    The executor of the parallel backends is created lazily on the
    first round and owned by the engine; call :meth:`close` (or use
    the engine as a context manager) to release it.
    """

    def __init__(
        self,
        assigner,
        quality_model: QualityModel,
        config: StreamConfig | None = None,
        sharding: ShardingConfig | None = None,
        predictor=None,
        seed: int = 0,
        end_time: float | None = None,
    ) -> None:
        # Tiles precede super().__init__: the base constructor calls
        # the _make_selection_state hook, which keys states by tile.
        self._sharding = sharding if sharding is not None else ShardingConfig()
        self._tiles = TileGrid.from_shard_count(self._sharding.num_shards)
        super().__init__(
            assigner,
            quality_model,
            config=config,
            predictor=predictor,
            seed=seed,
            end_time=end_time,
        )
        if not self.config.use_sparse_builder:
            raise ValueError(
                "the sharded engine is index-driven; use_sparse_builder=False "
                "only exists as the dense differential baseline"
            )
        if (
            self.config.use_delta_builder
            and self.config.delta_slack > 0.0
            and self._tiles.num_tiles > 1
        ):
            raise ValueError(
                "per-tile delta pools do not support motion slack: run the "
                "serial engine (or a single shard) for the slack path, or "
                "set delta_slack=0"
            )
        self._executor: Executor | None = None
        self._executor_started = False
        self._closed = False
        self._slice_cache = _TileSliceCache(self._task_index)
        self._fused_builder = None
        # With the fused pipeline (use_delta_builder, the default) the
        # sharded engine consumes the worker-churn journal exactly
        # like the serial engine — per-tile delta pools repair from it
        # and warm selection gets a trusted row-origin map.  The
        # legacy fresh-build path (use_delta_builder=False) never
        # consumes it; journaling there would only leak.
        self._journal_worker_churn = self.config.use_delta_builder

    def _make_selection_state(self) -> SelectionState:
        """Per-tile keyed states; the engine rounds use the global one."""
        self._tile_selection_states = TileSelectionStates(
            self._tiles.num_tiles, repair_ratio=self.config.delta_rebuild_ratio
        )
        return self._tile_selection_states.global_state

    @property
    def tile_selection_states(self) -> "TileSelectionStates | None":
        """Tile-keyed selection states (``None`` with warm select off)."""
        return getattr(self, "_tile_selection_states", None)

    @property
    def sharding(self) -> ShardingConfig:
        return self._sharding

    @property
    def tiles(self) -> TileGrid:
        return self._tiles

    @property
    def slice_cache(self) -> _TileSliceCache:
        return self._slice_cache

    def _ensure_executor(self) -> Executor | None:
        if self._closed and self._sharding.backend != "serial":
            raise RuntimeError(
                f"engine is closed; its {self._sharding.backend!r} backend "
                "executor is gone (create a new engine to keep streaming)"
            )
        if self._executor_started:
            return self._executor
        self._executor_started = True
        workers = self._sharding.max_workers or self._sharding.num_shards
        if self._sharding.backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        elif self._sharding.backend == "process":
            self._executor = ProcessPoolExecutor(max_workers=workers)
        return self._executor

    def close(self) -> None:
        """Shut down the backend executor and runner (idempotent).

        Further rounds on a parallel-backend engine raise rather than
        silently degrading to in-process execution.
        """
        if self._fused_builder is not None:
            self._fused_builder.close()
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._closed = True

    def __enter__(self) -> "ShardedStreamingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _build_problem(self, now, predicted_workers, predicted_tasks, churn=None):
        config = self.config
        if config.use_delta_builder:
            return self._build_problem_fused(
                now, predicted_workers, predicted_tasks, churn
            )
        # Legacy fresh path: rebuilds the pool from the index every
        # round.  It proves no row provenance, so the round's
        # ChurnRecord stays unannotated — warm selection self-diffs.
        tile_phases: list[tuple[int, float]] | None = (
            [] if self._observer.wants_tile_phases else None
        )
        problem = build_problem_sharded(
            self._available_workers,
            self._available_tasks,
            predicted_workers,
            predicted_tasks,
            self._quality_model,
            config.unit_cost,
            now,
            tiles=self._tiles,
            executor=self._ensure_executor(),
            discount_by_existence=config.discount_by_existence,
            reservation_filter=config.reservation_filter,
            include_future_future_pairs=config.include_future_future_pairs,
            task_index=self._task_index if self._available_tasks else None,
            index_gamma=config.index_gamma,
            stats=self.build_stats,
            margin_floor=self._sharding.margin,
            compact_targets=self._sharding.backend == "process",
            slice_cache=self._slice_cache,
            tile_phases=tile_phases,
        )
        if tile_phases:
            self._observer.record_tile_phases(tile_phases)
        return problem

    def _build_problem_fused(self, now, predicted_workers, predicted_tasks, churn):
        """The fused round pipeline: persistent per-tile delta pools.

        One :class:`~repro.streaming.pipeline.FusedRoundBuilder` per
        engine, created lazily on the first round with the backend's
        runner — inline for serial, the engine's thread pool for
        thread (shared with the reconcile pass's parallel pricing),
        and the shared-memory persistent worker pool for process.
        The builder annotates the round's ChurnRecord with a trusted
        row-origin map, so warm selection repairs instead of
        self-diffing.
        """
        config = self.config
        if self._closed and self._sharding.backend != "serial":
            raise RuntimeError(
                f"engine is closed; its {self._sharding.backend!r} backend "
                "is gone (create a new engine to keep streaming)"
            )
        if self._fused_builder is None:
            from repro.streaming.pipeline import FusedRoundBuilder

            executor = None
            runner_factory = None
            if self._sharding.backend == "thread":
                executor = self._ensure_executor()
            elif self._sharding.backend == "process":
                from repro.streaming.shm import ShmTileRunner

                max_workers = (
                    self._sharding.max_workers or self._sharding.num_shards
                )

                def runner_factory(
                    spec, num_tiles, _max=max_workers, _cfg=self._sharding
                ):
                    return ShmTileRunner(
                        spec,
                        num_tiles,
                        max_workers=_max,
                        round_deadline_s=_cfg.round_deadline_s,
                        max_respawns=_cfg.max_respawns,
                        respawn_backoff_s=_cfg.respawn_backoff_s,
                        respawn_backoff_max_s=_cfg.respawn_backoff_max_s,
                        faults=_cfg.faults,
                    )

            self._fused_builder = FusedRoundBuilder(
                self._quality_model,
                config.unit_cost,
                self._tiles,
                self._task_index,
                executor=executor,
                runner_factory=runner_factory,
                discount_by_existence=config.discount_by_existence,
                reservation_filter=config.reservation_filter,
                include_future_future_pairs=config.include_future_future_pairs,
                index_gamma=config.index_gamma,
                slack=config.delta_slack,
                rebuild_churn_ratio=config.delta_rebuild_ratio,
                margin_floor=self._sharding.margin,
                stats=self.build_stats,
            )
        wants = self._observer.wants_tile_phases
        tile_phases: list[tuple[int, float]] | None = [] if wants else None
        pool_events: list[tuple[int, str]] | None = [] if wants else None
        problem = self._fused_builder.build_round(
            self._available_workers,
            self._available_tasks,
            predicted_workers,
            predicted_tasks,
            now,
            churn=churn,
            tile_phases=tile_phases,
            pool_events=pool_events,
        )
        self._removed_worker_ids = []
        if tile_phases:
            self._observer.record_tile_phases(tile_phases)
        if pool_events:
            self._observer.record_tile_pool_events(pool_events)
        supervision = self._fused_builder.drain_supervision_events()
        if supervision:
            self._observer.record_supervision_events(supervision)
        return problem

    @property
    def degraded(self) -> bool:
        """True once a broken process backend has been swapped for the
        inline serial path (crash-loop budget exhausted)."""
        return bool(
            self._fused_builder is not None and self._fused_builder.degraded
        )

    @property
    def ipc_bytes_last_round(self) -> int:
        """Bytes exchanged with the round's build backend (0 for the
        in-process backends, whose arrays are shared)."""
        if self._fused_builder is None:
            return 0
        return self._fused_builder.ipc_bytes_last_round

    @property
    def ipc_bytes_total(self) -> int:
        """Cumulative bytes exchanged with the build backend across
        the run — the numerator of the bench's ``ipc_bytes_per_round``
        (shared-memory array traffic is excluded by design; the pipe
        carries only churn deltas and array descriptors)."""
        if self._fused_builder is None:
            return 0
        return self._fused_builder.ipc_bytes_total


def prepared_sharded_engine(
    workload,
    assigner,
    config: StreamConfig | None = None,
    sharding: ShardingConfig | None = None,
    predictor=None,
    seed: int = 0,
) -> tuple[ShardedStreamingEngine, int]:
    """A sharded engine loaded with a workload's events (not advanced).

    The sharded analogue of :func:`repro.streaming.adapters.
    prepared_engine`; callers own the engine and should ``close()`` it
    (or use it as a context manager) when the parallel backends are in
    play.
    """
    engine = ShardedStreamingEngine(
        assigner,
        workload.quality_model,
        config=config,
        sharding=sharding,
        predictor=predictor,
        seed=seed,
        end_time=float(workload.num_instances),
    )
    return engine, load_workload(engine, workload)


def run_sharded_stream(
    workload,
    assigner,
    config: StreamConfig | None = None,
    sharding: ShardingConfig | None = None,
    predictor=None,
    seed: int = 0,
) -> SimulationResult:
    """Run a workload through the sharded engine, start to finish."""
    engine, _ = prepared_sharded_engine(
        workload, assigner, config=config, sharding=sharding,
        predictor=predictor, seed=seed,
    )
    with engine:
        engine.advance_to(float(workload.num_instances))
        return engine.result()

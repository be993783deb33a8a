"""What one measured pass yields, and the metrics shared by all workloads.

A pass is the replays or serve passes that fit in its seconds.  Its
end-to-end figures come from the benchmark's own clock; its per-layer
figures from the probes and the counters the program exposes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from probes import SpanLog


@dataclass
class Pass:
    e2e: dict[str, float]
    layers: dict[str, float]
    problems: list[str]
    digest: str
    total_quality: float
    attempted: int
    failed: int
    spans: SpanLog | None = None
    report: dict = field(default_factory=dict)


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), 0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def round_layers(round_s: list[float], engines, assigners) -> dict[str, float]:
    """Per-layer figures of the round path, summed over ``engines``.

    ``round_s`` are the bench-timed round calls; build/select/finalize
    come from each engine's ``InstanceMetrics``, assign from the
    ``TimedGreedy`` probe, counters from the engines' stats objects.
    """
    instances = [m for e in engines for m in e.result().instances]
    build = [m.build_seconds for m in instances]
    assign = [end - start for a in assigners for start, end, *_ in a.calls]
    round_total = sum(round_s)
    other = round_total - sum(build) - sum(assign)

    def total(stats_of, name: str) -> float:
        return float(sum(getattr(stats_of(e), name) for e in engines if stats_of(e)))

    delta_rounds = total(lambda e: e.delta_stats, "rounds")
    select_rounds = total(lambda e: e.select_stats, "rounds")
    priced = total(lambda e: e.build_stats, "candidates")
    gathered = total(lambda e: e.build_stats, "gathered")
    worker_err = [m.worker_prediction_error for m in instances
                  if m.worker_prediction_error is not None]
    task_err = [m.task_prediction_error for m in instances
                if m.task_prediction_error is not None]
    return {
        "engine.round_ms_total": ms(round_total),
        "engine.other_ms_total": ms(other),
        "engine.unattributed_share": other / round_total if round_total else 0.0,
        "build.ms_total": ms(sum(build)),
        "build.ms_p95": ms(pct(build, 95)),
        "delta.primes": total(lambda e: e.delta_stats, "primes"),
        "delta.incremental_rate": (
            total(lambda e: e.delta_stats, "incremental_rounds") / delta_rounds
            if delta_rounds else 0.0
        ),
        "delta.revalidated": total(lambda e: e.delta_stats, "revalidated"),
        "delta.rows_joined": total(lambda e: e.delta_stats, "rows_joined"),
        "delta.pairs_cached": total(lambda e: e.delta_stats, "pairs_cached"),
        "price.s_total": total(lambda e: e.build_stats, "price_seconds"),
        "price.pairs_priced": priced,
        "price.pairs_gathered": gathered,
        "price.priced_per_gathered": priced / gathered if gathered else 0.0,
        "assign.ms_total": ms(sum(assign)),
        "assign.ms_p95": ms(pct(assign, 95)),
        "select.ms_total": ms(sum(m.select_seconds for m in instances)),
        "finalize.ms_total": ms(sum(m.finalize_seconds for m in instances)),
        "select.primes": total(lambda e: e.select_stats, "primes"),
        "select.repaired": total(lambda e: e.select_stats, "repaired"),
        "select.repair_rate": (
            total(lambda e: e.select_stats, "repaired") / select_rounds
            if select_rounds else 0.0
        ),
        "select.churn_fallbacks": total(lambda e: e.select_stats, "churn_fallbacks"),
        "select.declined": total(lambda e: e.select_stats, "declined"),
        "select.rows_fresh": total(lambda e: e.select_stats, "rows_fresh"),
        "select.rows_survived": total(lambda e: e.select_stats, "rows_survived"),
        "prediction.predicted_per_round": _mean(
            [m.num_predicted_workers + m.num_predicted_tasks for m in instances]
        ),
        "prediction.worker_error_mean": _mean(worker_err),
        "prediction.task_error_mean": _mean(task_err),
    }


def add_round_spans(spans: SpanLog, parent: int, tid: int, call, build_s: float, **args):
    """The probe's assign span and the derived build span under ``parent``.

    The build span is derived from ``InstanceMetrics.build_seconds``:
    the engine times the build immediately before it calls ``assign``,
    so the span ends where the assign span starts.
    """
    start, end = call[0], call[1]
    spans.add("pipeline.build", start - build_s, start, tid=tid, parent=parent,
              derived="InstanceMetrics.build_seconds", **args)
    spans.add("core.assign", start, end, tid=tid, parent=parent, **args)

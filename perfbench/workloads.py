"""The benchmark's three workloads, generated from the seed.

The program under test only ever receives the entities these functions
produce; the seed never reaches it except as the engine seed every
run of one workload shares.

- ``standing-pool``: a long-lived bursty pool (10k x 10k over 40
  instances, deadlines 40-45 instances, slow workers), arrivals
  stamped at instance boundaries.  Pools persist, so the delta builder
  and warm selection repair most rounds; the bursts force primes.
- ``citywide-churn``: four dense hotspots (9k x 9k over 26 instances,
  deadlines 0.5-1.0) with every instance's arrivals re-stamped at
  seeded Poisson times inside the instance.  Pools turn over every
  round, so both caches are bypassed.
- ``serve-open``: two 1500 x 1500 tenants over 12 instances behind a
  ``StreamServer``, driven open loop.  Tenant ``a`` is bursty and runs
  without prediction in memory; tenant ``b`` is a drifting hotspot with
  prediction on and a write-ahead journal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.model.quality import QualityModel
from repro.streaming import StreamConfig
from repro.workloads import (
    BurstyWorkload,
    CitywideMultiHotspotWorkload,
    DriftingHotspotWorkload,
    WorkloadParams,
)

#: Round cadence shared by every workload (8 rounds per instance).
ROUND_INTERVAL = 0.125


@dataclass(frozen=True)
class Arrival:
    """One submit: simulated send time, ``"worker"``/``"task"``, entity."""

    at: float
    kind: str
    entity: object


@dataclass(frozen=True)
class ReplayInputs:
    """A closed-loop replay: one engine, its whole stream, its horizon."""

    config: StreamConfig
    quality_model: QualityModel
    arrivals: list[Arrival]
    end_time: float
    seed: int


@dataclass(frozen=True)
class TenantInputs:
    """One serve-open tenant: engine settings and its submit stream."""

    name: str
    config: StreamConfig
    quality_model: QualityModel
    arrivals: list[Arrival]
    journaled: bool
    seed: int


@dataclass(frozen=True)
class ServeInputs:
    tenants: list[TenantInputs]
    num_instances: int


def with_tracing(inputs: ReplayInputs | ServeInputs) -> ReplayInputs | ServeInputs:
    """The same inputs with the program's own tracing on
    (``StreamConfig.enable_tracing``) in every engine."""
    if isinstance(inputs, ReplayInputs):
        return replace(inputs, config=replace(inputs.config, enable_tracing=True))
    return replace(inputs, tenants=[
        replace(t, config=replace(t.config, enable_tracing=True)) for t in inputs.tenants
    ])


def _boundary_stamped(workload) -> list[Arrival]:
    """Arrivals at their instance boundary, workers before tasks."""
    out: list[Arrival] = []
    for instance in range(workload.num_instances):
        workers, tasks = workload.arrivals(instance)
        out.extend(Arrival(float(instance), "worker", w) for w in workers)
        out.extend(Arrival(float(instance), "task", t) for t in tasks)
    return out


def _poisson_stamped(workload, rng: np.random.Generator) -> list[Arrival]:
    """Arrivals re-stamped at Poisson send times inside their instance.

    A Poisson process conditioned on ``n`` arrivals in an interval
    places them at ``n`` sorted uniform times; workers and tasks are
    interleaved in a seeded random order.
    """
    out: list[Arrival] = []
    for instance in range(workload.num_instances):
        workers, tasks = workload.arrivals(instance)
        entities = [("worker", w) for w in workers] + [("task", t) for t in tasks]
        times = instance + np.sort(rng.uniform(0.0, 1.0, len(entities)))
        order = rng.permutation(len(entities))
        out.extend(
            Arrival(float(at), *entities[j]) for at, j in zip(times, order)
        )
    return out


def standing_pool(seed: int) -> ReplayInputs:
    params = WorkloadParams(
        num_workers=10_000,
        num_tasks=10_000,
        num_instances=40,
        velocity_range=(3e-4, 6e-4),
        deadline_range=(40.0, 45.0),
    )
    workload = BurstyWorkload(
        params, seed=seed, burst_period=10, burst_multiplier=4.0, burst_offset=3
    )
    config = StreamConfig(
        round_interval=ROUND_INTERVAL,
        budget=0.15,
        unit_cost=30.0,
        window=1,
        index_gamma=64,
        include_future_future_pairs=False,
    )
    return ReplayInputs(
        config, workload.quality_model, _boundary_stamped(workload),
        float(params.num_instances), seed,
    )


def citywide_churn(seed: int) -> ReplayInputs:
    params = WorkloadParams(
        num_workers=9_000,
        num_tasks=9_000,
        num_instances=26,
        velocity_range=(0.04, 0.07),
        deadline_range=(0.5, 1.0),
    )
    workload = CitywideMultiHotspotWorkload(
        params, seed=seed, num_hotspots=4, hotspot_std=0.05
    )
    config = StreamConfig(
        round_interval=ROUND_INTERVAL,
        budget=10.0,
        unit_cost=20.0,
        include_future_future_pairs=False,
    )
    rng = np.random.default_rng((seed, 1))
    return ReplayInputs(
        config, workload.quality_model, _poisson_stamped(workload, rng),
        float(params.num_instances), seed,
    )


def serve_open(seed: int) -> ServeInputs:
    params = WorkloadParams(
        num_workers=1_500,
        num_tasks=1_500,
        num_instances=12,
        velocity_range=(0.01, 0.02),
        deadline_range=(2.0, 3.0),
    )
    tenants = []
    for name, workload, predict, journaled in (
        ("a", BurstyWorkload(params, seed=seed), False, False),
        ("b", DriftingHotspotWorkload(params, seed=seed + 1), True, True),
    ):
        config = StreamConfig(
            round_interval=ROUND_INTERVAL,
            budget=20.0,
            unit_cost=20.0,
            use_prediction=predict,
        )
        rng = np.random.default_rng((seed, 2, ord(name)))
        tenants.append(
            TenantInputs(
                name, config, workload.quality_model,
                _poisson_stamped(workload, rng), journaled, seed,
            )
        )
    return ServeInputs(tenants, params.num_instances)

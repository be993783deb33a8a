"""Closed-loop replay: enqueue the whole stream, then one round per call.

Set-up builds a ``StreamingEngine`` and submits every arrival.  The
measured loop then calls ``advance_to`` for one round at a time, as
fast as the engine returns.
"""

from __future__ import annotations

import gc
import statistics

from checks import audit_assignments, audit_totals, log_digest
from measure import Pass, add_round_spans, ms, pct, round_layers
from probes import SpanLog, TimedGreedy
from repro.obs.metrics import monotonic
from repro.streaming import StreamingEngine
from workloads import ReplayInputs

#: Set-ups timed per run, half before the replays and half after, so
#: that their median spans the run's drift; ``setup_s`` is the median
#: of these and each replay's own set-up.
SETUPS = 22


def _setup(inputs: ReplayInputs):
    # Start every set-up (and the replay that follows it) from a heap
    # without the previous engine's garbage.
    gc.collect()
    assigner = TimedGreedy()
    start = monotonic()
    engine = StreamingEngine(
        assigner, inputs.quality_model, config=inputs.config,
        seed=inputs.seed, end_time=inputs.end_time,
    )
    for arrival in inputs.arrivals:
        if arrival.kind == "worker":
            engine.submit_worker(arrival.entity, arrival.at)
        else:
            engine.submit_task(arrival.entity, arrival.at)
    return engine, assigner, monotonic() - start


def _replay(engine: StreamingEngine, end_time: float) -> list[tuple[float, float]]:
    """Run every round before ``end_time``; returns ``[(start, end)]`` per round."""
    interval = engine.config.round_interval
    rounds = []
    r = 0
    while r * interval < end_time:
        start = monotonic()
        engine.advance_to(r * interval)
        rounds.append((start, monotonic()))
        r += 1
    return rounds


def measure_replay(inputs: ReplayInputs, seconds: float, with_spans: bool) -> Pass:
    """Replay the stream (again while another replay fits in ``seconds``).

    ``with_spans`` assembles the last replay's bench spans.
    """
    setups = []
    for _ in range(SETUPS // 2):
        engine, assigner, s = _setup(inputs)
        setups.append(s)

    deadline = monotonic() + seconds
    problems: list[str] = []
    digests = set()
    round_s, events, replays = [], 0, 0
    config = inputs.config
    while True:
        rounds = _replay(engine, inputs.end_time)
        replays += 1
        # Audit each replay as it ends; only the last one's engine is
        # kept (for the layer counters), so memory does not grow with
        # the number of replays that fit.
        problems += audit_assignments(assigner.calls, config.budget, config.unit_cost)
        problems += audit_totals(assigner.calls, engine)
        digests.add((log_digest(engine.result().assignments), engine.total_quality))
        round_s += [end - start for start, end in rounds]
        events += engine.events_processed
        took = rounds[-1][1] - rounds[0][0]
        if monotonic() + took > deadline:
            break
        engine = assigner = None  # release the audited replay before the next
        engine, assigner, s = _setup(inputs)
        setups.append(s)
    if len(digests) != 1:
        problems.append(f"replays of one seed disagree: {sorted(digests)}")
    digest, quality = sorted(digests)[0]

    spans = None
    if with_spans:
        spans = SpanLog()
        instances = engine.result().instances
        if len(assigner.calls) != len(rounds):
            problems.append(
                f"{len(assigner.calls)} assign calls for {len(rounds)} rounds"
            )
        for r, ((start, end), call) in enumerate(zip(rounds, assigner.calls)):
            parent = spans.add("engine.round", start, end, cat="round", round=r)
            add_round_spans(spans, parent, 0, call, instances[r].build_seconds, round=r)

    last_round_s = [end - start for start, end in rounds]
    layers = round_layers(last_round_s, [engine], [assigner])
    engine = assigner = None  # one engine at a time, as before the replays
    setups += [_setup(inputs)[2] for _ in range(SETUPS // 2)]

    attempted = len(inputs.arrivals) * len(setups) + len(round_s)
    e2e = {
        "events_per_s": events / sum(round_s),
        "round_ms_p50": ms(pct(round_s, 50)),
        "round_ms_p95": ms(pct(round_s, 95)),
        "total_quality": quality,
        "setup_s": statistics.median(setups),
    }
    return Pass(
        e2e=e2e,
        layers=layers,
        problems=problems,
        digest=digest,
        total_quality=quality,
        attempted=attempted,
        failed=0,
        spans=spans,
        report={
            "replays": replays,
            "rounds": len(round_s),
            "events": events,
            "setups": len(setups),
        },
    )

"""Serve: two tenants behind a ``StreamServer``, closed or open loop.

Both loops send the same ops in the same per-tenant order: every
submit passes ``at=t`` and every drain tick ``until=t`` (one round
each), so the results depend only on the seed, never on wall-clock
jitter.  A run serves the stream again, on a fresh server, while
another pass fits in its seconds.

- Closed loop (the gated end-to-end figures): each op is sent when the
  previous one has returned, so one op is in flight.  On a 2-vCPU host
  the open loop's concurrent op threads and event loop make its round
  times spread by more than any bound the benchmark may set.
- Open loop (the traced run's layer figures): simulated time ``t`` is
  sent at ``t x UNIT_S`` of wall time after the start, whether or not
  earlier calls have returned.  Latency is measured from the
  *scheduled* send time, so a stall is charged to every call it
  delays; how late the generator itself ran is recorded beside it.

Spans of one op share its id: ``server.submit``/``server.drain`` is the
awaited call, ``server.queue`` runs from the call to the start of the
op in the server's thread (for the journaled tenant this includes the
journal append), ``service.*`` is the op itself, and a drain's
``pipeline.build`` and ``core.assign`` nest inside it.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import audit_assignments, audit_totals, log_digest
from measure import Pass, add_round_spans, ms, pct, round_layers
from probes import SpanLog, TimedGreedy, TimedService
from repro.obs.metrics import monotonic
from repro.streaming import (
    AdmissionError,
    JournaledService,
    ServerConfig,
    StreamServer,
    TenantSpec,
    state_digest,
)
from workloads import ROUND_INTERVAL, ServeInputs, TenantInputs

#: Open loop: wall seconds per simulated instance.  12 instances make
#: an 18 s pass at about a third of the two slots' capacity.
UNIT_S = 1.5
#: Server set-ups timed before each pass; ``setup_s`` is the median of
#: these and each pass's own set-up.
SETUPS = 21
#: Gap between the end of set-up and the first scheduled send.
LEAD_S = 0.05


@dataclass
class Op:
    tenant: str
    kind: str  # "worker", "task" or "drain"
    sim: float
    entity: object = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    error: str | None = None
    refused: bool = False


def schedule(inputs: ServeInputs) -> list[Op]:
    """Every op of both tenants in send order (submits before a tick)."""
    ops: list[Op] = []
    ticks = round(inputs.num_instances / ROUND_INTERVAL)
    for tenant in inputs.tenants:
        ops += [Op(tenant.name, a.kind, a.at, a.entity) for a in tenant.arrivals]
        ops += [Op(tenant.name, "drain", r * ROUND_INTERVAL) for r in range(ticks + 1)]
    ops.sort(key=lambda op: (op.sim, op.kind == "drain"))
    return ops


class _Tenants:
    """Builds each tenant's service and remembers the latest one."""

    def __init__(self, inputs: ServeInputs) -> None:
        self.inputs = inputs
        self.services: dict[str, TimedService] = {}
        self.assigners: dict[str, TimedGreedy] = {}

    def factory(self, tenant: TenantInputs):
        def make() -> TimedService:
            assigner = TimedGreedy()
            service = TimedService(
                assigner, tenant.quality_model, config=tenant.config, seed=tenant.seed
            )
            self.services[tenant.name] = service
            self.assigners[tenant.name] = assigner
            return service

        return make

    async def start_server(self, recovery_dir: Path) -> StreamServer:
        server = StreamServer(ServerConfig())
        await server.start()
        for tenant in self.inputs.tenants:
            spec = TenantSpec(
                tenant.name, recovery_dir=recovery_dir if tenant.journaled else None
            )
            server.add_tenant(spec, self.factory(tenant))
        return server


async def _send(server: StreamServer, op: Op) -> None:
    try:
        if op.kind == "drain":
            await server.drain(op.tenant, until=op.sim)
        elif op.kind == "worker":
            await server.submit_worker(op.tenant, op.entity, at=op.sim)
        else:
            await server.submit_task(op.tenant, op.entity, at=op.sim)
    except AdmissionError as exc:
        op.error = exc.reason
        op.refused = exc.reason != "timeout"
    except Exception as exc:  # a raised op is a failed op: count it, keep serving
        traceback.print_exc()
        op.error = f"{type(exc).__name__}: {exc}"
    op.done = monotonic()


async def _open_loop(server: StreamServer, ops: list[Op], unit_s: float) -> None:
    pending = []
    start = monotonic() + LEAD_S
    for op in ops:
        op.due = start + op.sim * unit_s
        delay = op.due - monotonic()
        await asyncio.sleep(delay if delay > 0.0 else 0.0)
        op.sent = monotonic()
        pending.append(asyncio.create_task(_send(server, op)))
    await asyncio.gather(*pending)


async def _closed_loop(server: StreamServer, ops: list[Op]) -> None:
    """Send each op when the previous one has returned: one op in flight."""
    for op in ops:
        op.due = op.sent = monotonic()
        await _send(server, op)


def _journal_probe(service: JournaledService) -> list[tuple[float, float, int]]:
    """Time the journaled service's checkpoints: ``(start, end, bytes)``."""
    writes: list[tuple[float, float, int]] = []
    checkpoint = service.checkpoint

    def timed_checkpoint():
        start = monotonic()
        path = checkpoint()
        writes.append((start, monotonic(), path.stat().st_size))
        return path

    service.checkpoint = timed_checkpoint
    return writes


async def _start(tenants: _Tenants, recovery_dir: Path) -> tuple[StreamServer, float]:
    start = monotonic()
    server = await tenants.start_server(recovery_dir)
    return server, monotonic() - start


async def _time_setups(tenants: _Tenants, recovery_dir: Path) -> list[float]:
    # One recovery dir, emptied between set-ups: a directory that grows
    # by a journal per set-up makes each mkdir slower than the last.
    setups = []
    for _ in range(SETUPS):
        server, s = await _start(tenants, recovery_dir)
        setups.append(s)
        await server.close()
        shutil.rmtree(recovery_dir)
    return setups


async def _serve(tenants: _Tenants, recovery_dir: Path, open_loop: bool):
    server, setup = await _start(tenants, recovery_dir)
    journaled = {t.name for t in tenants.inputs.tenants if t.journaled}
    checkpoints = {n: _journal_probe(server.service(n)) for n in journaled}
    ops = schedule(tenants.inputs)
    if open_loop:
        await _open_loop(server, ops, UNIT_S)
    else:
        await _closed_loop(server, ops)
    await server.close()
    return server, ops, setup, checkpoints


def _join(ops: list[Op], calls) -> list[tuple[Op, tuple]] | None:
    """Pair each executed op with its service call (per-tenant FIFO)."""
    executed = [op for op in ops if not op.refused]
    if len(executed) != len(calls):
        return None
    pairs = list(zip(executed, calls))
    if any((op.kind == "drain") != (call[0] == "drain") for op, call in pairs):
        return None
    return pairs


def _queue_depth_max(joined) -> int:
    """Most ops sent but not yet started, swept over send/start times."""
    events = [(op.sent, 1) for op, _ in joined] + [(call[1], -1) for _, call in joined]
    depth = best = 0
    for _, step in sorted(events):
        depth += step
        best = max(best, depth)
    return best


@dataclass
class _PassResult:
    ops: list[Op]
    drain_s: list[float]
    events: int
    quality: float
    digest: str
    layers: dict[str, float]
    problems: list[str]
    rejected_by_reason: dict[str, dict[str, float]]


def _serve_pass(
    inputs: ServeInputs, recovery_dir: Path, spans: SpanLog | None, open_loop: bool
):
    """One pass on a fresh server; returns its result and set-up time."""
    tenants = _Tenants(inputs)
    server, ops, setup, checkpoints = asyncio.run(_serve(tenants, recovery_dir, open_loop))
    # The live tenants, before a reopen's factory call replaces them.
    services = dict(tenants.services)
    assigners = dict(tenants.assigners)
    problems: list[str] = []
    layers: dict[str, float] = {}
    snapshot = server.metrics_json()
    digests = []
    rejected_by_reason: dict[str, dict[str, float]] = {}
    drain_s: list[float] = []
    for tid, tenant in enumerate(inputs.tenants):
        name = tenant.name
        service, assigner = services[name], assigners[name]
        mine = [op for op in ops if op.tenant == name]
        problems += audit_assignments(
            assigner.calls, tenant.config.budget, tenant.config.unit_cost
        )
        problems += audit_totals(assigner.calls, service.engine)
        digests.append(log_digest(service.engine.result().assignments))
        joined = _join(mine, service.calls)
        if joined is None:
            problems.append(f"tenant {name}: ops and service calls do not pair up")
            joined = []
        drains = [(op, call) for op, call in joined if op.kind == "drain"]
        submits = [(op, call) for op, call in joined if op.kind != "drain"]
        if len(drains) != len(assigner.calls):
            problems.append(
                f"tenant {name}: {len(assigner.calls)} rounds for {len(drains)} drains"
            )
        service_drain = [call[2] - call[1] for _, call in drains]
        drain_s += service_drain
        server_drain = [op.done - op.sent for op, _ in drains]
        wait = next(
            (h for h in snapshot["histograms"]
             if h["name"] == "server_admission_wait_seconds"
             and h.get("labels", {}).get("tenant") == name),
            {},
        )
        by_reason = {
            c["labels"]["reason"]: c["value"] for c in snapshot["counters"]
            if c["name"] == "server_rejected_total" and c["labels"]["tenant"] == name
        }
        rejected_by_reason[name] = by_reason
        rejected = sum(by_reason.values())
        layers.update({
            f"server.{name}.submit_ms_p50": ms(pct([o.done - o.sent for o, _ in submits], 50)),
            f"server.{name}.submit_ms_p99": ms(pct([o.done - o.sent for o, _ in submits], 99)),
            f"server.{name}.drain_ms_p50": ms(pct(server_drain, 50)),
            f"server.{name}.drain_ms_p90": ms(pct(server_drain, 90)),
            f"service.{name}.drain_ms_p50": ms(pct(service_drain, 50)),
            f"service.{name}.drain_ms_p90": ms(pct(service_drain, 90)),
            f"server.{name}.queue_ms_p90": ms(pct(
                [a - b for a, b in zip(server_drain, service_drain)], 90)),
            f"server.{name}.admission_wait_ms_p50": ms(wait.get("p50", 0.0)),
            f"server.{name}.admission_wait_ms_p99": ms(wait.get("p99", 0.0)),
            f"server.{name}.rejected": float(rejected),
            f"server.{name}.queue_depth_max": float(_queue_depth_max(joined)),
        })
        if spans is not None:
            instances = service.engine.result().instances
            client, worker = 2 * tid + 1, 2 * tid + 2
            drain_spans = []
            for index, (op, call) in enumerate(joined):
                kind = "drain" if op.kind == "drain" else "submit"
                ids = {"op": f"{name}:{index}", "tenant": name}
                top = spans.add(f"server.{kind}", op.sent, op.done, cat="op",
                                tid=client, scheduled_lateness_ms=ms(op.sent - op.due), **ids)
                spans.add("server.queue", op.sent, call[1], cat="op", tid=client,
                          parent=top, **ids)
                svc = spans.add(f"service.{kind}", call[1], call[2], cat="op",
                                tid=worker, parent=top, **ids)
                if kind == "drain":
                    drain_spans.append((svc, ids))
            for (svc, ids), probe, m in zip(drain_spans, assigner.calls, instances):
                add_round_spans(spans, svc, worker, probe, m.build_seconds, **ids)

    # Journaled tenants: reopen from disk; state must match the live one.
    recovery = {"ops_journaled": 0, "wal_bytes": 0, "checkpoints": 0,
                "checkpoint_bytes": 0, "reopen_s": 0.0}
    for tenant in inputs.tenants:
        if not tenant.journaled:
            continue
        live = server.service(tenant.name)
        start = monotonic()
        reopened = JournaledService.open(
            tenants.factory(tenant), recovery_dir,
            checkpoint_every=server.config.checkpoint_every,
        )
        recovery["reopen_s"] += monotonic() - start
        if state_digest(reopened.engine) != state_digest(live.engine):
            problems.append(f"tenant {tenant.name}: reopened state differs from live")
        reopened.close(checkpoint=False)
        writes = checkpoints[tenant.name]
        recovery["ops_journaled"] += live.ops_applied
        recovery["wal_bytes"] += (recovery_dir / "ops.journal").stat().st_size
        recovery["checkpoints"] += len(writes)
        recovery["checkpoint_bytes"] += sum(size for *_, size in writes)
    layers.update({f"recovery.{k}": float(v) for k, v in recovery.items()})

    engines = [services[t.name].engine for t in inputs.tenants]
    layers.update(round_layers(
        drain_s, engines, [assigners[t.name] for t in inputs.tenants]
    ))
    result = _PassResult(
        ops=ops,
        drain_s=drain_s,
        events=sum(e.events_processed for e in engines),
        quality=sum(e.total_quality for e in engines),
        digest="+".join(digests),
        layers=layers,
        problems=problems,
        rejected_by_reason=rejected_by_reason,
    )
    return result, setup


def _lags(ops: list[Op]) -> list[float]:
    return [op.done - op.due for op in ops if op.kind == "drain"]


def measure_serve(
    inputs: ServeInputs, seconds: float, with_spans: bool, workdir: Path, open_loop: bool
) -> Pass:
    """Serve the stream (again while another pass fits in ``seconds``).

    A round is one drain as the tenant's service ran it in the op
    thread.  Every pass runs the same rounds on the same inputs, so the
    end-to-end figures use each round's median time across the passes:
    ``round_ms_p50``/``round_ms_p95`` are percentiles over the rounds
    and ``events_per_s`` is one pass's events over their sum.  A round
    that a busy host preempted in one pass does not become the tail,
    while a round that is slow in most passes does.  The latencies are
    pooled over the passes; the layer figures and, with
    ``with_spans``, the bench spans are the last pass's.
    """
    deadline = monotonic() + seconds
    setups: list[float] = []
    passes: list[_PassResult] = []
    spans = None
    while True:
        start = monotonic()
        # Set-up is sub-millisecond and drifts with the host: time it
        # before every pass so its median spans the whole run.
        setups += asyncio.run(_time_setups(_Tenants(inputs), workdir / "recovery"))
        spans = SpanLog() if with_spans else None
        result, setup = _serve_pass(inputs, workdir / "recovery", spans, open_loop)
        shutil.rmtree(workdir / "recovery")
        passes.append(result)
        setups.append(setup)
        took = monotonic() - start
        if monotonic() + took > deadline:
            break

    problems = [p for r in passes for p in r.problems]
    if len({(r.digest, r.quality) for r in passes}) != 1:
        problems.append("passes of one seed disagree")
    last = passes[-1]
    ops = [op for r in passes for op in r.ops]
    if len({len(r.drain_s) for r in passes}) != 1:
        problems.append("passes of one seed ran different numbers of rounds")
    rounds = min(len(r.drain_s) for r in passes)
    round_s = np.median([r.drain_s[:rounds] for r in passes], axis=0)
    lags = [_lags(r.ops) for r in passes]
    lag = [x for pass_lag in lags for x in pass_lag]
    submits = [op.done - op.due for op in ops if op.kind != "drain"]
    lateness = [op.sent - op.due for op in ops]
    failed = sum(op.error is not None for op in ops)
    layers = dict(last.layers)
    layers.update({
        "dispatch_lag_ms_p50": ms(pct(lag, 50)),
        "dispatch_lag_ms_p90": ms(pct(lag, 90)),
        "submit_ack_ms_p50": ms(pct(submits, 50)),
        "submit_ack_ms_p99": ms(pct(submits, 99)),
        "ops_failed_share": failed / len(ops),
    })
    e2e = {
        "events_per_s": last.events / float(np.sum(round_s)),
        "round_ms_p50": ms(pct(round_s, 50)),
        "round_ms_p95": ms(pct(round_s, 95)),
        "total_quality": last.quality,
        "setup_s": statistics.median(setups),
    }
    errors = Counter(op.error for op in ops if op.error is not None)
    return Pass(
        e2e=e2e,
        layers=layers,
        problems=problems,
        digest=last.digest,
        total_quality=last.quality,
        attempted=len(ops),
        failed=failed,
        spans=spans,
        report={
            "passes": len(passes),
            "ops": len(ops),
            "drains": len(lag),
            "errors": errors,
            "rejected_by_reason": last.rejected_by_reason,
            "lateness_ms_p99": ms(pct(lateness, 99)),
            "lateness_ms_max": ms(max(lateness)),
            "lag_ms_first_quarter_p50": [ms(pct(x[:len(x) // 4], 50)) for x in lags],
            "lag_ms_last_quarter_p50": [ms(pct(x[-(len(x) // 4):], 50)) for x in lags],
            "setups": len(setups),
            "open_loop": open_loop,
            "pass_events_per_s": [r.events / sum(r.drain_s) for r in passes],
            "pass_round_ms_p95": [ms(pct(r.drain_s, 95)) for r in passes],
        },
    )

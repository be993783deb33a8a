"""The repository benchmark: PB-SC dispatch, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload standing-pool --seed 7 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``standing-pool`` and
``citywide-churn`` are closed-loop replays through one
``StreamingEngine``; ``serve-open`` drives two tenants of a
``StreamServer`` (see ``serve.py``), closed loop for the end-to-end
figures and open loop at a fixed offered load (1.5 s of wall time per
simulated instance, an 18 s pass) for the layer figures.  Each run is
one process, so peak memory and cache state never leak between
workloads.

The metric names and units are ``BENCHMARK.json``'s.  ``--trace 0``
reports its ``end_to_end`` metrics.  ``--trace 1`` reports its
``per_layer`` metrics; it splits ``--seconds`` into a pass with the
bench probes only, whose layer figures and bench spans are reported,
and a pass with the program's own tracing on
(``StreamConfig.enable_tracing``), whose throughput against the first
pass's is ``trace.overhead_ratio``.  The bench spans are written as
Chrome trace JSON to ``.perfbench/trace-<workload>-<seed>.json`` and
validated with ``python -m repro.obs --trace``.  A layer a workload
does not pass through (the server on a replay, the replay's round span
on serve-open) reports 0.

Every run checks the program's outputs (``checks.py``) and the
properties that keep each workload in its regime; a run failing
either reports ``"correct": false``.  The lines before the last are a
human-readable report (host fingerprint, calibration, checks, guards,
metric table); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The default seed.  Seed 11 is held out: every check and guard
#: passes on it too, so a claim tuned on 7 can be re-checked on 11.
DEFAULT_SEED = 7

#: Regime bounds.  Probe values on a 2-CPU Xeon container, seed 7:
#: standing-pool repairs 250 of 293 selection rounds with 4 delta
#: primes; citywide-churn repairs none.
MIN_REPAIR_RATE = 0.6
MAX_DELTA_PRIMES = 12
#: serve-open: last-quarter median dispatch lag may exceed the first
#: quarter's by this factor plus this slack before it counts as a
#: growing backlog; the generator may run this late (p99 / max).
BACKLOG_FACTOR = 1.5
BACKLOG_SLACK_MS = 10.0
LATE_P99_MS = 50.0
LATE_MAX_MS = 500.0

WORKLOADS = ("standing-pool", "citywide-churn", "serve-open")

#: Metric name prefixes of the layers only serve-open passes through,
#: and of the span only the replays have.
SERVE_ONLY = (
    "server.", "service.", "recovery.", "self_ms.server.", "self_ms.service.",
    "dispatch_lag_ms_", "submit_ack_ms_", "ops_failed_share",
)
REPLAY_ONLY = ("self_ms.engine.round",)


def _catalogue(section: str) -> dict[str, str]:
    """``BENCHMARK.json``'s metrics of ``section``: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _off_path(workload: str, name: str) -> bool:
    return name.startswith(REPLAY_ONLY if workload == "serve-open" else SERVE_ONLY)


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _guards(workload: str, measured) -> dict[str, tuple[bool, str]]:
    layers, report = measured.layers, measured.report
    if workload == "standing-pool":
        rate, primes = layers["select.repair_rate"], layers["delta.primes"]
        return {
            "warm_select_repairs": (
                rate >= MIN_REPAIR_RATE, f"repair rate {rate:.3f} >= {MIN_REPAIR_RATE}"),
            "delta_primes_few": (
                primes <= MAX_DELTA_PRIMES, f"{primes:.0f} delta primes <= {MAX_DELTA_PRIMES}"),
        }
    if workload == "citywide-churn":
        repaired = layers["select.repaired"]
        return {"warm_select_bypassed": (repaired == 0, f"{repaired:.0f} repairs == 0")}
    failed = layers["ops_failed_share"]
    guards = {"all_ops_served": (failed == 0, f"failed share {failed:g} == 0")}
    if not report["open_loop"]:
        return guards
    # One (first, last) quarter pair per pass; every pass must hold.
    quarters = list(zip(report["lag_ms_first_quarter_p50"], report["lag_ms_last_quarter_p50"]))
    grown = [(first, last) for first, last in quarters
             if last > first * BACKLOG_FACTOR + BACKLOG_SLACK_MS]
    p99, worst = report["lateness_ms_p99"], report["lateness_ms_max"]
    return guards | {
        "no_backlog_growth": (
            not grown,
            "last-quarter lag p50 <= first x "
            f"{BACKLOG_FACTOR} + {BACKLOG_SLACK_MS} ms in every pass: "
            + ", ".join(f"{last:.2f} vs {first:.2f}" for first, last in quarters)),
        "generator_on_time": (
            p99 <= LATE_P99_MS and worst <= LATE_MAX_MS,
            f"lateness p99 {p99:.2f} ms <= {LATE_P99_MS}, max {worst:.2f} ms <= {LATE_MAX_MS}"),
    }


def _reference_problems(workload: str, seed: int, measured, host: dict) -> list[str]:
    """Compare against the recorded digest for this seed, if any.

    References are recorded per host (CPU model, Python, numpy): float
    results are bit-identical only on the same arithmetic.
    """
    reference = json.loads((HERE / "reference.json").read_text())
    if any(reference["host"][k] != host[k] for k in reference["host"]):
        return []
    expected = reference["runs"].get(workload, {}).get(str(seed))
    if expected is None:
        return []
    problems = []
    if expected["digest"] != measured.digest:
        problems.append(f"assignment log digest differs from the recorded one for seed {seed}")
    if expected["total_quality"] != measured.total_quality:
        problems.append(
            f"total_quality {measured.total_quality!r} != recorded {expected['total_quality']!r}")
    return problems


def _validate_trace(path: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs", "--trace", str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        return [f"trace validation failed: {done.stdout.strip()} {done.stderr.strip()}"]
    return []


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import host
    import workloads
    from replay import measure_replay
    from serve import measure_serve

    inputs_for = {
        "standing-pool": workloads.standing_pool,
        "citywide-churn": workloads.citywide_churn,
        "serve-open": workloads.serve_open,
    }
    if args.workload not in inputs_for:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        fingerprint = host.fingerprint(work)
        calibration = host.calibration_ms()
        inputs = inputs_for[args.workload](args.seed)

        def measure(inputs, seconds: float, with_spans: bool, name: str):
            if args.workload == "serve-open":
                return measure_serve(
                    inputs, seconds, with_spans, work / name, open_loop=bool(args.trace)
                )
            return measure_replay(inputs, seconds, with_spans)

        if args.trace:
            half = args.seconds / 2
            passes = [
                measure(inputs, half, True, "probes"),
                measure(workloads.with_tracing(inputs), half, False, "tracing"),
            ]
        else:
            passes = [measure(inputs, args.seconds, False, "run")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    base = passes[0]
    problems = [p for m in passes for p in m.problems]
    if len({(m.digest, m.total_quality) for m in passes}) != 1:
        problems.append("passes with and without tracing produced different assignments")
    problems += _reference_problems(args.workload, args.seed, base, fingerprint)
    guards = _guards(args.workload, base)

    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        base.spans.recorder.write(trace_path)
        problems += _validate_trace(trace_path)
        values = dict(base.layers)
        values.update({f"self_ms.{name}": ms for name, ms in base.spans.self_ms().items()})
        values["trace.overhead_ratio"] = passes[1].e2e["events_per_s"] / base.e2e["events_per_s"]
        values["host.calibration_ms"] = calibration
        catalogue = _catalogue("per_layer")
    else:
        values = dict(base.e2e)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        catalogue = _catalogue("end_to_end")
    metrics = {
        name: {
            "value": 0.0 if _off_path(args.workload, name) else float(values[name]),
            "unit": unit,
        }
        for name, unit in catalogue.items()
    }

    correct = not problems and all(ok for ok, _ in guards.values())
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"# host {json.dumps(fingerprint)}")
    print(f"# calibration_ms {calibration:.4f}")
    for m in passes:
        print(f"# pass {json.dumps(m.report)}")
    print(f"# digest {base.digest} total_quality {base.total_quality!r}")
    for problem in problems[:20]:
        print(f"# CHECK FAILED {problem}")
    print(f"# checks {'ok' if not problems else f'{len(problems)} failed'}")
    for name, (ok, detail) in guards.items():
        print(f"# guard {name} {'ok' if ok else 'VIOLATED'}: {detail}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in passes),
        "failed": sum(m.failed for m in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

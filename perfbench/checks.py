"""Output checks: every assignment audited from outside the program.

A run that fails one of these is a failed run, not a slow sample.
"""

from __future__ import annotations

import hashlib
import math

#: Relative float slack for re-derived reachability and cost sums
#: (the program itself trims the budget at ``1e-9``).
_REL = 1e-9


def log_digest(records) -> str:
    """SHA-256 of an assignment audit trail, every field in full."""
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.instance},{r.worker_id},{r.task_id},{r.quality!r},{r.cost!r},"
            f"{r.travel_time!r},{r.release_time!r}\n".encode()
        )
    return h.hexdigest()


def audit_assignments(calls, budget: float, unit_cost: float) -> list[str]:
    """Problems found in the pairs an assigner materialized.

    ``calls`` holds one ``(start, end, now, pairs)`` per round.  Each
    pair must join a real worker and a real task, the worker must reach
    the task before its deadline (departing at ``max(now, arrivals)``),
    the pair's cost must be ``unit_cost x distance``, no worker or task
    may appear twice in a round, no task may be assigned twice in the
    run, and each round's realised cost must stay within the budget.
    """
    problems: list[str] = []
    tasks_ever: set[int] = set()
    for _, _, now, pairs in calls:
        workers: set[int] = set()
        tasks: set[int] = set()
        spent = 0.0
        for pair in pairs:
            w, t = pair.worker, pair.task
            where = f"round at {now}: pair ({w.id}, {t.id})"
            if w.predicted or t.predicted:
                problems.append(f"{where} involves a predicted entity")
            if w.id in workers or t.id in tasks:
                problems.append(f"{where} reuses a worker or task within the round")
            if t.id in tasks_ever:
                problems.append(f"{where} assigns a task a second time")
            workers.add(w.id)
            tasks.add(t.id)
            tasks_ever.add(t.id)
            dist = math.hypot(w.location.x - t.location.x, w.location.y - t.location.y)
            horizon = t.deadline - max(now, w.arrival, t.arrival)
            if not (horizon > 0.0 and dist <= horizon * w.velocity * (1.0 + _REL)):
                problems.append(f"{where} is unreachable before the deadline")
            cost = unit_cost * dist
            if not math.isclose(pair.cost.mean, cost, rel_tol=_REL, abs_tol=1e-12):
                problems.append(f"{where} costs {pair.cost.mean!r}, not {cost!r}")
            spent += cost
        if spent > budget * (1.0 + _REL) + 1e-9:
            problems.append(f"round at {now}: realised cost {spent!r} > budget {budget!r}")
    return problems


def audit_totals(calls, engine) -> list[str]:
    """The engine's running totals must match the pairs it handed out."""
    pairs = [p for *_, round_pairs in calls for p in round_pairs]
    problems = []
    if len(pairs) != engine.num_assignments:
        problems.append(
            f"{len(pairs)} pairs selected but {engine.num_assignments} logged"
        )
    quality = math.fsum(p.quality.mean for p in pairs)
    if not math.isclose(quality, engine.total_quality, rel_tol=1e-9):
        problems.append(
            f"selected quality {quality!r} != engine total {engine.total_quality!r}"
        )
    return problems

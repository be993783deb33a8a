"""Bench-side probes: timed wrappers around public calls, and spans.

Nothing here reaches inside the program.  ``TimedGreedy`` subclasses
the public ``MQAGreedy`` and times ``assign``; ``TimedService`` is the
``StreamingService`` a tenant factory returns, timing each op inside
the server's op thread.  Both keep what they saw (the round time and
the materialized pairs) so the output checks can audit every
assignment after the run.

``SpanLog`` holds bench spans in a ``repro.obs.trace.TraceRecorder``
with explicit span ids and parents, and derives each span name's self
time: its duration minus the part its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core import MQAGreedy
from repro.obs.metrics import monotonic
from repro.obs.trace import TraceRecorder
from repro.streaming import StreamingService


class TimedGreedy(MQAGreedy):
    """``MQAGreedy`` recording ``(start, end, now, pairs)`` per call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[float, float, float, list]] = []

    def assign(self, problem, budget_current, budget_future, rng):
        start = monotonic()
        result = super().assign(problem, budget_current, budget_future, rng)
        self.calls.append((start, monotonic(), problem.now, result.pairs))
        return result

    def __getstate__(self):
        # Engines are checkpointed with their assigner; the probe's
        # records are bench state and stay out of the checkpoint.
        state = self.__dict__.copy()
        state["calls"] = []
        return state


class TimedService(StreamingService):
    """``StreamingService`` recording ``(op, start, end)`` per call."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[str, float, float]] = []

    def _timed(self, op: str, call, *args):
        start = monotonic()
        result = call(*args)
        self.calls.append((op, start, monotonic()))
        return result

    def submit_worker(self, worker, at=None) -> None:
        self._timed("submit", super().submit_worker, worker, at)

    def submit_task(self, task, at=None) -> None:
        self._timed("submit", super().submit_task, task, at)

    def drain(self, until=None):
        return self._timed("drain", super().drain, until)


class SpanLog:
    """Bench spans with ids and parents, kept in a ``TraceRecorder``."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder(enabled=True)
        self._spans: list[tuple[int, str, float, float, int | None]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "phase",
        tid: int = 0,
        parent: int | None = None,
        **args,
    ) -> int:
        span_id = len(self._spans) + 1
        self._spans.append((span_id, name, start, end, parent))
        self.recorder.add_span(
            name, start, end - start, cat=cat, tid=tid,
            args={"id": span_id, "parent": parent, **args},
        )
        return span_id

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self._spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self._spans:
            out[name] += max(end - start - covered[span_id], 0.0) * 1e3
        return dict(out)

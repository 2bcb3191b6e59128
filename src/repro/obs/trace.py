"""Structured optimizer tracing: one Tracer, three sinks.

The paper's evaluation is entirely about *measuring* the optimizer —
plan quality, optimization time, memory, scheduler scalability (Figures
11-15) — so every layer of this reproduction emits structured trace
events and spans through a :class:`Tracer`:

- pipeline spans (``stage_start`` / ``stage_end``) with wall-time
  aggregation: parse, translate, normalize, copy_in, search stages,
  extract, execute;
- optimizer internals: ``group_created``, ``gexpr_added``,
  ``xform_applied``, ``property_request``, ``cost_computed``,
  ``motion_enforced``, ``rules_selected``;
- scheduler activity: ``job_scheduled`` / ``job_done`` (with per-job-kind
  time aggregation);
- execution: ``operator_executed`` per plan node plus a final
  ``execution_metrics`` snapshot of the simulated clock.

The span logic is written once; only the *sink* — where spans and
events go — varies:

- **events** (``Tracer()``): the tracer's own event list, span list and
  aggregates.  A populated tracer renders a human-readable
  :meth:`~Tracer.summary` table (the CLI's ``--trace``) and serializes to
  JSON via :meth:`~Tracer.to_json` for replay / embedding in AMPERe dumps.
- **flight** (:attr:`repro.obs.flight.FlightRecorder.tracer`): the
  recorder's open :class:`~repro.obs.flight.QueryRecord`, with times
  relative to the record's begin; nothing while no record is open.
- **null** (:data:`NULL_TRACER`, the default everywhere): nothing.

``enabled`` is True only on the events sink.  Hot call sites guard
per-event payload construction on it (``if tracer.enabled:
tracer.record(...)``), so the flight and null sinks skip those payloads
entirely and traced and untraced runs stay bit-identical.  On the null
sink ``span()`` returns a shared no-op context and allocates no
:class:`~repro.obs.spans.Span`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterable, Iterator, Optional, Sequence

from repro.obs.spans import Span, new_span_id, new_trace_id

#: Event kinds emitted by the instrumented pipeline.  ``record`` accepts
#: any kind string, but these are the ones the built-in instrumentation
#: produces (and the ones trace-invariant tests reason about).
EVENT_KINDS = frozenset({
    "stage_start",
    "stage_end",
    "rules_selected",
    "xform_applied",
    "group_created",
    "gexpr_added",
    "job_scheduled",
    "job_done",
    "property_request",
    "cost_computed",
    "motion_enforced",
    "operator_executed",
    "execution_metrics",
    # Branch-and-bound search pruning (Section 4.1, Fig. 5): an
    # alternative abandoned before full costing, and a bounded (group,
    # req) search re-run because a later requester needed a looser bound.
    "search_pruned",
    "bound_redo",
    # Parameterized plan cache: lookup outcomes, stores and evictions.
    "plan_cache_hit",
    "plan_cache_miss",
    "plan_cache_store",
    "plan_cache_evict",
    # Governed sessions (repro.service): a deadline absorbed with a
    # best-so-far plan, a retried transient fault, a Planner fallback,
    # and a deterministically injected fault.
    "governor_timeout",
    "retry",
    "fallback",
    "fault_injected",
    # Fused pipeline compiler (repro.engine.fused): plan segmentation
    # into fusable chains, per-chain code generation, and the fused
    # engine's cluster-level scan-cache outcomes.
    "pipeline_segmented",
    "chain_compiled",
    "scan_cache_hit",
    "scan_cache_miss",
    # Fleet orchestration (repro.fleet): a worker restart observed while
    # a traced query stream was in flight.
    "fleet_restart",
})


@dataclass
class TraceEvent:
    """One typed trace event: a kind, a timestamp offset and a payload."""

    kind: str
    t: float  # seconds since the tracer was created
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "t": self.t, "data": self.data}


_EVENTS = "events"
_FLIGHT = "flight"
_NULL = "null"

#: What ``span()`` returns on the null sink: shared, stateless, and
#: entered as ``None`` like a flight span with no record open.
_NO_SPAN = nullcontext()


class Tracer:
    """Collects spans and events into one sink (see the module docstring).

    ``Tracer()`` is the events sink.  ``capture_events=False`` keeps only
    the aggregates (counters, stage times, job-kind times) — useful when
    tracing very large optimization sessions where the raw event list
    would dominate memory.

    Every events tracer owns a ``trace_id``, and every :meth:`span` is a
    :class:`repro.obs.spans.Span` with a ``span_id`` / ``parent_id``
    chain (the open-span stack provides the parent), so one query's
    spans — including spans adopted from fleet worker processes via
    :meth:`adopt_spans` — form a single stitched trace exportable as
    Chrome-trace JSON (:mod:`repro.obs.export`).  On the flight sink the
    ``trace_id`` and root parent come from the open record.

    Timestamps are ``time.monotonic()`` *deltas* from the sink's origin
    (the tracer's creation, or the record's begin): immune to wall-clock
    adjustment (NTP steps can never produce negative span durations) and
    meaningful to ship across processes as offsets.
    """

    # Slots keep a tracer opaque to ``deep_sizeof``: a Memo holding the
    # tracer is not charged for the trace's events or a flight ring.
    __slots__ = (
        "_sink", "enabled", "capture_events", "_trace_id", "_recorder",
        "events", "_spans", "_span_stack", "counters", "stage_counts",
        "stage_times", "job_kind_counts", "job_kind_times", "_t0",
    )

    def __init__(
        self,
        capture_events: bool = True,
        *,
        trace_id: Optional[str] = None,
    ):
        self._init(_EVENTS, trace_id or new_trace_id(), capture_events)

    def _init(
        self,
        sink: str,
        trace_id: Optional[str],
        capture_events: bool,
        recorder=None,
    ) -> None:
        self._sink = sink
        #: True only on the events sink (guarded payloads are captured).
        self.enabled = sink == _EVENTS
        self.capture_events = capture_events
        self._trace_id = trace_id
        self._recorder = recorder
        self.events: list[TraceEvent] = []
        #: Completed spans, in completion order (children before parents).
        self._spans: list[Span] = []
        self._span_stack: list[Span] = []
        #: event kind -> number of times recorded.
        self.counters: dict[str, int] = {}
        #: stage name -> (completed span count, total seconds).
        self.stage_counts: dict[str, int] = {}
        self.stage_times: dict[str, float] = {}
        #: scheduler job kind -> (completed jobs, total step seconds).
        self.job_kind_counts: dict[str, int] = {}
        self.job_kind_times: dict[str, float] = {}
        self._t0 = time.monotonic()

    @classmethod
    def _bound(cls, recorder=None) -> "Tracer":
        """A flight-sink tracer over ``recorder``; the null sink if None."""
        tracer = cls.__new__(cls)
        sink = _NULL if recorder is None else _FLIGHT
        tracer._init(sink, None, False, recorder)
        return tracer

    # ------------------------------------------------------------------
    def _target(self) -> Optional[tuple]:
        """Where spans go right now — (timeline origin, span list, root
        parent id, trace id) — or None when nothing is recorded."""
        if self._sink == _EVENTS:
            return self._t0, self._spans, None, self._trace_id
        rec = self._recorder.current if self._recorder is not None else None
        if rec is None:
            return None
        return rec.started, rec.spans, rec.parent_span_id, rec.trace_id

    @property
    def trace_id(self) -> Optional[str]:
        target = self._target()
        return target[3] if target is not None else None

    @property
    def spans(self) -> Sequence[Span]:
        """The sink's completed spans (``()`` when nothing is recorded)."""
        target = self._target()
        return target[1] if target is not None else ()

    def now(self) -> float:
        """Seconds since the sink's timeline origin (monotonic)."""
        target = self._target()
        return time.monotonic() - target[0] if target is not None else 0.0

    @property
    def current_span_id(self) -> Optional[str]:
        """The innermost open span's id (trace-context propagation)."""
        if self._span_stack:
            return self._span_stack[-1].span_id
        target = self._target()
        return target[2] if target is not None else None

    # ------------------------------------------------------------------
    def record(self, kind: str, **data: Any) -> None:
        """Record one event.  Events sink: aggregates always, the raw
        event only when ``capture_events`` is set.  Flight sink: a note
        on the open record (only unguarded call sites get here — rare,
        deliberate events worth keeping in the black box)."""
        if self._sink != _EVENTS:
            rec = self._recorder.current if self._recorder is not None else None
            if rec is not None:
                rec.note(kind, time.monotonic() - rec.started, data)
            return
        self.counters[kind] = self.counters.get(kind, 0) + 1
        if kind == "job_done":
            jkind = data.get("job_kind", "?")
            self.job_kind_counts[jkind] = self.job_kind_counts.get(jkind, 0) + 1
            self.job_kind_times[jkind] = (
                self.job_kind_times.get(jkind, 0.0) + data.get("seconds", 0.0)
            )
        if self.capture_events:
            self.events.append(
                TraceEvent(kind, time.monotonic() - self._t0, data)
            )

    def span(self, stage: str, **data: Any) -> ContextManager[Optional[Span]]:
        """Time a pipeline stage as a :class:`Span` under the open-span
        stack, adding to ``stage_counts`` / ``stage_times``; the events
        sink also emits ``stage_start`` / ``stage_end``.  Enters as None
        when the sink records nothing."""
        if self._sink == _NULL:
            return _NO_SPAN
        return self._span(stage, data)

    @contextmanager
    def _span(self, stage: str, data: dict[str, Any]) -> Iterator[Optional[Span]]:
        target = self._target()
        if target is None:
            yield None
            return
        # The flight record a span starts under may be closed by a
        # concurrent begin(); the span stays with its own record.
        origin, spans, root_parent, _ = target
        span = Span(
            name=stage,
            span_id=new_span_id(),
            parent_id=(
                self._span_stack[-1].span_id if self._span_stack
                else root_parent
            ),
            start=time.monotonic() - origin,
            data=data,
        )
        self._span_stack.append(span)
        if self.enabled:
            self.record(
                "stage_start", stage=stage,
                span_id=span.span_id, parent_id=span.parent_id,
            )
        try:
            yield span
        finally:
            span.end = time.monotonic() - origin
            self._span_stack.pop()
            spans.append(span)
            elapsed = span.end - span.start
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
            self.stage_times[stage] = (
                self.stage_times.get(stage, 0.0) + elapsed
            )
            if self.enabled:
                self.record(
                    "stage_end", stage=stage, seconds=elapsed,
                    span_id=span.span_id,
                )

    def adopt_spans(
        self,
        span_dicts: Iterable[dict],
        *,
        base: float,
        process: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> list[Span]:
        """Fold spans from another process into this tracer's timeline.

        ``span_dicts`` carry times relative to their own origin (a fleet
        worker's request begin); ``base`` is where that origin sits on
        *this* tracer's timeline (typically :meth:`now` captured when the
        request was sent).  Spans without a parent are attached under
        ``parent_id`` so the remote tree hangs off the local request
        span.  Returns the adopted spans.
        """
        target = self._target()
        if target is None:
            return []
        adopted = []
        for payload in span_dicts:
            span = Span.from_dict(payload).shifted(base)
            if span.parent_id is None:
                span.parent_id = parent_id
            if process is not None:
                span.data.setdefault("process", process)
            target[1].append(span)
            adopted.append(span)
        return adopted

    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "trace_id": self.trace_id,
            "counters": dict(self.counters),
            "stages": {
                name: {
                    "count": self.stage_counts[name],
                    "seconds": self.stage_times[name],
                }
                for name in self.stage_counts
            },
            "job_kinds": {
                kind: {
                    "count": self.job_kind_counts[kind],
                    "seconds": self.job_kind_times.get(kind, 0.0),
                }
                for kind in self.job_kind_counts
            },
            "events": [e.to_dict() for e in self.events],
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Tracer":
        """Rebuild an events tracer (aggregates + events) from a dump."""
        payload = json.loads(text)
        tracer = cls(trace_id=payload.get("trace_id"))
        tracer.counters = dict(payload.get("counters", {}))
        for name, agg in payload.get("stages", {}).items():
            tracer.stage_counts[name] = agg["count"]
            tracer.stage_times[name] = agg["seconds"]
        for kind, agg in payload.get("job_kinds", {}).items():
            tracer.job_kind_counts[kind] = agg["count"]
            tracer.job_kind_times[kind] = agg["seconds"]
        tracer.events = [
            TraceEvent(e["kind"], e["t"], e.get("data", {}))
            for e in payload.get("events", [])
        ]
        tracer._spans = [Span.from_dict(s) for s in payload.get("spans", [])]
        return tracer

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable per-stage / per-kind table (CLI ``--trace``)."""
        lines = ["=== optimizer trace ==="]
        if self.stage_counts:
            lines.append(f"{'stage':24s} {'count':>7s} {'time(s)':>10s}")
            for name in self.stage_counts:
                lines.append(
                    f"{name:24s} {self.stage_counts[name]:7d} "
                    f"{self.stage_times[name]:10.4f}"
                )
        if self.job_kind_counts:
            lines.append("")
            lines.append(f"{'job kind':24s} {'jobs':>7s} {'time(s)':>10s}")
            for kind in sorted(
                self.job_kind_counts, key=lambda k: -self.job_kind_counts[k]
            ):
                lines.append(
                    f"{kind:24s} {self.job_kind_counts[kind]:7d} "
                    f"{self.job_kind_times.get(kind, 0.0):10.4f}"
                )
        counter_only = {
            k: v for k, v in self.counters.items()
            if k not in ("stage_start", "stage_end", "job_done")
        }
        if counter_only:
            lines.append("")
            lines.append(f"{'event':24s} {'count':>7s}")
            for kind in sorted(counter_only, key=lambda k: -counter_only[k]):
                lines.append(f"{kind:24s} {counter_only[kind]:7d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Tracer({self._sink}: {sum(self.counters.values())} events, "
            f"{len(self.stage_counts)} stages)"
        )


#: The shared null-sink tracer, the default everywhere; safe to share
#: because nothing ever writes to it.
NULL_TRACER = Tracer._bound()


def check_span_consistency(tracer: Tracer) -> list[str]:
    """Verify every ``stage_start`` has a matching ``stage_end``.

    Returns a list of problem descriptions (empty when consistent).
    Spans may nest; per stage name, starts and ends must balance and
    never go negative.
    """
    problems: list[str] = []
    depth: dict[str, int] = {}
    for event in tracer.events:
        if event.kind == "stage_start":
            stage = event.data.get("stage", "?")
            depth[stage] = depth.get(stage, 0) + 1
        elif event.kind == "stage_end":
            stage = event.data.get("stage", "?")
            depth[stage] = depth.get(stage, 0) - 1
            if depth[stage] < 0:
                problems.append(f"stage_end without stage_start: {stage}")
    for stage, d in depth.items():
        if d > 0:
            problems.append(f"unclosed stage_start: {stage}")
    return problems

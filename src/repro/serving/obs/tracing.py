"""Request tracing: deterministic ids, cheap spans, cross-process context.

A :class:`Trace` follows one request from admission to reply.  Because the
gateway traces *every* request when tracing is on (the flight recorder
tail-samples afterwards, so slow/shed/error requests are never lost), the
per-span cost has to be tiny: spans are stored as plain tuples inside the
trace and only materialised into :class:`Span` objects when something
inspects the trace (``spans()`` / ``format()`` / ``find()``).

Ids are deterministic: the tracer derives trace ids from a splitmix64
stream (seeded, so two runs with the same traffic produce the same ids)
and span ids are finalised from ``trace_id + index * GOLDEN_GAMMA`` — no
RNG, no clock entropy, reproducible across reruns.

Batch-level work (cache planning, backend scoring, shard scatter/merge)
happens once per micro-batch, not once per request.  :class:`BatchSpans`
records those events once; at collect time they are grafted into every
traced request of the batch, each graft minting fresh per-trace span ids.

Shard workers live on the far side of a pipe with their own monotonic
clock.  The scatter span ships a ``(trace-context id, parent span id)``
tuple through the framed protocol; the worker emits a span *dict*
(:func:`worker_span`) measured on its own clock, and the gateway
re-anchors the child inside the observed scatter window when grafting —
durations are the worker's truth, absolute placement is the parent's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.serving.obs.ids import GOLDEN_GAMMA, splitmix64_int

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Span/trace terminal statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"
STATUS_CANCELLED = "cancelled"


@dataclass(frozen=True)
class Span:
    """One materialised timed operation inside a trace."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    status: str = STATUS_OK
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _span_id(trace_id: int, index: int) -> int:
    return splitmix64_int((trace_id + index * GOLDEN_GAMMA) & _MASK64)


class Trace:
    """Span tree for one request; spans held as tuples until inspected.

    Internal span records are ``(name, start_s, end_s, parent_index,
    status, attrs)``; index 0 is the root ``request`` span.  ``finish()``
    is idempotent and hands the trace to the tracer's recorder exactly
    once.
    """

    __slots__ = (
        "query_id",
        "status",
        "_tracer",
        "_records",
        "_grafts",
        "_finished",
        "_raw_id",
        "_mixed_id",
        "_start_s",
        "_end_s",
        "_root_attrs",
        "admission_end_s",
        "queue_depth",
        "queue_end_s",
        "reply_start_s",
        "reply_end_s",
    )

    def __init__(
        self,
        tracer: "Tracer",
        raw_id: int,
        query_id,
        start_s: float,
    ) -> None:
        # Hot path: everything beyond these seven stores — the root record,
        # the records list, the id finalise, the stage-mark slots — is
        # deferred.  Unset __slots__ raise AttributeError, which the cold
        # paths absorb with getattr defaults.
        self._raw_id = raw_id
        self.query_id = query_id
        self.status = STATUS_OK
        self._tracer = tracer
        self._finished = False
        self._start_s = start_s
        self._end_s = start_s

    @property
    def trace_id(self) -> int:
        """Deterministic splitmix64 id, finalised lazily off the hot path."""
        mixed = getattr(self, "_mixed_id", None)
        if mixed is None:
            mixed = self._mixed_id = splitmix64_int(self._raw_id)
        return mixed

    # ------------------------------------------------------------------ #
    # Recording (hot path)
    # ------------------------------------------------------------------ #
    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: int = 0,
        status: str = STATUS_OK,
        **attrs,
    ) -> int:
        """Append one span; returns its index for use as a parent."""
        try:
            records = self._records
        except AttributeError:
            records = self._records = []
        records.append((name, start_s, end_s, parent, status, attrs or None))
        return len(records)  # the root span occupies index 0

    def graft(self, events: List[tuple]) -> None:
        """Adopt batch-level events by reference (no per-request copy).

        The event list is shared, not copied — the per-request cost of a
        64-request batch's spans is one list append.  Callers must not
        mutate the event list after grafting; parent indexes are remapped
        lazily when the trace is inspected.
        """
        try:
            self._grafts.append(events)
        except AttributeError:
            self._grafts = [events]

    def finish(
        self, status: str = STATUS_OK, end_s: Optional[float] = None, **attrs
    ) -> None:
        """Close the root span and deliver the trace to the recorder once."""
        if self._finished:
            return
        self._finished = True
        self.status = status
        if attrs:
            existing = getattr(self, "_root_attrs", None)
            self._root_attrs = {**existing, **attrs} if existing else attrs
        self._end_s = self._tracer.clock() if end_s is None else end_s
        self._tracer._record(self)

    def finish_ok(self, end_s: float) -> None:
        """``finish(STATUS_OK, end_s=...)`` without the kwargs machinery —
        the per-request completion loop calls this thousands of times."""
        if self._finished:
            return
        self._finished = True
        self._end_s = end_s
        self._tracer._record(self)

    # ------------------------------------------------------------------ #
    # Inspection (cold path)
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def start_s(self) -> float:
        return self._start_s

    @property
    def duration_s(self) -> float:
        return self._end_s - self._start_s

    def _all_records(self) -> List[tuple]:
        """Root, direct records, synthesised stage spans, grafted events.

        The fast-path stage marks become real span tuples here (all
        children of the root); grafted events keep their internal parent
        links, remapped by their offset in the combined list.
        """
        combined = [
            (
                "request",
                self._start_s,
                self._end_s,
                None,
                self.status,
                getattr(self, "_root_attrs", None),
            )
        ]
        combined.extend(getattr(self, "_records", ()))
        admission_end_s = getattr(self, "admission_end_s", None)
        if admission_end_s is not None:
            depth = getattr(self, "queue_depth", None)
            attrs = None if depth is None else {"queue_depth": depth}
            combined.append(
                ("admission", self._start_s, admission_end_s, 0, STATUS_OK, attrs)
            )
            queue_end_s = getattr(self, "queue_end_s", None)
            if queue_end_s is not None:
                # Queue wait starts the moment admission enqueued it.
                combined.append(
                    ("queue", admission_end_s, queue_end_s, 0, STATUS_OK, None)
                )
        reply_end_s = getattr(self, "reply_end_s", None)
        if reply_end_s is not None:
            combined.append(
                ("reply", self.reply_start_s, reply_end_s, 0, STATUS_OK, None)
            )
        for events in getattr(self, "_grafts", ()):
            offset = len(combined)
            for name, start_s, end_s, parent, status, attrs in events:
                combined.append(
                    (
                        name,
                        start_s,
                        end_s,
                        0 if parent is None else offset + parent,
                        status,
                        attrs,
                    )
                )
        return combined

    def spans(self) -> List[Span]:
        """Materialise every span with deterministic ids."""
        records = self._all_records()
        ids = [_span_id(self.trace_id, index) for index in range(len(records))]
        spans = []
        for index, (name, start_s, end_s, parent, status, attrs) in enumerate(
            records
        ):
            spans.append(
                Span(
                    trace_id=self.trace_id,
                    span_id=ids[index],
                    parent_id=None if parent is None else ids[parent],
                    name=name,
                    start_s=start_s,
                    end_s=end_s,
                    status=status,
                    attrs=dict(attrs) if attrs else {},
                )
            )
        return spans

    @property
    def root(self) -> Span:
        return self.spans()[0]

    def find(self, name: str) -> Optional[Span]:
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List[Span]:
        return [span for span in self.spans() if span.name == name]

    def children(self, parent: Span) -> List[Span]:
        return [s for s in self.spans() if s.parent_id == parent.span_id]

    def format(self) -> str:
        """Render the span tree, one line per span, indented by depth.

        Siblings print in start-time order (grafted batch events land
        after the direct records, so insertion order is not chronology).
        """
        spans = self.spans()
        children: Dict[Optional[int], List[int]] = {}
        for index, record in enumerate(self._all_records()):
            children.setdefault(record[3], []).append(index)
        for siblings in children.values():
            siblings.sort(key=lambda index: spans[index].start_s)

        lines = [
            f"trace {self.trace_id:#018x} query={self.query_id!r} "
            f"status={self.status} "
            f"{self.duration_s * 1e3:.3f}ms"
        ]

        def walk(index: int, depth: int) -> None:
            span = spans[index]
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            flag = "" if span.status == STATUS_OK else f" [{span.status}]"
            lines.append(
                "  " * depth
                + f"- {span.name} {span.duration_s * 1e3:.3f}ms{flag}"
                + (f" ({attrs})" if attrs else "")
            )
            for child in children.get(index, ()):
                walk(child, depth + 1)

        walk(0, 0)
        return "\n".join(lines)


class BatchSpans:
    """Once-per-batch span events, grafted into each traced request.

    Events mirror the trace's internal tuples but use event *indexes* as
    parents (``None`` means "child of the request root").  ``ctx_id`` is a
    deterministic batch context id; it doubles as the trace-context id
    shipped to shard workers over the pipe.
    """

    __slots__ = ("clock", "ctx_id", "events")

    def __init__(self, clock: Callable[[], float], ctx_id: int) -> None:
        self.clock = clock
        self.ctx_id = ctx_id
        self.events: List[tuple] = []

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[int] = None,
        status: str = STATUS_OK,
        **attrs,
    ) -> int:
        self.events.append((name, start_s, end_s, parent, status, attrs or None))
        return len(self.events) - 1

    def pipe_context(self) -> Tuple[int, int]:
        """(trace-context id, parent span id) for the framed-pipe protocol."""
        return (self.ctx_id, _span_id(self.ctx_id, 0))

    def graft_into(self, trace: Trace) -> None:
        """Share this batch's events with one traced request (by reference —
        do not ``add`` to this ``BatchSpans`` after the first graft)."""
        trace.graft(self.events)


def worker_span(
    trace_ctx: Tuple[int, int],
    shard: int,
    start_s: float,
    end_s: float,
    **attrs,
) -> dict:
    """Span dict a shard worker ships back over the pipe.

    ``start_s``/``end_s`` are on the *worker's* monotonic clock — only the
    duration is meaningful to the parent, which re-anchors the span inside
    its scatter window.  The pid is recorded so a grafted span proves it
    crossed the process boundary.
    """
    ctx_id, parent_id = trace_ctx
    return {
        "name": "shard_worker",
        "span_id": _span_id(ctx_id, shard + 1),
        "parent_id": parent_id,
        "shard": shard,
        "start_s": start_s,
        "end_s": end_s,
        "attrs": {"pid": os.getpid(), **attrs},
    }


class Tracer:
    """Mints traces with deterministic ids and routes finished ones.

    ``enabled=False`` turns :meth:`start_request` into a ``None`` return,
    which every instrumentation site treats as "don't trace" — the cost of
    disabled tracing is one attribute check per request.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        recorder=None,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.recorder = recorder
        self.enabled = enabled
        self.traces_started = 0
        self.traces_finished = 0
        self._seed = splitmix64_int(seed)
        self._counter = 0

    def _next_raw(self) -> int:
        """Next value of the raw id stream; the splitmix64 finalise happens
        lazily (``Trace.trace_id``) so the hot path pays one add."""
        self._counter += 1
        return (self._seed + self._counter * GOLDEN_GAMMA) & _MASK64

    def _next_id(self) -> int:
        return splitmix64_int(self._next_raw())

    def start_request(
        self,
        query_id=None,
        start_s: Optional[float] = None,
    ) -> Optional[Trace]:
        if not self.enabled:
            return None
        raw_id = self._next_raw()
        self.traces_started += 1
        if start_s is None:
            start_s = self.clock()
        return Trace(self, raw_id, query_id, start_s)

    def batch_context(self) -> int:
        """A fresh deterministic id for one micro-batch's shared spans."""
        return self._next_id()

    def _record(self, trace: Trace) -> None:
        self.traces_finished += 1
        if self.recorder is not None:
            self.recorder.record(trace)

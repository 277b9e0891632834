"""The benchmark's own span recorder, and the seams it records at.

Spans are opened by wrappers installed *from this file* around public entry
points of each layer (the seam table below); nothing inside ``src/`` is
edited or asked to trace itself.  A seam that no longer resolves is listed
under ``seams_missing`` and its layer's metrics drop to zero: a refactor
that collapses a path can never break the benchmark it is judged by.

Time model.  A synchronous span is busy for its whole duration.  A
coroutine span is busy only while one of its steps runs (from a resume to
the next suspension); while it is suspended the thread is doing something
else, which is booked there.  On every thread

    self time of a frame = its busy time - busy time of frames nested in it

Three kinds of seam, by how often they are entered:

* ``ALWAYS`` (batches, scatters, merges, index scans, lifecycle calls):
  every call is a frame, nested under whatever frame is open.
* ``SAMPLED`` (cache get/put, entered per request from a batch frame):
  1 call in ``sample_every`` (the mean of seeded random gaps) is a frame;
  it weighs ``sample_every`` in its own totals and in the child time its
  parent subtracts.
* ``REQUEST`` (the harness's own request frame, then fleet and gateway
  entry points, each nested in the one before): 1 call in ``sample_every``
  is a frame, at seeded random gaps, *never two in one request*.  A frame
  inside a frame would book its own entry and exit cost -- comparable to
  the work measured at this level -- as the outer one's self time;
  measured alone, each total is clean, and :func:`window` subtracts the
  inner seam's total from the outer's.

Root frames are the harness's request frames and the tasks the program
itself creates on the loop (a scheduler's dispatch task, a pool's gather
legs), which step through a frame installed by the loop's task factory.
Accumulators are per thread, so the scoring and publisher threads never
race the loop thread.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import random
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Sampling stride of the SAMPLED and REQUEST seams.
SAMPLE_EVERY = 16
#: Spans kept for the dump; accumulators keep counting past the cap.
SPAN_CAP = 200_000

ALWAYS, SAMPLED, REQUEST = "always", "sampled", "request"
#: The harness's own frame around one request (outermost REQUEST seam).
REQUEST_SEAM = "request"
#: The one instance-level seam: the scheduler's public ``executor``.
EXECUTOR_SEAM = "scheduler.executor"


class SeamSpec(NamedTuple):
    """One row of the seam table: where a layer is entered from outside."""

    layer: str
    module: str
    attribute: str
    mode: str = ALWAYS
    #: ``(result, args) -> info`` stored with the span's event record.
    info: Optional[Callable[[Any, tuple], Any]] = None
    #: Lifecycle seams (boot, publish) are installed before the first boot;
    #: request-path seams only after the untraced baseline segment.
    lifecycle: bool = False


def _query_rows(_result, args):
    return int(args[1].shape[0])  # (self, queries, k)


def _pool_replies(replies, _args):
    busy = [float(reply.latency_s) for reply in replies]
    return (max(busy), sum(busy) / len(busy))


def _fetch_report(report, _args):
    return (report.bytes_fetched, report.chunks_fetched, report.retries)


_GATEWAY = "repro.serving.gateway"

SEAMS: Tuple[SeamSpec, ...] = (
    SeamSpec("fleet", "repro.serving.fleet", "FleetRouter.search_async", REQUEST),
    SeamSpec("gateway", _GATEWAY, "ServingGateway.search_async", REQUEST),
    SeamSpec("gateway", _GATEWAY, "ServingGateway.submit_async", REQUEST),
    SeamSpec("cache", _GATEWAY, "LRUTTLCache.get", SAMPLED),
    SeamSpec("cache", _GATEWAY, "LRUTTLCache.put", SAMPLED),
    SeamSpec(
        "cache",
        _GATEWAY,
        "LRUTTLCache.invalidate_version",
        info=lambda dropped, _args: int(dropped),
        lifecycle=True,
    ),
    SeamSpec("index", _GATEWAY, "ExactIndex.search", info=_query_rows),
    SeamSpec("index", _GATEWAY, "IVFIndex.search", info=_query_rows),
    SeamSpec("index", _GATEWAY, "Int8Index.search", info=_query_rows),
    SeamSpec("index", _GATEWAY, "IVFPQIndex.search", info=_query_rows),
    SeamSpec(
        "index",
        _GATEWAY,
        "build_index",
        info=lambda _index, args: str(args[0]),
        lifecycle=True,
    ),
    SeamSpec(
        "sharded.pool",
        "repro.serving.sharded",
        "ProcessPool.search_async",
        info=_pool_replies,
    ),
    SeamSpec("sharded.merge", "repro.serving.sharded", "merge_top_k"),
    SeamSpec("store", _GATEWAY, "VersionedEmbeddingStore.publish", lifecycle=True),
    SeamSpec("snapshot", _GATEWAY, "VersionedEmbeddingStore.restore", lifecycle=True),
    SeamSpec(
        "snapshot",
        "repro.serving.snapshot",
        "write_snapshot",
        info=lambda report, _args: int(report.bytes_written),
        lifecycle=True,
    ),
    SeamSpec(
        "transport",
        "repro.serving.snapshot",
        "SnapshotFetcher.fetch",
        info=_fetch_report,
        lifecycle=True,
    ),
)

#: The REQUEST seams, outermost first: each one's busy time contains the next.
REQUEST_CHAIN: Tuple[Tuple[str, str], ...] = ((REQUEST_SEAM, "harness"),) + tuple(
    (spec.attribute, spec.layer) for spec in SEAMS if spec.mode == REQUEST
)


def _describe(info: Optional[Callable], result: Any, args: tuple) -> Any:
    """The event payload of a finished span; never lets a hook break a call."""
    if info is None or result is None:
        return None
    try:
        return info(result, args)
    except Exception:  # a refactor changed the seam's shape: keep serving
        return None


class Acc:
    """Per-thread accumulators of one seam (or of one layer's task frames)."""

    __slots__ = ("layer", "calls", "sampled", "busy", "child", "events")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.sampled = 0
        self.busy = 0.0
        self.child = 0.0
        self.events: List[tuple] = []


class Frame:
    """One open span: where nested spans report the time they covered."""

    __slots__ = ("acc", "weight", "span_id", "trace_id", "solo", "is_task")

    def __init__(self, acc: Acc, weight: int, span_id: int, trace_id: int) -> None:
        self.acc = acc
        self.weight = weight
        self.span_id = span_id
        self.trace_id = trace_id
        #: A REQUEST frame below the harness's: measured alone, not a root.
        self.solo = False
        self.is_task = False


class _ThreadState:
    __slots__ = ("name", "top", "roots", "accs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.top: Optional[Frame] = None
        self.roots = 0.0
        self.accs: Dict[str, Acc] = {}

    def acc(self, key: str, layer: str) -> Acc:
        acc = self.accs.get(key)
        if acc is None:
            acc = self.accs[key] = Acc(layer)
        return acc


class _Counter:
    """Call counter of a SAMPLED or REQUEST seam, and which call is next.

    Gaps between recorded calls are seeded random numbers with mean
    ``sample_every``: a fixed stride would alias with the batch size (the
    closed loop resumes its callers in bursts of exactly one batch, so call
    ``k`` and call ``k + 64`` sit at the same place in a burst).  Shared, not
    per thread: these seams are entered from the loop thread only, and their
    fast path must cost less than the calls they count.
    """

    __slots__ = ("calls", "next", "_gaps", "_at")

    def __init__(self, every: int, seed: int) -> None:
        rng = random.Random(seed)
        self._gaps = [rng.randint(1, 2 * every - 1) for _ in range(4093)]
        self._at = 0
        self.calls = 0
        self.next = self._gaps[0]

    def advance(self) -> None:
        self._at = (self._at + 1) % len(self._gaps)
        self.next = self.calls + self._gaps[self._at]


class Tracer:
    """In-memory span recorder with per-layer busy/self accounting."""

    def __init__(self, sample_every: int = SAMPLE_EVERY,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.sample_every = max(2, int(sample_every))
        self.missing: List[str] = []
        #: (name, start, end, busy, span id, parent span id, trace id)
        self.spans: List[tuple] = []
        self.queue_waits: List[float] = []
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._counters: Dict[str, _Counter] = {}
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Frames
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(
                f"{threading.current_thread().name}#{len(self._threads)}")
            self._local.state = state
            self._threads.append(state)
            return state

    def _open(self, acc: Acc, parent: Optional[Frame], weight: int) -> Frame:
        acc.sampled += 1
        span_id = next(self._ids)
        trace_id = parent.trace_id if parent is not None else 0
        return Frame(acc, weight, span_id, trace_id or span_id)

    @staticmethod
    def _charge(state: _ThreadState, frame: Frame, parent: Optional[Frame],
                elapsed: float) -> None:
        """Book one busy interval of ``frame`` and tell its parent."""
        frame.acc.busy += elapsed * frame.weight
        if frame.solo:
            return
        if parent is None:
            state.roots += elapsed * frame.weight
        else:
            parent.acc.child += elapsed * max(frame.weight, parent.weight)

    def _close(self, name: str, started: float, ended: float, busy: float,
               frame: Frame, parent: Optional[Frame], info, result, args) -> None:
        """A span finished: keep it for the dump, and its event if unsampled."""
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                name, started, ended, busy, frame.span_id,
                parent.span_id if parent is not None else 0, frame.trace_id,
            ))
        if frame.weight == 1:
            frame.acc.events.append((started, ended, _describe(info, result, args)))

    def _counter(self, name: str) -> _Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = _Counter(
                self.sample_every, len(self._counters))
        return counter

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap_sync(self, fn: Callable, name: str, layer: str, mode: str = ALWAYS,
                  info: Optional[Callable] = None) -> Callable:
        """Span around a plain callable (busy for its whole duration)."""
        tracer = self
        clock = self.clock
        every = self.sample_every if mode == SAMPLED else 1
        counter = self._counter(name) if mode == SAMPLED else None

        def traced(*args, **kwargs):
            if counter is not None:
                counter.calls += 1
                if counter.calls != counter.next:
                    return fn(*args, **kwargs)
                counter.advance()
            state = tracer._state()
            acc = state.acc(name, layer)
            acc.calls += 1
            parent = state.top
            frame = state.top = tracer._open(acc, parent, every)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = clock()
                state.top = parent
                tracer._charge(state, frame, parent, ended - started)
                tracer._close(name, started, ended, ended - started, frame,
                              parent, info, result, args)

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, fn: Callable, name: str, layer: str, mode: str = ALWAYS,
                   info: Optional[Callable] = None,
                   before: Optional[Callable] = None) -> Callable:
        """Span around a coroutine function (busy only while it steps)."""
        tracer = self
        if mode == REQUEST:
            return self._wrap_request(fn, name, layer)

        def traced(*args, **kwargs):
            state = tracer._state()
            acc = state.acc(name, layer)
            acc.calls += 1
            if before is not None:
                before(state, args)
            return _stepped(tracer, state, fn(*args, **kwargs), name, acc, 1,
                            info, args)

        traced.__wrapped__ = fn
        return traced

    def _wrap_request(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        counter = self._counter(name)

        def traced(*args, **kwargs):
            counter.calls += 1
            if counter.calls != counter.next:
                return fn(*args, **kwargs)
            return tracer._request_frame(fn(*args, **kwargs), name, layer, counter)

        traced.__wrapped__ = fn
        return traced

    def _request_frame(self, coro, name: str, layer: str, counter: _Counter):
        state = self._state()
        top = state.top
        if top is not None and top.weight > 1:
            counter.next += 1  # inside a framed request already: take the next
            return coro
        counter.advance()
        return _stepped(self, state, coro, name, state.acc(name, layer),
                        self.sample_every, None, (), solo=name != REQUEST_SEAM)

    def request(self, coro):
        """The harness's frame around one request it sends (1 in N framed)."""
        counter = self._counter(REQUEST_SEAM)
        counter.calls += 1
        if counter.calls != counter.next:
            return coro
        return _as_task_coroutine(
            self._request_frame(coro, REQUEST_SEAM, "harness", counter))

    def task_factory(self, loop, coro, **kwargs):
        """Tasks the program creates step through a root frame of the layer
        whose span created them (the harness makes its own tasks directly)."""
        state = self._state()
        layer = state.top.acc.layer if state.top is not None else "other"
        stepped = _stepped(self, state, coro, "task", None, 1, None, (), layer=layer)
        return asyncio.Task(_as_task_coroutine(stepped), loop=loop, **kwargs)

    def wrap_executor(self, executor: Callable) -> Callable:
        """The scheduler seam: whoever calls the executor *is* the scheduler.

        The calling task's root frame is relabelled ``scheduler`` (its self
        time is batch formation and reply), each request's queue wait ends
        here, and the executor's own steps are the gateway's batch path.
        """
        tracer = self

        def before(state: _ThreadState, args: tuple) -> None:
            top = state.top
            if top is not None and top.is_task:
                top.acc = state.acc("task:scheduler", "scheduler")
            now = tracer.clock()
            waits = tracer.queue_waits
            for pending in args[0][::4]:
                enqueued = getattr(pending, "enqueued_at", None)
                if enqueued is not None:
                    waits.append(now - enqueued)

        return self.wrap_async(
            executor, EXECUTOR_SEAM, "gateway",
            info=lambda _result, args: len(args[0]), before=before,
        )

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self, request_path: bool) -> None:
        """Wrap the lifecycle seams, or the request-path seams, that resolve."""
        for spec in SEAMS:
            if spec.lifecycle == request_path:
                continue
            try:
                self._install_one(spec)
            except (ImportError, AttributeError):
                self.missing.append(f"{spec.layer}:{spec.module}.{spec.attribute}")

    def _install_one(self, spec: SeamSpec) -> None:
        module = importlib.import_module(spec.module)
        owner_name, _, attr = spec.attribute.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            wrapped = self.wrap_sync(
                original, spec.attribute, spec.layer, spec.mode, spec.info)
            # ``from x import f`` copies the binding: rebind every copy.
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("repro"):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._restore.append(
                                lambda h=holder, k=key: setattr(h, k, original))
            return
        owner = getattr(module, owner_name)
        raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        wrap = (self.wrap_async if asyncio.iscoroutinefunction(original)
                else self.wrap_sync)
        wrapped = wrap(original, spec.attribute, spec.layer, spec.mode, spec.info)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def install_executor(self, gateway) -> None:
        """Wrap one gateway's scheduler executor (per boot)."""
        try:
            scheduler = gateway.scheduler
            core = getattr(scheduler, "async_scheduler", scheduler)
            core.executor = self.wrap_executor(core.executor)
        except AttributeError:
            if EXECUTOR_SEAM not in self.missing:
                self.missing.append(EXECUTOR_SEAM)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Point-in-time totals; subtract two snapshots for a segment."""
        seams: Dict[str, list] = {}
        for state in self._threads:
            for key, acc in list(state.accs.items()):
                row = seams.setdefault(key, [acc.layer, 0, 0, 0.0, 0.0])
                row[1] += acc.calls
                row[2] += acc.sampled
                row[3] += acc.busy
                row[4] += acc.child
        for key, counter in self._counters.items():
            if key in seams:
                seams[key][1] = counter.calls
        return {
            "at": self.clock(),
            "seams": seams,
            "roots": {state.name: state.roots for state in self._threads},
            "queue_waits": len(self.queue_waits),
        }

    def events(self, key: str, since: float = 0.0,
               until: float = float("inf")) -> List[tuple]:
        """Event records ``(start, end, info)`` of one seam in a window."""
        out: List[tuple] = []
        for state in self._threads:
            acc = state.accs.get(key)
            if acc is not None:
                out.extend(e for e in acc.events if since <= e[0] <= until)
        return sorted(out, key=lambda event: event[0])


def window(before: dict, after: dict) -> dict:
    """What happened between two :meth:`Tracer.snapshot` calls.

    ``layers`` holds each layer's self time: busy minus nested time for the
    nested seams, and outer-minus-inner totals along the request chain.
    """
    seams = {}
    for key, row in after["seams"].items():
        base = before["seams"].get(key, [row[0], 0, 0, 0.0, 0.0])
        seams[key] = {
            "layer": row[0],
            "calls": row[1] - base[1],
            "sampled": row[2] - base[2],
            "busy_s": row[3] - base[3],
            "self_s": (row[3] - base[3]) - (row[4] - base[4]),
        }
    chain = [(key, layer) for key, layer in REQUEST_CHAIN
             if seams.get(key, {}).get("sampled")]
    for (key, _), (inner, _) in zip(chain, chain[1:]):
        seams[key]["self_s"] -= seams[inner]["busy_s"]
    layers: Dict[str, float] = {}
    for row in seams.values():
        layers[row["layer"]] = layers.get(row["layer"], 0.0) + row["self_s"]
    return {
        "wall_s": after["at"] - before["at"],
        "since": before["at"],
        "until": after["at"],
        "seams": seams,
        "layers": layers,
        "roots": {name: total - before["roots"].get(name, 0.0)
                  for name, total in after["roots"].items()},
        "queue_waits": (before["queue_waits"], after["queue_waits"]),
    }


@types.coroutine
def _stepped(tracer: "Tracer", state: _ThreadState, inner, name: str,
             acc: Optional[Acc], weight: int, info, args: tuple,
             solo: bool = False, layer: str = ""):
    """Drive ``inner`` step by step under one frame, timing each step.

    A generator-based coroutine: the interpreter resumes it natively, so a
    step costs two clock reads and a few attribute writes.  ``acc=None``
    makes it the root frame of a program task of ``layer``.
    """
    clock = tracer.clock
    send, throw = inner.send, inner.throw
    parent = state.top
    if acc is None:
        frame = tracer._open(state.acc("task:" + layer, layer), None, 1)
        frame.is_task = True
        frame.trace_id = 0
    else:
        frame = tracer._open(acc, parent, weight)
        frame.solo = solo
    first = clock()
    busy = 0.0
    value = error = result = None
    while True:
        parent = state.top
        state.top = frame
        finished = True
        started = clock()
        try:
            yielded = send(value) if error is None else throw(error)
            finished = False
        except StopIteration as stop:
            result = stop.value
            return result
        finally:
            ended = clock()
            state.top = parent
            tracer._charge(state, frame, parent, ended - started)
            busy += ended - started
            if finished and not frame.is_task:
                tracer._close(name, first, ended, busy, frame, parent, info,
                              result, args)
        try:
            value, error = (yield yielded), None
        except BaseException as thrown:  # cancellation / close: pass it down
            value, error = None, thrown


async def _as_task_coroutine(stepped):
    """A native coroutine around a stepped one (what ``asyncio.Task`` takes)."""
    return await stepped

"""Closed- and open-loop load drivers on one event loop, plus the ledger.

Both drivers run on the benchmark's own loop thread beside the deployment
(no client threads): callers that each wait for a reply make the closed
loop, a seeded arrival schedule makes the open loop.  The open loop times a
request **from the instant it was due**, so the wait a stall imposes on
later arrivals is counted, and it reports how late the generator itself ran.
"""

from __future__ import annotations

import asyncio
import selectors
import threading
import time
from dataclasses import asdict, dataclass
from typing import Awaitable, Callable, List, Optional, Tuple

import numpy as np

clock = time.monotonic


class TimedSelector(selectors.DefaultSelector):
    """The loop's selector, timing how long the loop thread sat idle in it."""

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        started = clock()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += clock() - started


@dataclass
class Ledger:
    """Every offered request ends in exactly one of the other four."""

    offered: int = 0
    answered: int = 0
    shed: int = 0
    deadline_missed: int = 0
    errored: int = 0

    @property
    def failed(self) -> int:
        return self.offered - self.answered

    @property
    def balanced(self) -> bool:
        return self.offered == (
            self.answered + self.shed + self.deadline_missed + self.errored)

    def as_dict(self) -> dict:
        return asdict(self)


class Outcome:
    """Sorts one request's end into the ledger and keeps its answer ids."""

    def __init__(self, shed_errors: tuple, missed_errors: tuple) -> None:
        self.ledger = Ledger()
        self.id_rows: List[np.ndarray] = []
        self.first_error: Optional[str] = None
        self._shed = shed_errors
        self._missed = missed_errors

    async def run(self, call: Callable[[int, int], Awaitable], index: int,
                  query_id: int) -> bool:
        """Send one request (from inside this coroutine, so a traced request
        frame is already open when the call enters the stack)."""
        self.ledger.offered += 1
        try:
            ids, _scores = await call(index, query_id)
        except self._missed:
            self.ledger.deadline_missed += 1
        except self._shed:
            self.ledger.shed += 1
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.ledger.errored += 1
            if self.first_error is None:
                self.first_error = f"{type(error).__name__}: {error}"
        else:
            self.ledger.answered += 1
            self.id_rows.append(ids)
            return True
        return False


class Harness:
    """How the drivers start their own coroutines.

    Untraced, tasks come from the loop and requests run as they are.  A
    traced run makes its tasks directly (the loop's task factory is for the
    program's tasks) and lets the tracer frame 1 request in N.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, tracer=None) -> None:
        self.loop = loop
        self.tracer = tracer

    def spawn(self, coro) -> asyncio.Task:
        if self.tracer is None:
            return self.loop.create_task(coro)
        return asyncio.Task(coro, loop=self.loop)

    def request(self, coro):
        return coro if self.tracer is None else self.tracer.request(coro)


async def closed_segment(
    call: Callable[[int, int], Awaitable],
    query_ids: np.ndarray,
    clients: int,
    outcome: Outcome,
    harness: Harness,
) -> float:
    """``clients`` callers, each sending when its previous request returned.

    Returns the wall time from the first send to the last reply.
    """
    feed = iter(enumerate(query_ids.tolist()))

    async def client() -> None:
        for index, query_id in feed:
            await harness.request(outcome.run(call, index, query_id))

    started = clock()
    tasks = [harness.spawn(client()) for _ in range(clients)]
    await asyncio.gather(*tasks)
    return clock() - started


async def open_segment(
    call: Callable[[int, int], Awaitable],
    query_ids: np.ndarray,
    offsets: np.ndarray,
    failed_latency_s: float,
    outcome: Outcome,
    harness: Harness,
    background: Optional[Tuple[float, Callable[[], None]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Send request ``i`` at ``offsets[i]`` whatever the replies do.

    Returns ``(latency_s, generator_lag_s, due_at)`` per request.  A request that
    was not answered counts as at least ``failed_latency_s`` late.
    ``background=(offset_s, fn)`` runs ``fn`` on a worker thread that many
    seconds into the segment; the segment ends only when it has finished.
    """
    loop = asyncio.get_running_loop()
    count = len(query_ids)
    latency = np.zeros(count)
    lag = np.zeros(count)
    ids = query_ids.tolist()
    due_times = clock() + 0.02 + offsets
    due_at = due_times.tolist()

    async def one(index: int, due: float) -> None:
        answered = await outcome.run(call, index, ids[index])
        elapsed = clock() - due
        latency[index] = elapsed if answered else max(elapsed, failed_latency_s)

    worker: Optional[threading.Thread] = None
    if background is not None:
        worker = threading.Thread(target=background[1], name="bench-publisher")
        loop.call_at(
            loop.time() + 0.02 + background[0], worker.start)
    tasks = []
    for index, due in enumerate(due_at):
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lag[index] = max(0.0, clock() - due)
        tasks.append(harness.spawn(harness.request(one(index, due))))
    await asyncio.gather(*tasks)
    if worker is not None:
        while worker.ident is None or worker.is_alive():
            await asyncio.sleep(0.005)
        worker.join()
    return latency, lag, due_times

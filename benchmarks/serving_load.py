"""Shared workload construction + drive loops for the serving benches.

All serving benches (throughput, quantized, sharded, async) push the same
kind of Zipf-skewed request stream through a gateway; keeping the workload
builder and the drive protocols here means a change to the driving
happens in exactly one place.  Like :mod:`benchmarks.bench_args` this
module is pytest-free so the script entry points work in minimal
environments.

Three drive protocols:

* :func:`drive` — the synchronous closed loop: one ``rank_batch`` per
  micro-batch, repeat.  Offered load adapts to service rate, so it measures
  peak batch throughput but can never observe queueing.
* :func:`drive_concurrent` — the async closed loop at high fan-out: up to
  ``concurrency`` requests are held in flight on one event loop, each new
  request admitted the moment a slot frees.
* :func:`drive_open_loop` — the async *open* loop: arrivals follow a
  seeded Poisson process at ``rate_qps`` and are submitted regardless of
  completions, exactly like independent user traffic.  Offered load no
  longer adapts to the server, so overload actually builds queues — which
  is what the admission-control, deadline and backpressure metrics need
  in order to mean anything.
* :func:`drive_flash_crowd` — the open loop under a flash crowd: a
  windowed slice of the stream arrives at ``spike_factor`` times the
  base rate (gaps from the shared
  :func:`repro.serving.gateway.workload.flash_crowd_gaps`, the same
  shape the A/B tier replays).  This is the storm driver the fleet
  bench uses: sustained overload that a single replica must shed and a
  fleet must absorb.
"""

from __future__ import annotations

import asyncio
import time

from repro.serving.gateway import (
    DeadlineExceededError,
    OverloadError,
    clustered_embeddings,
    flash_crowd_gaps,
    poisson_gaps,
    zipf_query_ids,
)
from repro.serving.obs.metrics import sample_percentiles_ms


def make_workload(params: dict, seed: int):
    """Seeded ``(queries, services, request stream)`` for one bench scale.

    ``params`` carries ``num_queries`` / ``num_services`` / ``dim`` /
    ``num_requests``; derived seeds keep the embeddings and the stream
    independent but reproducible from one ``--seed``.
    """
    queries, services = clustered_embeddings(
        params["num_queries"],
        params["num_services"],
        params["dim"],
        num_clusters=16,
        spread=0.2,
        seed=seed,
    )
    stream = zipf_query_ids(
        params["num_queries"],
        params["num_requests"],
        exponent=1.1,
        seed=seed + 1,
    )
    return queries, services, stream


def drive(gateway, stream, batch_size: int) -> float:
    """Push the whole stream through in micro-batches; returns wall seconds."""
    started = time.perf_counter()
    for offset in range(0, len(stream), batch_size):
        gateway.rank_batch(stream[offset : offset + batch_size])
    return time.perf_counter() - started


def load_report(
    latencies_s,
    elapsed_s: float,
    attempted: int,
    completed: int,
    rejected: int = 0,
    deadline_missed: int = 0,
    max_in_flight: int = 0,
) -> dict:
    """One drive run's report row (shared by every async driver, so
    percentile math and column names cannot drift between the modes a
    bench compares).  Percentiles come from the shared helper in
    :mod:`repro.serving.obs.metrics` — the same definition the eval layer
    uses."""
    tail = sample_percentiles_ms(latencies_s, percentiles=(50, 99))
    return {
        "requests": attempted,
        "completed": completed,
        "rejected_overload": rejected,
        "deadline_missed": deadline_missed,
        "max_in_flight": max_in_flight,
        "elapsed_s": elapsed_s,
        "sustained_qps": completed / elapsed_s if elapsed_s > 0 else 0.0,
        "p50_ms": tail["p50_ms"],
        "p99_ms": tail["p99_ms"],
    }


class _AsyncLoadState:
    """Shared counters for one async drive run."""

    def __init__(self) -> None:
        self.in_flight = 0
        self.max_in_flight = 0
        self.completed = 0
        self.rejected = 0
        self.deadline_missed = 0
        self.latencies_s: list = []

    def enter(self) -> float:
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        return time.perf_counter()

    def leave_ok(self, started: float) -> None:
        self.completed += 1
        self.latencies_s.append(time.perf_counter() - started)
        self.in_flight -= 1

    def report(self, elapsed_s: float, attempted: int) -> dict:
        return load_report(
            self.latencies_s,
            elapsed_s,
            attempted,
            self.completed,
            rejected=self.rejected,
            deadline_missed=self.deadline_missed,
            max_in_flight=self.max_in_flight,
        )


async def _one_request(
    gateway, query_id: int, deadline_s, state: _AsyncLoadState, session_id=None
):
    # session_id is only passed when given: the single-gateway API has no
    # session concept, the fleet router keys rendezvous routing on it.
    kwargs = {} if session_id is None else {"session_id": int(session_id)}
    started = state.enter()
    try:
        await gateway.search_async(int(query_id), deadline_s=deadline_s, **kwargs)
    except OverloadError:
        state.rejected += 1
        state.in_flight -= 1
    except DeadlineExceededError:
        state.deadline_missed += 1
        state.in_flight -= 1
    else:
        state.leave_ok(started)


async def drive_concurrent(
    gateway, stream, concurrency: int, deadline_s=None, session_ids=None
) -> dict:
    """Hold up to ``concurrency`` requests in flight on the current loop.

    Returns a report dict with sustained QPS, latency percentiles, the
    in-flight high-water mark and the shed-request counters.  Pass
    ``session_ids`` (one per request) when ``gateway`` is a fleet router —
    distinct sessions are what rendezvous routing spreads over replicas.
    """
    state = _AsyncLoadState()
    semaphore = asyncio.Semaphore(concurrency)
    sessions = [None] * len(stream) if session_ids is None else list(session_ids)

    async def bounded(query_id, session_id) -> None:
        async with semaphore:
            await _one_request(gateway, query_id, deadline_s, state, session_id)

    started = time.perf_counter()
    tasks = [
        asyncio.ensure_future(bounded(query_id, session_id))
        for query_id, session_id in zip(stream, sessions)
    ]
    await asyncio.gather(*tasks)
    # Timestamp before the drain: sustained_qps covers serving, not shutdown.
    elapsed = time.perf_counter() - started
    await gateway.stop_async()
    return state.report(elapsed, len(stream))


async def _drive_arrivals(gateway, stream, gaps, deadline_s, session_ids=None) -> dict:
    """Submit the stream at the given inter-arrival gaps (open loop)."""
    state = _AsyncLoadState()
    loop = asyncio.get_running_loop()
    sessions = [None] * len(stream) if session_ids is None else list(session_ids)
    started = time.perf_counter()
    next_at = loop.time()
    tasks = []
    for gap, query_id, session_id in zip(gaps, stream, sessions):
        next_at += float(gap)
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                _one_request(gateway, query_id, deadline_s, state, session_id)
            )
        )
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    await gateway.stop_async()
    return state.report(elapsed, len(stream))


async def drive_open_loop(
    gateway, stream, rate_qps: float, deadline_s=None, seed: int = 0,
    session_ids=None,
) -> dict:
    """Arrival-rate-driven (open-loop) load: Poisson arrivals at ``rate_qps``.

    Submissions happen at the seeded arrival instants whether or not earlier
    requests completed, so in-flight work genuinely accumulates when the
    gateway falls behind the offered rate — the open-loop property closed
    drive loops cannot reproduce.  Returns the same report shape as
    :func:`drive_concurrent` plus the offered rate.
    """
    gaps = poisson_gaps(len(stream), rate_qps, seed=seed)
    report = await _drive_arrivals(
        gateway, stream, gaps, deadline_s, session_ids=session_ids
    )
    report["offered_qps"] = float(rate_qps)
    return report


async def drive_flash_crowd(
    gateway,
    stream,
    base_qps: float,
    spike_factor: float = 10.0,
    spike_start: float = 0.45,
    spike_width: float = 0.1,
    deadline_s=None,
    seed: int = 0,
    session_ids=None,
) -> dict:
    """Open-loop flash crowd: a 10x (by default) rate spike mid-stream.

    Arrivals outside the spike window follow the Poisson base rate; the
    windowed slice of the stream arrives ``spike_factor`` times faster.
    The report adds the offered base/spike rates so a bench can relate
    shed counters to the overload it actually offered.
    """
    gaps = flash_crowd_gaps(
        len(stream),
        base_qps,
        spike_factor=spike_factor,
        spike_start=spike_start,
        spike_width=spike_width,
        seed=seed,
    )
    report = await _drive_arrivals(
        gateway, stream, gaps, deadline_s, session_ids=session_ids
    )
    report["offered_qps"] = float(base_qps)
    report["spike_qps"] = float(base_qps * spike_factor)
    report["spike_window"] = [float(spike_start), float(spike_start + spike_width)]
    return report

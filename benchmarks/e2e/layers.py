"""The traced run: per-layer metrics from the benchmark's spans and the
stack's public read-outs.

Which segment a metric comes from (one rule, stated once):

* work-shaped metrics (``*.calls``, ``*.gets``, ``*.batches``, ``*.queries``,
  ``*_us_per_*``, ``*.busy_ms``, ``*.self_share``, ``batch_size_mean``,
  ``hit_ratio``) come from the traced **closed** segment, where the system
  is saturated and self time per request is what bounds ``qps``;
* wait-shaped metrics (``*_ms_p50`` / ``*_ms_p99``, ``straggler_ratio``,
  ``scatters``, ``invalidated``, ``loadgen.lag_ms_p99``) come from the
  traced **open** segment, at the fixed rate the latency metrics use;
* lifecycle metrics (``*_s``, bytes, chunks, publishes, ``queue_depth_max``,
  shed/failover counters) cover the whole run.

A metric whose layer is absent from the workload, or whose seam no longer
resolves, is reported as 0 and named under ``absent`` / ``seams_missing``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

from . import isolates
from .drivers import Harness
from .runner import WARMUP_SHARE, Run
from .tracing import EXECUTOR_SEAM, Tracer, window

INDEX_SEARCH_SEAMS = (
    "ExactIndex.search", "IVFIndex.search", "Int8Index.search", "IVFPQIndex.search")

#: name -> unit, in reporting order.  BENCHMARK.json lists the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "fleet.calls": "count",
    "fleet.self_us_per_req": "us",
    "fleet.failovers": "count",
    "fleet.fallback_routes": "count",
    "gateway.calls": "count",
    "gateway.self_us_per_req": "us",
    "gateway.shed": "count",
    "scheduler.batches": "count",
    "scheduler.batch_size_mean": "req",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.queue_wait_ms_p99": "ms",
    "scheduler.queue_depth_max": "req",
    "scheduler.self_us_per_req": "us",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.self_us_per_req": "us",
    "cache.invalidated": "count",
    "index.calls": "count",
    "index.queries": "count",
    "index.busy_ms": "ms",
    "index.self_share": "ratio",
    "index.us_per_query": "us",
    "index.shortlist_kept_ratio": "ratio",
    "index.build_s": "s",
    "sharded.pool.scatters": "count",
    "sharded.pool.roundtrip_ms_p50": "ms",
    "sharded.pool.roundtrip_ms_p99": "ms",
    "sharded.pool.worker_busy_ms_p50": "ms",
    "sharded.pool.pipe_overhead_ms_p50": "ms",
    "sharded.pool.straggler_ratio": "ratio",
    "sharded.merge.calls": "count",
    "sharded.merge.us_per_batch": "us",
    "store.publishes": "count",
    "store.publish_s": "s",
    "snapshot.write_s": "s",
    "snapshot.bytes_written": "bytes",
    "snapshot.open_s": "s",
    "transport.fetch_s": "s",
    "transport.bytes_fetched": "bytes",
    "transport.chunks_fetched": "count",
    "transport.retries": "count",
    "harness.self_us_per_req": "us",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "loadgen.lag_ms_p99": "ms",
    "iso.index.us_per_query.exact": "us",
    "iso.index.us_per_query.ivf": "us",
    "iso.index.us_per_query.int8": "us",
    "iso.index.us_per_query.ivfpq": "us",
    "iso.scheduler.null_executor_us_per_req": "us",
    "iso.sharded.pool.roundtrip_us": "us",
}


def _readouts(run: Run) -> dict:
    """The stack's own public counters, summed over the gateways."""
    totals = {"requests": 0.0, "cache_hits": 0.0, "shed": 0.0,
              "shortlist_candidates": 0.0, "shortlist_kept": 0.0,
              "queue_depth_max": 0.0}
    for gateway in run.deployment.gateways:
        summary = gateway.summary()
        requests = float(summary.get("requests", 0.0))
        totals["requests"] += requests
        totals["cache_hits"] += requests * float(summary.get("cache_hit_rate", 0.0))
        totals["shed"] += float(summary.get("overload_rejections", 0.0))
        totals["shed"] += float(summary.get("deadline_misses", 0.0))
        for key in ("shortlist_candidates", "shortlist_kept"):
            totals[key] += float(summary.get(key, 0.0))
        stats = gateway.scheduler.stats()
        totals["queue_depth_max"] = max(
            totals["queue_depth_max"], float(stats.get("max_queue_depth", 0.0)))
    return totals


def traced_run(run: Run) -> Tuple[dict, dict]:
    """Boot once, then an untraced and a traced closed segment, a traced
    open segment, and the layer isolates."""
    tracer: Tracer = run.tracer
    tracer.install(request_path=False)
    run.boot()
    booted_at = tracer.clock()
    run.probe("probe")

    run.closed("closed.warmup", WARMUP_SHARE, measured=False)
    plain = [run.closed(f"closed.plain.{i}", 1.0, measured=True) for i in range(2)]

    tracer.install(request_path=True)
    for gateway in run.deployment.gateways:
        tracer.install_executor(gateway)
    run.loop.set_task_factory(tracer.task_factory)
    run.harness = Harness(run.loop, tracer)
    # Dispatch tasks born before the factory restart under it on next use.
    run.loop.run_until_complete(run.deployment.stop())
    run.closed("closed.traced_warmup", WARMUP_SHARE / 2, measured=False)
    reads_before, idle_before = _readouts(run), run.selector.idle_s
    snap = tracer.snapshot()
    traced = [run.closed(f"closed.traced.{i}", 1.0, measured=True) for i in range(2)]
    closed = window(snap, tracer.snapshot())
    closed["idle_s"] = run.selector.idle_s - idle_before
    reads_after = _readouts(run)
    closed["reads"] = {
        key: reads_after[key] - reads_before[key] for key in reads_after}
    run.phases["closed"] = {"segments": [row for _, row in plain + traced]}
    plain_qps = statistics.mean(qps for qps, _ in plain)
    traced_qps = statistics.mean(qps for qps, _ in traced)

    run.open("open.warmup", WARMUP_SHARE, measured=False)
    snap = tracer.snapshot()
    open_row = run.open("open.traced", 1.0, measured=True)
    opened = window(snap, tracer.snapshot())
    run.phases["open"] = {"segments": [open_row]}
    if run.workload.publish_offset_s is not None:
        run.probe("probe.after_publish")

    values = _layer_values(run, tracer, closed, opened, booted_at)
    values["trace.overhead_ratio"] = traced_qps / plain_qps
    values["loadgen.lag_ms_p99"] = open_row["generator_lag_ms_p99"]
    final_reads = _readouts(run)
    values["gateway.shed"] = final_reads["shed"]
    values["scheduler.queue_depth_max"] = final_reads["queue_depth_max"]
    if final_reads["shortlist_candidates"]:
        values["index.shortlist_kept_ratio"] = (
            final_reads["shortlist_kept"] / final_reads["shortlist_candidates"])
    summary = getattr(run.deployment.target, "summary", dict)()
    if "failovers" in summary:
        values["fleet.failovers"] = float(summary["failovers"])
        values["fleet.fallback_routes"] = float(summary["fallback_routes"])

    run.close()
    run.loop.set_task_factory(None)
    tracer.uninstall()
    values.update(isolates.for_workload(run))

    absent = sorted(name for name in PER_LAYER_UNITS if name not in values)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    detail = {
        "seams_missing": tracer.missing,
        "absent": absent,
        "sample_every": tracer.sample_every,
        "spans_recorded": len(tracer.spans),
        "closed_window": _window_report(closed),
        "open_window": _window_report(opened),
        "qps_plain": plain_qps,
        "qps_traced": traced_qps,
    }
    return metrics, detail


def _window_report(win: dict) -> dict:
    report = {
        "wall_s": win["wall_s"],
        "layer_self_s": dict(sorted(win["layers"].items())),
        "roots": win["roots"],
        "seams": {k: v for k, v in sorted(win["seams"].items()) if v["calls"]},
    }
    for key in ("idle_s", "busy_wall_s", "attributed_s"):
        if key in win:
            report[key] = win[key]
    return report


def _percentiles(values: List[float], scale: float) -> Tuple[float, float]:
    if not values:
        return 0.0, 0.0
    p50, p99 = np.percentile(values, [50, 99])
    return float(p50) * scale, float(p99) * scale


def _layer_values(run: Run, tracer: Tracer, closed: dict, opened: dict,
                  booted_at: float) -> Dict[str, float]:
    values: Dict[str, float] = {}
    seams, layers = closed["seams"], closed["layers"]
    answered = max(1.0, closed["reads"]["requests"])

    def seam_calls(name: str) -> float:
        return float(seams.get(name, {}).get("calls", 0))

    def self_us(layer: str) -> float:
        return layers.get(layer, 0.0) * 1e6 / answered

    # The partition: loop busy time vs what the frames covered.
    off_loop = sum(
        v for k, v in closed["roots"].items() if not k.startswith("MainThread"))
    busy_wall = (closed["wall_s"] - closed["idle_s"]) + off_loop
    attributed = sum(v for k, v in layers.items() if k != "other")
    closed["busy_wall_s"], closed["attributed_s"] = busy_wall, attributed
    values["trace.coverage_ratio"] = attributed / busy_wall if busy_wall else 0.0
    values["harness.self_us_per_req"] = self_us("harness")

    fleet_calls = seam_calls("FleetRouter.search_async")
    if fleet_calls:
        values["fleet.calls"] = fleet_calls
        values["fleet.self_us_per_req"] = self_us("fleet")
    values["gateway.calls"] = (seam_calls("ServingGateway.submit_async")
                               or seam_calls("ServingGateway.search_async"))
    values["gateway.self_us_per_req"] = self_us("gateway")

    batches = tracer.events(EXECUTOR_SEAM, closed["since"], closed["until"])
    values["scheduler.batches"] = seam_calls(EXECUTOR_SEAM)
    if batches:
        values["scheduler.batch_size_mean"] = float(
            np.mean([info for _, _, info in batches if info is not None] or [0]))
    values["scheduler.self_us_per_req"] = self_us("scheduler")
    lo, hi = opened["queue_waits"]
    p50, p99 = _percentiles(tracer.queue_waits[lo:hi], 1e3)
    values["scheduler.queue_wait_ms_p50"] = p50
    values["scheduler.queue_wait_ms_p99"] = p99

    gets = seam_calls("LRUTTLCache.get")
    if gets:
        values["cache.gets"] = gets
        values["cache.hit_ratio"] = closed["reads"]["cache_hits"] / answered
        values["cache.self_us_per_req"] = self_us("cache")
        values["cache.invalidated"] = float(sum(
            info or 0 for _, _, info in tracer.events(
                "LRUTTLCache.invalidate_version", opened["since"], opened["until"])))

    searches = [
        event for name in INDEX_SEARCH_SEAMS
        for event in tracer.events(name, closed["since"], closed["until"])]
    if searches:
        busy_s = sum(end - start for start, end, _ in searches)
        rows = sum(info or 0 for _, _, info in searches)
        values["index.calls"] = float(len(searches))
        values["index.queries"] = float(rows)
        values["index.busy_ms"] = busy_s * 1e3
        values["index.us_per_query"] = busy_s * 1e6 / max(1, rows)
        values["index.self_share"] = (
            layers.get("index", 0.0) / attributed if attributed else 0.0)
    builds = tracer.events("build_index")
    if builds:
        values["index.build_s"] = float(np.mean([e - s for s, e, _ in builds]))

    scatters = tracer.events(
        "ProcessPool.search_async", opened["since"], opened["until"])
    scatters = [event for event in scatters if event[2] is not None]
    if scatters:
        trips = [end - start for start, end, _ in scatters]
        slowest = [info[0] for _, _, info in scatters]
        values["sharded.pool.scatters"] = float(len(scatters))
        p50, p99 = _percentiles(trips, 1e3)
        values["sharded.pool.roundtrip_ms_p50"] = p50
        values["sharded.pool.roundtrip_ms_p99"] = p99
        values["sharded.pool.worker_busy_ms_p50"] = _percentiles(slowest, 1e3)[0]
        values["sharded.pool.pipe_overhead_ms_p50"] = _percentiles(
            [trip - busy for trip, busy in zip(trips, slowest)], 1e3)[0]
        values["sharded.pool.straggler_ratio"] = float(np.mean(
            [info[0] / info[1] for _, _, info in scatters if info[1] > 0]))
    merges = tracer.events("merge_top_k", closed["since"], closed["until"])
    if merges:
        values["sharded.merge.calls"] = float(len(merges))
        values["sharded.merge.us_per_batch"] = float(
            np.mean([e - s for s, e, _ in merges])) * 1e6

    publishes = tracer.events("VersionedEmbeddingStore.publish")
    if publishes:
        values["store.publishes"] = float(len(publishes))
        values["store.publish_s"] = float(np.mean([e - s for s, e, _ in publishes]))
        writes = tracer.events("write_snapshot", since=booted_at)
        if writes:
            values["snapshot.write_s"] = float(np.mean([e - s for s, e, _ in writes]))
            values["snapshot.bytes_written"] = float(
                sum(info or 0 for _, _, info in writes))
    restores = tracer.events("VersionedEmbeddingStore.restore")
    if restores:
        values["snapshot.open_s"] = restores[0][1] - restores[0][0]
    fetches = [e for e in tracer.events("SnapshotFetcher.fetch") if e[2]]
    if fetches:
        start, end, (nbytes, chunks, retries) = fetches[0]
        values["transport.fetch_s"] = end - start
        values["transport.bytes_fetched"] = float(nbytes)
        values["transport.chunks_fetched"] = float(chunks)
        values["transport.retries"] = float(retries)
    return values

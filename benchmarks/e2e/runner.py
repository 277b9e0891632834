"""One workload, one fresh interpreter: boot, probe, closed, open, close.

``run_workload`` is what the child process of ``python -m benchmarks.e2e``
executes.  It returns a payload (printed as one JSON line by the child) with
the six end-to-end metrics, or, in a traced run, the per-layer metrics; the
operations ledger of every phase; the raw per-segment values; and the list
of failed checks.  Any failed check makes the command exit non-zero.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import inputs, oracle
from .drivers import (
    Harness,
    Outcome,
    TimedSelector,
    clock,
    closed_segment,
    open_segment,
)
from .workloads import (
    BY_NAME,
    CLIENTS,
    DEADLINE_S,
    MIN_OPEN_SAMPLES,
    NOMINAL_SECONDS,
    PROBE_QUERIES,
    TOP_K,
    Deployment,
    Workload,
    boot,
)

#: Boots are repeated until this many, or this much boot time.
MAX_BOOTS = 3
BOOT_BUDGET_S = 6.0
#: Measured segments per phase.  Whatever else runs on the box only ever
#: makes a segment read worse, so the metric is the best of the five (the
#: least disturbed); every segment's value stays in the payload.
MEASURED_SEGMENTS = 5
WARMUP_SHARE = 0.4
#: The run is invalid if the open-loop generator itself ran later than this.
MAX_GENERATOR_LAG_MS = 10.0
#: A returned score further than this from the answering version's tables
#: was computed from other tables (the refresh step moves scores by ~0.05).
VERSION_SCORE_TOLERANCE = 1e-3


class Run:
    """State of one workload run (one deployment up at a time)."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 check: bool, workdir: str, tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.check = check
        self.tracer = tracer
        self.workdir = workdir
        self.scale = seconds / NOMINAL_SECONDS
        table_scale = 0.1 if check else 1.0
        self.num_queries = max(64, int(workload.num_queries * table_scale))
        self.num_services = max(256, int(workload.num_services * table_scale))
        self.queries, self.services = inputs.clustered_tables(
            self.num_queries, self.num_services, workload.dim, seed)
        #: Tables of the version that currently answers.
        self.live_tables = (self.queries, self.services)
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.phases: Dict[str, dict] = {}
        self.deployment: Optional[Deployment] = None
        self._segment_index = 0
        self._publish_index = 0
        #: Traced runs time the loop's idle share; untraced ones run the
        #: stock selector.
        self.selector = TimedSelector() if tracer is not None else None
        self.loop = asyncio.SelectorEventLoop(self.selector)
        asyncio.set_event_loop(self.loop)
        #: Untraced until the traced run installs its request-path seams.
        self.harness = Harness(self.loop)
        from repro.serving.gateway import DeadlineExceededError, OverloadError

        self._shed_errors = (OverloadError,)
        self._missed_errors = (DeadlineExceededError,)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def fail(self, check: str) -> None:
        self.failures.append(check)
        print(f"[e2e] FAILED CHECK {self.workload.name}: {check}",
              file=sys.stderr, flush=True)

    def count(self, requests: int) -> int:
        return max(CLIENTS if not self.check else 32, int(requests * self.scale))

    def outcome(self) -> Outcome:
        return Outcome(self._shed_errors, self._missed_errors)

    def next_ids(self, count: int) -> np.ndarray:
        """The next segment's query ids (every segment draws its own stream)."""
        self._segment_index += 1
        zipf = self.workload.traffic == "zipf"
        draw = inputs.zipf_ids if zipf else inputs.uniform_ids
        return draw(self.num_queries, count, self.seed, self._segment_index)

    def settle(self, name: str, outcome: Outcome, measured: bool) -> dict:
        """Check one finished segment's answers and ledger; book failures."""
        ledger = outcome.ledger
        invalid = oracle.invalid_answers(outcome.id_rows, TOP_K, self.num_services)
        if not ledger.balanced:
            self.fail(f"{name}: ledger does not balance {ledger.as_dict()}")
        if ledger.failed:
            self.fail(f"{name}: {ledger.failed} of {ledger.offered} requests not "
                      f"answered {ledger.as_dict()} first error: "
                      f"{outcome.first_error}")
        if invalid:
            self.fail(f"{name}: {invalid} answers are not {TOP_K} unique "
                      f"in-range ids")
        if measured:
            self.attempted += ledger.offered
            self.failed += ledger.failed + invalid
        return dict(ledger.as_dict(), invalid_answers=invalid)

    # ------------------------------------------------------------------ #
    # Boot / close
    # ------------------------------------------------------------------ #
    def boot(self) -> float:
        """Boot to ready: first constructor call to first correct answer."""
        probe_id = int(inputs.probe_ids(self.num_queries, 1, self.seed)[0])
        started = clock()
        self.deployment = boot(
            self.workload, self.queries, self.services, self.workdir)
        self.live_tables = (self.queries, self.services)
        ids, _ = self.loop.run_until_complete(self.deployment.call(0, probe_id))
        elapsed = clock() - started
        if oracle.invalid_answers([ids], TOP_K, self.num_services):
            self.fail("boot: first answer is not a valid top-k")
        return elapsed

    def close(self) -> None:
        deployment, self.deployment = self.deployment, None
        if deployment is not None:
            self.loop.run_until_complete(deployment.stop())
            deployment.close()

    # ------------------------------------------------------------------ #
    # Correctness probe
    # ------------------------------------------------------------------ #
    def probe(self, name: str) -> float:
        """Recall@k of seeded probe queries through the full request path."""
        queries, services = self.live_tables
        count = PROBE_QUERIES if not self.check else 64
        query_ids = inputs.probe_ids(self.num_queries, count, self.seed).tolist()
        call = self.deployment.call

        async def ask():
            return await asyncio.gather(
                *(call(index, query_id) for index, query_id in enumerate(query_ids)))

        answers = self.loop.run_until_complete(ask())
        id_rows = [ids for ids, _ in answers]
        exact_ids, _ = oracle.exact_top_k(queries, services, query_ids, TOP_K)
        recall = oracle.recall_at_k(id_rows, exact_ids)
        invalid = oracle.invalid_answers(id_rows, TOP_K, self.num_services)
        if invalid:
            self.fail(f"{name}: {invalid} probe answers are not valid top-k lists")
        floor = self.workload.recall_floor
        if floor is None:
            differing = oracle.id_parity(id_rows, exact_ids)
            if differing:
                self.fail(f"{name}: {differing} of {len(id_rows)} answers differ "
                          f"from the exact oracle")
        elif recall < floor and not self.check:
            self.fail(f"{name}: recall@{TOP_K} {recall:.4f} below floor {floor}")
        if self.workload.publish_offset_s is not None:
            error = oracle.score_error(queries, services, query_ids, answers)
            if error > VERSION_SCORE_TOLERANCE:
                self.fail(f"{name}: scores are off by {error:.4f} from the "
                          f"tables of store v{self.deployment.store.version}: "
                          f"stale or mixed version")
        self.phases[name] = {"recall_at_10": recall, "queries": len(query_ids)}
        return recall

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def closed(self, name: str, share: float, measured: bool) -> Tuple[float, dict]:
        count = self.count(self.workload.closed_requests * share)
        outcome = self.outcome()
        clients = CLIENTS if not self.check else 32
        wall = self.loop.run_until_complete(closed_segment(
            self.deployment.call, self.next_ids(count), clients, outcome,
            self.harness))
        ledger = self.settle(name, outcome, measured)
        qps = ledger["answered"] / wall
        return qps, dict(ledger, wall_s=wall, qps=qps)

    def _publisher(self):
        """A full durable publish of freshly perturbed tables."""
        self._publish_index += 1
        tables = inputs.perturbed_tables(
            self.queries, self.services, self.seed, self._publish_index)
        store = self.deployment.store
        record = {}

        def publish() -> None:
            started = record["started_at"] = clock()
            try:
                record["version"] = store.publish(*tables)
                self.live_tables = tables
            except Exception as error:  # reported by the loop thread
                record["error"] = f"{type(error).__name__}: {error}"
            record["publish_s"] = clock() - started

        return publish, record

    def open(self, name: str, share: float, measured: bool) -> dict:
        workload = self.workload
        count = self.count(workload.open_requests * share)
        if measured and not self.check:
            count = max(count, MIN_OPEN_SAMPLES)
        query_ids = self.next_ids(count)
        offsets = inputs.poisson_offsets(
            count, workload.open_rate, self.seed, self._segment_index)
        background = record = None
        if workload.publish_offset_s is not None:
            publish, record = self._publisher()
            offset = min(workload.publish_offset_s, 0.25 * float(offsets[-1]))
            background = (offset, publish)
        outcome = self.outcome()
        latency, lag, due_at = self.loop.run_until_complete(open_segment(
            self.deployment.call, query_ids, offsets, DEADLINE_S,
            outcome, self.harness, background))
        ledger = self.settle(name, outcome, measured)
        if record is not None:
            if "error" in record:
                self.fail(f"{name}: publish failed: {record['error']}")
            ledger["publish_s"] = record.get("publish_s")
            ledger["published_version"] = record.get("version")
            # The publisher shares this process (and its interpreter lock)
            # with the loop: once it starts, the generator is late because
            # the system stalls, and that wait is already in the latency
            # (counted from the due instant).  The generator's own lateness
            # is judged on the arrivals due before the publish began.
            lag = lag[due_at < record.get("started_at", 0.0)]
        p50, p99 = np.percentile(latency, [50, 99]) * 1e3
        lag_p99 = float(np.percentile(lag, 99)) * 1e3 if len(lag) else 0.0
        row = dict(ledger, samples=count, latency_p50_ms=float(p50),
                   latency_p99_ms=float(p99), generator_lag_ms_p99=lag_p99)
        return row


def _children_alive() -> List[str]:
    return [f"pid {child.pid}" for child in multiprocessing.active_children()]


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leak_check(run: Run, shm_before: set, threads_before: set) -> None:
    """After ``close()``: nothing of the deployment may survive."""
    deadline = clock() + 2.0
    while True:  # executor threads and reaped workers need a moment to go
        stray_threads = [
            thread.name for thread in threading.enumerate()
            if thread.ident not in threads_before and not thread.daemon
            and thread.is_alive()
        ]
        children = _children_alive()
        if not (stray_threads or children) or clock() > deadline:
            break
        time.sleep(0.05)
    if stray_threads:
        run.fail(f"leak: non-daemon threads survive close(): {stray_threads}")
    if children:
        run.fail(f"leak: child processes survive close(): {children}")
    stray_shm = sorted(_shm_segments() - shm_before)
    if stray_shm:
        run.fail(f"leak: /dev/shm segments survive close(): {stray_shm}")
    left = sorted(os.listdir(run.workdir))
    if left:
        run.fail(f"leak: temp dirs survive close(): {left}")


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its (reaped) children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 check: bool, workroot: str,
                 spans_path: Optional[str] = None) -> dict:
    """Run one workload end to end and return its payload."""
    workload = BY_NAME[name]
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    tempfile.tempdir = workdir  # anything the program spills lands in here
    wall_started = clock()
    tracer = None
    if traced:
        from .tracing import Tracer

        tracer = Tracer()
    run = Run(workload, seed, seconds, check, workdir, tracer)
    shm_before = _shm_segments()
    threads_before = {thread.ident for thread in threading.enumerate()}
    try:
        if traced:
            from .layers import traced_run

            metrics, detail = traced_run(run)
        else:
            metrics, detail = _plain_run(run)
        run.close()
        run.loop.run_until_complete(run.loop.shutdown_default_executor())
        leak_check(run, shm_before, threads_before)
    finally:
        try:
            run.close()
        except Exception as error:
            run.fail(f"close: {type(error).__name__}: {error}")
        run.loop.close()
        if tracer is not None:
            tracer.uninstall()
            if spans_path:
                _dump_spans(tracer, spans_path)
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    if not traced:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MiB"}
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "failures": run.failures,
        "metrics": metrics,
        "phases": run.phases,
        "detail": detail,
        "wall_s": clock() - wall_started,
    }


def _plain_run(run: Run) -> Tuple[dict, dict]:
    """The untraced run: the six end-to-end metrics."""
    boots: List[float] = []
    while True:
        boots.append(run.boot())
        if (len(boots) >= MAX_BOOTS or sum(boots) >= BOOT_BUDGET_S
                or run.check):
            break
        run.close()
    recall = run.probe("probe")

    # Warm both phases up, then alternate closed and open segments so each
    # phase samples the whole run, not one stretch of it.
    _, closed_warmup = run.closed("closed.warmup", WARMUP_SHARE, measured=False)
    open_warmup = run.open("open.warmup", WARMUP_SHARE, measured=False)
    closed_rows, open_rows = [], []
    for index in range(MEASURED_SEGMENTS):
        _, row = run.closed(f"closed.{index}", 1.0, measured=True)
        closed_rows.append(row)
        open_rows.append(run.open(f"open.{index}", 1.0, measured=True))
    run.phases["closed"] = {"segments": [closed_warmup] + closed_rows}
    run.phases["open"] = {"segments": [open_warmup] + open_rows}
    lag_p99 = steady([r["generator_lag_ms_p99"] for r in open_rows], "lower")
    if lag_p99 > MAX_GENERATOR_LAG_MS and not run.check:
        run.fail(f"open: generator lag p99 {lag_p99:.2f} ms exceeds "
                 f"{MAX_GENERATOR_LAG_MS} ms: the run is invalid")
    if run.workload.publish_offset_s is not None:
        recall = min(recall, run.probe("probe.after_publish"))

    qps_values = [row["qps"] for row in closed_rows]
    metrics = {
        "setup_s": {"value": statistics.median(boots), "unit": "s"},
        "qps": {"value": steady(qps_values, "higher"), "unit": "req/s"},
        "latency_p50_ms": {
            "value": steady([r["latency_p50_ms"] for r in open_rows], "lower"),
            "unit": "ms"},
        "latency_p99_ms": {
            "value": steady([r["latency_p99_ms"] for r in open_rows], "lower"),
            "unit": "ms"},
        "recall_at_10": {"value": recall, "unit": "ratio"},
    }
    detail = {"boots_s": boots, "qps_segments": qps_values,
              "generator_lag_ms_p99": lag_p99}
    return metrics, detail


def steady(values: List[float], better: str) -> float:
    """The least disturbed of the measured segments."""
    return max(values) if better == "higher" else min(values)


def _dump_spans(tracer, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(
                ("name", "start", "end", "busy", "id", "parent", "trace"),
                span))) + "\n")

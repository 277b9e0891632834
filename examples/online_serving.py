"""Online serving walk-through: deployment pipeline, A/B test and case study.

Mirrors Sec. V-F of the paper (Fig. 9 / Fig. 10 / Fig. 11):

1. train GARCIA and the deployed baseline (KGAT) offline,
2. print the case-study ranked lists (with MAU and rating) for two
   representative long-tail queries,
3. redeploy GARCIA behind the high-throughput gateway (ANN retrieval,
   micro-batching, result cache) and report QPS / latency / recall under a
   Zipf request load — the latency story behind the paper's inner-product
   deployment choice (Sec. V-F.1),
4. publish *quantized* snapshots (an int8 service table) and serve the
   same load through the IVF-PQ index, reporting the memory-vs-recall
   trade-off that lets one shard hold a far larger catalogue under the
   same daily-refresh contract,
5. scale out: deploy the same model across 4 shard workers behind the
   scatter/gather gateway (``repro.serving.sharded``) — per-shard top-K
   lists merge exactly, per-shard telemetry shows the near-uniform load,
   and a daily refresh hot-swaps every worker through the two-phase flip,
6. go asyncio-native: serve an *open-loop* Poisson arrival stream through
   ``await gateway.search_async(...)`` — thousands of requests can be in
   flight as futures on one event loop (no thread per wait), with a bounded
   admission queue, per-request deadlines and the new queue-depth /
   overload / deadline-miss telemetry,
7. run the Fig. 10 bucket test *through the gateway*
   (``repro.serving.abtest``) — sessions hash deterministically into a
   90/10 control/treatment split, each bucket is served by its own gateway
   arm (baseline exact scan vs GARCIA behind IVF), each day's sessions go
   through ``search_async`` as one burst, and the run reports the daily
   CTR / Valid-CTR improvement,
8. watch it run: redeploy the sharded tier with end-to-end tracing on
   (``repro.serving.obs``), replay traffic, then ask the flight recorder
   to *explain* the slowest request — the span tree from admission
   through per-shard scatter to the reply — poll the one-allocation
   health snapshot, and scrape the same telemetry as a Prometheus text
   exposition,
9. replicate it: deploy a 3-replica *fleet* behind the health-aware
   rendezvous router (``repro.serving.fleet``) and drive a chaos storm
   through it — one replica killed mid-storm, another stalled — proving
   the fleet contract live: every admitted session is answered or
   explicitly shed (none lost, none double-counted), the dead replica is
   ejected and its sessions fail over with their remaining deadline
   budget, and the stalled replica's backlog sheds on deadlines instead
   of wedging the fleet,
10. survive a restart: publish the quantized store **to disk**
    (``repro.serving.snapshot`` — chunked, checksummed, content-addressed,
    behind an atomically-flipped manifest pointer), run a daily refresh
    whose delta publish rewrites only the changed chunks, kill the
    process-pool workers, then warm-start a gateway *and* revive a dead
    fleet replica straight from the manifest — tables and codes are
    mmapped read-only, no re-quantization, and the ranked lists are
    bit-identical to the pre-kill deployment,
11. persist the trained index: deploy IVF-PQ with int8 integer scoring,
    persist the index — coarse cells, PQ codebooks and codes — as a
    sidecar beside the snapshot that carries the frozen int8 query scale,
    bound on-disk retention with ``keep_last``, then kill everything and
    warm-start — the restored gateway and a revived fleet replica serve
    the integer-scored codes bit-identically to the in-memory trainer,
    with zero retraining,
12. replicate over the wire: a host with an empty durable dir boots from a
    peer's ``SnapshotServer`` (manifest first, then only the missing
    chunks) and serves bit-identically; a re-fetch moves nothing.

Run with:  python examples/online_serving.py
"""

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.industrial import industrial_config
from repro.eval import format_float_table
from repro.eval.serving_metrics import (
    compression_report,
    summarize_gateway,
)
from repro.experiments.common import ExperimentSettings, build_model, train_model
from repro.pipeline import prepare_scenario
from repro.serving.abtest import (
    ABExperimentConfig,
    BucketRouter,
    OnlineABExperiment,
    close_arms,
)
from repro.serving.fleet import (
    ChaosController,
    ChaosEvent,
    FleetReplica,
    deploy_fleet,
)
from repro.serving.gateway import (
    DeadlineExceededError,
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
    build_index,
    deploy_gateway,
    zipf_query_ids,
)


def main() -> None:
    # Steps 10-12 write their snapshots under one scratch directory, which
    # is removed on exit even when an assert fails.
    with tempfile.TemporaryDirectory(prefix="garcia-") as scratch:
        walk_through(scratch)


def walk_through(scratch: str) -> None:
    settings = ExperimentSettings(scale="tiny", embedding_dim=16,
                                  pretrain_epochs=1, finetune_epochs=3, learning_rate=5e-3)

    print("1) Offline stage: generating data and training both buckets ...")
    scenario = prepare_scenario(industrial_config("Sep. A", scale=settings.scale))
    baseline = build_model("KGAT", scenario, settings)
    train_model(baseline, scenario, settings)
    garcia = build_model("GARCIA", scenario, settings)
    train_model(garcia, scenario, settings)

    print("2) Case study (Fig. 11 style): ranked lists for two long-tail queries\n")
    frequencies = scenario.dataset.query_frequencies()
    tail_ids = sorted(scenario.head_tail.tail_query_ids, key=lambda q: -frequencies[q])[:2]
    for query_id in tail_ids:
        query = scenario.dataset.query_by_id(query_id)
        print(f"Query: '{query.text}' (search PV {query.frequency})")
        rows = []
        for system, model in (("BASELINE", baseline), ("GARCIA", garcia)):
            for position, service_id in enumerate(model.rank(query_id, 5), start=1):
                service = scenario.dataset.service_by_id(service_id)
                rows.append(
                    {
                        "system": system,
                        "rank": position,
                        "service": service.name,
                        "MAU": service.mau,
                        "rating": "*" * service.rating,
                    }
                )
        print(format_float_table(rows))
        print()

    print("3) Gateway deployment: GARCIA behind ANN retrieval + micro-batching + cache\n")
    num_requests, batch_size, top_k = 2_000, 32, 5
    stream = zipf_query_ids(scenario.dataset.num_queries, num_requests,
                            exponent=1.1, seed=0)
    summaries = []
    # The tiny catalogue only has ~60 services, so the IVF index probes half
    # of its cells; at production scale (benchmarks/e2e's zipf_cached
    # workload) the probed fraction — and the speed-up — is far larger.
    ivf_params = dict(num_lists=8, num_probes=4)
    for mode, index, index_params, cache_capacity in (
        ("exact scan", "exact", None, 0),
        ("ivf", "ivf", ivf_params, 0),
        ("ivf+cache", "ivf", ivf_params, 4_096),
    ):
        gateway = deploy_gateway(garcia, index=index, index_params=index_params,
                                 top_k=top_k, max_batch_size=batch_size,
                                 cache_capacity=cache_capacity)
        started = time.perf_counter()
        for offset in range(0, len(stream), batch_size):
            gateway.rank_batch(stream[offset:offset + batch_size])
        elapsed = time.perf_counter() - started
        gateway.recall_probe(k=top_k, num_queries=256, seed=1)
        summaries.append(summarize_gateway(mode, gateway, elapsed_s=elapsed))
    print(format_float_table(
        [summary.as_row() for summary in summaries],
        title=f"Gateway load test: {num_requests} Zipf requests, "
              f"top-{top_k}, batch {batch_size}",
    ))
    ivf = summaries[1]
    print(f"\nIVF holds recall@{top_k} = {ivf.recall_at_k:.3f} at "
          f"{ivf.qps:,.0f} QPS (p99 {ivf.p99_ms:.2f} ms); the same A/B traffic "
          "above can be served straight from the gateway.  At this toy "
          "catalogue size the exact scan is still cheap — the traced "
          "benchmarks/e2e run prices each index kind at serving scale "
          "(iso.index.us_per_query.exact / .ivf).")

    print("\n4) Quantized serving: int8 snapshots behind the IVF-PQ index\n")
    # Toy-catalogue sizing: a ~60-service table needs few coarse cells, and
    # its PQ codebooks outweigh the codes they compress (at 12k services
    # the defaults amortize them away).
    ivfpq_params = dict(num_lists=8, num_probes=6, num_subspaces=4)
    gateway = deploy_gateway(garcia, index="ivfpq", index_params=ivfpq_params,
                             quantization=("int8",), top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0)
    started = time.perf_counter()
    for offset in range(0, len(stream), batch_size):
        gateway.rank_batch(stream[offset:offset + batch_size])
    elapsed = time.perf_counter() - started
    gateway.recall_probe(k=top_k, num_queries=256, seed=1)
    quant = summarize_gateway("ivfpq", gateway, elapsed_s=elapsed)
    snapshot = gateway.store.snapshot()
    int8_table = snapshot.int8
    # The gateway's index over this snapshot, rebuilt with its parameters
    # (every fit is seeded, so this is the same index, byte for byte): PQ
    # codes, codebooks, cells and the shared int8 refinement table.
    ivfpq = build_index("ivfpq", snapshot.all_services(),
                        int8_table=int8_table, **ivfpq_params)
    print(format_float_table(
        compression_report(snapshot.all_services(), {
            "int8 table": int8_table,
            "ivfpq index": ivfpq,
        }),
        title="Published int8 table and the IVF-PQ index (float32 baseline)",
    ))
    print(f"\nIVF-PQ serves the same Zipf load at {quant.qps:,.0f} QPS with "
          f"recall@{top_k} = {quant.recall_at_k:.3f}; the int8 table and the "
          "index built from it hot-swap atomically with every daily refresh "
          "(Sec. V-F / Fig. 9). "
          "benchmarks/e2e's ivfpq_uniform workload measures this index at "
          "24k services; tests/test_quantized_serving.py holds the memory "
          "and recall floors.")

    print("\n5) Sharded serving: one worker per shard, scatter/gather top-K\n")
    gateway = deploy_gateway(garcia, index="exact", num_shards=4,
                             workers="thread", top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0)
    started = time.perf_counter()
    for offset in range(0, len(stream), batch_size):
        gateway.rank_batch(stream[offset:offset + batch_size])
    elapsed = time.perf_counter() - started
    gateway.recall_probe(k=top_k, num_queries=256, seed=1)
    sharded = summarize_gateway("sharded exact", gateway, elapsed_s=elapsed)
    print(format_float_table(
        [sharded.as_row()],
        title=f"Sharded gateway ({gateway.num_shards} shards, "
              f"{gateway.workers} workers)",
    ))
    print("\n" + format_float_table(
        gateway.telemetry.shard_rows(), title="Per-shard breakdown"))
    version = gateway.hot_swap_from_model(garcia)
    print(f"\nExact per-shard scans keep recall@{top_k} = "
          f"{sharded.recall_at_k:.3f} (the merge preserves single-index "
          f"results bit for bit), and the daily refresh hot-swapped every "
          f"worker to v{version} through the two-phase flip — each worker "
          "prepared the new tables before the version became visible, so no "
          "request ever saw mixed versions.  benchmarks/e2e's "
          "sharded_process workload measures the scatter/gather tier over "
          "worker processes.")
    gateway.close()

    print("\n6) Asyncio-native front-end: open-loop load, bounded admission\n")
    # One event loop holds every in-flight request as a future — no thread
    # per wait — while the same micro-batch deadlines coalesce the scoring.
    # The admission queue is bounded (overload sheds with OverloadError) and
    # every request carries a deadline (missed ones are shed *before*
    # scoring), so the gateway degrades by shedding, not by collapsing.
    gateway = deploy_gateway(garcia, index="exact", top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0,
                             max_queue=512, overload="reject",
                             default_deadline_s=0.25)
    offered_qps = 4_000.0
    # The open-loop protocol (what benchmarks/e2e's drivers do at scale),
    # spelled out inline against the public gateway API.
    stats = {"completed": 0, "rejected": 0, "missed": 0,
             "in_flight": 0, "peak": 0}

    async def one_request(query_id: int) -> None:
        stats["in_flight"] += 1
        stats["peak"] = max(stats["peak"], stats["in_flight"])
        try:
            await gateway.search_async(int(query_id))
        except OverloadError:
            stats["rejected"] += 1
        except DeadlineExceededError:
            stats["missed"] += 1
        else:
            stats["completed"] += 1
        finally:
            stats["in_flight"] -= 1

    async def open_loop() -> float:
        # Poisson arrivals at the offered rate, submitted whether or not
        # earlier requests finished — real user traffic does not wait.
        gaps = np.random.default_rng(2).exponential(1.0 / offered_qps,
                                                    size=len(stream))
        loop = asyncio.get_running_loop()
        next_at = loop.time()
        tasks = []
        started = time.perf_counter()
        for gap, query_id in zip(gaps, stream):
            next_at += float(gap)
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one_request(query_id)))
        await asyncio.gather(*tasks)
        await gateway.stop_async()
        return time.perf_counter() - started

    elapsed = asyncio.run(open_loop())
    summary = gateway.summary()
    print(f"Offered {offered_qps:,.0f} QPS (Poisson, open loop): "
          f"{stats['completed']} completed in {elapsed:.2f}s "
          f"({stats['completed'] / elapsed:,.0f} sustained QPS), "
          f"p99 {summary['p99_ms']:.2f} ms")
    print(f"Peak in-flight {stats['peak']} on one loop; queue depth peaked at "
          f"{summary['queue_depth_max']:.0f}/512; shed "
          f"{stats['rejected']} overloaded + {stats['missed']} past-deadline "
          "requests before scoring.")
    print("\nThe same gateway still answers sync callers (rank/search) "
          "through the identical async core — one request path, two calling "
          "conventions.  Every benchmarks/e2e workload drives this "
          "coroutine path open-loop at serving scale.")
    gateway.close()

    print("\n7) Gateway-backed A/B: the Fig. 10 bucket test through the "
          "serving stack\n")
    # The bucket test runs on the serving tier of steps 3-6: deterministic
    # session hashing splits traffic 90/10, and each bucket is a real
    # gateway deployment (its own model AND its own scoring config).
    router = BucketRouter(
        {"control": 0.9, "treatment": 0.1},
        arms={
            "control": deploy_gateway(baseline, index="exact", top_k=top_k,
                                      cache_capacity=0),
            "treatment": deploy_gateway(garcia, index="ivf",
                                        index_params=ivf_params, top_k=top_k,
                                        cache_capacity=0),
        },
        salt=0,
    )
    experiment = OnlineABExperiment(
        scenario.dataset, scenario.oracle, router,
        config=ABExperimentConfig(num_days=3, sessions_per_day=600, top_k=top_k,
                                  seed=0),
    )
    report = experiment.run(start_date="2022/10/01")
    print(format_float_table(
        report.joint_rows(),
        title="Daily CTR per bucket + relative improvement (%)"))
    outcome = report.ab_result()
    print(f"\nGARCIA's bucket ({report.sessions['treatment']} of "
          f"{sum(report.sessions.values())} sessions) gains "
          f"{outcome.absolute_ctr_gain():+.3f} pp CTR "
          f"({outcome.absolute_valid_ctr_gain():+.3f} pp Valid CTR) — the "
          "paper's +0.79 pp week-long bucket test (Fig. 10), replayed "
          "through the gateway tier.  tests/test_gateway_abtest.py holds "
          "the structural contract (every session answered or shed once, "
          "stable assignment).")
    close_arms(router)

    print("\n8) Observability: trace the sharded tier, explain the slowest "
          "request\n")
    # Every request is traced (sample_every=1, slow threshold 0 ms keeps
    # them all) through the sharded scatter/gather path; batch-level spans
    # are recorded once per batch and grafted into each member trace, so
    # tracing every request still costs ~2 us each.
    gateway = deploy_gateway(garcia, index="exact", num_shards=4,
                             workers="thread", top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0,
                             tracing=True, trace_sample_every=1,
                             slow_trace_ms=0.0)

    async def traced_traffic() -> None:
        for offset in range(0, 512, batch_size):
            await asyncio.gather(*(
                gateway.search_async(int(query_id))
                for query_id in stream[offset:offset + batch_size]
            ))
        await gateway.stop_async()

    asyncio.run(traced_traffic())
    recorder = gateway.flight_recorder
    print(f"Flight recorder: kept {len(recorder)} of "
          f"{recorder.stats()['seen']:.0f} traces (every trace qualifies "
          "here; the bounded ring then holds only the most recent).")
    print("\nSlowest request, explained:\n")
    print(gateway.explain(recorder.slowest()))
    health = gateway.health()
    print("\nHealth snapshot (poll-cheap, fleet-router feed):")
    for key, value in health.as_dict().items():
        print(f"  {key:>20s} = {value:.3f}")
    exposition = gateway.telemetry.export_prometheus()
    lines = exposition.splitlines()
    print(f"\nPrometheus exposition ({len(lines)} lines; first 10):")
    for line in lines[:10]:
        print(f"  {line}")
    print("\nThe same numbers round-trip through "
          "gateway.telemetry.export_json() — raw histogram bucket counts "
          "included, so a scraper can recompute any quantile.  Memory stays "
          "O(buckets + flight-ring capacity) no matter how long the replica "
          "runs.")
    gateway.close()

    print("\n9) Fleet: 3 replicas, rendezvous routing, a chaos storm\n")
    # Three gateway replicas share one versioned store behind the
    # health-aware router: each session has a rendezvous owner, a dead
    # owner's sessions fail over with their remaining deadline budget, and
    # health probes (run lazily from the request path) eject it from the
    # serving set.  The chaos controller injects the faults mid-storm.
    fleet = deploy_fleet(garcia, num_replicas=3, index="exact", top_k=top_k,
                         max_batch_size=batch_size, cache_capacity=0,
                         max_queue=256, overload="reject",
                         default_deadline_s=0.25)
    num_sessions, storm_qps = 900, 1_500.0
    expected_s = num_sessions / storm_qps
    ChaosController(fleet, [
        ChaosEvent(at_s=0.2 * expected_s, action="kill", replica="replica-1"),
        ChaosEvent(at_s=0.5 * expected_s, action="stall", replica="replica-2",
                   duration_s=0.08),
    ])
    ledger = {"completed": 0, "rejected": 0, "missed": 0}

    async def one_session(session: int) -> None:
        try:
            await fleet.search_async(int(stream[session % len(stream)]),
                                     session_id=session)
        except OverloadError:
            ledger["rejected"] += 1
        except DeadlineExceededError:
            ledger["missed"] += 1
        else:
            ledger["completed"] += 1

    async def storm() -> None:
        gaps = np.random.default_rng(11).exponential(1.0 / storm_qps,
                                                     size=num_sessions)
        loop = asyncio.get_running_loop()
        next_at = loop.time()
        tasks = []
        fleet.chaos.arm()
        for session, gap in zip(range(num_sessions), gaps):
            next_at += float(gap)
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one_session(session)))
        await asyncio.gather(*tasks)
        await fleet.stop_async()

    asyncio.run(storm())
    summary = fleet.summary()
    print(format_float_table(fleet.replica_rows(),
                             title="Replica membership after the storm"))
    accounted = sum(ledger.values())
    print(f"\nOffered {num_sessions} sessions through the storm: "
          f"{ledger['completed']} answered, {ledger['rejected']} shed, "
          f"{ledger['missed']} past-deadline — {accounted} accounted, "
          f"{num_sessions - accounted} lost.")
    print(f"The router failed over {summary['failovers']:.0f} in-flight "
          f"request(s) from the killed replica, ejected "
          f"{summary['ejections']:.0f} replica(s), and fleet telemetry "
          f"counts {summary['requests']:.0f} answered requests — exactly "
          "the sessions answered above, so no retry was double-counted. "
          "tests/test_fleet_serving.py gates this contract through a kill "
          "and through a stall; benchmarks/e2e's fleet_refresh workload "
          "measures the fleet under a mid-traffic publish.")
    fleet.close()

    print("\n10) Durable snapshots: publish to disk, kill the workers, "
          "warm-start from the manifest\n")
    # Everything so far rebuilt the store from the model on every deploy —
    # a restart re-quantizes the whole catalogue (int8 scales) before the
    # first request.  ``durable_dir`` persists every published version as
    # checksummed, content-addressed chunks behind an atomically-flipped
    # MANIFEST pointer, and a warm start mmaps them back.
    snap_dir = tempfile.mkdtemp(prefix="snapshots-", dir=scratch)
    gateway = deploy_gateway(garcia, index="int8", num_shards=4,
                             workers="process", quantization=("int8",),
                             durable_dir=snap_dir, top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0)
    probe_ids = [int(stream[i]) for i in range(8)]
    before_kill = [gateway.rank(query_id, top_k) for query_id in probe_ids]
    print(f"Deployed 4 process-backed shards publishing durably to "
          f"{snap_dir} (version {gateway.store.version}).")

    # A stale replica built from version 0, then killed — it will sleep
    # through the daily refresh and catch up from the manifest on revive.
    stale = VersionedEmbeddingStore.restore(snap_dir)
    replica = FleetReplica("lazarus", ServingGateway(stale, index="exact",
                                                     top_k=top_k,
                                                     cache_capacity=0))
    replica.kill()

    # Daily refresh: the service tables are unchanged, so the delta publish
    # rewrites only the drifted query chunks — every service-side chunk
    # (fp, int8 codes/scales) is shared with v0.
    snapshot = gateway.store.snapshot()
    drifted = snapshot.queries + np.float32(0.01)
    version = gateway.store.publish(drifted, snapshot.services)
    after_refresh = [gateway.rank(query_id, top_k) for query_id in probe_ids]
    print(f"Daily refresh published version {version}: every process "
          "worker was handed its shard's rows before the flip, and only the "
          "changed query chunks hit the disk.")

    gateway.close()  # kills every process-pool worker; the manifest survives
    warm = deploy_gateway(warm_start=snap_dir, index="int8", top_k=top_k,
                          max_batch_size=batch_size, cache_capacity=0)
    after_warm = [warm.rank(query_id, top_k) for query_id in probe_ids]
    assert after_warm == after_refresh, "warm start must be bit-identical"
    print(f"Killed the workers, then warm-started {warm.store.num_shards} "
          f"shards at version {warm.store.version} from the manifest — no "
          "re-quantization, tables mmapped read-only, ranked lists "
          "bit-identical to the pre-kill deployment.")
    warm.close()

    # The dead replica revives *through* the same manifest: one call clears
    # its faults and hydrates the store through the two-phase flip.
    revived_version = replica.revive(warm_start=snap_dir)
    assert revived_version == version and not replica.faulted
    print(f"Revived the dead fleet replica from the manifest: it slept "
          f"through the refresh at version 0 and woke up serving version "
          f"{revived_version}.  tests/test_snapshot_store.py gates the "
          "bit-identical contract and that a warm boot runs no quantizer "
          "or k-means fit at all.")
    replica.close()

    print("\n11) IVF-PQ + integer scoring, snapshot round-trip\n")
    # The int8 path scores with integer arithmetic end to end under a
    # query-quantization step frozen at publish time.  Both trained
    # artifacts are content-addressed chunks: the query scale rides with the
    # snapshot's int8 table, the IVF-PQ cells and codebooks with the index's
    # sidecar, so a restart serves the codes without retraining anything.
    ivfpq_dir = tempfile.mkdtemp(prefix="ivfpq-snapshots-", dir=scratch)
    ivfpq_params = dict(num_lists=8, num_probes=6, num_subspaces=4,
                        num_centroids=16)
    gateway = deploy_gateway(garcia, index="ivfpq", index_params=ivfpq_params,
                             quantization=("int8",), durable_dir=ivfpq_dir,
                             keep_last=2, top_k=top_k,
                             max_batch_size=batch_size, cache_capacity=0)

    # keep_last=2 bounds retention: three daily refreshes later, only the
    # newest two manifests (plus the live pointer target) remain on disk.
    for _ in range(3):
        snapshot = gateway.store.snapshot()
        gateway.store.publish(snapshot.queries + np.float32(0.001),
                              snapshot.services)
    manifests = sorted(
        p.name for p in (Path(ivfpq_dir) / "manifests").glob("v*.json")
        if "-index-" not in p.name)
    print(f"Three refreshes with keep_last=2 left {manifests} on disk — "
          "older manifests and their unreferenced chunks were pruned after "
          "each activate.")
    after_refresh = [gateway.rank(query_id, top_k) for query_id in probe_ids]
    # Persist the trained index (coarse centroids, slot layout, codebooks
    # and codes) so the warm start below restores it instead of re-running
    # k-means.
    gateway.persist_index()
    snapshot = gateway.store.snapshot()
    meta, arrays = snapshot.durable.load_index(
        "ivfpq", int8_table=snapshot.int8).export_state()
    codebooks = arrays["codebooks"]
    print(f"Persisted the IVF-PQ index at version {snapshot.version}: "
          f"{arrays['centroids'].shape[0]} cells, {codebooks.shape[0]} "
          f"codebooks of {codebooks.shape[1]} centroids in its sidecar; int8 "
          f"query scale frozen = {snapshot.int8.query_scale:.6f}.")
    gateway.close()

    warm = deploy_gateway(warm_start=ivfpq_dir, index="ivfpq", top_k=top_k,
                          max_batch_size=batch_size, cache_capacity=0)
    after_warm = [warm.rank(query_id, top_k) for query_id in probe_ids]
    assert after_warm == after_refresh, "IVF-PQ warm start must be bit-identical"
    warm.close()

    replica = FleetReplica("ivfpq-lazarus", ServingGateway(
        VersionedEmbeddingStore.restore(ivfpq_dir), index="ivfpq",
        top_k=top_k, cache_capacity=0))
    replica.kill()
    replica.revive(warm_start=ivfpq_dir)
    revived = [replica.gateway.rank(query_id, top_k) for query_id in probe_ids]
    assert revived == after_refresh, "revived replica must serve identically"
    replica.close()
    print("Warm-started gateway AND revived fleet replica rank the probe "
          "queries bit-identically to the in-memory trainer: the cells, the "
          "codebooks and the frozen query scale all came back off the "
          "mmapped chunks — no k-means, no re-quantization at boot.  "
          "tests/test_opq_integer_scoring.py gates the integer path's error "
          "bound and the int8 refinement's recall lift over plain PQ.")

    print("\n12) Wire replication: an empty-disk replica boots from a peer\n")
    # Every durable trick so far assumed the host already owned the disk.
    # A brand-new host joining the fleet has *nothing* — no chunks, no
    # manifest, no pointer.  A SnapshotServer on any healthy host serves
    # its durable dir over a framed socket protocol, and deploy_gateway
    # pulls it down (manifest first, then only the chunks absent locally,
    # each checksum-verified before it lands) before the usual mmap boot.
    from repro.serving.snapshot import SnapshotFetcher, SnapshotServer

    empty_dir = tempfile.mkdtemp(prefix="newhost-", dir=scratch)
    with SnapshotServer(ivfpq_dir) as server:
        newcomer = deploy_gateway(warm_start=empty_dir, index="ivfpq",
                                  remote_peer=server.address, top_k=top_k,
                                  max_batch_size=batch_size, cache_capacity=0)
        hydrated = [newcomer.rank(query_id, top_k) for query_id in probe_ids]
        assert hydrated == after_refresh, "wire hydration must be bit-identical"
        newcomer.close()

        # Content addressing makes the second fetch a no-op: every chunk
        # the live manifest references already landed, so nothing moves.
        refetch = SnapshotFetcher(server.address, empty_dir).fetch()
        assert refetch.chunks_fetched == 0 and refetch.bytes_fetched == 0
    print(f"A host with an empty durable dir booted bit-identically from "
          f"the peer — trained IVF-PQ sidecar included — and a re-fetch "
          f"moved {refetch.bytes_fetched} bytes ({refetch.chunks_already_local} "
          "chunks already local).  A fetch killed mid-stream resumes without "
          "re-transferring landed chunks, and the server pins the version it "
          "is streaming so keep_last pruning can never delete it mid-fetch: "
          "tests/test_snapshot_replication.py drills the full fault matrix "
          "and gates the delta economics (< 50% of cold-fetch bytes) plus "
          "hydrate parity.")


if __name__ == "__main__":
    main()

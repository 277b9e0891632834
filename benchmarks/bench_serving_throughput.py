"""Benchmark: serving gateway throughput under a Zipf query load.

The paper's deployment argument (Sec. V-F.1) is that exact scoring is too
slow online, so retrieval must become a (maximum-inner-product) index
lookup.  This bench quantifies that trade-off on our own gateway: the same
Zipf-distributed request stream is pushed through the exact scan and the
IVF coarse-quantizer index at a 10k+ service catalogue, reporting QPS,
p50/p99 latency and recall@10 against the exact scan.  A third run
re-enables the LRU+TTL result cache on the IVF gateway to show what request
skew is worth.

Expected shape: IVF beats the exact scan on QPS while holding
recall@10 >= 0.9; caching multiplies throughput again on a Zipf load.
Results are printed as a table and persisted as JSON to
``benchmarks/results/serving_throughput.json``.

Runnable standalone with the uniform bench flags::

    python -m benchmarks.bench_serving_throughput [--smoke] [--seed N] [--out P]

``--smoke`` is the CI perf gate: a reduced catalogue, the same recall
floors (exact == 1.0, IVF >= 0.95), no wall-clock ordering asserts (CI
runners are noisy neighbours by construction).
"""

import json

from benchmarks.bench_args import RESULTS_DIR, parse_bench_args, require, write_json
from benchmarks.serving_load import drive, make_workload
from repro.eval.reporting import format_float_table
from repro.eval.serving_metrics import load_test_rows, summarize_gateway
from repro.serving.gateway import ServingGateway, VersionedEmbeddingStore

#: Full scale: the tracked results/serving_throughput.json workload.
FULL = dict(num_queries=2_000, num_services=12_000, dim=48,
            num_requests=4_096, batch_size=64, top_k=10)
#: Smoke scale: small enough for a per-PR CI gate, large enough that the
#: ANN recall floors are meaningful.
SMOKE = dict(num_queries=500, num_services=4_000, dim=48,
             num_requests=1_024, batch_size=64, top_k=10)

MODES = {
    "exact": dict(index="exact", index_params=None, cache_capacity=0),
    "ivf": dict(index="ivf", index_params=None, cache_capacity=0),
    "ivf+cache": dict(index="ivf", index_params=None, cache_capacity=4_096),
}


def run_load_test(params=None, seed=0):
    params = params or FULL
    queries, services, stream = make_workload(params, seed)
    batch_size, top_k = params["batch_size"], params["top_k"]
    summaries = []
    for mode, config in MODES.items():
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        gateway = ServingGateway(
            store, index=config["index"], index_params=config["index_params"],
            top_k=top_k, max_batch_size=batch_size,
            cache_capacity=config["cache_capacity"],
        )
        elapsed = drive(gateway, stream, batch_size)
        gateway.recall_probe(k=top_k,
                             num_queries=min(512, params["num_queries"]),
                             seed=seed + 2)
        summaries.append(summarize_gateway(mode, gateway, elapsed_s=elapsed))
    return summaries


def build_payload(params, rows, by_mode, seed, smoke):
    return {
        "workload": dict(params, distribution="zipf(1.1)"),
        "seed": seed,
        "smoke": smoke,
        "results": rows,
        "qps_ratio_ivf_vs_exact": by_mode["ivf"].qps / by_mode["exact"].qps,
    }


def test_serving_throughput(benchmark):
    summaries = benchmark.pedantic(run_load_test, rounds=1, iterations=1)
    by_mode = {summary.mode: summary for summary in summaries}
    if (by_mode["ivf"].qps <= by_mode["exact"].qps
            or by_mode["ivf+cache"].qps <= by_mode["ivf"].qps):
        # Wall-clock orderings can lose to a noisy neighbour; one retry
        # separates a loaded machine from a real regression.
        summaries = run_load_test()
        by_mode = {summary.mode: summary for summary in summaries}
    rows = load_test_rows(summaries)
    text = format_float_table(
        rows, title=f"Gateway load test: {FULL['num_requests']} Zipf requests, "
                    f"{FULL['num_services']} services, dim {FULL['dim']}, "
                    f"K={FULL['top_k']}"
    )
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = build_payload(FULL, rows, by_mode, seed=0, smoke=False)
    (RESULTS_DIR / "serving_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The paper's latency argument, reproduced: the ANN index outruns the
    # exact scan at 10k+ services without giving up meaningful recall.
    assert by_mode["ivf"].qps > by_mode["exact"].qps
    assert by_mode["ivf"].recall_at_k >= 0.9
    assert by_mode["exact"].recall_at_k == 1.0
    # Request skew makes the result cache pay for itself.
    assert by_mode["ivf+cache"].cache_hit_rate > 0.2
    assert by_mode["ivf+cache"].qps > by_mode["ivf"].qps


def main(argv=None):
    args = parse_bench_args("serving_throughput", __doc__, argv)
    params = SMOKE if args.smoke else FULL
    summaries = run_load_test(params, seed=args.seed)
    by_mode = {summary.mode: summary for summary in summaries}
    rows = load_test_rows(summaries)
    label = "smoke" if args.smoke else "full"
    print(format_float_table(
        rows, title=f"Gateway load test ({label}): "
                    f"{params['num_requests']} Zipf requests, "
                    f"{params['num_services']} services, K={params['top_k']}"
    ))
    write_json(args.out, build_payload(params, rows, by_mode,
                                       seed=args.seed, smoke=args.smoke))
    print(f"wrote {args.out}")

    # Recall floors hold at either scale; wall-clock orderings are only
    # asserted at full scale on a quiet machine (the pytest path).
    require(by_mode["exact"].recall_at_k == 1.0, "exact recall must be 1.0")
    require(by_mode["ivf"].recall_at_k >= 0.95,
            f"IVF recall@{params['top_k']} {by_mode['ivf'].recall_at_k:.3f} < 0.95")
    require(by_mode["ivf+cache"].cache_hit_rate > 0.2,
            "Zipf load must produce cache hits")
    print("bench gates passed")


if __name__ == "__main__":
    main()

"""Benchmark: regenerate Fig. 10 (online A/B test, GARCIA vs deployed baseline).

Paper shape to reproduce: GARCIA's bucket shows a positive relative CTR and
Valid-CTR improvement on every day of the week-long test (+0.79 pp CTR and
+0.60 pp Valid CTR aggregated in the paper).

Runnable two ways with identical semantics: under pytest-benchmark (the
tracked full-scale path) or standalone with the uniform bench flags::

    python -m benchmarks.bench_fig10_online_ab [--smoke] [--seed N] [--out P]

The standalone path's gates are structural (seven finite improvement rows
at full scale, three in ``--smoke``) because at tiny training scale the
day-level sign fluctuates with the schedule and seed (see EXPERIMENTS.md).
The bucket test replayed *through the serving stack* — per-bucket latency
and cost from the same traffic — is ``repro.serving.abtest``, exercised by
``tests/test_gateway_abtest.py`` and step 9 of ``examples/online_serving.py``.
"""

import numpy as np

from benchmarks.bench_args import parse_bench_args, require, write_json
from repro.eval.reporting import format_float_table
from repro.experiments import fig10_online_ab
from repro.experiments.common import ExperimentSettings

#: Full scale: the pytest-benchmark workload (and the standalone default).
FULL = dict(num_days=7, sessions_per_day=500, top_k=5,
            pretrain_epochs=2, finetune_epochs=4)
#: Smoke scale: a per-PR gate — fewer days, lighter training.
SMOKE = dict(num_days=3, sessions_per_day=200, top_k=5,
             pretrain_epochs=1, finetune_epochs=2)


def run_experiment(params: dict, seed: int = 0, settings=None):
    settings = settings if settings is not None else ExperimentSettings(
        scale="tiny",
        seed=seed,
        pretrain_epochs=params["pretrain_epochs"],
        finetune_epochs=params["finetune_epochs"],
    )
    return fig10_online_ab.run(
        settings,
        baseline_model="KGAT",
        num_days=params["num_days"],
        sessions_per_day=params["sessions_per_day"],
        top_k=params["top_k"],
    )


def test_fig10_online_ab_test(benchmark, bench_settings):
    from benchmarks.conftest import report_result

    result = benchmark.pedantic(
        lambda: run_experiment(FULL, settings=bench_settings),
        rounds=1,
        iterations=1,
    )
    report_result(result)
    assert len(result.rows) == 7
    improvements = result.series["ctr_improvement_pct"]
    assert all(np.isfinite(value) for value in improvements)
    assert all(np.isfinite(value) for value in result.series["valid_ctr_improvement_pct"])
    # At tiny bench scale the day-level sign fluctuates with the training
    # schedule and seed (see EXPERIMENTS.md); the structural check here is
    # that both buckets received traffic and the improvement series is sane.
    assert all(abs(value) < 100.0 for value in improvements)


def main(argv=None):
    args = parse_bench_args("fig10_online_ab", __doc__, argv)
    params = SMOKE if args.smoke else FULL
    result = run_experiment(params, seed=args.seed)
    label = "smoke" if args.smoke else "full"
    print(format_float_table(
        result.rows,
        title=f"{result.title} ({label}: {params['sessions_per_day']} "
              f"sessions/day x {params['num_days']} days)",
    ))
    if result.notes:
        print(f"notes: {result.notes}")
    payload = {
        "workload": dict(params),
        "seed": args.seed,
        "smoke": args.smoke,
        "rows": result.rows,
        "series": result.series,
        "notes": result.notes,
    }
    write_json(args.out, payload)
    print(f"wrote {args.out}")

    improvements = result.series["ctr_improvement_pct"]
    valid = result.series["valid_ctr_improvement_pct"]
    require(len(result.rows) == params["num_days"],
            f"expected {params['num_days']} daily rows, got {len(result.rows)}")
    require(all(np.isfinite(value) for value in improvements + valid),
            "improvement series must be finite (both buckets saw traffic)")
    require(all(abs(value) < 100.0 for value in improvements),
            "daily CTR improvement out of the sane range for this scale")
    print("bench gates passed")


if __name__ == "__main__":
    main()

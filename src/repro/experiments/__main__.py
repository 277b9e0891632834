"""Run one paper experiment and gate its shape.

    python -m repro.experiments <id> [--seeds N ...] [--out PATH]

``<id>`` is a driver's module name (``table3_auc``, ``fig10_online_ab``,
...; ``--help`` lists them all).  Each seed runs
``driver.run(ExperimentSettings(seed=N))`` with every other knob at its
default, prints the result's table, notes and series, and passes
the result to ``driver.check``.  With ``--out`` the runner writes one JSON
holding the experiment id, the settings, the host (``cpu_count`` and the
BLAS thread variables as set) and one ``{seed, wall_s, rows, series,
notes}`` entry per seed.  The JSON is written before the gates are judged:
the exit status is 1 if any seed failed any check, each failure named on
stderr, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

from repro.eval.reporting import format_float_table
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult, ExperimentSettings

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def format_result(result: ExperimentResult) -> str:
    """The result's table, then its notes and one line per series."""
    lines = [format_float_table(result.rows, title=result.title)]
    if result.notes:
        lines.append(f"notes: {result.notes}")
    for name, series in result.series.items():
        formatted = ", ".join("nan" if v != v else f"{v:.4f}" for v in series)
        lines.append(f"series {name}: [{formatted}]")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="one run each")
    parser.add_argument("--out", type=pathlib.Path, help="write the runs as JSON")
    args = parser.parse_args(argv)

    driver = EXPERIMENTS[args.experiment]
    runs, failures = [], []
    for seed in args.seeds:
        started = time.perf_counter()
        result = driver.run(ExperimentSettings(seed=seed))
        wall_s = time.perf_counter() - started
        print(f"\n{args.experiment} seed {seed} ({wall_s:.1f} s)")
        print(format_result(result))
        runs.append(dict(seed=seed, wall_s=round(wall_s, 3), rows=result.rows,
                         series=result.series, notes=result.notes))
        failures += [f"seed {seed}: {message}" for message in driver.check(result)]

    if args.out is not None:
        base = ExperimentSettings()
        # The GARCIA config as the drivers build it; each run carries its seed.
        settings = {**asdict(base), "garcia": asdict(base.garcia_config())}
        del settings["seed"], settings["garcia"]["seed"]
        payload = {
            "experiment": args.experiment,
            "settings": settings,
            "host": {
                "cpu_count": os.cpu_count(),
                **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            },
            "runs": runs,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")

    for failure in failures:
        print(f"CHECK FAILED: {args.experiment} {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

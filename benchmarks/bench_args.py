"""Script-mode helpers for the paper-figure benches.

``bench_fig10_online_ab.py`` runs standalone (``python -m
benchmarks.bench_fig10_online_ab [--smoke] [--seed N] [--out PATH]``) as
well as under pytest-benchmark; its flag parser, JSON writer and exit-code
gate live here, next to :data:`RESULTS_DIR`, which ``benchmarks/conftest.py``
also imports.  No pytest dependency, so the script entry point stays
importable in minimal environments.  The serving stack is benchmarked by
``benchmarks/e2e`` (see ``BENCHMARK.json``), not from here.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Optional, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def parse_bench_args(
    name: str,
    description: str,
    argv: Optional[Sequence[str]] = None,
) -> argparse.Namespace:
    """Parse the script-mode flags: ``--seed``, ``--out``, ``--smoke``.

    ``name`` is the bench's result stem — the default ``--out`` is
    ``benchmarks/results/<name>.json``, the file the full-scale run tracks.
    """
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="experiment seed",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=RESULTS_DIR / f"{name}.json",
        help="JSON output path (default: %(default)s)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload, same structural gates",
    )
    return parser.parse_args(argv)


def write_json(path: pathlib.Path, payload: dict) -> None:
    """Persist one bench payload, creating the results directory on demand."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def require(condition: bool, message: str) -> None:
    """Assert-like gate that survives ``python -O``: exit non-zero on failure."""
    if not condition:
        raise SystemExit(f"BENCH GATE FAILED: {message}")

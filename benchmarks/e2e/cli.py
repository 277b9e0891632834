"""Command line of the benchmark.

::

    PYTHONPATH=src python -m benchmarks.e2e --seed N [--workload NAME]
        [--traced | --trace 0|1] [--seconds S] [--out PATH] [--spans DIR]
    python -m benchmarks.e2e --check
    python -m benchmarks.e2e compare A.json B.json

Every workload runs in a fresh child interpreter (one BLAS thread), so the
memory high-water mark and any leak are per workload.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
#: Scratch space of the runs, inside the checkout (see .gitignore).
WORKROOT = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc keeps freed memory in the process, in one arena: no block is served
#: by mmap, the heap is never trimmed, and a thread started later (every
#: publish runs on its own) finds the blocks earlier ones freed.  Handed back
#: to the kernel, every large numpy temporary is mapped afresh, and on a
#: virtual machine whose host takes free guest pages away the price of those
#: page faults is the host's to set: the same 6 800 faults of one index
#: rebuild took 0.02 to 0.39 s of system time within one run, more than any
#: difference this benchmark is meant to show.
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    env.update(MALLOC_ENV)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "malloc": MALLOC_ENV,
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              check: bool, spans: Optional[str]) -> dict:
    """Run one workload in a fresh interpreter and return its payload."""
    command = [
        sys.executable, str(PACKAGE_DIR), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
    ]
    if check:
        command.append("--check")
    if spans:
        command += ["--spans", spans]
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _crashed(workload, seed, traced,
                        f"no result within {CHILD_TIMEOUT_S:.0f} s")
    lines = done.stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        return _crashed(workload, seed, traced,
                        f"child exited {done.returncode} without a result")
    payload["wall_s"] = time.monotonic() - started
    return payload


def _crashed(workload: str, seed: int, traced: bool, reason: str) -> dict:
    log(f"[e2e] FAILED CHECK {workload}: {reason}")
    return {"workload": workload, "seed": seed, "traced": traced,
            "correct": False, "attempted": 1, "failed": 1, "failures": [reason],
            "metrics": {}, "phases": {}, "detail": {}, "wall_s": 0.0}


def child_main(args) -> int:
    """Entry of the fresh interpreter: run, print the payload, exit."""
    from .runner import run_workload

    payload = run_workload(
        args.workload, args.seed, args.seconds, traced=bool(args.trace),
        check=args.check, workroot=str(WORKROOT), spans_path=args.spans)
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def print_workload(payload: dict) -> None:
    name = payload["workload"]
    mode = "traced" if payload["traced"] else "end-to-end"
    print(f"== {name}  seed {payload['seed']}  {mode}  "
          f"{payload['wall_s']:.1f} s ==")
    for metric, entry in payload["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
    for phase, body in payload["phases"].items():
        for index, row in enumerate(body.get("segments", ())):
            ledger = " ".join(
                f"{key}={row[key]}" for key in
                ("offered", "answered", "shed", "deadline_missed", "errored"))
            print(f"  ledger {phase}[{index}]: {ledger}")
    detail = payload.get("detail", {})
    for key in ("seams_missing", "absent"):
        if detail.get(key):
            print(f"  {key}: {', '.join(detail[key])}")
    for failure in payload["failures"]:
        print(f"  FAILED: {failure}")


def shape_errors(payload: dict, expected: List[dict]) -> List[str]:
    """``--check``: every named metric present, finite, with its unit."""
    errors = []
    for spec in expected:
        entry = payload["metrics"].get(spec["name"])
        if entry is None:
            errors.append(f"{payload['workload']}: metric {spec['name']} missing")
        elif not math.isfinite(entry["value"]):
            errors.append(f"{payload['workload']}: {spec['name']} is not finite")
        elif entry["unit"] != spec["unit"]:
            errors.append(f"{payload['workload']}: {spec['name']} has unit "
                          f"{entry['unit']!r}, expected {spec['unit']!r}")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    from .workloads import NOMINAL_SECONDS, WORKLOADS

    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(NOMINAL_SECONDS),
                        help="measuring time the segment sizes are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--check", action="store_true",
                        help="all workloads at ~1/20 scale; validate shape only")
    parser.add_argument("--out", help="write the full payload to this JSON file")
    parser.add_argument("--spans", help="traced run: dump the spans (JSON lines)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    if args.child:
        return child_main(args)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    selected = [args.workload] if args.workload else names
    modes = [False, True] if args.check else [bool(args.trace)]
    seconds = 1.0 if args.check else args.seconds
    payloads, errors = [], []
    for name in selected:
        for traced in modes:
            spans = None
            if args.spans and traced:
                os.makedirs(args.spans, exist_ok=True)
                spans = str(Path(args.spans).resolve() / f"{name}.spans.jsonl")
            log(f"[e2e] running {name} (seed {args.seed}, "
                f"{'traced' if traced else 'end-to-end'})")
            payload = run_child(name, args.seed, seconds, traced, args.check, spans)
            print_workload(payload)
            payloads.append(payload)
            if args.check:
                expected = contract["per_layer" if traced else "end_to_end"]
                errors += shape_errors(payload, expected)
    for error in errors:
        print(f"FAILED: {error}")
    correct = not errors and all(payload["correct"] for payload in payloads)
    if args.out:
        document = {"env": environment(args.seed), "seconds": seconds,
                    "check": args.check, "workloads": payloads}
        Path(args.out).write_text(json.dumps(document, indent=1), encoding="utf-8")
    if len(payloads) == 1:
        metrics = payloads[0]["metrics"]
    else:
        metrics = {
            f"{payload['workload']}.{metric}": entry
            for payload in payloads for metric, entry in payload["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(payload["attempted"] for payload in payloads),
        "failed": sum(payload["failed"] for payload in payloads),
        "metrics": metrics,
    }))
    return 0 if correct else 1

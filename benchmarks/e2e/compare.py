"""``python -m benchmarks.e2e compare A.json B.json``: B against baseline A.

Prints, per workload and end-to-end metric, both values, the relative
difference and the bound from ``BENCHMARK.json``, and exits non-zero when B
is worse than A by more than a bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def _metrics(path: str) -> Dict[str, Dict[str, float]]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        payload["workload"]: {
            name: entry["value"] for name, entry in payload["metrics"].items()
        }
        for payload in document["workloads"]
        if not payload["traced"]
    }


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = _metrics(argv[0]), _metrics(argv[1])
    beyond = 0
    header = (f"{'workload':<16} {'metric':<15} {'A':>12} {'B':>12} "
              f"{'B vs A':>8} {'bound':>6}")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for spec in contract["end_to_end"]:
            name = spec["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            a, b = base[workload][name], new[workload][name]
            change = (b - a) / a
            worse = change if spec["better"] == "lower" else -change
            verdict = ""
            if worse > spec["bound"]:
                verdict = "  WORSE BEYOND BOUND"
                beyond += 1
            print(f"{workload:<16} {name:<15} {a:>12.5g} {b:>12.5g} "
                  f"{change:>+8.2%} {spec['bound']:>6.0%}{verdict}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"only in one file: {', '.join(missing)}")
    return 1 if beyond else 0

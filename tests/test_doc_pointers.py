"""Prose that names a benchmark script must name one that exists.

The doc-side twin of ``tests/test_e2e_seams.py``: that file keeps renames
under ``src/`` from stranding the benchmark's seams, this one keeps a
deleted or renamed ``benchmarks/`` script from stranding a pointer in the
docs, the examples, the CI workflow or the verify skill.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/**/*.md", "examples/*.py", ".github/workflows/*.yml",
           ".claude/skills/**/*.md")
#: ``benchmarks/<name>.py`` (a path) or ``benchmarks.<name>`` (a module).
POINTER = re.compile(r"(?<![\w./])benchmarks(?:/([\w/]+)\.py|\.(\w+))")


def test_every_named_benchmark_script_exists():
    stranded = []
    for pattern in SCANNED:
        for path in sorted(ROOT.glob(pattern)):
            for as_path, as_module in POINTER.findall(path.read_text()):
                name = as_path or as_module
                target = ROOT / "benchmarks" / name
                if not (target.with_suffix(".py").is_file() or target.is_dir()):
                    stranded.append(f"{path.relative_to(ROOT)}: benchmarks/{name}")
    assert stranded == []

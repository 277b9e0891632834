"""``python -m benchmarks.e2e`` and ``python3 benchmarks/e2e`` both land here."""

import sys
from pathlib import Path

_here = Path(__file__).resolve().parent
_root = _here.parents[1]
if not (_root / "src" / "repro" / "serving").is_dir():
    sys.exit("benchmarks.e2e: the program under test (src/repro/serving) is missing")
# Run as a directory, sys.path[0] is this directory: drop it (its module
# names must not shadow anything) and import through the package instead.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _here]
for _entry in (str(_root / "src"), str(_root)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

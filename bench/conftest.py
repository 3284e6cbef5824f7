"""Make ``src/`` and this directory importable for the benchmark's own tests.

Run them from the root of the repository with ``python3 -m pytest bench -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

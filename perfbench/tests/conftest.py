"""Make the benchmark's modules and the simulator importable in tests.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

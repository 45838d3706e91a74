"""Benchmark command for one workload run, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The same as ``python -m benchmarks.e2e run ...``; see ``parent.py``.
"""

import sys
from pathlib import Path

# Import the package from the checkout root, not as loose modules of
# this directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.parent import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))

"""Run with ``python3 -m pytest benchmark/tests`` from the repository root."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from entbench import env  # noqa: E402

env.apply_thread_caps()

#!/usr/bin/env python3
"""Run every workload untraced and traced and print every metric.

    python3 benchmark/report.py [--seconds 10] [--seed 1]

Prints one line per metric (workload, metric, value, unit), then each run's
attempted/failed counts.  Exits 1 if any run's output differs from the seed
reference or a run fails, else 0.  Runs one ``run.py`` at a time and waits
for each.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                print(f"{workload} trace={trace}: run failed "
                      f"(exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            for name, m in result["metrics"].items():
                print(f"{workload:12s} {name:48s} {m['value']:>16.6g} {m['unit']}")
            print(f"{workload:12s} {'attempted/failed':48s} "
                  f"{result['attempted']:>10d}/{result['failed']:<5d} "
                  f"error_rate {details['error_rate']:.4g}  "
                  f"correct {result['correct']}")
            for msg in details["mismatches"]:
                print(f"{workload:12s} MISMATCH {msg}")
            ok = ok and result["correct"] and proc.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload against the entbounds sources of this checkout.

    python3 benchmark/run.py --workload verify-4q --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/entbounds``.  With
``--trace 0`` it measures the end-to-end metrics for ``--seconds`` seconds;
with ``--trace 1`` it runs the workload's fixed work once untraced to warm
up, then each item of it untraced and traced in turn, and reports the
per-layer metrics.  Every output is checked
against the reference recorded at the seed commit.

Standard output ends with two JSON lines: the environment record and run
details, then the result ``{"correct", "attempted", "failed", "metrics"}``.
The same record is written to ``.bench_out/results/``.  Exit code 0 when
every output matches the reference, 1 on a mismatch, 2 on a usage error or
when the checkout has no ``src/entbounds``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from entbench import env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify-4q", "verify-6q", "fixed-state")
E2E_UNITS = {"states_per_s": "1/s", "figures_s": "s", "call_p50_ms": "ms",
             "call_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "entbounds" / "__init__.py").is_file():
        print(f"error: no entbounds sources under {SRC}", file=sys.stderr)
        return 2

    env.apply_thread_caps()           # before numpy is imported
    sys.path.insert(0, str(SRC))
    from entbench import tracer, workloads

    import entbounds
    if Path(entbounds.__file__).resolve().parent != SRC / "entbounds":
        print(f"error: imported entbounds from {entbounds.__file__}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "figures").mkdir(exist_ok=True)
    tally = workloads.Tally()
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": env.environment(ROOT, args.seed)}

    if args.trace == 0:
        workloads.import_timing()     # writes the bytecode cache, untimed
        if args.workload in workloads.VERIFY:
            samples = workloads.measure_verify(args.workload, args.seed,
                                               args.seconds, OUT_DIR, tally)
        else:
            samples = workloads.measure_fixed(args.seed, args.seconds,
                                              OUT_DIR, tally)
        values, counts = workloads.end_to_end(samples)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        details["samples"] = counts
    else:
        values, trc, info = workloads.traced(args.workload, args.seed,
                                             OUT_DIR, tally)
        values["error_rate"] = tally.failed / tally.attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        trc.write_spans(spans_path)
        details["trace_phase"] = dict(info, spans_file=str(
            spans_path.relative_to(ROOT)))

    details["error_rate"] = tally.failed / tally.attempted
    details["mismatches"] = tally.mismatches[:20]
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(
        json.dumps(dict(details, result=result), indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())

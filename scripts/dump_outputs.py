#!/usr/bin/env python3
"""Print every user-visible output of the package in one stable text dump.

The dump covers the three figure tables, ``run_verify`` summaries (one
per exponent) and ``run_bounds`` reports (text lines, CSV row and values)
over the state files of ``benchmark/corpus``, with every float written
by ``float.hex``.
It calls only ``entbounds.cli`` entry points, so the same script runs
against any checkout: diff two dumps to show that a change keeps every
output bit-identical.

    PYTHONPATH=src python scripts/dump_outputs.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/dump_outputs.py > before.txt
    cmp before.txt after.txt

The settings are fixed so that any two dumps compare.  The corpus files
are only read.
"""

from __future__ import annotations

import sys
from pathlib import Path

from entbounds.cli import (VerifyConfig, figure_rows, parse_state_spec,
                           run_bounds, run_verify)

CORPUS = Path(__file__).resolve().parent.parent / "benchmark" / "corpus"
EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0)
P_MODES = ("auto", "1", "1,1,1,1,1", "0.9,0.95,1,1,1", "0.5")
SAMPLES = 201
TRIALS = 15


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def dump_figures(out):
    for fig_id in (1, 2, 3):
        header, rows = figure_rows(fig_id, SAMPLES)
        out.append(f"figure {fig_id} {','.join(header)}")
        out.extend(_hex(row) for row in rows)


def dump_verify(out, trials=TRIALS):
    """One ``run_verify`` per exponent: over several exponents a check's
    worst slack is its exponent-0 value, a constant for every sandwich."""
    for qubits in (4, 5, 6):
        for seed in (3, 11):
            for exponent in EXPONENTS:
                res = run_verify(VerifyConfig(qubits=qubits, trials=trials,
                                              exponents=(exponent,),
                                              seed=seed))
                out.append(f"verify qubits={qubits} seed={seed} "
                           f"exponent={exponent}")
                out.extend(f"  {st.name} {st.violations} {st.samples} "
                           f"{float(st.worst_slack).hex()}"
                           for st in res.stats.values())


def dump_bounds(out):
    for path in sorted(CORPUS.glob("*.state")):
        labels = parse_state_spec(path.read_text(encoding="utf-8")).shape.labels
        for k in (1, 2, 3):
            if k >= len(labels):
                continue
            cut = "".join(labels[:k]) + "|" + "".join(labels[k:])
            for exponent in EXPONENTS:
                for p_mode in P_MODES:
                    out.append(f"bounds {path.name} {cut} {exponent} {p_mode}")
                    try:
                        rep, lines, csv_row = run_bounds(str(path), cut,
                                                         exponent, p_mode)
                    except ValueError as exc:
                        out.append(f"  {type(exc).__name__}: {exc}")
                        continue
                    out.extend(f"  {line}" for line in lines[1:])
                    out.append(f"  {csv_row}")
                    out.append("  " + _hex([rep.lhs, rep.ours, rep.gap]
                                           + list(rep.comparators.values())))


def main() -> int:
    out: list[str] = []
    dump_figures(out)
    dump_verify(out)
    dump_bounds(out)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

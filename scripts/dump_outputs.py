#!/usr/bin/env python3
"""Print every user-visible output of the package in one stable text dump.

The dump covers the three figure tables, ``run_verify`` summaries (one
per exponent), ``run_bounds`` reports (text lines, CSV row and values),
the six report functions of ``entbounds.bounds`` (values, comparators
and focus records) over the state files of ``benchmark/corpus``, the pair
values of ``pair_measures_sq`` for every focus of every corpus state
(each focus alone and all foci in one call), the cut readers of
``entbounds.measures`` on every corpus cut ``labels[:k]|rest`` (k = 1..3)
and the density route on every label pair, every slack of
``cut_sandwiches`` on stacks of corpus states and of Haar states, and
``theta``, ``chain_bound`` and ``lemma_rhs`` on a fixed grid, with every
float written by ``float.hex``, and the stderr and exit code of
``entbounds bounds`` on each input error it reports.
It calls only public entry points, so the same script runs against
another checkout: diff two dumps to show that a change keeps every output
bit-identical.

    PYTHONPATH=src python scripts/dump_outputs.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/dump_outputs.py > before.txt
    cmp before.txt after.txt

The settings are fixed so that any two dumps compare.  The corpus files
are only read.
"""

from __future__ import annotations

import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from itertools import combinations
from pathlib import Path

import numpy as np

from entbounds.bounds import (SandwichBounds, chain_bound, cut_sandwiches,
                              lemma_rhs, monogamy_lower_AB,
                              multi_partition_polygamy, negativity_bounds_AB,
                              pair_measures_sq, polygamy_bound_coa,
                              polygamy_upper_AB, theta, tripartite_bounds)
from entbounds.cli import (VerifyConfig, figure_rows, parse_state_spec,
                           run_bounds, run_verify)
from entbounds.cli import main as cli_main
from entbounds.measures import (Bipartition, cren_crenoa_two_qubit,
                                cut_measures, negativity, pure_concurrence,
                                reduced_density, schmidt_rank)
from entbounds.states import PureState, haar_random_pure

CORPUS = Path(__file__).resolve().parent.parent / "benchmark" / "corpus"
EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0)
P_MODES = ("auto", "1", "1,1,1,1,1", "0.9,0.95,1,1,1", "0.5")
REPORT_P = ("auto", "one", (1,) * 5, (0.9, 0.95, 1, 1, 1), (0.5,),
            {"A": (0.9, 1, 1, 1, 1)})
SAMPLES = 201
TRIALS = 15
# The theta section: exponents and x = exponent/2 past both ends of their
# ranges; groups with trailing, interior and all-zero heads, a head below
# the trimming tolerance, a tail ratio of exactly 1 and above 1, round-off
# and real negatives; p vectors too short, infeasible, infeasible past the
# levels and outside (0, 1].
GRID_EXPONENTS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5)
THETA_GROUPS = ([[0.5], [0.25]], [[36 / 64], [8 / 64], [4 / 64]],
                [[0.3, 0.2, 0.1]], [[0.5], [0.25], [0.0]],
                [[0.5], [0.25], [1e-10]], [[0.4, 0.1], [0.3], [0.2, -1e-13]],
                [[0.5], [0.0], [0.25]], [[0.0], [0.0]], [[0.2], [0.5]],
                [[0.9], [0.6], [0.3]], [[0.5], [-0.1]])
THETA_P = ((), (1.0,), (1.0, 1.0), (0.6,), (0.6, 0.6), (0.4, 0.9, 1.0),
           (0.5, 0.5), (0.6, 0.3), (0.0,), (1.5,))
# chain_bound values: only what every version accepts alike (a value below
# -1e-9 or a non-finite one was clamped or passed through before it raised)
CHAIN_VALUES = ([0.5, 0.25], [0.3, 0.2, 0.1], [0.7, 0.1, 0.4],
                [0.5, 0.25, 0.0], [0.4, 0.1, 0.3, 0.2, -1e-13], [0.0, 0.0],
                [], [1e-10, 0.9])
CHAIN_KINDS = ("pow2_chain", "beta_half_chain", "trivial_sum", "cubic_chain")
# The CLI errors section: (spec text, or None for a missing file; cut; p),
# one per input error ``entbounds bounds`` reports on stderr.
CLI_ERRORS = (("qubits 1\nqubits 1\n", "A|B", "auto"),
              ("qubits\n", "A|B", "auto"),
              ("qubits two\n", "A|B", "auto"),
              ("qubits 7\n", "A|B", "auto"),
              ("qubits 1\namp 0 1\n", "A|B", "auto"),
              ("qubits 1\namp 0 one 0\n", "A|B", "auto"),
              ("# no header\n", "A|B", "auto"),
              (None, "A|B", "auto"),
              ("qubits 3\namp 0 1 0\n", "ABC", "auto"),
              ("qubits 3\namp 0 1 0\n", "A|BC", "x"))


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


def _report_calls(psi):
    """Each report function on the state, by name, awaiting (exponents, p)."""
    labels = psi.shape.labels
    calls = {f"polygamy_bound_coa {f}": partial(polygamy_bound_coa, psi, f)
             for f in labels}
    for k in (2, 3):
        calls[f"multi_partition_polygamy {''.join(labels[:k])}"] = partial(
            multi_partition_polygamy, psi, labels[:k])
    for report in (monogamy_lower_AB, polygamy_upper_AB, negativity_bounds_AB,
                   tripartite_bounds):
        calls[report.__name__] = partial(report, psi)
    return calls


def dump_reports(out):
    """Every report function on every corpus state and p spec: the focus
    records of the call, then per exponent each report's lhs, ours, gap
    and comparators (lower, then upper, for a sandwich)."""
    for path in sorted(CORPUS.glob("*.state")):
        psi = parse_state_spec(path.read_text(encoding="utf-8"))
        for name, call in _report_calls(psi).items():
            for p in REPORT_P:
                out.append(f"reports {path.name} {name} {p}")
                try:
                    reports = call(EXPONENTS, p)
                except ValueError as exc:
                    out.append(f"  {type(exc).__name__}: {exc}")
                    continue
                rows = [(r.lower, r.upper) if isinstance(r, SandwichBounds)
                        else (r,) for r in reports]
                out.extend(f"  focus {f}: {fp.grouping} {_hex(fp.p)} "
                           f"{fp.fallback}" for f, fp in rows[0][0].foci.items())
                out.extend(f"  {exponent} " + _hex(
                    [r.lhs, r.ours, r.gap] + list(r.comparators.values()))
                    for exponent, row in zip(EXPONENTS, rows) for r in row)


def _corpus_states():
    return {path.name: parse_state_spec(path.read_text(encoding="utf-8"))
            for path in sorted(CORPUS.glob("*.state"))}


def dump_pairs(out):
    """``pair_measures_sq`` on every corpus state: each focus alone, then
    every focus from one call with all foci, in shape order and reversed;
    one line of squared concurrences | squared CoAs per focus."""
    for name, psi in _corpus_states().items():
        labels = psi.shape.labels
        rows = [(f, f, *pair_measures_sq(psi, f)) for f in labels]
        for foci in (labels, labels[::-1]):
            rows += [("".join(foci), f, *row) for f, *row in
                     zip(foci, *pair_measures_sq(psi, foci))]
        out.extend(f"pairs {name} {call} {f} {_hex(c_sq)} | {_hex(ca_sq)}"
                   for call, f, c_sq, ca_sq in rows)


def dump_cuts(out):
    """The cut and pair readers on every corpus state: per cut
    ``labels[:k]|rest`` (k = 1..3) ``cut_measures`` (C, N, rank), then
    ``pure_concurrence``, ``negativity`` and ``schmidt_rank``; per label
    pair (C, C_a) from ``cren_crenoa_two_qubit`` of ``reduced_density``."""
    for name, psi in _corpus_states().items():
        labels = psi.shape.labels
        for k in range(1, min(3, len(labels) - 1) + 1):
            cut = Bipartition.of(psi.shape, labels[:k])
            one_by_one = [measure(psi, cut) for measure in
                          (pure_concurrence, negativity, schmidt_rank)]
            out.append(f"cut {name} {''.join(cut.left)}|{''.join(cut.right)} "
                       f"{_hex(cut_measures(psi, cut.left))} | "
                       f"{_hex(one_by_one)}")
        out.extend(f"pair {name} {p}{q} " + _hex(
            cren_crenoa_two_qubit(reduced_density(psi, [p, q])))
            for p, q in combinations(labels, 2))


def _sandwich_stacks():
    """Stacks of 4-6 qubits: the corpus states of each size, then 9 Haar
    states."""
    by_size = {}
    for psi in _corpus_states().values():
        by_size.setdefault(psi.shape, []).append(psi.amplitudes)
    stacks = {f"corpus {len(shape.labels)}q": PureState(shape, np.stack(amps))
              for shape, amps in by_size.items() if len(shape.labels) >= 4}
    for qubits in (4, 5, 6):
        stacks[f"haar {qubits}q"] = haar_random_pure(qubits, 5, range(9))
    return stacks


def dump_sandwiches(out):
    """``cut_sandwiches`` on each stack: the first focus's pair values per
    state, then every slack ``verify`` folds: one line for each of the
    first focus's pair inequalities, one per exponent for each bound."""
    for name, psi in _sandwich_stacks().items():
        out.append(f"sandwiches {name}")
        out.extend(f"  pairs {_hex(c)} | {_hex(ca)}"
                   for c, ca in zip(*pair_measures_sq(psi, "A")))
        for bound, rows in cut_sandwiches(psi, EXPONENTS).items():
            if rows.ndim == 1:   # a pair inequality: no exponent axis
                out.append(f"  {bound} {_hex(rows)}")
            else:
                out.extend(f"  {bound} {exponent} {_hex(row)}"
                           for exponent, row in zip(EXPONENTS, rows))


def _outcome(call) -> str:
    """The hex value(s) a call returns, or the ValueError it raises."""
    try:
        value = call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _hex(value if isinstance(value, tuple) else [value])


def dump_theta(out):
    """``theta`` and ``chain_bound`` per exponent, and ``lemma_rhs`` per x,
    on the grid above: one line per call, its value(s) or its error."""
    for groups in THETA_GROUPS:
        for exponent in GRID_EXPONENTS:
            out.extend(f"theta {exponent} {groups} {p} "
                       + _outcome(lambda: theta(groups, exponent, p))
                       for p in THETA_P)
    for values in CHAIN_VALUES:
        for exponent in GRID_EXPONENTS:
            out.extend(f"chain_bound {exponent} {values} {kind} "
                       + _outcome(lambda: chain_bound(values, exponent, kind))
                       for kind in CHAIN_KINDS)
    for p in (0.25, 0.6, 1.0, 0.0, 1.2):
        for t in (0.0, p / 2, p, 1.5 * p):
            out.extend(f"lemma_rhs {exponent / 2} {t} {p} "
                       + _outcome(lambda: lemma_rhs(t, p, exponent / 2))
                       for exponent in GRID_EXPONENTS + (3.0,))


def dump_cli_errors(out):
    """``entbounds bounds`` on each input of CLI_ERRORS, from a spec file
    in a temporary directory: one line of its exit code and stderr, with
    the directory written as <tmp>."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, (spec, cut, p) in enumerate(CLI_ERRORS):
            path = Path(tmp, f"{i}.state")
            if spec is not None:
                path.write_text(spec, encoding="utf-8")
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli_main(["bounds", "--state", str(path), "--cut",
                                 cut, "--exponent", "1", "--p", p])
            out.append(f"cli {spec!r} {cut} {p} exit {code} "
                       + err.getvalue().replace(tmp, "<tmp>").rstrip("\n"))


def main() -> int:
    out: list[str] = []
    dump_figures(out)
    dump_verify(out)
    dump_bounds(out)
    dump_reports(out)
    dump_pairs(out)
    dump_cuts(out)
    dump_sandwiches(out)
    dump_theta(out)
    dump_cli_errors(out)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the benchmark's input corpus and the reference outputs it checks.

    python3 benchmark/make_reference.py [--overwrite]

Run once, at the commit whose outputs define "correct" (the seed); later
commits are checked against what it wrote, so do not rerun it to make a
changed program pass.  It writes ``benchmark/corpus/*.state`` (the named
fixed-state corpus, as state-spec text) and ``benchmark/reference/``:

* ``verify-4q.json``, ``verify-6q.json``: per pool batch and check, the
  violation count and worst slack of ``cli.run_verify``;
* ``fig1.csv`` .. ``fig3.csv``: the figure tables as ``cli.run_figure``
  wrote them;
* ``fixed-state.json``: per single-state call, the ``run_bounds`` values or
  the ``optimize`` optimum.  Calls that raise record the error and the
  closed-form optimum a fixed program must return.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from pathlib import Path

from entbench import env

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 20241106


def corpus_states():
    """name -> PureState of the fixed-state corpus."""
    import numpy as np

    from entbounds import cli, linalg, states

    def register(n, amps):
        amp = np.zeros(2 ** n, dtype=complex)
        for idx, a in amps.items():
            amp[idx] = a
        return states.PureState(linalg.qubit_shape(linalg.default_labels(n)),
                                amp / np.linalg.norm(amp))

    out = {"fig1-acin-3q": states.acin_state(cli.FIG1_PARAMS),
           "fig23-wclass-4q": states.wclass4_state(cli.FIG23_PARAMS)}
    for n in range(3, 7):
        full = 2 ** n - 1
        out[f"ghz-{n}q"] = register(n, {0: 1.0, full: 1.0})
        out[f"w-{n}q"] = register(n, {1 << k: 1.0 for k in range(n)})
        out[f"dicke2-{n}q"] = register(
            n, {(1 << i) | (1 << j): 1.0 for i, j in combinations(range(n), 2)})
        out[f"bell-ab-{n}q"] = register(n, {0: 1.0, 0b11 << (n - 2): 1.0})
        for tag, stream in (("a", 0), ("b", 1)):
            out[f"haar-{n}q-{tag}"] = states.haar_random_pure(n, CORPUS_SEED,
                                                              stream)
    return out


def closed_form_optimum(psi, focus: str, exponent: float) -> float:
    """(sum_j C_a^2(focus|j))^(exponent/2): the grouped bound at p = t for
    every grouping, hence the exhaustive optimum."""
    from entbounds.bounds import pair_measures_sq

    _, ca_sq = pair_measures_sq(psi, focus)
    return float(ca_sq.sum()) ** (exponent / 2.0)


def _write_rows(path: Path, header: dict, tables: dict):
    """JSON with one line per table row, so diffs stay readable."""
    parts = [json.dumps(header)[:-1]]
    for name, rows in tables.items():
        body = ",\n".join(json.dumps(r) for r in rows)
        parts.append(f',\n"{name}": [\n{body}]')
    path.write_text("".join(parts) + "}\n")


def make_verify(workload, provenance):
    from entbench import workloads as w

    spec = w.VERIFY[workload]
    checks, samples, violations, worst = None, None, [], []
    for batch in range(w.POOL_SIZE):
        summary = w.verify_summary(w.cli.run_verify(w.verify_config(spec, batch)))
        if checks is None:
            checks = list(summary)
            samples = [summary[c][2] for c in checks]
        violations.append([summary[c][0] for c in checks])
        worst.append([summary[c][1] for c in checks])
    header = {"qubits": spec.qubits, "trials": spec.trials,
              "exponents": list(w.VERIFY_EXPONENTS),
              "base_seed": w.POOL_BASE_SEED, "generated_at": provenance,
              "checks": checks, "samples": samples}
    _write_rows(w.REFERENCE_DIR / f"{workload}.json", header,
                {"violations": violations, "worst_slack": worst})
    print(f"{workload}: {len(violations)} batches, "
          f"{sum(map(sum, violations))} violations")


def make_fixed(provenance):
    from entbounds import states
    from entbench import workloads as w

    w.CORPUS_DIR.mkdir(exist_ok=True)
    for name, psi in corpus_states().items():
        (w.CORPUS_DIR / f"{name}.state").write_text(
            states.emit_state_spec(psi), encoding="utf-8")
    for fig_id in w.FIGURE_IDS:
        w.cli.run_figure(w.cli.FigureSpec(
            id=fig_id, out_csv=str(w.REFERENCE_DIR / f"fig{fig_id}.csv")))

    corpus = w.load_corpus()
    calls, worst_gap = {}, 0.0
    for call in w.fixed_calls(corpus):
        try:
            values = list(w.execute(call, corpus))
        except ValueError as exc:
            psi = corpus[call.state][1]
            calls[call.key] = {"seed_error": f"{type(exc).__name__}: {exc}",
                               "closed_form": [closed_form_optimum(
                                   psi, call.arg, w.FIXED_EXPONENT)]}
            continue
        calls[call.key] = {"values": values}
        if call.kind == "optimize":
            gap = abs(values[0] - closed_form_optimum(
                corpus[call.state][1], call.arg, w.FIXED_EXPONENT))
            worst_gap = max(worst_gap, gap)
    header = {"exponent": w.FIXED_EXPONENT, "generated_at": provenance}
    _write_rows(w.REFERENCE_DIR / f"{w.FIXED}.json", header,
                {"calls": [[k, v] for k, v in calls.items()]})
    errors = sum("seed_error" in v for v in calls.values())
    print(f"fixed-state: {len(corpus)} states, {len(calls)} calls, "
          f"{errors} raise; optimize vs closed form max gap {worst_gap:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overwrite", action="store_true",
                        help="replace existing reference files")
    args = parser.parse_args(argv)
    env.apply_thread_caps()
    sys.path.insert(0, str(ROOT / "src"))
    from entbench import workloads as w

    w.REFERENCE_DIR.mkdir(exist_ok=True)
    if any(w.REFERENCE_DIR.iterdir()) and not args.overwrite:
        print(f"error: {w.REFERENCE_DIR} is not empty; pass --overwrite",
              file=sys.stderr)
        return 2
    provenance = {"git_commit": env.git_commit(ROOT),
                  "src_sha256": env.source_digest(ROOT)}
    for name in w.WORKLOADS:
        if name == w.FIXED:
            make_fixed(provenance)
        else:
            make_verify(name, provenance)
    return 0


if __name__ == "__main__":
    sys.exit(main())

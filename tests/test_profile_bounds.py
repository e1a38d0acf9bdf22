"""Checks of ``scripts/profile.py bounds`` beyond the smoke test that
tests/test_profile.py runs on every subcommand."""

import importlib
from pathlib import Path

from reference import ROOT


def test_corpus_calls_are_the_benchmarks(profile_script, monkeypatch):
    # each call as (kind, state, cut or focus, exponent, p mode), against
    # the fixed-state calls of the benchmark's workloads module (read only)
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    workloads = importlib.import_module("entbench.workloads")
    corpus = workloads.load_corpus()
    names = {psi.amplitudes.tobytes(): name
             for name, (_, psi) in corpus.items()}
    assert len(names) == len(corpus) == 26
    calls = []
    for call in profile_script.corpus_calls():
        if call.func.__name__ == "run_bounds":
            path, arg, exponent, p = call.args
            assert Path(path).parent == workloads.CORPUS_DIR
            calls.append(("bounds", Path(path).stem, arg, exponent, p))
        else:
            assert call.func.__name__ == "optimize"
            psi, arg, exponent = call.args
            calls.append(("optimize", names[psi.amplitudes.tobytes()], arg,
                          exponent, ""))
    assert len(calls) == 257
    assert sorted(calls) == sorted(
        (c.kind, c.state, c.arg, workloads.FIXED_EXPONENT, c.p)
        for c in workloads.fixed_calls(corpus))
    assert workloads.FIXED_EXPONENT == 1.0

#!/usr/bin/env python3
"""Where the time of the package's calls goes, stage by stage.

``verify`` times repeated ``cli.run_verify`` calls at the given qubits
and trials (seed = call index) after as many warm-up calls.  ``bounds``
times passes over the benchmark's own fixed-state calls, 257 in all
(``entbench.workloads.fixed_calls`` run by ``workloads.execute`` on
``benchmark/corpus``, all only read), each pass in a shuffled order
after one warm-up pass.  Each prints every stage's median share of the
wall time, "other" last, and the Python-level calls (``sys.setprofile``
"call" events, every module, the garbage collector off) that single
calls make once the caches are warm, for ``bounds`` ``single_calls``.
``figure`` times passes over the three ``cli.run_figure`` calls at their
default 201 exponents, writing the CSVs into a temporary directory, after
one warm-up pass, and counts the Python-level calls of each figure at 11
and at 201 exponents: equal counts leave no per-row Python work.
A stage's time is its self time: the time inside its wrapped names less
that of the stages they call; "other" is the glue of the calls and what
no stage wraps.  The wrappers replace the module and class attributes
that the package looks up at call time, and are removed afterwards; the
calls themselves run unchanged.

    PYTHONPATH=src python scripts/profile.py verify --qubits 4 --trials 8
    PYTHONPATH=src python scripts/profile.py bounds --repeats 20
    PYTHONPATH=src python scripts/profile.py figure --repeats 200
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from entbounds import bounds, cli, optimizer, rng, states
from entbounds.cli import VerifyConfig, run_verify
from entbounds.measures import Bipartition

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
CORPUS = BENCHMARK / "corpus"
EXPONENT = 1.0

# (stage, [(owner, attribute), ...]) in pipeline order, per subcommand.
VERIFY_STAGES = (
    ("Philox draws", [(rng, "raw_draws")]),
    ("lemma grid", [(cli, "lemma_chain_grid")]),
    ("Haar draw", [(cli, "haar_random_pure")]),
    ("PureState check", [(states.PureState, "__post_init__")]),
    ("pair spin-flip spectra", [(bounds, "pair_measures_sq")]),
    ("AB|rest read", [(bounds, "_ab_read"), (bounds, "cut_measures")]),
    ("C(A|rest), C(ABC1|rest)", [(bounds, "_cut_concurrence")]),
    ("sums and powers", [(bounds, "_pow"), (bounds, "_sum"),
                         (bounds, "_trim")]),
    ("cut combines", [(bounds, "_lower_AB"), (bounds, "_lower_ABC1"),
                      (bounds, "_upper")]),
    ("record_chunk", [(cli.VerifyResult, "record_chunk")]),
)
BOUNDS_STAGES = (
    ("read", [(cli, "_read_text")]),
    ("parse", [(cli, "parse_state_spec")]),
    ("cut parse", [(Bipartition, "parse")]),
    ("pair kernel", [(bounds, "pair_measures_sq"),
                     (optimizer, "pair_measures_sq")]),
    ("cut concurrence", [(bounds, "pure_concurrence")]),
    ("focus resolve", [(bounds, "_focus"), (bounds, "_group_sums"),
                       (bounds, "tail_ratios"), (bounds, "_levels")]),
    ("evaluation", [(bounds, "_values"), (bounds, "_recursion"),
                    (bounds, "_chains"), (bounds, "_pow"),
                    (bounds, "_upper"), (bounds, "_lower_AB")]),
    ("text", [(cli, "_bounds_text")]),
)

FIGURE_STAGES = (
    ("pair kernel", [(bounds, "pair_measures_sq")]),
    ("cut concurrence", [(bounds, "pure_concurrence"),
                         (bounds, "cut_measures")]),
    ("focus resolve", [(bounds, "_focus"), (bounds, "tail_ratios"),
                       (bounds, "_levels")]),
    ("bounds._pow", [(bounds, "_pow")]),
    ("evaluation", [(bounds, "_values"), (bounds, "_recursion"),
                    (bounds, "_chains"), (bounds, "_upper"),
                    (bounds, "_lower_AB")]),
    ("column glue", [(cli, "_columns")]),
    ("CSV write", [(cli, "_write_lines")]),
)


class StageTimer:
    """Self time per stage over one timed call; wraps the stages' names
    on enter and restores them on exit."""

    def __init__(self, stages):
        self.stages = stages
        self.self_time = {}
        self._stack = []      # [stage, time spent in wrapped callees]
        self._undo = []

    def _wrap(self, stage, original):
        def timed(*args, **kwargs):
            self._stack.append([stage, 0.0])
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                _, inner = self._stack.pop()
                self.self_time[stage] = (self.self_time.get(stage, 0.0)
                                         + spent - inner)
                if self._stack:
                    self._stack[-1][1] += spent
        return timed

    def __enter__(self):
        for stage, names in self.stages:
            for owner, name in names:
                original = owner.__dict__[name]
                self._undo.append((owner, name, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(stage, original.__func__))
                else:
                    wrapped = self._wrap(stage, original)
                setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def python_calls(call) -> int:
    """The Python-level calls (``sys.setprofile`` "call" events, in every
    module, generator resumptions included) that ``call()`` makes once a
    first call has filled the caches.  The garbage collector is off while
    they are counted: a collection runs the callbacks in ``gc.callbacks``
    (hypothesis registers one), and those are not the call's own."""
    call()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def stage_shares(stages, run, warmups: int, repeats: int
                 ) -> tuple[dict[str, float], float]:
    """Median share of each stage, "other" included, and the median wall
    time in seconds, over ``repeats`` timed calls after ``warmups`` more.
    ``run(i)`` prepares the i-th call, untimed, and returns it as a
    function of no argument."""
    names = [stage for stage, _ in stages] + ["other"]
    shares = {stage: [] for stage in names}
    walls = []
    timer = StageTimer(stages)
    with timer:
        for index in range(warmups + repeats):
            call = run(index)
            timer.self_time.clear()
            start = time.perf_counter()
            call()
            wall = time.perf_counter() - start
            if index < warmups:
                continue
            timed = timer.self_time
            timed["other"] = wall - sum(timed.values())
            for stage in names:
                shares[stage].append(timed.get(stage, 0.0) / wall)
            walls.append(wall)
    return ({stage: statistics.median(v) for stage, v in shares.items()},
            statistics.median(walls))


def corpus_calls() -> list:
    """The benchmark's fixed-state calls, as functions of no argument;
    only they put ``benchmark/`` on the import path."""
    if str(BENCHMARK) not in sys.path:
        sys.path.append(str(BENCHMARK))
    from entbench import workloads
    corpus = workloads.load_corpus()
    return [functools.partial(workloads.execute, call, corpus)
            for call in workloads.fixed_calls(corpus)]


def single_calls() -> dict:
    """The three one-state calls whose Python-level calls ``bounds``
    counts, by name, on state files read by path."""
    state = str(CORPUS / "haar-6q-a.state")
    psi = states.parse_state_spec(Path(state).read_text(encoding="utf-8"))
    return {
        "run_bounds haar-6q-a AB|C1C2C3C4": functools.partial(
            cli.run_bounds, state, "AB|C1C2C3C4", EXPONENT, "auto"),
        "run_bounds ghz-3q A|BC": functools.partial(
            cli.run_bounds, str(CORPUS / "ghz-3q.state"), "A|BC", EXPONENT,
            "auto"),
        "optimize haar-6q-a A": functools.partial(
            optimizer.optimize, psi, "A", EXPONENT),
    }


def profile_verify(args) -> tuple[str, dict[str, float], list[str]]:
    cfg = VerifyConfig(qubits=args.qubits, trials=args.trials, seed=0)
    calls = python_calls(functools.partial(run_verify, cfg))
    shares, wall = stage_shares(
        VERIFY_STAGES, lambda seed: functools.partial(run_verify, VerifyConfig(
            qubits=args.qubits, trials=args.trials, seed=seed)),
        args.repeats, args.repeats)
    return (f"run_verify qubits={args.qubits} trials={args.trials}: "
            f"{calls} Python calls; median wall {wall * 1e6:.0f} us with the "
            f"stage timers over {args.repeats} calls"), shares, []


def profile_bounds(args) -> tuple[str, dict[str, float], list[str]]:
    counts = [f"{name}: {python_calls(call)} Python calls"
              for name, call in single_calls().items()]
    calls, order = corpus_calls(), random.Random(0)

    def run_all():
        for call in calls:
            try:
                call()
            except ValueError:   # a call the package rejects still counts
                pass

    def one_pass(index):
        order.shuffle(calls)
        return run_all

    shares, wall = stage_shares(BOUNDS_STAGES, one_pass, 1, args.repeats)
    return (f"{len(calls)} corpus calls: median pass {wall * 1e3:.2f} ms, "
            f"{wall / len(calls) * 1e6:.0f} us a call with the stage timers, "
            f"over {args.repeats} passes"), shares, counts


def profile_figure(args) -> tuple[str, dict[str, float], list[str]]:
    with tempfile.TemporaryDirectory() as out:
        specs = [cli.FigureSpec(id=i, out_csv=str(Path(out) / f"fig{i}.csv"))
                 for i in (1, 2, 3)]
        counts = []
        for i, samples in itertools.product((1, 2, 3), (11, 201)):
            spec = cli.FigureSpec(id=i, out_csv=str(Path(out) / "count.csv"),
                                  samples=samples)
            counts.append(f"figure {i} at {samples} samples: "
                          f"{python_calls(functools.partial(cli.run_figure, spec))}"
                          " Python calls")

        def one_pass():
            for spec in specs:
                cli.run_figure(spec)

        shares, wall = stage_shares(FIGURE_STAGES, lambda index: one_pass, 1,
                                    args.repeats)
    return (f"3 figure tables: median pass {wall * 1e3:.2f} ms with the "
            f"stage timers, over {args.repeats} passes"), shares, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="stages of run_verify calls")
    verify.add_argument("--qubits", type=int, default=4)
    verify.add_argument("--trials", type=int, default=8)
    verify.add_argument("--repeats", type=int, default=500,
                        help="timed calls, after as many warm-up calls")
    verify.set_defaults(profile=profile_verify)
    bnd = commands.add_parser("bounds", help="stages of the one-state calls")
    bnd.add_argument("--repeats", type=int, default=20,
                     help="timed passes over the calls, after one more")
    bnd.set_defaults(profile=profile_bounds)
    fig = commands.add_parser("figure", help="stages of the figure tables")
    fig.add_argument("--repeats", type=int, default=200,
                     help="timed passes over the figures, after one more")
    fig.set_defaults(profile=profile_figure)
    args = parser.parse_args(argv)
    head, shares, counts = args.profile(args)
    print(head)
    width = max(map(len, shares))
    for stage, share in shares.items():
        print(f"  {stage:{width}s}  {100 * share:5.1f}%")
    for line in counts:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

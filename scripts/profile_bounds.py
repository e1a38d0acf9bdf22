#!/usr/bin/env python3
"""Where the time of the one-state calls goes, stage by stage.

Runs the benchmark's fixed-state calls on the state files of
``benchmark/corpus`` (only read): ``cli.run_bounds`` at exponent 1 with
p auto and 1 across every cut ``labels[:k]|rest``, k = 1..3, and
``optimizer.optimize`` at exponent 1 for every focus, 257 calls in all.
Each pass runs them all, in a shuffled order, with each stage wrapped in
a timer; the script prints each stage's median share of a pass's wall
time over the timed passes, the median wall time of a call, and the
Python-level calls (``sys.setprofile`` "call" events, every module, the
garbage collector off) that three single calls make once the caches are
warm.  A stage's time is its self time: the time inside its wrapped
names less that of the stages they call.  "other" is the rest: the glue
of ``run_bounds``, ``optimize``, the report functions and ``_sweep``,
and what no stage wraps.

The wrappers replace the module and class attributes that the package
looks up at call time, and are removed afterwards; the calls themselves
run unchanged.

    PYTHONPATH=src python scripts/profile_bounds.py --repeats 20
"""

from __future__ import annotations

import argparse
import functools
import gc
import random
import statistics
import sys
import time
from pathlib import Path

from entbounds import bounds, cli, optimizer
from entbounds.measures import Bipartition
from entbounds.states import parse_state_spec

CORPUS = Path(__file__).resolve().parent.parent / "benchmark" / "corpus"
EXPONENT = 1.0
P_MODES = ("auto", "1")

# (stage, [(owner, attribute), ...]) in pipeline order.
STAGES = (
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


class StageTimer:
    """Self time per stage over one pass; wraps on enter, restores on exit."""

    def __init__(self):
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
        for stage, names in STAGES:
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


def corpus_calls() -> list:
    """The fixed-state calls, as functions of no argument: every bounds
    call, then every optimize call, each corpus state in name order."""
    states = {path: parse_state_spec(path.read_text(encoding="utf-8"))
              for path in sorted(CORPUS.glob("*.state"))}
    calls = []
    for path, psi in states.items():
        labels = psi.shape.labels
        for k in range(1, min(len(labels), 4)):
            cut = "".join(labels[:k]) + "|" + "".join(labels[k:])
            calls += [functools.partial(cli.run_bounds, str(path), cut,
                                        EXPONENT, p) for p in P_MODES]
    for psi in states.values():
        calls += [functools.partial(optimizer.optimize, psi, focus, EXPONENT)
                  for focus in psi.shape.labels]
    return calls


def python_calls(call) -> int:
    """Python-level calls ``call()`` makes, in every module, once a first
    call has filled the caches; no garbage collection runs meanwhile."""
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


def stage_shares(repeats: int, seed: int = 0
                 ) -> tuple[dict[str, float], float, int]:
    """Median share of each stage, "other" included, the median wall time
    of a pass in seconds and the calls in a pass, over ``repeats`` timed
    passes after one untimed pass."""
    calls = corpus_calls()
    order = random.Random(seed)
    names = [stage for stage, _ in STAGES] + ["other"]
    shares = {stage: [] for stage in names}
    walls = []
    timer = StageTimer()
    with timer:
        for rep in range(repeats + 1):
            order.shuffle(calls)
            timer.self_time.clear()
            start = time.perf_counter()
            for call in calls:
                try:
                    call()
                except ValueError:   # a call the package rejects still counts
                    pass
            wall = time.perf_counter() - start
            if not rep:
                continue
            timed = timer.self_time
            timed["other"] = wall - sum(timed.values())
            for stage in names:
                shares[stage].append(timed.get(stage, 0.0) / wall)
            walls.append(wall)
    return ({stage: statistics.median(v) for stage, v in shares.items()},
            statistics.median(walls), len(calls))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed passes over the calls, after one more")
    args = parser.parse_args(argv)
    state = str(CORPUS / "haar-6q-a.state")
    psi = parse_state_spec(Path(state).read_text(encoding="utf-8"))
    single = {
        "run_bounds haar-6q-a AB|C1C2C3C4": functools.partial(
            cli.run_bounds, state, "AB|C1C2C3C4", EXPONENT, "auto"),
        "run_bounds ghz-3q A|BC": functools.partial(
            cli.run_bounds, str(CORPUS / "ghz-3q.state"), "A|BC", EXPONENT,
            "auto"),
        "optimize haar-6q-a A": functools.partial(
            optimizer.optimize, psi, "A", EXPONENT),
    }
    counts = {name: python_calls(call) for name, call in single.items()}
    shares, wall, n_calls = stage_shares(args.repeats)
    print(f"{n_calls} corpus calls: median pass {wall * 1e3:.2f} ms, "
          f"{wall / n_calls * 1e6:.0f} us a call with the stage timers, "
          f"over {args.repeats} passes")
    width = max(map(len, shares))
    for stage, share in shares.items():
        print(f"  {stage:{width}s}  {100 * share:5.1f}%")
    for name, count in counts.items():
        print(f"{name}: {count} Python calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())

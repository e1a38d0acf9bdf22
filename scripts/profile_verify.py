#!/usr/bin/env python3
"""Where the time of one ``run_verify`` call goes, stage by stage.

Times repeated ``cli.run_verify`` calls at the given qubits and trials
(seed = call index) with each stage of the chunk path wrapped in a
timer, and prints each stage's median share of the call's wall time and
the Python-level calls (``sys.setprofile`` "call" events, every module,
the ``run_verify`` call included) that one unwrapped call makes once the
caches are warm.  A stage's time is its self time: the time inside its
wrapped names less that of the stages they call.
"other" is the rest of the call: the glue of ``run_verify`` and
``cut_sandwiches`` and of each stage's callees that no stage wraps.

The wrappers replace the module and class attributes that the package
looks up at call time, and are removed afterwards; the pipeline itself
runs unchanged.

    PYTHONPATH=src python scripts/profile_verify.py --qubits 4 --trials 8
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from entbounds import bounds, cli, rng, states
from entbounds.cli import VerifyConfig, run_verify

# (stage, [(owner, attribute), ...]) in pipeline order.
STAGES = (
    ("Philox draws", [(rng, "raw_draws")]),
    ("lemma grid", [(cli, "lemma_chain_grid")]),
    ("Haar draw", [(cli, "haar_random_pure")]),
    ("PureState check", [(states.PureState, "__post_init__")]),
    ("pair spin-flip spectra", [(bounds, "pair_measures_sq")]),
    ("AB|rest read", [(bounds, "cut_measures")]),
    ("C^2(A|rest)", [(bounds, "pure_concurrence")]),
    ("sums and powers", [(bounds, "_pow"), (bounds, "_sum"),
                         (bounds, "_trim")]),
    ("cut combines", [(bounds, "_lower_AB"), (bounds, "_upper")]),
    ("record_chunk", [(cli.VerifyResult, "record_chunk")]),
)


class StageTimer:
    """Self time per stage over one call; wraps on enter, restores on exit."""

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
                setattr(owner, name, self._wrap(stage, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def python_calls(cfg: VerifyConfig) -> int:
    """Python-level calls one ``run_verify(cfg)`` makes, in every module,
    once a first call has filled the caches."""
    run_verify(cfg)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        run_verify(cfg)
    finally:
        sys.setprofile(None)
    return calls


def stage_shares(qubits: int, trials: int, repeats: int
                 ) -> tuple[dict[str, float], float]:
    """Median share of each stage, "other" included, and the median wall
    time in seconds, over ``repeats`` timed calls after as many warm-ups."""
    names = [stage for stage, _ in STAGES] + ["other"]
    shares = {stage: [] for stage in names}
    walls = []
    timer = StageTimer()
    with timer:
        for call in range(2 * repeats):
            timer.self_time.clear()
            cfg = VerifyConfig(qubits=qubits, trials=trials, seed=call)
            start = time.perf_counter()
            run_verify(cfg)
            wall = time.perf_counter() - start
            if call < repeats:
                continue
            timed = timer.self_time
            timed["other"] = wall - sum(timed.values())
            for stage in names:
                shares[stage].append(timed.get(stage, 0.0) / wall)
            walls.append(wall)
    return ({stage: statistics.median(v) for stage, v in shares.items()},
            statistics.median(walls))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--qubits", type=int, default=4)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=500,
                        help="timed calls, after as many warm-up calls")
    args = parser.parse_args(argv)
    calls = python_calls(VerifyConfig(qubits=args.qubits, trials=args.trials,
                                      seed=0))
    shares, wall = stage_shares(args.qubits, args.trials, args.repeats)
    print(f"run_verify qubits={args.qubits} trials={args.trials}: "
          f"{calls} Python calls; median wall {wall * 1e6:.0f} us with the "
          f"stage timers over {args.repeats} calls")
    width = max(map(len, shares))
    for stage, share in shares.items():
        print(f"  {stage:{width}s}  {100 * share:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

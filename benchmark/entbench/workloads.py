"""The three workloads, their closed loops, and the checks of every output
against the reference recorded at the seed commit.

Each workload is one caller in one process: the next call starts only after
the previous one returned.  The workload seed only chooses which inputs run
and in which order; every input it can choose has a recorded reference.

* ``verify-4q`` / ``verify-6q``: one call is ``cli.run_verify`` on a batch of
  Haar states (an ``entbounds verify --trials B`` run).  Batch ``j`` of the
  reference pool uses verify seed ``POOL_BASE_SEED + j``; the workload seed
  shuffles the pool.
* ``fixed-state``: repeated passes, each the three figure tables followed
  by every single-state call on the named corpus in a seed-shuffled order.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from entbounds import cli, optimizer, states
from entbounds.bounds import COMPARATOR_NAMES

from .speed import Gauge
from .tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = BENCH_DIR.parent / "src"
CORPUS_DIR = BENCH_DIR / "corpus"
REFERENCE_DIR = BENCH_DIR / "reference"

ABS_TOL = 1e-12               # slack and bound values agree to this
FIGURE_IDS = (1, 2, 3)

VERIFY_EXPONENTS = (0.5, 1.0, 1.5, 2.0)
POOL_BASE_SEED = 1_000_000
POOL_SIZE = 1024


@dataclass(frozen=True)
class VerifySpec:
    qubits: int
    trials: int          # Haar states per run_verify call
    trace_batches: int   # batches of the fixed traced work


VERIFY = {
    "verify-4q": VerifySpec(qubits=4, trials=8, trace_batches=24),
    "verify-6q": VerifySpec(qubits=6, trials=4, trace_batches=12),
}
FIXED = "fixed-state"
WORKLOADS = tuple(VERIFY) + (FIXED,)

# Side measurements per run, at evenly spaced checkpoints so that their
# medians see the same machine as the main loop: a fresh-interpreter import
# on every workload, and on verify workloads the figure tables too, so that
# every workload reports figures_s.
CHECKPOINTS = 8
FIXED_EXPONENT = 1.0
FIXED_TRACE_PASSES = 2
P_MODES = ("auto", "1")


def verify_config(spec: VerifySpec, batch: int) -> cli.VerifyConfig:
    return cli.VerifyConfig(qubits=spec.qubits, trials=spec.trials,
                            exponents=VERIFY_EXPONENTS,
                            seed=POOL_BASE_SEED + batch)


def verify_summary(res: cli.VerifyResult) -> dict[str, list]:
    """check name -> [violations, worst slack, samples]."""
    return {name: [st.violations, st.worst_slack, st.samples]
            for name, st in res.stats.items()}


@dataclass(frozen=True)
class Call:
    """One single-state call of the fixed-state workload."""

    kind: str        # "bounds" (cli.run_bounds) or "optimize"
    state: str       # corpus state name
    arg: str         # cut expression or focus label
    p: str = ""      # p mode of a bounds call

    @property
    def key(self) -> str:
        return " ".join(v for v in (self.kind, self.state, self.arg, self.p) if v)


def load_corpus() -> dict[str, tuple[Path, states.PureState]]:
    """name -> (state-spec path, parsed state), sorted by name."""
    return {path.stem: (path, states.parse_state_spec(
                path.read_text(encoding="utf-8")))
            for path in sorted(CORPUS_DIR.glob("*.state"))}


def fixed_calls(corpus) -> list[Call]:
    """bounds with p auto and 1 over A|rest, AB|rest and ABC1|rest where the
    cut exists, then exhaustive optimize for every focus."""
    calls = []
    for name, (_, psi) in corpus.items():
        labels = psi.shape.labels
        for k in (1, 2, 3):
            if k < len(labels):
                cut = "".join(labels[:k]) + "|" + "".join(labels[k:])
                calls.extend(Call("bounds", name, cut, p) for p in P_MODES)
        calls.extend(Call("optimize", name, focus) for focus in labels)
    return calls


def execute(call: Call, corpus) -> tuple[float, ...]:
    path, psi = corpus[call.state]
    if call.kind == "bounds":
        rep, _, _ = cli.run_bounds(str(path), call.arg, FIXED_EXPONENT, call.p)
        return (rep.lhs, rep.ours) + tuple(rep.comparators[k]
                                           for k in COMPARATOR_NAMES)
    return (optimizer.optimize(psi, call.arg, FIXED_EXPONENT).best_value,)


# ---------------------------------------------------------------------------
# references


@dataclass
class VerifyReference:
    checks: list[str]
    samples: list[int]
    violations: list[list[int]]
    worst_slack: list[list[float]]

    @classmethod
    def load(cls, workload: str) -> "VerifyReference":
        data = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        spec = VERIFY[workload]
        if (data["qubits"], data["trials"], tuple(data["exponents"]),
                data["base_seed"]) != (spec.qubits, spec.trials,
                                       VERIFY_EXPONENTS, POOL_BASE_SEED):
            raise ValueError(f"reference for {workload} was made for "
                             f"another configuration")
        return cls(data["checks"], data["samples"], data["violations"],
                   data["worst_slack"])

    def mismatch(self, batch: int, summary: dict[str, list]) -> str | None:
        if list(summary) != self.checks:
            return f"batch {batch}: checks {list(summary)} != {self.checks}"
        for k, name in enumerate(self.checks):
            viol, worst, samples = summary[name]
            ref_worst = self.worst_slack[batch][k]
            if (viol != self.violations[batch][k] or samples != self.samples[k]
                    or not abs(worst - ref_worst) <= ABS_TOL):
                return (f"batch {batch} {name}: got {viol} violations, worst "
                        f"{worst!r}, {samples} samples; reference "
                        f"{self.violations[batch][k]}, {ref_worst!r}, "
                        f"{self.samples[k]}")
        return None


@dataclass
class FixedReference:
    figures: dict[int, bytes]
    calls: dict[str, dict]

    @classmethod
    def load(cls) -> "FixedReference":
        data = json.loads((REFERENCE_DIR / f"{FIXED}.json").read_text())
        if data["exponent"] != FIXED_EXPONENT:
            raise ValueError("fixed-state reference was made for another exponent")
        figures = {i: (REFERENCE_DIR / f"fig{i}.csv").read_bytes()
                   for i in FIGURE_IDS}
        return cls(figures, dict(data["calls"]))

    def mismatch(self, call: Call, out, err) -> str | None:
        """None when the call behaves as at the seed: same values, or a
        raise where the seed raised too."""
        ref = self.calls[call.key]
        if err is not None:
            if "seed_error" in ref:
                return None
            return f"{call.key}: raised {err!r}"
        # Where the seed raised, a fixed program must give the closed form.
        expected = ref["values"] if "values" in ref else ref["closed_form"]
        if len(out) != len(expected) or any(
                not abs(a - b) <= ABS_TOL for a, b in zip(out, expected)):
            return f"{call.key}: got {list(out)}, reference {expected}"
        return None


# ---------------------------------------------------------------------------
# measured loops


@dataclass
class Tally:
    """Operations attempted and failed, and outputs that differ from the
    seed reference.  A failure the seed had too is not a mismatch."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def record(self, failed: bool, mismatch: str | None = None):
        self.attempted += 1
        self.failed += bool(failed or mismatch)
        if mismatch:
            self.mismatches.append(mismatch)

    @property
    def correct(self) -> bool:
        return not self.mismatches


def _pool_order(seed: int, size: int):
    """Endless seed-determined sequence of pool batches; each lap is a new
    permutation, so no batch repeats before the pool is used up."""
    rng = random.Random(seed)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def figure_pass(ref: FixedReference, out_dir: Path, tally: Tally,
                gauge: Gauge | None = None):
    """Three figure tables; returns ((start, seconds) per figure, CSV bytes
    per figure, None where the CSV was not written).  Each CSV is removed
    first, so a stale file never passes for a new one.  With a gauge, it is
    sampled before each figure and after the last."""
    specs = [cli.FigureSpec(id=i, out_csv=str(out_dir / "figures" / f"fig{i}.csv"))
             for i in FIGURE_IDS]
    for spec in specs:
        Path(spec.out_csv).unlink(missing_ok=True)
    timings = []
    for spec in specs:
        if gauge is not None:
            gauge.sample()
        start = time.perf_counter()
        cli.run_figure(spec)
        timings.append((start, time.perf_counter() - start))
    if gauge is not None:
        gauge.sample()
    outputs = []
    for spec in specs:
        path = Path(spec.out_csv)
        data = path.read_bytes() if path.is_file() else None
        outputs.append(data)
        if data is None:
            tally.record(True, f"figure {spec.id}: no CSV written")
        elif data != ref.figures[spec.id]:
            tally.record(True, f"figure {spec.id}: CSV bytes differ from "
                               f"the reference")
        else:
            tally.record(False)
    return timings, outputs


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, exc
    return (start, time.perf_counter() - start), out, err


def run_verify_batch(spec, vref, batch, tally):
    """One run_verify call; returns ((start, seconds), summary or None)."""
    timing, res, err = _timed(cli.run_verify, verify_config(spec, batch))
    if err is not None:
        tally.record(True, f"batch {batch}: raised {err!r}")
        return timing, None
    summary = verify_summary(res)
    tally.record(False, vref.mismatch(batch, summary))
    return timing, summary


def run_call(call, corpus, fref, tally):
    """One single-state call; returns ((start, seconds), output, raised
    exception)."""
    timing, out, err = _timed(execute, call, corpus)
    tally.record(err is not None, fref.mismatch(call, out, err))
    return timing, out, err


@dataclass
class Samples:
    """``(start, seconds)`` timings of one measured run, and the gauge
    sampled between them."""

    gauge: Gauge = field(default_factory=Gauge)
    calls: list = field(default_factory=list)      # successful calls
    work: list = field(default_factory=list)       # calls behind `states`
    figures: list = field(default_factory=list)    # figure passes, 3 each
    setup: list = field(default_factory=list)      # fresh imports
    states: int = 0          # states fully checked by the `work` calls
    pool_laps: int = 0


def import_timing() -> tuple[float, float]:
    """(start, wall seconds) of a fresh interpreter running
    ``import entbounds``."""
    cmd = [sys.executable, "-c", "import entbounds"]
    child_env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    start = time.perf_counter()
    subprocess.run(cmd, cwd=SRC_DIR.parent, env=child_env, check=True)
    return start, time.perf_counter() - start


class Checkpoints:
    """CHECKPOINTS evenly spaced times over a run of ``seconds``."""

    def __init__(self, seconds: float):
        start = time.perf_counter()
        self.deadline = start + seconds
        self._step = seconds / CHECKPOINTS
        self._next = start
        self._left = CHECKPOINTS

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def due(self) -> bool:
        """True once per checkpoint reached, at most CHECKPOINTS times."""
        if not self._left or time.perf_counter() < self._next:
            return False
        self._next += self._step
        self._left -= 1
        return True


def measure_verify(workload, seed, seconds, out_dir, tally) -> Samples:
    spec = VERIFY[workload]
    vref = VerifyReference.load(workload)
    fref = FixedReference.load()
    order = _pool_order(seed, len(vref.violations))
    s = Samples()
    run = Checkpoints(seconds)
    batches = 0
    while run.running() or not batches:
        if run.due():
            s.figures.append(figure_pass(fref, out_dir, tally, s.gauge)[0])
            s.setup.append(import_timing())
        s.gauge.tick()
        timing, summary = run_verify_batch(spec, vref, next(order), tally)
        batches += 1
        if summary is not None:
            s.calls.append(timing)
            s.work.append(timing)
            s.states += spec.trials
    s.gauge.sample()
    s.pool_laps = batches // len(vref.violations)
    return s


def measure_fixed(seed, seconds, out_dir, tally) -> Samples:
    fref = FixedReference.load()
    corpus = load_corpus()
    calls = fixed_calls(corpus)
    rng = random.Random(seed)
    s = Samples()
    run = Checkpoints(seconds)
    while run.running():
        s.figures.append(figure_pass(fref, out_dir, tally, s.gauge)[0])
        order = calls[:]
        rng.shuffle(order)
        for call in order:
            if run.due():
                s.gauge.sample()
                s.setup.append(import_timing())
            s.gauge.tick()
            timing, _, err = run_call(call, corpus, fref, tally)
            s.work.append(timing)
            if err is None:
                s.calls.append(timing)
        s.states += len(corpus)
    s.gauge.sample()
    return s


def _quantiles(values):
    """(median, p90, samples beyond p90)."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return statistics.median(values), p90, sum(v > p90 for v in values)


def _timing_values(s: Samples, scale) -> dict[str, float]:
    calls = scale(s.calls)
    p50, p90, _ = _quantiles(calls)
    work_s = sum(scale(s.work))
    return {
        "states_per_s": s.states / work_s if work_s else 0.0,
        "figures_s": statistics.median(sum(scale(f)) for f in s.figures),
        "call_p50_ms": 1e3 * p50,
        "call_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(scale(s.setup)),
    }


def end_to_end(s: Samples) -> tuple[dict[str, float], dict]:
    """Untraced metric values, every time scaled to the gauge's reference
    speed, plus the unscaled values and the sample counts behind them."""
    values = _timing_values(s, s.gauge.scaled)
    wall = _timing_values(s, lambda timings: [t for _, t in timings])
    counts = {"calls_timed": len(s.calls),
              "calls_beyond_p90": _quantiles(s.gauge.scaled(s.calls))[2],
              "figure_passes": len(s.figures), "setup_runs": len(s.setup),
              "states": s.states, "pool_laps": s.pool_laps,
              "gauge_samples": len(s.gauge.samples),
              "gauge_median_s": s.gauge.median_s(),
              "unscaled": wall}
    return values, counts


# ---------------------------------------------------------------------------
# traced run: fixed work, each item untraced and traced in turn


def _work_items(workload, seed, out_dir, tally) -> list:
    """The workload's fixed traced work, as calls that take no argument and
    return the item's output."""
    if workload in VERIFY:
        spec = VERIFY[workload]
        vref = VerifyReference.load(workload)
        order = _pool_order(seed, len(vref.violations))
        return [functools.partial(
                    lambda b: run_verify_batch(spec, vref, b, tally)[1],
                    next(order))
                for _ in range(spec.trace_batches)]

    fref = FixedReference.load()
    corpus = load_corpus()
    calls = fixed_calls(corpus)
    rng = random.Random(seed)

    def call_output(call):
        _, out, err = run_call(call, corpus, fref, tally)
        return out if err is None else repr(err)

    items = []
    for _ in range(FIXED_TRACE_PASSES):
        order = calls[:]
        rng.shuffle(order)
        items.append(lambda: figure_pass(fref, out_dir, tally)[1])
        items.extend(functools.partial(call_output, call) for call in order)
    return items


def traced(workload, seed, out_dir, tally) -> tuple[dict[str, float], Tracer, dict]:
    """Per-layer values of the fixed work, with the tracing overhead taken
    against the same work untraced.  A first untraced pass warms the
    interpreter and numpy.  Then each item runs once untraced and once
    traced, alternating which goes first, so that a change of machine speed
    during the run falls on both sides alike."""
    items = _work_items(workload, seed, out_dir, tally)
    for item in items:
        item()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    differ = 0
    for k, item in enumerate(items):
        sides = []
        for trace in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer if trace else contextlib.nullcontext():
                start = time.perf_counter()
                out = item()
                elapsed = time.perf_counter() - start
            sides.append((trace, elapsed, out))
        sides.sort(key=lambda side: side[0])
        (_, p_s, p_out), (_, t_s, t_out) = sides
        plain_s += p_s
        traced_s += t_s
        differ += p_out != t_out
    if differ:
        tally.mismatches.append(f"traced and untraced outputs differ on "
                                f"{differ} of {len(items)} items")
    values = tracer.metrics()
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return values, tracer, {"untraced_s": plain_s, "traced_s": traced_s,
                            "spans": len(tracer.spans)}

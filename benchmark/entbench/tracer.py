"""Outside-in span tracer for the entbounds layers.

The package binds names with ``from .x import y``, so a function has one
reference per importing module (``entbounds.bounds.reduced_density``,
``entbounds.optimizer.theta``, ``entbounds.cli.pure_concurrence``, ...).
A ``Tracer``, used as a context manager, replaces every such reference
with a wrapper and puts the originals back on exit; patching only the
defining module would miss the calls that go through the other namespaces.

A span is ``(name id, start, end, parent index, outer start, outer end)``
with ``parent = -1`` for a top-level call.  ``start``/``end`` bracket the
wrapped call alone; the outer interval adds the wrapper's own bookkeeping
(input hashing, counters).  Spans stay in memory until ``write_spans``.  A
span's self time is its duration minus the part of it that the outer
intervals of its child spans cover, so the tracer's bookkeeping is charged
to no layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions timed per layer, keyed by their defining module.
WRAPPED = {
    "rng": ("uniforms", "complex_normals"),
    "states": ("haar_random_pure", "parse_state_spec"),
    "linalg": ("projector", "partial_trace", "partial_transpose",
               "trace_norm"),
    "measures": ("reduced_density", "cren_crenoa_two_qubit",
                 "pure_concurrence", "negativity", "schmidt_rank"),
    "bounds": ("pair_measures_sq", "theta", "chain_bound",
               "lemma_chain_grid"),
    "optimizer": ("optimize",),
    "cli": ("run_verify", "figure_rows", "run_figure", "run_bounds"),
}
# The six public report functions share one span name; their self time is
# grouping/p resolution plus report assembly.
REPORTS = "bounds.reports"
REPORT_FUNCTIONS = ("polygamy_bound_coa", "monogamy_lower_AB",
                    "polygamy_upper_AB", "negativity_bounds_AB",
                    "tripartite_bounds", "multi_partition_polygamy")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items()
                   for fn in fns) + (REPORTS,)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    tuple((f"{span}.{kind}", unit, "lower")
          for span in SPAN_NAMES
          for kind, unit in (("calls", "count"), ("self_ms", "ms")))
    + (
        ("measures.cren_crenoa_two_qubit.distinct_ratio", "fraction", "higher"),
        ("bounds.pair_measures_sq.distinct_ratio", "fraction", "higher"),
        ("linalg.partial_trace.bytes_in", "B", "lower"),
        ("optimizer.optimize.failed", "count", "lower"),
        ("optimizer.groupings", "count", "lower"),
        ("optimizer.groupings.max_per_call", "count", "lower"),
        ("optimizer.feasible_ratio", "fraction", "higher"),
        ("trace_overhead_frac", "fraction", "lower"),
        ("error_rate", "fraction", "lower"),
    )
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the outer
    intervals of its direct children, clipped to the span."""
    children = defaultdict(list)
    for _, _, _, parent, outer_start, outer_end in spans:
        if parent >= 0:
            children[parent].append((outer_start, outer_end))
    out = []
    for idx, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans: list = []
        self._stack: list[int] = []
        self.failed = defaultdict(int)      # span name -> calls that raised
        self.distinct = defaultdict(int)    # span name -> distinct inputs
        self._seen = defaultdict(set)       # keys seen in the current root call
        self.partial_trace_bytes = 0
        self.groupings = 0
        self.groupings_max = 0
        self.evaluations = 0
        self._undo: list = []

    # -- counters at the layer boundaries ---------------------------------

    def _note_distinct(self, name, key):
        seen = self._seen[name]
        if key not in seen:
            seen.add(key)
            self.distinct[name] += 1

    def _before(self, name, args, kwargs):
        if name == "measures.cren_crenoa_two_qubit":
            rho = np.ascontiguousarray(_arg(args, kwargs, 0, "rho"))
            self._note_distinct(name, hash(rho.tobytes()))
        elif name == "bounds.pair_measures_sq":
            psi = _arg(args, kwargs, 0, "psi")
            focus = _arg(args, kwargs, 1, "focus")
            self._note_distinct(name, (hash(psi.amplitudes.tobytes()), focus))
        elif name == "linalg.partial_trace":
            dim = np.shape(_arg(args, kwargs, 0, "rho"))[0]
            self.partial_trace_bytes += 16 * dim * dim  # complex128 input

    def _counting_partitions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for grouping in fn(*args, **kwargs):
                self.groupings += 1
                yield grouping
        return wrapper

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn):
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack
        is_optimize = name == "optimizer.optimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_start = time.perf_counter()
            if not stack:
                self._seen.clear()      # distinct inputs count per root call
            self._before(name, args, kwargs)
            groupings_at_start = self.groupings
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if not returned:
                    self.failed[name] += 1
                if is_optimize:
                    self.groupings_max = max(
                        self.groupings_max, self.groupings - groupings_at_start)
                    if returned:
                        self.evaluations += result.evaluations
                spans[idx] = (nid, start, end, parent, outer_start,
                              time.perf_counter())
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every entbounds module's reference to ``original`` at
        ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "entbounds" and not mod_name.startswith("entbounds."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("entbounds")
        for mod, fns in WRAPPED.items():
            module = importlib.import_module(f"entbounds.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                self._rebind(original, self._span(f"{mod}.{fn}", original))
        bounds = importlib.import_module("entbounds.bounds")
        for fn in REPORT_FUNCTIONS:
            original = getattr(bounds, fn)
            self._rebind(original, self._span(REPORTS, original))
        optimizer = importlib.import_module("entbounds.optimizer")
        original = optimizer.ordered_set_partitions
        self._rebind(original, self._counting_partitions(original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values keyed by the names in PER_LAYER (except the
        two run-level ones, trace_overhead_frac and error_rate)."""
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for (nid, *_), t in zip(self.spans, self_times(self.spans)):
            calls[self.names[nid]] += 1
            self_ms[self.names[nid]] += 1e3 * t
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_ms"] = self_ms[span]

        def ratio(num, den):
            return num / den if den else 0.0

        for span in ("measures.cren_crenoa_two_qubit", "bounds.pair_measures_sq"):
            out[f"{span}.distinct_ratio"] = ratio(self.distinct[span], calls[span])
        out["linalg.partial_trace.bytes_in"] = self.partial_trace_bytes
        out["optimizer.optimize.failed"] = self.failed["optimizer.optimize"]
        out["optimizer.groupings"] = self.groupings
        out["optimizer.groupings.max_per_call"] = self.groupings_max
        out["optimizer.feasible_ratio"] = ratio(self.evaluations, self.groupings)
        return out

    def write_spans(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64),
                            outer_start=arr[:, 4], outer_end=arr[:, 5])

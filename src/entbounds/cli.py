"""Command-line front end: figure data files, randomized verification
sweeps, and single-state bound reports.

Exit codes: 0 success, 1 verification violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import (
    COMPARATOR_NAMES,
    _ab_cuts,
    _check_exponents,
    _columns,
    _one_rest,
    cut_sandwiches,
    lemma_chain_grid,
    multi_partition_polygamy,
)
from .measures import Bipartition
from .states import (
    AcinParams,
    WClass4Params,
    acin_state,
    haar_random_pure,
    parse_state_spec,
    wclass4_state,
)

# Example-family parameters used by the three figures.
FIG1_PARAMS = AcinParams(l0=0.5, l1=0.0, l2=np.sqrt(2) / 2, l3=0.5, l4=0.0)
FIG1_P = (3 / 5,)
FIG23_PARAMS = WClass4Params(l1=3 / 4, l2=1 / 2, l3=np.sqrt(2) / 4, l4=1 / 4)
# The monogamy figure's bound subtracts theta_B, so only focus B's p is
# pinned by that curve; focus A reuses the polygamy figure's choice.
FIG23_P = {"A": (4 / 5, 3 / 5), "B": (2 / 5, 3 / 5)}

_LEMMA_STREAM_BASE = 2 ** 32  # keeps lemma triples off the state streams
# Trials evaluated as one stack by run_verify.  The value bounds the
# memory of one stack (pair cut matrices of about 12 KB per 6-qubit
# state); larger chunks measured faster (ROADMAP item 17).
VERIFY_CHUNK = 64


def _integers(record, *names):
    """Store each named field of a frozen record as ``operator.index``
    gives it; a float, str or None raises TypeError naming the field."""
    for name in names:
        value = getattr(record, name)
        try:
            object.__setattr__(record, name, operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class FigureSpec:
    """One figure reproduction request."""

    id: int
    out_csv: str
    out_svg: str | None = None
    samples: int = 201

    def __post_init__(self):
        _integers(self, "id", "samples")
        if self.id not in (1, 2, 3):
            raise ValueError(f"figure id must be 1, 2 or 3, got {self.id}")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class VerifyConfig:
    """Randomized verification sweep configuration; ``exponents`` is kept
    as the tuple of floats that ``bounds._check_exponents`` returns."""

    qubits: int = 4
    trials: int = 100
    exponents: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    seed: int = 42
    tol: float = 1e-9

    def __post_init__(self):
        # first, so that a non-numeric --exponents is reported before the rest
        object.__setattr__(self, "exponents",
                           tuple(_check_exponents(self.exponents)))
        _integers(self, "qubits", "trials", "seed")
        if not 4 <= self.qubits <= 6:
            raise ValueError(f"qubits must be in [4, 6], got {self.qubits}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.exponents:
            raise ValueError("need at least one exponent")
        if not np.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")


@dataclass
class CheckStat:
    """Worst slack and violation count of one inequality over a sweep.  A
    NaN slack is a violation and stays the worst slack once seen."""

    name: str
    worst_slack: float = np.inf
    violations: int = 0
    samples: int = 0

    def _fold(self, samples: int, low: float, violations: int):
        self.samples += samples
        if low < self.worst_slack or math.isnan(low):
            self.worst_slack = low
        self.violations += violations


@dataclass
class VerifyResult:
    stats: dict[str, CheckStat] = field(default_factory=dict)

    def record_chunk(self, slacks: dict[str, np.ndarray], tol: float):
        """Fold each check's non-empty slack array into its ``CheckStat``,
        with one minimum and one violation count over all of them: a slack
        below -tol or NaN is a violation, and the worst slack is the lowest
        (an earlier equal one stays) or a NaN, which stays once seen."""
        sizes = [s.size for s in slacks.values()]
        starts = list(itertools.accumulate(sizes[:-1], initial=0))
        flat = np.concatenate(list(slacks.values()), axis=None)
        lows = np.minimum.reduceat(flat, starts).tolist()
        bad = np.add.reduceat(~(flat >= -tol), starts, dtype=int).tolist()
        for name, *fold in zip(slacks, sizes, lows, bad):
            if name not in self.stats:
                self.stats[name] = CheckStat(name)
            self.stats[name]._fold(*fold)

    @property
    def violations(self) -> int:
        return sum(s.violations for s in self.stats.values())


_fmt = "{:.12g}".format   # every printed value, 12 significant digits


def _check_dirs(*paths):
    """Raise before the work, not after it, what writing a path into a
    missing directory, or over a directory, raises."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        if not Path(path).parent.is_dir():
            Path(path).touch()   # raises the OSError that writing would


def _write_lines(path: str, lines: list[str]):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SVG_COLORS = ("#1f4e9c", "#c02020", "#b020b0", "#208020", "#20a0a0")


def _write_svg(path: str, header: list[str], rows: list[tuple[float, ...]]):
    """Minimal self-contained line plot: axes, tick labels, legend."""
    width, height, margin = 640, 440, 56
    xs = [r[0] for r in rows]
    series = list(zip(*[r[1:] for r in rows]))
    names = header[1:]
    ymin = min(min(s) for s in series)
    ymax = max(max(s) for s in series)
    if ymax - ymin < 1e-12:
        ymax = ymin + 1.0
    xmin, xmax = min(xs), max(xs)

    def sx(x):
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i in range(5):
        xv = xmin + (xmax - xmin) * i / 4
        yv = ymin + (ymax - ymin) * i / 4
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{height - margin}" '
                     f'x2="{sx(xv):.1f}" y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:.2g}</text>')
        parts.append(f'<line x1="{margin - 5}" y1="{sy(yv):.1f}" '
                     f'x2="{margin}" y2="{sy(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
                 f'text-anchor="middle">{header[0]}</text>')
    for idx, (name, ys) in enumerate(zip(names, series)):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = margin + 16 * idx
        parts.append(f'<line x1="{width - margin - 90}" y1="{ly}" '
                     f'x2="{width - margin - 70}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 64}" y="{ly + 4}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)


# Figure id -> (exponent name, curve letter, state, p, cut).  The cut is
# its report function's (polygamy_bound_coa at A, monogamy_lower_AB,
# polygamy_upper_AB), plotted side only: lhs, ours and the first three
# comparators of that side, read from one _columns call.
_FIGURES = {
    1: ("beta", "Z", lambda: acin_state(FIG1_PARAMS), FIG1_P,
        lambda psi: _one_rest(psi, ["A"])),
    2: ("alpha", "T", lambda: wclass4_state(FIG23_PARAMS), FIG23_P,
        lambda psi: _ab_cuts(psi)[0]._replace(upper=None)),
    3: ("alpha", "X", lambda: wclass4_state(FIG23_PARAMS), FIG23_P,
        lambda psi: _one_rest(psi, ["A", "B"])),
}


def figure_rows(fig_id: int, samples: int = 201
                ) -> tuple[list[str], list[tuple[float, ...]]]:
    """Header and rows of one figure's data table: per exponent, its
    report's lhs and ours, then the first three comparators, bit for bit.
    One ``_columns`` call evaluates the cut at every exponent, and one
    ``tolist`` reads out the plotted columns."""
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id}")
    expo_name, letter, make_state, p, make_cut = _FIGURES[fig_id]
    header = [expo_name, "lhs"] + [f"{letter}{i}" for i in range(1, 5)]
    exponents = np.linspace(0.0, 2.0, samples).tolist()  # floats format fast
    psi = make_state()
    [(lhs, ours, comparators, _, _)] = _columns(psi, exponents, p, make_cut(psi))
    plotted = np.array([lhs, ours, *comparators[:3]]).reshape(5, -1)  # 1 sample too
    return header, list(zip(exponents, *plotted.tolist()))


def run_figure(spec: FigureSpec) -> tuple[list[str], list[tuple[float, ...]]]:
    """Generate one figure's CSV (one ``%`` format per row tuple) and
    optional SVG; returns the table."""
    _check_dirs(spec.out_csv, spec.out_svg)
    header, rows = figure_rows(spec.id, spec.samples)
    row_format = ",".join(["%.12g"] * len(header))   # _fmt of each value
    _write_lines(spec.out_csv, [",".join(header)]
                 + [row_format % row for row in rows])
    if spec.out_svg:
        _write_svg(spec.out_svg, header, rows)
    return header, rows


def run_verify(cfg: VerifyConfig) -> VerifyResult:
    """Randomized verification of every inequality family on Haar states.

    Each trial draws one state (stream = trial index) and one lemma
    triple, and checks the lemma and every per-state slack of
    ``cut_sandwiches``: the pair inequalities of focus A and, at each
    exponent, the concurrence and negativity sandwiches across AB|rest
    and, from 5 qubits, across ABC1|rest.  A chunk of VERIFY_CHUNK trials
    is one stack: one draw of states and one of triples, one
    ``cut_sandwiches`` call (each cut read once, no cut record or report
    built) and one ``VerifyResult.record_chunk`` fold, bit for bit a
    one-state sweep of the report functions.  A chunk makes the same
    Python calls whatever its size: per state it pays two Philox
    re-keyings and its share of numpy's stacked arithmetic and SVD (from
    5 qubits also QR) calls; ``scripts/profile.py verify`` splits a
    call's time by stage.  Slack is (larger side) - (smaller side);
    slack < -tol or NaN is a violation.
    """
    res = VerifyResult()
    for start in range(0, cfg.trials, VERIFY_CHUNK):
        stop = min(start + VERIFY_CHUNK, cfg.trials)
        chain = lemma_chain_grid(1, cfg.seed, range(
            _LEMMA_STREAM_BASE + start, _LEMMA_STREAM_BASE + stop))[:, 0]
        psi = haar_random_pure(cfg.qubits, cfg.seed, stream=range(start, stop))
        res.record_chunk({
            "lemma_key_inequality": chain[:, 1] - chain[:, 0],
            "lemma_chain_order": (chain[:, 2:] - chain[:, 1:-1]).min(axis=1),
            **cut_sandwiches(psi, cfg.exponents)}, cfg.tol)
    return res


_BOUNDS_CSV_HEADER = ",".join(("cut", "exponent", "lhs", "ours")
                              + COMPARATOR_NAMES + ("gap",))


def _read_text(path: str) -> str:
    """A file's UTF-8 text; ``open`` raises as ``Path.read_text`` does."""
    with open(path, "rb") as file:
        return file.read().decode("utf-8")


def run_bounds(state_path: str, cut_expr: str, exponent: float, p_mode: str,
               renormalize: bool = False):
    """Evaluate the polygamy bound for one state file and cut.

    Returns (report, text lines, csv row string).  p_mode is "auto", "1"
    (the literature specialization) or a comma-separated explicit vector
    applied to every focus on the left side of the cut.  The file is read
    and parsed once, and the cut parsed once and handed to the report.
    """
    psi = parse_state_spec(_read_text(state_path), renormalize=renormalize)
    cut = Bipartition.parse(cut_expr, psi.shape)
    if p_mode == "auto":
        p = "auto"
    elif p_mode == "1":
        p = "one"
    else:
        try:
            p = tuple(map(float, p_mode.split(",")))
        except ValueError:
            raise ValueError(f"cannot parse p specification {p_mode!r}") from None
    [rep] = multi_partition_polygamy(psi, cut, [exponent], p=p)
    return (rep, *_bounds_text(state_path, psi.n_qubits, cut, exponent, rep))


def _bounds_text(state_path: str, n_qubits: int, cut, exponent: float, rep):
    """A report's text lines and CSV row, each value formatted once."""
    cut_text = f"{''.join(cut.left)}|{''.join(cut.right)}"
    texts = list(map(_fmt, [exponent, rep.lhs, rep.ours,
                            *map(rep.comparators.get, COMPARATOR_NAMES),
                            rep.gap]))
    lines = [
        f"state: {state_path} ({n_qubits} qubits)",
        f"cut: {cut_text}   exponent: {texts[0]}",
        f"lhs  C^b(left|rest) = {texts[1]}",
        f"ours (parametrized) = {texts[2]}   gap = {texts[-1]}",
        *map("{:20s}= {}".format, COMPARATOR_NAMES, texts[3:-1]),
    ]
    for f in cut.left:
        fp = rep.foci[f]
        fb = " (fallback to single group)" if fp.fallback else ""
        lines.append(f"focus {f}: groups {list(fp.grouping)} "
                     f"p = {[round(v, 12) for v in fp.p]}{fb}")
    return lines, ",".join([cut_text, *texts])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbounds",
        description="Multipartite entanglement bound families: figure "
                    "reproduction, randomized verification, bound reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce a figure as CSV (+SVG)")
    fig.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    fig.add_argument("--out", required=True, help="output CSV path")
    fig.add_argument("--svg", help="optional SVG plot path")
    fig.add_argument("--samples", type=int, default=201)

    ver = sub.add_parser("verify", help="randomized inequality verification")
    ver.add_argument("--qubits", type=int, default=4)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--exponents", default="0.5,1,1.5,2",
                     help="comma-separated exponents in [0,2]")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--csv", help="optional per-check CSV summary path")

    bnd = sub.add_parser("bounds", help="bound report for one state file")
    bnd.add_argument("--state", required=True, help="state-spec file path")
    bnd.add_argument("--cut", required=True, help="partition, e.g. AB|C1C2")
    bnd.add_argument("--exponent", type=float, required=True)
    bnd.add_argument("--p", default="auto",
                     help="'auto', '1', or comma-separated values in (0,1]")
    bnd.add_argument("--renormalize", action="store_true",
                     help="accept non-normalized state specs")
    bnd.add_argument("--csv", help="optional CSV row output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            spec = FigureSpec(id=args.id, out_csv=args.out, out_svg=args.svg,
                              samples=args.samples)
            run_figure(spec)
            print(f"figure {spec.id}: wrote {spec.out_csv}"
                  + (f" and {spec.out_svg}" if spec.out_svg else ""))
            return 0
        if args.command == "verify":
            cfg = VerifyConfig(qubits=args.qubits, trials=args.trials,
                               exponents=args.exponents.split(","),
                               seed=args.seed, tol=args.tol)
            _check_dirs(args.csv)
            res = run_verify(cfg)
            if args.csv:
                _write_lines(args.csv, ["check,worst_slack,violations,samples"]
                             + [f"{st.name},{_fmt(st.worst_slack)},"
                                f"{st.violations},{st.samples}"
                                for st in res.stats.values()])
            width = max(len(n) for n in res.stats)
            for st in res.stats.values():
                flag = "FAIL" if st.violations else "ok"
                print(f"{st.name:{width}s}  worst slack {st.worst_slack: .3e}"
                      f"  violations {st.violations}/{st.samples}  [{flag}]")
            if res.violations:
                print(f"{res.violations} violation(s) beyond tol={args.tol}")
                return 1
            print("all inequalities hold within tolerance")
            return 0
        if args.command == "bounds":
            _check_dirs(args.csv)
            _, lines, csv_row = run_bounds(
                args.state, args.cut, args.exponent, args.p,
                renormalize=args.renormalize)
            for line in lines:
                print(line)
            if args.csv:
                _write_lines(args.csv, [_BOUNDS_CSV_HEADER, csv_row])
            else:
                print(_BOUNDS_CSV_HEADER)
                print(csv_row)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

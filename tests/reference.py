"""The tests' second routes: each an independent formula for a number that
the package computes, defined once here and imported by every test that
checks that number, with the paths, states and script loader the tests
share.  A route calls no code that it checks: ``one_state_slacks`` reads
the report functions to check ``cut_sandwiches``, and the fold rule is
written out, not ``cli.CheckStat._fold``.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from entbounds import cli
from entbounds.bounds import (
    SANDWICH_NAMES,
    lemma_chain_grid,
    monogamy_lower_AB,
    negativity_bounds_AB,
    pair_measures_sq,
    polygamy_upper_AB,
    tripartite_bounds,
)
from entbounds.cli import CheckStat, VerifyConfig, VerifyResult
from entbounds.linalg import default_labels, qubit_shape
from entbounds.measures import Bipartition, pure_concurrence
from entbounds.states import PureState, haar_random_pure, parse_state_spec

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "benchmark" / "corpus"
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def read_corpus(*names: str) -> dict[str, PureState]:
    """The benchmark's state files (only read), name -> state: every one in
    name order, or the named ones in the given order."""
    if not names:
        names = sorted(path.stem for path in CORPUS_DIR.glob("*.state"))
        assert len(names) == 26   # an empty corpus glob fails
    return {name: parse_state_spec((CORPUS_DIR / f"{name}.state").read_text(
                encoding="utf-8"))
            for name in names}


def load_script(name: str):
    """``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        f"{name}_script", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_term_state(n: int, index: int, eps: float | None = None) -> PureState:
    """cos(eps)|0...0> + sin(eps)|index> on n qubits; without eps both
    amplitudes are 1/np.sqrt(2), which is an ulp from cos(pi/4)."""
    amp = np.zeros(2 ** n, dtype=complex)
    if eps is None:
        amp[0] = amp[index] = 1 / np.sqrt(2)
    else:
        amp[0], amp[index] = np.cos(eps), np.sin(eps)
    return PureState(qubit_shape(default_labels(n)), amp)


def equal_superposition(n: int, indices) -> PureState:
    """The equal-weight superposition of the basis states ``indices`` on n
    qubits, each amplitude 1 / np.sqrt(len(indices)): Bell, GHZ, W and
    Dicke states and their embeddings."""
    amp = np.zeros(2 ** n, dtype=complex)
    amp[indices] = 1.0 / np.sqrt(len(indices))
    return PureState(qubit_shape(default_labels(n)), amp)


def random_w_states(generator, n: int, count: int) -> list[PureState]:
    """``count`` random complex W-class states sum_k a_k |0...1_k...0> on n
    qubits (ROADMAP item 23), each a = x + iy from two draws of n standard
    normals of the numpy ``generator``, x first, then normalized."""
    out = []
    for _ in range(count):
        a = generator.normal(size=n) + 1j * generator.normal(size=n)
        amp = np.zeros(2 ** n, dtype=complex)
        amp[2 ** np.arange(n - 1, -1, -1)] = a / np.linalg.norm(a)
        out.append(PureState(qubit_shape(default_labels(n)), amp))
    return out


def random_density(generator, d: int) -> np.ndarray:
    """A A^dagger / Tr(A A^dagger) for a d x d complex Gaussian A."""
    a = generator.normal(size=(d, d)) + 1j * generator.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def linear_entropy(rho):
    """1 - Tr rho^2, a second route to C^2(left|rest) = 2 (1 - Tr rho_left^2)
    of a pure state."""
    return 1.0 - np.trace(rho @ rho).real


def left_to_right(values):
    """The values added one after another.  Not the built-in ``sum``, which
    compensates its round-off from Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_theta(groups, exponent, p):
    """theta written out from the key inequality: group sums left to
    right, trailing heads below 1e-9 dropped, and at level l the tail ratio
    t capped at p_l, Omega = 1 + x t/(1+p)^2 and Upsilon = ((1+p)^x - 1)/p^x
    - x p/((1+p)^2 p^x) at x = exponent/2."""
    x = exponent / 2.0
    heads = [left_to_right(g) for g in groups]
    while heads and heads[-1] < 1e-9:
        heads.pop()
    value, prefix = 0.0, 1.0
    for level in range(len(heads) - 1):
        pl = p[level]
        t = min(left_to_right(heads[level + 1:]) / heads[level], pl)
        omega = 1.0 + x * t / (1.0 + pl) ** 2
        upsilon = (((1.0 + pl) ** x - 1.0) / pl ** x
                   - x * pl / ((1.0 + pl) ** 2 * pl ** x))
        value += prefix * omega * heads[level] ** x
        prefix *= upsilon
    return value + prefix * (heads[-1] if heads else 0.0) ** x


def one_state_slacks(psi: PureState, exponents) -> dict:
    """What ``cut_sandwiches`` gives one state, by name and in its order:
    focus A's pair slacks in Python floats (its pair CoA^2 sum less
    C^2(A|rest), and C^2(A|rest) less its pair C^2 sum), then the gap at
    each exponent of every report that SANDWICH_NAMES names."""
    c_sq, ca_sq = pair_measures_sq(psi, "A")
    c_one_rest = pure_concurrence(psi, Bipartition.of(psi.shape, ["A"]))
    neg = negativity_bounds_AB(psi, exponents)
    reports = [monogamy_lower_AB(psi, exponents),
               polygamy_upper_AB(psi, exponents),
               [s.lower for s in neg], [s.upper for s in neg]]
    if psi.n_qubits >= 5:
        tri = tripartite_bounds(psi, exponents)
        reports += [[s.lower for s in tri], [s.upper for s in tri]]
    return {"pair_coa_polygamy": float(ca_sq.sum()) - c_one_rest ** 2,
            "pair_conc_monogamy": c_one_rest ** 2 - float(c_sq.sum()),
            **{name: [rep.gap for rep in reps]
               for name, reps in zip(SANDWICH_NAMES, reports)}}


def add(stat: CheckStat, slack, tol: float):
    """Fold one slack or an array of them into ``stat``, one at a time in
    Python floats: each is a sample and, unless it is at least -tol, a
    violation (a NaN is one).  It becomes the worst slack if it is a NaN
    or below the worst so far, but never replaces a NaN: a NaN stays the
    worst slack once seen, and a later equal minimum keeps the earlier."""
    for value in np.asarray(slack, dtype=float).ravel().tolist():
        stat.samples += 1
        stat.violations += not value >= -tol
        if not math.isnan(stat.worst_slack) and (
                math.isnan(value) or value < stat.worst_slack):
            stat.worst_slack = value


def per_function_verify(cfg: VerifyConfig) -> VerifyResult:
    """``run_verify`` written as one call per report function per state and
    one ``add`` per check and state: the reference that the batched chunks
    must reproduce bit for bit."""
    res = VerifyResult()
    for trial in range(cfg.trials):
        chain = lemma_chain_grid(1, cfg.seed, cli._LEMMA_STREAM_BASE + trial)[0]
        psi = haar_random_pure(cfg.qubits, cfg.seed, stream=trial)
        slacks = {"lemma_key_inequality": chain[1] - chain[0],
                  "lemma_chain_order": float(np.min(np.diff(chain[1:]))),
                  **one_state_slacks(psi, cfg.exponents)}
        for name, slack in slacks.items():
            add(res.stats.setdefault(name, CheckStat(name)), slack, cfg.tol)
    return res

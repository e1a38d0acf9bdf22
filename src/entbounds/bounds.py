"""Parametrized bound families for multipartite entanglement.

The machinery rests on one elementary inequality: for 0 < p <= 1,
0 <= t <= p and 0 <= x <= 1,

    (1 + t)^x <= Omega + Upsilon * t^x,
    Omega   = 1 + x*t/(1+p)^2,
    Upsilon = ((1+p)^x - 1)/p^x - x*p/((1+p)^2 * p^x),

which is exact at p = t and at x in {0, 1}.  Applied recursively over an
ordered grouping of squared pair CoA values it yields the grouped upper
bound ``theta`` on the x-th power of a one-versus-rest squared
concurrence, and from theta the monogamy/polygamy bounds for the AB|rest
and ABC1|rest cuts, their negativity analogues, and the multi-focus
polygamy bound.  The looser literature bounds appear as comparators:
the p=1 specialization and the coefficient chains (2^x - 1)^(l-1),
x^(l-1) and 1.

The p = t identity: at p = t the inequality is an equality,

    Omega + Upsilon * t^x
      = 1 + x*t/(1+t)^2 + ((1+t)^x - 1) - x*t/(1+t)^2 = (1+t)^x,

so theta with p_l = t_l at every level telescopes to
(sum_j C_a^2(focus|j))^(x) whatever the grouping.  Auto mode therefore
reports the descending grouping and p = t for inspection but evaluates
"ours" as the single-group theta; explicit p vectors between t and 1 are
the family proper.

``bounds`` reads no amplitudes: it combines what ``measures`` reads,
the pair values of all foci from one ``pair_measures_sq`` call, AB|rest's
C, N and Schmidt rank from one ``cut_measures`` call and any other C
once.  The report functions build each cut as one ``_Cut`` with its
combines and resolve each focus once per call (``_focus``: grouping,
fallback, checked p and the exponent-free constants of each recursion
level of "ours" and of the p = 1 specialization); all exponents of a
call, one as a Python float or several as one (E,) stack, are then one
pass with one ``_pow`` per distinct base.  ``cut_sandwiches``, the
per-state pass of ``verify``, builds no ``_Cut`` and evaluates each
shared combine once for a stack of N states.  Every power but the lemma
grid's is ``measures._pow``, Python's float power (numpy's can differ
in the last bit), and every sum is ``_sum``, left to right, so a
stack's entries equal the one-exponent, one-state values bit for bit.
A head, chain value or radicand below TAU_NUM (``_trim``) and N across
a cut of Schmidt rank 1 (SCHMIDT_TOL) read 0, as on product foci and
cuts, where a round-off residue's small power would break the bound.

Convention used throughout: 0^0 := 1 and v^0 := 1, as Python's float
power gives them, so exponent-zero curves are defined.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from . import rng
from .linalg import TAU_NUM
from .measures import (
    Bipartition,
    _cut_concurrence,
    _pow,
    cut_measures,
    pair_measures_sq,
    pure_concurrence,
)
from .states import PureState

_FEAS_SLACK = 1e-12   # numerical slack in admissibility comparisons

# Coefficient c(x, 2^x) of each literature chain sum_l c^(l-1) v_l^x.
CHAIN_COEFFICIENTS = {
    "pow2_chain": lambda x, two_x: two_x - 1.0,
    "beta_half_chain": lambda x, two_x: x,
    "trivial_sum": lambda x, two_x: 1.0,
}

COMPARATOR_NAMES = ("p1_specialization", *CHAIN_COEFFICIENTS)


class InfeasibleParamsError(ValueError):
    """No admissible parameter at some recursion level.

    ``level`` is 1-based; ``min_p`` is the smallest feasible value (the
    tail/head ratio t at that level; > 1 means no p in (0, 1] works).
    """

    def __init__(self, level: int, min_p: float):
        super().__init__(
            f"infeasible parameter at level {level}: "
            f"minimal feasible p is {min_p:.12g}"
            + (" (> 1, no admissible p exists)" if min_p > 1 else ""))
        self.level = level
        self.min_p = min_p


def _check_exponents(exponents) -> list[float]:
    """Each exponent as a float, in order; the first bad one raises."""
    checked = []
    for e in exponents:
        e = float(e)
        if not 0.0 <= e <= 2.0:
            raise ValueError(f"exponent must be in [0, 2], got {e}")
        checked.append(e)
    return checked


def _check_params(p) -> tuple[float, ...]:
    p = tuple(map(float, p))
    if any(not 0.0 < v <= 1.0 for v in p):
        raise ValueError(f"parameters must lie in (0, 1], got {p}")
    return p


def _max(a, b):
    """max of two floats, or ``max`` elementwise on arrays (not np.maximum)."""
    return max(a, b) if isinstance(a, float) else np.where(b > a, b, a)


def _sum(values):
    """Left-to-right sum of a sequence of floats (or arrays, elementwise);
    not the built-in ``sum`` (compensated from Python 3.12) nor numpy's
    (pairwise from 8 terms)."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def _trim(v):
    """v, or 0 below TAU_NUM, for a float or elementwise for an array."""
    return v * (v >= TAU_NUM)


class LemmaCoefficients(NamedTuple):
    """Coefficients of the key inequality at one (t, p, x) triple, and its
    right-hand side Omega + Upsilon * t^x."""

    omega: float
    upsilon: float
    rhs: float


class FocusParams(NamedTuple):
    """How one focus's bound is resolved, the same at every exponent.

    ``grouping`` orders the partners into recursion levels: one singleton
    per partner in descending CoA^2 order, e.g. ((1,), (0,), (2,)), or
    the single group ((0, ..., m-1),) when ``fallback`` flags that the
    singletons admitted no parameters.  ``p`` holds one per level but the
    last.
    """

    grouping: tuple[tuple[int, ...], ...]
    p: tuple[float, ...]
    fallback: bool


class BoundReport(NamedTuple):
    """One bound at one exponent: lhs, our value, literature comparators.

    ``gap`` is the slack of our bound against the lhs (ours - lhs for an
    upper bound, lhs - ours for a lower bound; nonnegative when the bound
    holds).  ``foci`` maps each focus the bound reads to its resolved
    parameters; every report of one call shares these records.
    """

    lhs: float
    ours: float
    comparators: dict[str, float]
    gap: float
    foci: dict[str, FocusParams]


class SandwichBounds(NamedTuple):
    """Lower and upper reports for one cut of one state."""

    lower: BoundReport
    upper: BoundReport

    @property
    def lhs(self) -> float:
        return self.lower.lhs


def _omega_phi_upsilon(t, p, q2, x, px, qx) -> tuple:
    """Omega, Phi = (q^x - 1)/p^x and Upsilon of the key inequality from
    q2 = q^2, px = p^x and qx = q^x at q = 1 + p, on scalars or arrays."""
    phi = (qx - 1.0) / px
    return 1.0 + x * t / q2, phi, phi - x * p / (q2 * px)


def lemma_rhs(t: float, p: float, x: float) -> LemmaCoefficients:
    """Coefficients of the key inequality; rhs >= (1+t)^x on the domain.
    The fields are Python floats whatever the real input types."""
    t, p, x = float(t), float(p), float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0.0 <= t <= p:
        raise ValueError(f"t must be in [0, p] = [0, {p}], got {t}")
    omega, _, upsilon = _omega_phi_upsilon(
        t, p, _pow(1.0 + p, 2.0), x, _pow(p, x), _pow(1.0 + p, x))
    return LemmaCoefficients(omega, upsilon, omega + upsilon * _pow(t, x))


def _chain_columns(t, p, x, power) -> list:
    """The six chain expressions, elementwise, each power by ``power``."""
    tx, q, two_x = power(t, x), 1.0 + p, power(2.0, x)
    omega, phi, upsilon = _omega_phi_upsilon(
        t, p, power(q, 2.0), x, power(p, x), power(q, x))
    return [power(1.0 + t, x), omega + upsilon * tx, 1.0 + phi * tx] + [
        1.0 + c(x, two_x) * tx for c in CHAIN_COEFFICIENTS.values()]


def chain_values(t: float, p: float, x: float) -> tuple[float, ...]:
    """The six expressions of the nested inequality chain, in order.

    Returns ((1+t)^x, lemma rhs, 1 + Phi t^x, 1 + (2^x - 1) t^x,
    1 + x t^x, 1 + t^x); nondecreasing for every admissible triple.
    """
    lemma_rhs(t, p, x)  # domain check
    return tuple(_chain_columns(float(t), float(p), float(x), _pow))


def lemma_chain_grid(count: int, seed: int, stream=0) -> np.ndarray:
    """(count, 6) array of chain values on random admissible triples.

    Triples are drawn as x ~ U(0,1], p ~ U(0,1], t = u*p, from the
    project RNG; used by the randomized verification harness.  A sequence
    of streams gives a (len(streams), count, 6) array, row for row the
    one-stream grids.
    """
    draws = rng.uniforms(3 * count, seed, stream)
    x, p, u = (draws[..., :count], draws[..., count:2 * count],
               draws[..., 2 * count:])
    # numpy's power, not _pow: the grid's values are pinned to it
    columns = np.array(_chain_columns(u * p, p, x, np.power))
    return columns.transpose((*range(1, columns.ndim), 0))


def _group_sums(group_coa_sq: Sequence[Sequence[float]]) -> list[float]:
    """Group CoA^2 sums, each a ``_sum``.  Round-off negatives and -0
    count as +0; a value below -TAU_NUM or a non-finite sum raises."""
    groups = [np.asarray(g, dtype=float).ravel().tolist()
              for g in group_coa_sq]
    for vals in groups:
        if any(v < -TAU_NUM for v in vals):
            raise ValueError(f"squared CoA values must be nonnegative: {vals}")
    sums = [_sum([max(v, 0.0) + 0.0 for v in vals]) for vals in groups]
    if not all(map(math.isfinite, sums)):
        raise ValueError("squared CoA values must be finite")
    return sums


def tail_ratios(heads: Sequence[float]) -> list[float]:
    """t_l = (sum of heads after level l) / head_l for each non-final level,
    each sum a ``_sum``; 0 where head_l is 0."""
    return [_sum(heads[i + 1:]) / heads[i] if heads[i] else 0.0
            for i in range(len(heads) - 1)]


def _levels(heads: Sequence[float], ts: Sequence[float], p) -> tuple:
    """The exponent-free constants of theta's recursion from the trimmed
    heads and their tail ratios: (head, min(t, p), p, 1 + p, (1 + p)^2)
    per non-final level, and the last head or 0.  Raises ValueError if
    ``p`` is too short, InfeasibleParamsError at the first p_l < t_l."""
    if len(p) < len(ts):
        raise ValueError(f"grouping needs {len(ts)} parameters, got {len(p)}")
    levels = []
    for level, (head, t, pl) in enumerate(zip(heads, ts, p)):
        if t > pl + _FEAS_SLACK:
            raise InfeasibleParamsError(level=level + 1, min_p=float(t))
        levels.append((head, min(t, pl), pl, 1.0 + pl, _pow(1.0 + pl, 2.0)))
    return tuple(levels), heads[-1] if heads else 0.0


def _recursion(levels: Sequence[tuple], last: float, x, xpow):
    """theta at x = exponent/2 (a float or an (E,) stack) from its levels."""
    value, prefix = 0.0, 1.0
    for head, t, p, q, q2 in levels:
        omega, _, upsilon = _omega_phi_upsilon(t, p, q2, x, xpow(p), xpow(q))
        value += prefix * omega * xpow(head)
        prefix *= upsilon
    return value + prefix * xpow(last)


def _chains(powers: Sequence, coefficients) -> list:
    """sum_l c^(l-1) powers_l, left to right, for each coefficient c."""
    out = []
    for c in coefficients:
        total, weight = 0.0, 1.0
        for vx in powers:
            total += weight * vx
            weight *= c
        out.append(total)
    return out


def theta(group_coa_sq: Sequence[Sequence[float]], exponent: float,
          p: Sequence[float] = ()) -> float:
    """Grouped upper bound on C^exponent(focus|rest); returns the bound value.

    ``group_coa_sq`` lists the squared pair CoA values per group, in
    recursion order, and ``p`` a parameter in (0, 1] for each non-final
    level (entries past the levels are checked, then ignored).  Equals
    (sum of all values)^(exponent/2) for a single group and the plain sum
    at exponent 2.  Trailing groups whose sum is below TAU_NUM are dropped
    (exact: they add nothing to a tail sum).  Raises InfeasibleParamsError
    when some p_l falls below the tail/head ratio at its level, and
    ValueError on a negative or non-finite value or on a zero group before
    a nonzero one (0/0 in Omega).
    """
    x = _check_exponents([exponent])[0] / 2.0
    p = _check_params(p)
    heads = _group_sums(group_coa_sq)
    while heads and heads[-1] < TAU_NUM:
        heads.pop()
    if any(h < TAU_NUM for h in heads):
        raise ValueError(
            "a group with zero CoA^2 precedes nonzero groups; "
            "reorder or merge groups so zero groups trail")
    ts = tail_ratios(heads)
    return _recursion(*_levels(heads, ts, p), x, lambda b: _pow(b, x))


# ---------------------------------------------------------------------------
# state-level plumbing


def chain_bound(values_sq, exponent: float, kind: str) -> float:
    """Literature chain bound sum_l c^(l-1) (v_l)^(exponent/2) over the
    descending singleton ordering; c is 2^(x)-1, x, or 1.  A value below
    TAU_NUM reads 0, and a negative or non-finite one raises ValueError,
    as in ``theta``."""
    x = _check_exponents([exponent])[0] / 2.0
    if kind not in CHAIN_COEFFICIENTS:
        raise ValueError(f"unknown chain kind {kind!r}")
    values = np.asarray(values_sq, dtype=float).reshape(-1, 1)
    powers = [_pow(_trim(v), x)
              for v in sorted(_group_sums(values), reverse=True)]
    return _chains(powers, [CHAIN_COEFFICIENTS[kind](x, _pow(2.0, x))])[0]


class _Focus(NamedTuple):
    """The exponent-free ingredients of one focus's bounds."""

    descending: list[float]   # trimmed squared CoA values, chain order
    params: FocusParams
    radicand: float
    ours: tuple               # (levels, last head) that ours evaluates
    p1: tuple                 # the same for the grouping at p = 1


def _focus(c_sq: list[float], ca: list[float], spec) -> _Focus:
    """Resolve the grouping, its levels and the parameters of one focus
    from its squared pair concurrence and CoA with each partner.

    The grouping is the descending singleton ordering of the partners (a
    stable sort).  ``spec`` is the focus's p: "auto" (p = tail/head
    ratio, the tightest choice), "one" (the p=1 literature
    specialization) or an explicit sequence.  For "auto"/"one" an
    infeasible grouping (some t_l > 1) falls back to the always-valid
    single-group bound and is flagged; an explicit vector that is too
    short or infeasible raises here, before any exponent.
    """
    order = sorted(range(len(ca)), key=ca.__getitem__, reverse=True)
    grouping = tuple(zip(order))   # the singletons (i,)
    # the heads theta keeps, a prefix; the chains read the rest as 0 too
    heads = [v for v in map(ca.__getitem__, order) if v >= TAU_NUM]
    descending = heads + [0.0] * (len(ca) - len(heads))
    single = _trim(_sum(ca))
    ts = tail_ratios(heads)
    fallback = auto = False
    if isinstance(spec, str):
        if spec not in ("auto", "one"):
            raise ValueError(f"p mode must be 'auto' or 'one', got {spec!r}")
        auto = spec == "auto"
        if ts and max(ts) > 1.0 + _FEAS_SLACK:
            grouping, fallback = (tuple(range(len(ca))),), True
            heads, ts = [single], []
        p = [min(t, 1.0) if auto else 1.0 for t in ts]
    else:
        p = _check_params(spec)  # every entry, also those past the levels
    # theta at p = t is the single-group value (module doc); else check p
    ours = ((), single) if auto else _levels(heads, ts, p)
    params = FocusParams(grouping, tuple(p[:len(ts)]), fallback)
    return _Focus(descending, params, _trim(_sum(c_sq)), ours,
                  _levels(heads, ts, (1.0,) * len(ts)))


def _values(f: _Focus, x, xpow, coefficients: list) -> tuple:
    """Ours, then each comparator in COMPARATOR_NAMES order, for one focus
    at x = exponent/2, xpow(b) = b^x; ``coefficients`` are the chains' c(x)."""
    return (_recursion(*f.ours, x, xpow), _recursion(*f.p1, x, xpow),
            *_chains(list(map(xpow, f.descending)), coefficients))


class _Cut(NamedTuple):
    """One cut: lhs = base^exponent, bounded below by ``lower`` and above
    by ``upper`` (None for a side it lacks).  Each maps the values v of
    ``foci`` (in that order) and their radicand powers rad at x =
    exponent/2 to the bound, alike for "ours" and each comparator: floats
    for one state and exponent, else (E,) or (E, N) arrays."""

    base: float
    foci: tuple[str, ...]
    lower: Callable | None
    upper: Callable | None


def _columns(psi: PureState, exponents, p, cut: _Cut) -> list[tuple]:
    """(lhs, ours, comparators in COMPARATOR_NAMES order, gap, FocusParams
    by focus) of the cut's lower bound, then of its upper, for the sides
    it has: floats for one exponent, (E,) columns for several.

    One ``_check_exponents`` call converts and checks the exponents.
    The pair values of the cut's foci come from one pair measure call;
    each focus is then resolved once, in order, so errors come as in
    one-exponent calls, and both sides share its values and its
    FocusParams.  ``p`` is one spec for every focus or a mapping by focus
    (default auto), which may name foci the cut does not read, but only
    labels of the state."""
    psi.check_single()
    es = _check_exponents(exponents)
    mapping = isinstance(p, Mapping)
    if mapping:
        for label in p:
            if label not in psi.shape.labels:
                raise ValueError(f"unknown focus label {label!r} in p mapping")
    c_sq, ca_sq = map(np.ndarray.tolist, pair_measures_sq(psi, cut.foci))
    resolved = [_focus(c, ca, p.get(f, "auto") if mapping else p)
                for f, c, ca in zip(cut.foci, c_sq, ca_sq)]
    e = es[0] if len(es) == 1 else np.array(es)   # one stays a Python float
    x, powers = e / 2.0, {}

    def xpow(base):
        # one _pow per distinct base; +0.0 and -0.0 are one key, not one power
        if base not in powers or not base:
            powers[base] = _pow(base, x)
        return powers[base]

    two_x = xpow(2.0)
    coeffs = [c(x, two_x) for c in CHAIN_COEFFICIENTS.values()]
    values = list(zip(*[_values(d, x, xpow, coeffs) for d in resolved]))
    rad = [xpow(d.radicand) for d in resolved]
    params = [d.params for d in resolved]
    lhs, out = _pow(cut.base, e), []
    for combine, is_upper in ((cut.lower, False), (cut.upper, True)):
        if combine:
            # one combine per key: ours, then each comparator
            ours, *cmp = [combine(v, rad, x) for v in values]
            out.append((lhs, ours, cmp, ours - lhs if is_upper else lhs - ours,
                        dict(zip(cut.foci, params))))
    return out


def _sweep(psi: PureState, exponents, p, cut: _Cut) -> list[list[BoundReport]]:
    """Reports of the cut's lower bound, then of its upper, one per
    exponent, from its ``_columns``: each column read out by one
    ``tolist`` into rows, each report with its own comparators and foci
    dict; one exponent gives one ``BoundReport`` of Python floats."""
    out = []
    for lhs, ours, cmp, gap, foci in _columns(psi, exponents, p, cut):
        if isinstance(lhs, float):
            out.append([BoundReport(lhs, ours,
                                    dict(zip(COMPARATOR_NAMES, cmp)), gap,
                                    foci)])
            continue
        out.append([BoundReport(row[0], row[1],
                                dict(zip(COMPARATOR_NAMES, row[3:])), row[2],
                                dict(foci))
                    for row in zip(lhs.tolist(), ours.tolist(), gap.tolist(),
                                   *[v.tolist() for v in cmp])])
    return out


def _upper(v, rad, x):
    """Sum of the per-focus upper bounds."""
    return _sum(v)


def _lower_AB(v, rad, x):
    """max(rad_A - theta_B, rad_B - theta_A); both arms are valid."""
    return _max(rad[0] - v[1], rad[1] - v[0])


def _lower_ABC1(v, rad, x, ab=None):
    """max(ab - theta_C1, rad_C1 - theta_A - theta_B), ab = ``_lower_AB``."""
    ab = _lower_AB(v, rad, x) if ab is None else ab
    return _max(ab - v[2], rad[2] - v[0] - v[1])


def _ab_foci(psi: PureState) -> tuple[str, ...]:
    if len(psi.shape.labels) < 4:
        raise ValueError("AB-cut bounds need at least 4 subsystems")
    return psi.shape.labels[:2]


def _ab_read(psi: PureState) -> tuple:
    """Foci A, B and C, N (0 at rank 1, module doc), r(r-1)/2 of AB|rest."""
    foci = _ab_foci(psi)
    c, n, r = cut_measures(psi, foci)
    return foci, c, n * (r > 1), r * (r - 1) / 2.0


def _ab_cuts(psi: PureState) -> tuple[_Cut, _Cut]:
    """The AB|rest cuts of concurrence and of negativity, each with its
    lower and upper bound, from one ``_ab_read``."""
    foci, c, n, pairs = _ab_read(psi)

    def upper(v, rad, x):
        return _pow(pairs, x) * _upper(v, rad, x)

    return _Cut(c, foci, _lower_AB, _upper), _Cut(n, foci, _lower_AB, upper)


def _tripartite(psi: PureState) -> _Cut:
    """The ABC1|rest cut: ``_one_rest``'s, with its lower bound added."""
    labels = psi.shape.labels
    if len(labels) < 5:
        raise ValueError("tripartite bounds need at least 5 subsystems")
    return _one_rest(psi, labels[:3])._replace(lower=_lower_ABC1)


def _one_rest(psi: PureState, left) -> _Cut:
    """The cut left|rest of the labels or Bipartition ``left``, upper
    bound only."""
    cut = left if isinstance(left, Bipartition) else Bipartition.of(psi.shape, left)
    c = pure_concurrence(psi, cut)   # checks a given cut against the labels
    foci = tuple(sorted(cut.left, key=psi.shape.labels.index))
    return _Cut(c, foci, None, _upper)


def polygamy_bound_coa(psi: PureState, focus: str, exponents,
                       p="auto") -> list[BoundReport]:
    """Upper bound C^beta(focus|rest) <= theta, with comparators.

    Comparators: the p=1 specialization of the same grouping and the
    generic chains over descending singleton groups.
    """
    return multi_partition_polygamy(psi, [focus], exponents, p)


def monogamy_lower_AB(psi: PureState, exponents, p="auto") -> list[BoundReport]:
    """Lower bound on C^alpha(AB|rest) from pair concurrences and theta.

    Both one-sided expressions are valid lower bounds; the max is taken.
    The radicands use pair concurrence, the subtracted theta uses CoA.
    """
    [lower] = _sweep(psi, exponents, p, _ab_cuts(psi)[0]._replace(upper=None))
    return lower


def polygamy_upper_AB(psi: PureState, exponents, p="auto") -> list[BoundReport]:
    """Upper bound C^alpha(AB|rest) <= theta_A + theta_B."""
    return multi_partition_polygamy(psi, _ab_foci(psi), exponents, p)


def negativity_bounds_AB(psi: PureState, exponents, p="auto") -> list[SandwichBounds]:
    """Negativity sandwich across AB|rest for qubit systems.

    Pair CREN/CRENoA coincide with pair concurrence/CoA on qubits, so the
    lower bound reuses the concurrence construction; the upper bound picks
    up the Schmidt-rank factor (r(r-1)/2)^(alpha/2) of the cut.
    """
    reports = _sweep(psi, exponents, p, _ab_cuts(psi)[1])
    return list(map(SandwichBounds, *reports))


def tripartite_bounds(psi: PureState, exponents, p="auto") -> list[SandwichBounds]:
    """Sandwich for the ABC1|rest cut of an N >= 5 qubit state.

    Lower bound: max of the AB-side expression minus theta_C1 and the
    C1-side radicand minus theta_A - theta_B (both sides are valid
    unconditionally, so the max needs no case detection).  Upper bound:
    theta_A + theta_B + theta_C1.
    """
    reports = _sweep(psi, exponents, p, _tripartite(psi))
    return list(map(SandwichBounds, *reports))


def multi_partition_polygamy(psi: PureState, left, exponents,
                             p="auto") -> list[BoundReport]:
    """Upper bound C^alpha(left|rest) <= sum over left foci of theta.

    ``left`` is labels or a Bipartition of the state's, read in shape
    order; |left| = 1 is the single-focus bound, left = AB the AB upper one.
    """
    [upper] = _sweep(psi, exponents, p, _one_rest(psi, left))
    return upper


SANDWICH_NAMES = ("concurrence_lower_AB", "concurrence_upper_AB",
                  "negativity_lower_AB", "negativity_upper_AB",
                  "tripartite_lower_ABC1", "tripartite_upper_ABC1")


def cut_sandwiches(psi: PureState, exponents) -> dict[str, np.ndarray]:
    """Every per-state slack of a stack of qubit states, from one pair
    measure call for all foci (A, B and, from 5 subsystems, C1).

    ``psi`` holds N states (amplitudes (N, 2^n)); one state has no stack
    axis.  The dict holds pair_coa_polygamy (focus A's pair CoA^2 sum -
    C^2(A|rest)) and pair_conc_monogamy (C^2(A|rest) - its pair C^2 sum),
    each (N,), then each of SANDWICH_NAMES, (len(exponents), N): the
    concurrence and negativity sandwiches across AB|rest and, from 5
    subsystems up, ABC1|rest, in auto mode.  Each cut is read once
    (``_ab_read``, ``_cut_concurrence``) and each shared combine evaluated
    once: ``_lower_AB`` for both AB lower bounds and the ABC1 one,
    ``_upper`` of A and B for both AB upper bounds.  Auto mode's "ours" is
    the single group's power (module doc), so the radicands and heads of
    every focus, each a trimmed ``_sum`` as in ``_focus``, are one
    ``_sum``, ``_trim`` and ``_pow`` of the one ``pair_measures_sq`` array.
    Each slack equals, bit for bit, its one-state value (for a sandwich,
    the report function's gap); no cut record or report is built.
    """
    exponents = _check_exponents(exponents)
    x = np.array(exponents) / 2.0
    labels = psi.shape.labels
    foci, c, n, pairs = _ab_read(psi)
    bases = [c, n]   # of each lhs: C and N of AB|rest, then C(ABC1|rest)
    if len(labels) >= 5:
        foci += labels[2:3]
        bases.append(_cut_concurrence(psi, foci))
    # (2, ..., F), ... = (N,) for a stack: each focus's radicand and head,
    # untrimmed, summed over the partner axis (first in the transpose); the
    # pair values of a checked state are nonnegative and finite
    sums = _sum(pair_measures_sq(psi, foci).T).T
    one_rest_sq = _pow(_cut_concurrence(psi, labels[:1]), 2.0)   # C^2(A|rest)
    # radicands and heads in one power call (E, 2, ..., F); rad, v: (F, E, ...)
    powers = _pow(_trim(sums), x)
    rad, v = powers.transpose((1, -1, 0, 2)[:powers.ndim])
    lhs = _pow(bases, exponents)   # (E, cut, ...)
    ab, upper = _lower_AB(v, rad, x), _upper(v[:2], rad, x)
    slacks = [sums[1, ..., 0] - one_rest_sq, one_rest_sq - sums[0, ..., 0],
              lhs[:, 0] - ab, upper - lhs[:, 0],
              lhs[:, 1] - ab, _pow(pairs, x) * upper - lhs[:, 1]]
    if len(foci) == 3:
        slacks += [lhs[:, 2] - _lower_ABC1(v, rad, x, ab),
                   _upper(v, rad, x) - lhs[:, 2]]
    return dict(zip(("pair_coa_polygamy", "pair_conc_monogamy",
                     *SANDWICH_NAMES), slacks))

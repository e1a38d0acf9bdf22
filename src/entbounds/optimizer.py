"""The tightest member of the grouped bound family, in closed form.

p_l = t_l (the tail/head ratio) is the tightest admissible parameter at
every level, and there the key inequality is an equality (``bounds``
module docstring).  theta at p = t telescopes to the single-group value
(sum_j C_a^2(focus|j))^(beta/2) for every admissible grouping, so no
search over groupings or parameters is needed.  ``ordered_set_partitions``
enumerates the groupings, for checking that identity.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .bounds import _check_exponents, _group_sums, _trim, pair_measures_sq
from .measures import _pow
from .states import PureState


class OptimizationResult(NamedTuple):
    best_grouping: tuple[tuple[int, ...], ...]
    best_value: float
    evaluations: int   # theta evaluations behind best_value


def ordered_set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered set partitions of 0..n-1 (Fubini(n) of them), each a
    tuple of sorted blocks: one per map of the items onto levels 0..k-1,
    block j holding the items at level j."""
    for level in product(range(n), repeat=n):
        k = len(set(level))
        if max(level, default=-1) == k - 1:
            yield tuple(tuple(i for i in range(n) if level[i] == j)
                        for j in range(k))


def optimize(psi: PureState, focus: str, exponent: float) -> OptimizationResult:
    """Tightest grouped bound for one focus: the single-group theta, which
    equals theta at p = t on every admissible grouping.  It is written in
    closed form, the trimmed CoA^2 sum to the power exponent/2, bit for bit
    ``theta([ca_sq], exponent)``, with theta's checks of the values."""
    psi.check_single()
    [exponent] = _check_exponents([exponent])  # before any pair measure
    _, ca_sq = pair_measures_sq(psi, focus)
    [total] = _group_sums([ca_sq])
    return OptimizationResult(best_grouping=(tuple(range(ca_sq.size)),),
                              best_value=_pow(_trim(total), exponent / 2),
                              evaluations=1)

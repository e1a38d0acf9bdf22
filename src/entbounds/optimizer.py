"""The tightest member of the grouped bound family, in closed form.

p_l = t_l (the tail/head ratio) is the tightest admissible parameter at
every level, and there the key inequality is an equality (``bounds``
module docstring).  theta at p = t telescopes to the single-group value
(sum_j C_a^2(focus|j))^(beta/2) for every admissible grouping, so no
search over groupings or parameters is needed.  ``ordered_set_partitions``
enumerates the groupings, for checking that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .bounds import (Grouping, _check_exponent, full_grouping, pair_measures_sq,
                     theta)
from .states import PureState


@dataclass(frozen=True)
class OptimizationResult:
    best_grouping: Grouping
    best_value: float
    evaluations: int   # theta evaluations behind best_value


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def ordered_set_partitions(n: int) -> Iterator[Grouping]:
    """All ordered set partitions of 0..n-1 (Fubini(n) of them)."""
    for part in _set_partitions(list(range(n))):
        blocks = [tuple(sorted(b)) for b in part]
        for order in permutations(range(len(blocks))):
            yield Grouping(tuple(blocks[i] for i in order))


def optimize(psi: PureState, focus: str, exponent: float) -> OptimizationResult:
    """Tightest grouped bound for one focus: the single-group theta, which
    equals theta at p = t on every admissible grouping."""
    psi.check_single()
    exponent = _check_exponent(exponent)  # before any pair measure
    _, ca_sq = pair_measures_sq(psi, focus)
    return OptimizationResult(best_grouping=full_grouping(ca_sq.size),
                              best_value=theta([ca_sq], exponent),
                              evaluations=1)

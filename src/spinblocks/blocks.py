"""Spin blocks: grouping by bar core, defect classes, heights, equal degrees.

Height is taken operationally as the p-adic valuation of a degree minus the
minimum valuation over the block, so no group orders are ever needed.  The
defect class is read off the weight alone: zero (w = 0), abelian (w < p),
non-abelian (w >= p).
"""

from __future__ import annotations

from dataclasses import dataclass

from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_core_and_weight,
    enumerate_bar_partitions,
    labels_with_core_and_weight,
    valuation,
    weight_tower,
)
from .spinchar import GroupTag, SpinCharacter, as_group, characters_of_label

DEFECT_ZERO = "defect-zero"
ABELIAN = "abelian"
NON_ABELIAN = "non-abelian"


def defect_class(p: int, w: int) -> str:
    if w == 0:
        return DEFECT_ZERO
    return ABELIAN if w < p else NON_ABELIAN


@dataclass(frozen=True)
class SpinBlock:
    p: int
    core: BarPartition
    w: int
    group: GroupTag
    labels: tuple[BarPartition, ...]
    characters: tuple[SpinCharacter, ...]
    heights: dict  # label -> valuation of its degree minus the block minimum
    defect_class: str


def _build_block(p: int, core: BarPartition, w: int, group: GroupTag, labels) -> SpinBlock:
    chars = tuple(chi for lam in labels for chi in characters_of_label(lam, group))
    vals = {chi.label: valuation(chi.degree, p) for chi in chars}
    low = min(vals.values())
    return SpinBlock(p, core, w, group, tuple(labels), chars,
                     {lam: v - low for lam, v in vals.items()}, defect_class(p, w))


def spin_blocks(n: int, p: int, group) -> list[SpinBlock]:
    """The spin blocks of the tagged double cover, ordered by core.

    Labels of n are grouped by bar core; weight-0 labels form singleton
    defect-zero blocks.
    """
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    _check_odd_prime(p)
    group = as_group(group, n)
    by_core = {}
    for lam in enumerate_bar_partitions(n):
        core, w = bar_core_and_weight(lam, p)
        by_core.setdefault((core, w), []).append(lam)
    return [_build_block(p, core, w, group, labels)
            for (core, w), labels in sorted(by_core.items(), key=lambda kv: kv[0][0].parts,
                                            reverse=True)]


def spin_block(core: BarPartition, p: int, w: int, group) -> SpinBlock:
    """The one spin block of core and weight w, its labels generated from p-bar quotients."""
    labels = labels_with_core_and_weight(core, p, w)
    n = core.n + p * w
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    return _build_block(p, core, w, as_group(group, n), labels)


def height_zero_by_criterion(block: SpinBlock) -> set[BarPartition]:
    """Labels maximizing the total count of bar lengths divisible by p**k, k >= 2.

    This is the weight-tower reading of the height-zero condition; tests
    cross-check it against the labels of height 0 in SpinBlock.heights.
    """
    best = {}
    for lam in block.labels:
        ws, _ = weight_tower(lam, block.p)
        best[lam] = sum(ws[1:])
    top = max(best.values())
    return {lam for lam, s in best.items() if s == top}


def equal_degree_test(block: SpinBlock) -> tuple[bool, list[int]]:
    """Whether all height-zero characters of the block share one degree.

    Returns the flag and the sorted multiset of height-zero degrees.
    """
    hz = [chi.degree for chi in block.characters if block.heights[chi.label] == 0]
    return len(set(hz)) <= 1, sorted(hz)

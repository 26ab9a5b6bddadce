"""Spin blocks: grouping by bar core, defect classes, heights, equal degrees.

Height is taken operationally as the p-adic valuation of a degree minus the
minimum valuation over the block, so no group orders are ever needed.  The
defect class is read off the weight alone: zero (w = 0), abelian (w < p),
non-abelian (w >= p).  A block of weight w has a Sylow p-subgroup of the
symmetric group on pw letters as defect group (Humphreys 1986), so its
minimum valuation is also known in closed form: height_zero_valuation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_core_and_weight,
    bar_cores_up_to,
    enumerate_bar_partitions,
    labels_with_core_and_weight,
    valuation,
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


def height_zero_valuation(n: int, p: int, w: int) -> int:
    """v_p(n!) - v_p((pw)!): the degree valuation of the height-zero
    characters of a spin block of n with weight w, read off its defect group."""

    def fact_val(k):  # Legendre: v_p(k!) = sum of k // p**i
        total = 0
        while k:
            k //= p
            total += k
        return total

    return fact_val(n) - fact_val(p * w)


def block_targets(n: int, p: int) -> list[tuple[BarPartition, int]]:
    """(core, w) of every spin block of n, by decreasing core, without its labels.

    Every p-bar-core of size n - p*w, w >= 0, is the core of exactly one block.
    """
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    targets = []
    for core in sorted(bar_cores_up_to(n, p), reverse=True):
        w, rest = divmod(n - core.n, p)
        if rest == 0:
            targets.append((core, w))
    return targets


def _build_block(p: int, core: BarPartition, w: int, group: GroupTag, labels) -> SpinBlock:
    if group.kind == "A" and group.n < 2:
        raise ValueError("the alternating double cover needs n >= 2, got %d" % group.n)
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
    """Labels whose degree valuation is height_zero_valuation of the block.

    This is the defect-group reading of the height-zero condition; tests
    cross-check it against the labels of height 0 in SpinBlock.heights.
    """
    target = height_zero_valuation(block.core.n + block.p * block.w, block.p, block.w)
    return {chi.label for chi in block.characters if valuation(chi.degree, block.p) == target}


def equal_degree_test(block: SpinBlock) -> tuple[bool, list[int]]:
    """Whether all height-zero characters of the block share one degree.

    Returns the flag and the sorted multiset of height-zero degrees.
    """
    hz = [chi.degree for chi in block.characters if block.heights[chi.label] == 0]
    return len(set(hz)) <= 1, sorted(hz)

"""Spin blocks: grouping by bar core, defect classes, heights, equal degrees.

Height is taken operationally as the p-adic valuation of a degree minus the
minimum valuation over the block, so no group orders are ever needed.  The
defect class is read off the weight alone (witness.defect_class): zero
(w = 0), abelian (w < p), non-abelian (w >= p).
"""

from __future__ import annotations

from typing import NamedTuple

from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_cores_up_to,
    labels_with_core_and_weight,
    valuation,
)
from .spinchar import GroupTag, SpinCharacter, as_group, characters_of_label
from .witness import defect_class

class SpinBlock(NamedTuple):
    p: int
    core: BarPartition
    w: int
    group: GroupTag
    labels: tuple[BarPartition, ...]
    characters: tuple[SpinCharacter, ...]
    heights: dict  # label -> valuation of its degree minus the block minimum
    defect_class: str


def block_targets(n: int, p: int) -> list[tuple[BarPartition, int]]:
    """(core, w) of every spin block of n, by decreasing core, without its labels.

    Every p-bar-core of size n - p*w, w >= 0, is the core of exactly one
    block.  n is checked by GroupTag's rules, as in spin_blocks.
    """
    GroupTag("S", n)
    return sorted(((core, (n - core.n) // p) for core in bar_cores_up_to(n, p)
                   if (n - core.n) % p == 0), reverse=True)


def _build_block(p: int, core: BarPartition, w: int, group: GroupTag, labels) -> SpinBlock:
    chars = tuple(chi for lam in labels for chi in characters_of_label(lam, group))
    vals = {chi.label: valuation(chi.degree, p) for chi in chars}
    low = min(vals.values())
    return SpinBlock(p, core, w, group, tuple(labels), chars,
                     {lam: v - low for lam, v in vals.items()}, defect_class(p, w))


def spin_blocks(n: int, p: int, group) -> list[SpinBlock]:
    """The spin blocks of the tagged double cover, ordered by core.

    Labels of n are grouped by bar core; weight-0 labels form singleton
    defect-zero blocks.  The prime and the group (so n) are checked before
    any label is enumerated. Every label of n is classified by the structural
    oracle, loaded here on first use.
    """
    from .oracle import bar_core_and_weight, enumerate_bar_partitions

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
    """The one spin block of core and weight w, its labels generated from p-bar quotients.

    The group is resolved for n = |core| + p*w (so n is checked) before any
    label is generated.
    """
    group = as_group(group, core.n + p * w)
    return _build_block(p, core, w, group, labels_with_core_and_weight(core, p, w))


def equal_degree_test(block: SpinBlock) -> tuple[bool, list[int]]:
    """Whether all height-zero characters of the block share one degree.

    Returns the flag and the sorted multiset of height-zero degrees.
    """
    hz = [chi.degree for chi in block.characters if block.heights[chi.label] == 0]
    return len(set(hz)) <= 1, sorted(hz)

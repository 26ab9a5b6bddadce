"""Spin blocks: grouping by bar core, defect classes, heights, equal degrees.

A block keeps one record per label: how many characters it gives the
group and their common degree (spinchar.character_count and the one
degree formula).  Height is taken operationally as the p-adic valuation of
a degree minus the minimum valuation over the block, so no group orders
are ever needed.  The group is given by its kind, "S" or "A", and checked
for the block's n by GroupTag.  The defect class is read off the weight
alone (witness.defect_class): zero (w = 0), abelian (w < p), non-abelian
(w >= p).
"""

from __future__ import annotations

from typing import NamedTuple

from .barpart import (
    BarPartition,
    _check_odd_prime,
    _check_weight,
    bar_cores_up_to,
    labels_with_core_and_weight,
    valuation,
)
from .spinchar import GroupTag, alt_degree, character_count, spin_degree_sym
from .witness import defect_class

class SpinBlock(NamedTuple):
    p: int
    core: BarPartition
    w: int
    group: GroupTag
    labels: tuple[BarPartition, ...]
    characters: dict  # label -> (number of characters, their common degree)
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
    degree_of = spin_degree_sym if group.kind == "S" else alt_degree
    chars, vals = {}, {}
    for lam in labels:
        degree = degree_of(lam)
        chars[lam] = (character_count(lam, group.kind), degree)
        vals[lam] = valuation(degree, p)
    low = min(vals.values())
    return SpinBlock(p, core, w, group, tuple(labels), chars,
                     {lam: v - low for lam, v in vals.items()}, defect_class(p, w))


def spin_blocks(n: int, p: int, kind: str) -> list[SpinBlock]:
    """The spin blocks of the double cover of kind "S" or "A" on n letters, ordered by core.

    Labels of n are grouped by bar core; weight-0 labels form singleton
    defect-zero blocks.  The prime and the group (so n) are checked before
    any label is enumerated. Every label of n is classified by the structural
    oracle, loaded here on first use.
    """
    from .oracle import bar_core_and_weight, enumerate_bar_partitions

    _check_odd_prime(p)
    group = GroupTag(kind, n)
    by_core = {}
    for lam in enumerate_bar_partitions(n):
        core, w = bar_core_and_weight(lam, p)
        by_core.setdefault((core, w), []).append(lam)
    return [_build_block(p, core, w, group, labels)
            for (core, w), labels in sorted(by_core.items(), key=lambda kv: kv[0][0].parts,
                                            reverse=True)]


def spin_block(core: BarPartition, p: int, w: int, kind: str) -> SpinBlock:
    """The one spin block of core and weight w, its labels generated from p-bar quotients.

    w is checked, then the group of kind "S" or "A" for n = |core| + p*w, before
    any label is generated.
    """
    _check_weight(w)
    group = GroupTag(kind, core.n + p * w)
    return _build_block(p, core, w, group, labels_with_core_and_weight(core, p, w))


def equal_degree_test(block: SpinBlock) -> tuple[bool, list[int]]:
    """Whether all height-zero characters of the block share one degree.

    Returns the flag and the sorted multiset of height-zero degrees.
    """
    hz = [degree for lam, (count, degree) in block.characters.items()
          if block.heights[lam] == 0 for _ in range(count)]
    return len(set(hz)) <= 1, sorted(hz)

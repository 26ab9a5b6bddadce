"""Spin blocks: grouping by bar core, defect classes, heights, equal degrees.

A block keeps one record per label: how many characters it gives the
group, their common degree (spinchar.character_count and
spinchar.spin_degree) and their height.  Height is taken operationally as
the p-adic valuation of a degree minus the minimum valuation over the
block, so no group orders are ever needed.  The group is given by its
kind, "S" or "A", and checked for the block's n by spinchar.check_group.
The defect class is read off the weight alone (witness.defect_class): zero
(w = 0), abelian (w < p), non-abelian (w >= p).
"""

from __future__ import annotations

from typing import NamedTuple

from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_cores_up_to,
    check_int,
    labels_with_core_and_weight,
    valuation,
)
from .spinchar import character_count, check_group, spin_degree
from .witness import defect_class


class SpinBlock(NamedTuple):
    p: int
    core: BarPartition
    w: int
    kind: str  # "S" or "A"
    labels: dict  # label -> (number of characters, their common degree, height)
    defect_class: str


def block_targets(n: int, p: int) -> list[tuple[BarPartition, int]]:
    """(core, w) of every spin block of n, by decreasing core, without its labels.

    Every p-bar-core of size n - p*w, w >= 0, is the core of exactly one
    block.  n is an int >= 1, as check_group asks of the symmetric cover.
    """
    check_int(n, "n", 1)
    return sorted(((core, (n - core.n) // p) for core in bar_cores_up_to(n, p)
                   if (n - core.n) % p == 0), reverse=True)


def _build_block(p: int, core: BarPartition, w: int, kind: str, labels) -> SpinBlock:
    degrees = [spin_degree(lam, kind) for lam in labels]
    vals = [valuation(degree, p) for degree in degrees]
    low = min(vals)
    return SpinBlock(p, core, w, kind,
                     {lam: (character_count(lam, kind), degree, v - low)
                      for lam, degree, v in zip(labels, degrees, vals)},
                     defect_class(p, w))


def spin_blocks(n: int, p: int, kind: str) -> list[SpinBlock]:
    """The spin blocks of the double cover of kind "S" or "A" on n letters, ordered by core.

    Labels of n are grouped by bar core; weight-0 labels form singleton
    defect-zero blocks.  The prime and the group (so n) are checked before
    any label is enumerated. Every label of n is classified by the structural
    oracle, loaded here on first use.
    """
    from .oracle import bar_core_and_weight, enumerate_bar_partitions

    _check_odd_prime(p)
    check_group(kind, n)
    by_core = {}
    for lam in enumerate_bar_partitions(n):
        core, w = bar_core_and_weight(lam, p)
        by_core.setdefault((core, w), []).append(lam)
    return [_build_block(p, core, w, kind, labels)
            for (core, w), labels in sorted(by_core.items(), key=lambda kv: kv[0][0].parts,
                                            reverse=True)]


def spin_block(core: BarPartition, p: int, w: int, kind: str) -> SpinBlock:
    """The one spin block of core and weight w, its labels generated from p-bar quotients.

    The prime and w are checked, then the group of kind "S" or "A" for
    n = |core| + p*w, before any label is generated.
    """
    _check_odd_prime(p)
    check_int(w, "w", 0)
    check_group(kind, core.n + p * w)
    return _build_block(p, core, w, kind, labels_with_core_and_weight(core, p, w))


def equal_degree_test(block: SpinBlock) -> tuple[bool, list[int]]:
    """Whether all height-zero characters of the block share one degree.

    Returns the flag and the sorted multiset of height-zero degrees.
    """
    hz = [degree for count, degree, height in block.labels.values()
          if height == 0 for _ in range(count)]
    return len(set(hz)) <= 1, sorted(hz)

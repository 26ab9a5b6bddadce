"""The structural oracle: bars kept one by one, bar removal and full enumeration.

These are the literal algorithms of the bar combinatorics: the bar table of
a partition with every bar kept structurally (bars, BarTable, Bar), the
removal of one bar (remove_bar), core and weight by removing p-bars until
none is left (bar_core_and_weight), and every strict partition of n
(enumerate_bar_partitions). The tests check the fast paths of barpart
(bar_products, count_bar_lengths_divisible, abacus_core,
labels_with_core_and_weight) against them.

No module imports this one at load time: the bars command and
blocks.spin_blocks import it inside the function, so a run that needs no
oracle never loads it. Its names are read from spinblocks.oracle alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .barpart import BarPartition, _check_odd_prime, _gen_partitions, check_int, make_bar_partition

TYPE1 = 1  # (x, y): part y shrinks to the non-part value x, length y - x
TYPE2 = 2  # (y,): part y is deleted, length y
TYPE3 = 3  # "mixed" (i, j): parts at positions i < j are both deleted


@dataclass(frozen=True)
class Bar:
    """A single bar, kept structurally so its type is exact.

    kind TYPE1: fields (x, y); kind TYPE2: field y; kind TYPE3: 1-based
    positions (i, j) into the decreasing part list.
    """

    kind: int
    length: int
    x: int = 0
    y: int = 0
    i: int = 0
    j: int = 0


@dataclass(frozen=True)
class BarTable:
    """The full bar multiset of a partition with exact length products."""

    bars: tuple[Bar, ...]
    h_total: int
    h_unmixed: int
    h_mixed: int

    def lengths(self) -> list[int]:
        return sorted(b.length for b in self.bars)


def bars(lam: BarPartition) -> BarTable:
    """All bars of lam: each part a_i contributes exactly a_i bars.

    Part a_i yields unmixed bars of lengths {1..a_i} minus the differences
    a_i - a_j with smaller parts, plus mixed bars of lengths a_i + a_j.
    The products and divisible counts alone come from bar_products and
    count_bar_lengths_divisible, which the tests check against this table.
    """
    partset = set(lam.parts)
    out = []
    h_u = 1
    h_m = 1
    for idx, a in enumerate(lam.parts):
        for x in range(a):
            if x in partset:
                continue
            if x == 0:
                out.append(Bar(TYPE2, a, y=a))
            else:
                out.append(Bar(TYPE1, a - x, x=x, y=a))
            h_u *= a - x
        for jdx in range(idx + 1, lam.m):
            b = lam.parts[jdx]
            out.append(Bar(TYPE3, a + b, i=idx + 1, j=jdx + 1))
            h_m *= a + b
    return BarTable(tuple(out), h_u * h_m, h_u, h_m)


def remove_bar(lam: BarPartition, bar: Bar) -> BarPartition:
    """Remove a bar of lam; rejects bars that do not belong to lam."""
    partset = set(lam.parts)
    if bar.kind == TYPE2:
        if bar.y not in partset:
            raise ValueError("no part %d in %s" % (bar.y, lam))
        if bar.length != bar.y:
            raise ValueError("bad length %d for part-deletion bar %d" % (bar.length, bar.y))
        new = [a for a in lam.parts if a != bar.y]
    elif bar.kind == TYPE1:
        if bar.y not in partset:
            raise ValueError("no part %d in %s" % (bar.y, lam))
        if not 0 < bar.x < bar.y:
            raise ValueError("need 0 < x < y, got x=%d y=%d" % (bar.x, bar.y))
        if bar.x in partset:
            raise ValueError("x = %d is a part of %s" % (bar.x, lam))
        if bar.length != bar.y - bar.x:
            raise ValueError("bad length %d for bar (%d, %d)" % (bar.length, bar.x, bar.y))
        new = [bar.x if a == bar.y else a for a in lam.parts]
    elif bar.kind == TYPE3:
        if not 1 <= bar.i < bar.j <= lam.m:
            raise ValueError("bad positions (%d, %d) for %s" % (bar.i, bar.j, lam))
        ai, aj = lam.parts[bar.i - 1], lam.parts[bar.j - 1]
        if bar.length != ai + aj:
            raise ValueError("bad length %d for mixed bar (%d, %d)" % (bar.length, ai, aj))
        new = [a for k, a in enumerate(lam.parts) if k not in (bar.i - 1, bar.j - 1)]
    else:
        raise ValueError("unknown bar kind %r" % (bar.kind,))
    return make_bar_partition(new)


def bar_core_and_weight(
    lam: BarPartition, p: int, rng: random.Random | None = None
) -> tuple[BarPartition, int]:
    """Remove bars of length exactly p until no bar length is divisible by p.

    Returns (core, w) where w is the number of removals.  The result does
    not depend on which p-bar is removed at each step, so the first one
    that bars() lists is taken; an optional rng picks one at random from
    the same list instead (for order-independence tests).  Consistency with
    the count of bar lengths divisible by p and with |lam| = |core| + p*w
    is asserted.
    """
    _check_odd_prime(p)
    table = bars(lam)
    target_w = sum(1 for b in table.bars if b.length % p == 0)
    cur = lam
    w = 0
    while any(b.length % p == 0 for b in table.bars):
        removable = [b for b in table.bars if b.length == p]
        if not removable:
            raise RuntimeError(
                "no removable bar of length %d in %s although some bar length"
                " is divisible by %d" % (p, cur, p)
            )
        cur = remove_bar(cur, rng.choice(removable) if rng is not None else removable[0])
        w += 1
        table = bars(cur)
    if w != target_w:
        raise RuntimeError(
            "removed %d bars from %s but %d bar lengths are divisible by %d"
            % (w, lam, target_w, p)
        )
    if lam.n != cur.n + p * w:
        raise RuntimeError("size mismatch: |%s| != |%s| + %d*%d" % (lam, cur, p, w))
    return cur, w


def enumerate_bar_partitions(n: int) -> list[BarPartition]:
    """All partitions of n into distinct parts, in decreasing lexicographic order."""
    check_int(n, "n", 0)
    return [BarPartition(parts) for parts in _gen_partitions(n, n, True)]

"""Closed-form ratios of bar-length products, checked against enumeration.

Growing the top part of a residue class of a core by p, or adjoining the
part p*w, changes the product of bar lengths by an exactly predictable
rational factor. This script prints the closed forms next to the direct
quotients for a few cores so the agreement is visible term by term.

Run: python3 demos/ratio_identities.py
"""

from fractions import Fraction
from itertools import groupby
from operator import attrgetter

from spinblocks import (
    grow_class,
    grow_class_ratio,
    make_bar_partition,
    parse_partition,
    verify_ratio_chain,
)
from spinblocks.oracle import bars

for text, p, i in (("1", 3, 1), ("4,1", 3, 1), ("3,1", 5, 3)):
    gamma = parse_partition(text)
    print("core %s, p = %d, growing class %d:" % (gamma, p, i))
    prev = gamma
    for w in range(1, 5):
        lam = grow_class(gamma, p, i, w)
        direct = Fraction(bars(lam).h_total, bars(prev).h_total)
        closed = grow_class_ratio(gamma, p, i, w)
        print(
            "  w=%d: %-8s -> %-8s direct %10s closed form %10s %s"
            % (w - 1, prev, lam, direct, closed, "ok" if direct == closed else "MISMATCH")
        )
        prev = lam
    print()

print("Full sweep over every identity for a few (core, w) pairs:")
for text, p in (("1", 3), ("4,1", 3), ("3,1", 5), ("2,1", 5)):
    gamma = parse_partition(text)
    for w, group in groupby(verify_ratio_chain(gamma, p, 3), key=attrgetter("w")):
        checks = list(group)
        print(
            "  core %-4s p=%d w=%d: %2d identities, all ok: %s"
            % (gamma, p, w, len(checks), all(c.ok for c in checks))
        )

print()
gamma = make_bar_partition([1])
print("The added-part family for core %s, p = 3:" % (gamma,))
for w in (1, 2, 3):
    lam = grow_class(gamma, 3, None, w)
    print("  w=%d: %s with bar product %d" % (w, lam, bars(lam).h_total))

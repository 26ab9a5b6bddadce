"""A walk through bars, cores, and spin blocks for n = 9, p = 3.

Run: python3 demos/explore_blocks.py
"""

from spinblocks import spin_blocks
from spinblocks.oracle import bar_core_and_weight, bars, enumerate_bar_partitions

print("Bar partitions of 9 (partitions into distinct parts):")
for lam in enumerate_bar_partitions(9):
    table = bars(lam)
    core, w = bar_core_and_weight(lam, 3)
    print(
        "  %-7s lengths %-28s product %6d  3-bar-core %-3s weight %d"
        % (lam, table.lengths(), table.h_total, core, w)
    )

print()
print("All eight labels share the empty 3-bar-core, so they form one block")
print("of weight 3 >= p: non-abelian defect.")
print()

(block,) = spin_blocks(9, 3, "A")
print("Degrees and heights in the alternating double cover:")
for lam, (_count, degree, height) in block.labels.items():
    print("  %-7s degree %3d  height %d" % (lam, degree, height))

print()
hz = sorted(degree for _count, degree, height in block.labels.values() if height == 0)
print("Height-zero degrees: %s" % hz)
print("Two of them differ (e.g. %d and %d), which is what the witness" % (hz[0], hz[1]))
print("machinery certifies for every non-abelian block.")

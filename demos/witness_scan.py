"""Scan small alternating double covers for height-zero witness pairs.

Every spin block with non-abelian defect (weight w >= p) should carry two
height-zero characters of distinct degrees; this script builds and verifies
the certificate for each such block and summarizes the scan.

Run: python3 demos/witness_scan.py
"""

from spinblocks import (
    NON_ABELIAN,
    build_witness,
    equal_degree_test,
    scan,
    spin_block,
    spin_blocks,
    spin_degree,
)

print("Blocks of the alternating double cover, p = 3, n = 9 .. 15:")
for n in range(9, 16):
    for block in spin_blocks(n, 3, "A"):
        line = "  n=%2d core %-5s w=%d %-11s" % (n, block.core, block.w, block.defect_class)
        if block.defect_class == NON_ABELIAN:
            cert = build_witness(block.core, 3, block.w)
            line += " witness %s/%s degrees %d/%d case %s verified=%s" % (
                cert.label_a, cert.label_b,
                spin_degree(cert.label_a, "A"), spin_degree(cert.label_b, "A"),
                cert.case, cert.verified,
            )
        else:
            line += " height-zero degrees %s" % (equal_degree_test(block)[1],)
        print(line)

print()
summary = scan(20, [3, 5])
print("Scan up to n = %d for p in %s:" % (summary.max_n, list(summary.primes)))
for (p, dc), count in sorted(summary.block_counts.items()):
    print("  p=%d %-11s %3d blocks" % (p, dc, count))
print("  witnesses verified: %d" % summary.witnesses_verified)
# scan builds no block: only a block whose witness failed needs the equal-degree test
equal = sum(equal_degree_test(spin_block(cert.core, cert.p, cert.w, "A"))[0]
            for cert in summary.failed)
print("  non-abelian blocks passing the equal-degree test: %d (expected 0)" % equal)
for note in summary.notes:
    print("  note: %s" % note)

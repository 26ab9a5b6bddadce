"""Scan small alternating double covers for height-zero witness pairs.

Every spin block with non-abelian defect (weight w >= p) should carry two
height-zero characters of distinct degrees; this script builds and verifies
the certificate for each such block and summarizes the scan.

Run: python3 demos/witness_scan.py
"""

from spinblocks import NON_ABELIAN, build_witness, equal_degree_test, scan, spin_blocks

print("Blocks of the alternating double cover, p = 3, n = 9 .. 15:")
for n in range(9, 16):
    for block in spin_blocks(n, 3, "A"):
        line = "  n=%2d core %-5s w=%d %-11s" % (n, block.core, block.w, block.defect_class)
        if block.defect_class == NON_ABELIAN:
            cert = build_witness(block.core, 3, block.w)
            line += " witness %s/%s degrees %d/%d case %s verified=%s" % (
                cert.label_a, cert.label_b, cert.degree_a, cert.degree_b,
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
print("  non-abelian blocks passing the equal-degree test: %d (expected 0)"
      % summary.equal_degree_non_abelian)
for note in summary.notes:
    print("  note: %s" % note)

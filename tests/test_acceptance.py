"""End-to-end acceptance checks at full desk scale.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line, so the suite doubles as a human-readable certification run.
All equalities are exact (integers and rationals); nothing is approximate.
"""

import math
import random

import pytest

from spinblocks.barpart import (
    EMPTY,
    bar_cores_up_to,
    count_bar_lengths_divisible,
    make_bar_partition,
    valuation,
)
from spinblocks.blocks import spin_blocks
from spinblocks.constructions import (
    compare_chain,
    decompose_core,
    grow_class,
    verify_ratio_chain,
)
from spinblocks.oracle import bar_core_and_weight, bars, enumerate_bar_partitions
from spinblocks.spinchar import character_count, spin_degree
from spinblocks.witness import NON_ABELIAN, _residue_and_valuation, build_witness, scan


def bp(*parts):
    return make_bar_partition(parts)


def report(name, ok, detail):
    print("%s: %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    assert ok


def cores_up_to(size, p):
    # a part divisible by p is itself a bar of that length: skip its bar table
    out = []
    for n in range(size + 1):
        out.extend(lam for lam in enumerate_bar_partitions(n)
                   if all(a % p for a in lam.parts) and count_bar_lengths_divisible(lam, p) == 0)
    return out


def test_ratio_identities_exact():
    checked = 0
    bad = []
    for p in (3, 5):
        for gamma in cores_up_to(12, p):
            checks = verify_ratio_chain(gamma, p, 4)
            checked += len(checks)
            bad.extend(c for c in checks if not c.ok)
    report("ratio identities equal direct quotients",
           checked > 0 and not bad,
           "%d identities checked, %d mismatches" % (checked, len(bad)))


def test_construction_comparisons_strict():
    (worked,) = compare_chain(bp(3, 1), 5, 1)
    ok = (worked.h_larger, worked.h_smaller) == (51840, 12960) and worked.verified
    checked = failures = 0
    for p in (3, 5):
        for gamma in cores_up_to(12, p):
            if gamma.m == 0:
                continue
            for res in compare_chain(gamma, p, 4):
                checked += 1
                if not res.verified:
                    failures += 1
    report("bar-product comparisons strict in every case",
           ok and failures == 0,
           "%d comparisons, %d failures; worked instance 51840 > 12960" % (checked, failures))


def test_principal_gap():
    instances = {
        (3, 2): (720, 180),
        (3, 3): (362880, 51840),
    }
    ok = True
    checked = 0
    for p in (3, 5, 7):
        for res in compare_chain(EMPTY, p, 10):
            checked += 1
            ok = ok and res.verified
            if (p, res.w) in instances:
                ok = ok and (res.h_larger, res.h_smaller) == instances[(p, res.w)]
    report("factor-2 gap for the empty-core pair", ok,
           "%d (p, w) instances, including 720 > 2*180 and 362880 > 2*51840" % checked)


def test_witness_certificates_full_sweep():
    c1 = build_witness(EMPTY, 3, 3)
    c2 = build_witness(bp(1), 3, 3)
    ok = ([spin_degree(c.label_a, "A") for c in (c1, c2)] == [8, 16]
          and [spin_degree(c.label_b, "A") for c in (c1, c2)] == [56, 64])
    ok = ok and c1.verified and c2.verified
    count = 0
    for p, max_n in ((3, 30), (5, 40)):
        for n in range(p * p, max_n + 1):
            for block in spin_blocks(n, p, "A"):
                if block.w >= p:
                    cert = build_witness(block.core, p, block.w)
                    count += 1
                    ok = ok and cert.verified
    report("every non-abelian block carries a verified witness pair", ok,
           "%d blocks for p=3 (n<=30) and p=5 (n<=40)" % count)


def test_certified_sweep_to_sixty():
    max_n = 60
    summary = scan(max_n, [3, 5])
    expected = 0
    for p in (3, 5):
        # a core gamma heads one non-abelian block for each w >= p with |gamma| + p*w <= max_n
        expected += sum((max_n - gamma.n) // p - p + 1 for gamma in cores_up_to(max_n - p * p, p))
    non_abelian = sum(cnt for (_p, dc), cnt in summary.block_counts.items() if dc == NON_ABELIAN)
    ok = summary.witnesses_verified == non_abelian == expected
    ok = ok and summary.failed == () and summary.notes == ()
    report("every non-abelian block to n = 60 is certified without building it", ok,
           "%d verified witnesses for p in {3,5}, %d blocks from the core filter"
           % (summary.witnesses_verified, expected))


def test_certified_sweep_to_one_hundred_twenty():
    # the brute-force cores_up_to would enumerate q(111) partitions
    verified = expected = 0
    ok = True
    for p, max_n in ((3, 120), (5, 100)):
        summary = scan(max_n, [p])
        verified += summary.witnesses_verified
        expected += sum((max_n - gamma.n) // p - p + 1
                        for gamma in bar_cores_up_to(max_n - p * p, p))
        non_abelian = summary.block_counts.get((p, NON_ABELIAN), 0)
        ok = ok and summary.witnesses_verified == non_abelian
        ok = ok and summary.failed == () and summary.notes == ()
    ok = ok and verified == expected
    report("every non-abelian block for p = 3 to n = 120 and p = 5 to n = 100 is certified",
           ok, "%d verified witnesses, %d blocks from the generated cores" % (verified, expected))


def test_character_count_invariants():
    ok = True
    for n in range(1, 21):
        total = sum(
            character_count(lam, "S") * spin_degree(lam, "S") ** 2
            for lam in enumerate_bar_partitions(n)
        )
        ok = ok and total == math.factorial(n)
    for n in range(2, 21):
        total = sum(
            character_count(lam, "A") * spin_degree(lam, "A") ** 2
            for lam in enumerate_bar_partitions(n)
        )
        ok = ok and total == math.factorial(n) // 2
    report("sum of squared spin degrees equals the group order contribution", ok,
           "n <= 20 in both double covers (alternating side from n = 2)")


def test_core_machinery():
    rng = random.Random(1105)
    ok = True
    instances = 0
    for n in range(21):
        for lam in enumerate_bar_partitions(n):
            assert len(bars(lam).bars) == lam.n
            for p in (3, 5, 7):
                core, w = bar_core_and_weight(lam, p)
                ok = ok and lam.n == core.n + p * w
                instances += 1
                for _ in range(100):
                    ok = ok and bar_core_and_weight(lam, p, rng=rng) == (core, w)
    report("core removal is size-consistent and order-independent", ok,
           "%d (partition, prime) instances, 100 randomized orders each" % instances)


def test_height_dichotomy():
    (block,) = spin_blocks(9, 3, "S")
    ok = block.labels[bp(6, 2, 1)] == (1, 240, 1)
    for p in (3, 5, 7):
        for n in range(2, 25):
            for blk in spin_blocks(n, p, "A"):
                hs = {height for _count, _degree, height in blk.labels.values()}
                if 1 <= blk.w < p:
                    ok = ok and hs == {0}
                elif blk.w >= p:
                    ok = ok and max(hs) > 0
    report("heights vanish exactly on the abelian-defect blocks", ok,
           "p in {3,5,7}, n <= 24; (6,2,1) has degree 240 and height 1")


def test_congruence_of_constructed_labels():
    checked = failures = 0
    for p in (3, 5):
        for gamma in cores_up_to(12, p):
            if gamma.m == 0:
                continue
            target = bars(gamma).h_total % p
            dec = decompose_core(gamma, p)
            for w in range(1, 5):
                labels = [grow_class(gamma, p, i, w) for i in (None, *dec.nonempty)]
                for lam in labels:
                    checked += 1
                    if _residue_and_valuation(lam, p)[0] not in (target, (-target) % p):
                        failures += 1
    report("p'-part of the bar product is congruent to +-H(core) mod p",
           checked > 0 and failures == 0,
           "%d constructed labels, %d failures" % (checked, failures))


def test_exactness_of_the_pipeline():
    # the library certifies identities and inequalities rather than
    # reproducing numeric tables; spot-check that the pipeline is exact
    # end to end on one block
    (block,) = spin_blocks(9, 3, "A")
    degs = sorted(spin_degree(lam, "A") for lam in block.labels)
    ok = degs == [8, 48, 56, 112, 120, 160, 168, 224]
    ok = ok and all(isinstance(d, int) for d in degs)
    ok = ok and valuation(bars(bp(9)).h_total, 3) == 4
    report("exact integer arithmetic end to end", ok,
           "n=9, p=3 block degrees recomputed exactly")

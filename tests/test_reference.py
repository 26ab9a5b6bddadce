"""The paper's claim checked by its definition, against perfbench/reference.py.

The reference imports nothing from spinblocks and uses other algorithms: it
finds a p-bar-core by sliding beads on the abacus, lists cores from residue
choices, enumerates the strict partitions and computes each degree with the
splitting rule of the alternating double cover. It is loaded by path and
only read. For every n <= MAX_N the blocks it groups must be the package's
block targets, and every witness the package builds must be two labels of
the reference block whose reference degrees differ and have the block's
least p-adic valuation: height zero by its definition, with no lemma.
"""

import importlib.util
from pathlib import Path

import pytest

from spinblocks.blocks import block_targets
from spinblocks.witness import (
    ABELIAN,
    DEFECT_ZERO,
    NON_ABELIAN,
    build_witness,
    scan,
    witness_eligible,
)

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
MAX_N = 40
PRIMES = (3, 5, 7)


def load_reference():
    spec = importlib.util.spec_from_file_location("spinblocks_reference", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_reference()


def reference_blocks(n, p):
    """{(core, w): labels} of n by the reference's abacus, as plain tuples."""
    blocks = {}
    for lam in reference.distinct_partitions(n):
        blocks.setdefault(reference.abacus_core(lam, p), []).append(lam)
    return blocks


def test_reference_passes_its_self_test():
    assert reference.self_test() == []


@pytest.mark.parametrize("p", PRIMES)
def test_witnesses_hold_by_definition(p):
    certified = 0
    for n in range(1, MAX_N + 1):
        blocks = reference_blocks(n, p)
        targets = block_targets(n, p)
        assert sorted((core.parts, w) for core, w in targets) == sorted(blocks)
        for core, w in targets:
            if not witness_eligible(core, p, w):
                continue
            labels = blocks[core.parts, w]
            cert = build_witness(core, p, w)
            assert cert.verified
            pair = (cert.label_a.parts, cert.label_b.parts)
            assert set(pair) <= set(labels)
            degree = {lam: reference.alt_characters(lam)[1] for lam in labels}
            low = min(reference.valuation(d, p) for d in degree.values())
            assert degree[pair[0]] != degree[pair[1]]
            assert [reference.valuation(degree[lam], p) for lam in pair] == [low, low]
            certified += 1
    assert certified  # the range holds witnesses at every prime


def test_scan_counts_the_reference_blocks():
    expected = {}
    for p in PRIMES:
        for core in reference.cores_up_to(MAX_N, p):
            for w in range((MAX_N - sum(core)) // p + 1):
                if sum(core) + p * w >= 4:
                    dc = DEFECT_ZERO if w == 0 else ABELIAN if w < p else NON_ABELIAN
                    expected[p, dc] = expected.get((p, dc), 0) + 1
    summary = scan(MAX_N, PRIMES)
    assert summary.block_counts == expected
    assert summary.failed == ()

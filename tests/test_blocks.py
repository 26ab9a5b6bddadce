import re

import pytest

from spinblocks import blocks, oracle
from spinblocks.barpart import (
    EMPTY,
    bar_cores_up_to,
    factorial_valuation,
    labels_with_core_and_weight,
    make_bar_partition,
    sigma,
    valuation,
)
from spinblocks.blocks import (
    block_targets,
    equal_degree_test,
    spin_block,
    spin_blocks,
)
from spinblocks.oracle import bar_core_and_weight, enumerate_bar_partitions
from spinblocks.witness import ABELIAN, DEFECT_ZERO, NON_ABELIAN


def bp(*parts):
    return make_bar_partition(parts)


def heights(block):
    return {lam: height for lam, (_count, _degree, height) in block.labels.items()}


def at_closed_form(block):
    """Labels whose degree valuation is v_p(n!) - v_p((pw)!), read off the
    block's defect group, a Sylow p-subgroup of S_pw (Humphreys 1986)."""
    n, p = block.core.n + block.p * block.w, block.p
    target = factorial_valuation(n, p) - factorial_valuation(p * block.w, p)
    return {lam for lam, (_count, degree, _height) in block.labels.items()
            if valuation(degree, p) == target}


class TestSpinBlocks:
    def test_nine(self):
        (block,) = spin_blocks(9, 3, "S")
        assert block.core == EMPTY
        assert block.w == 3
        assert len(block.labels) == 8
        assert block.defect_class == NON_ABELIAN

    def test_five(self):
        got = spin_blocks(5, 3, "S")
        assert len(got) == 2
        by_core = {block.core: block for block in got}
        assert set(by_core[bp(2)].labels) == {bp(5), bp(3, 2)}
        assert by_core[bp(2)].w == 1
        assert by_core[bp(2)].defect_class == ABELIAN
        assert list(by_core[bp(4, 1)].labels) == [bp(4, 1)]
        assert by_core[bp(4, 1)].defect_class == DEFECT_ZERO

    def test_four(self):
        (block,) = spin_blocks(4, 3, "A")
        assert block.core == bp(1)
        assert block.w == 1
        assert set(block.labels) == {bp(4), bp(3, 1)}

    def test_label_counts_partition_the_labels(self):
        # n = 1 is degenerate for the alternating cover (no consistent split)
        for n in range(2, 16):
            for p in (3, 5):
                blocks = spin_blocks(n, p, "A")
                assert sum(len(b.labels) for b in blocks) == len(enumerate_bar_partitions(n))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spin_blocks(0, 3, "A")
        with pytest.raises(ValueError):
            spin_blocks(5, 2, "A")
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            block_targets(0, 3)

    def test_targets_refuse_non_integer_n(self):
        for n in (5.5, True):
            with pytest.raises(ValueError, match="n must be an integer, got %r" % (n,)):
                block_targets(n, 3)

    def test_alternating_needs_two_letters(self):
        with pytest.raises(ValueError, match="n >= 2"):
            spin_blocks(1, 3, "A")
        with pytest.raises(ValueError, match="n >= 2"):
            spin_block(bp(1), 3, 0, "A")
        (block,) = spin_blocks(1, 3, "S")
        assert list(block.labels) == [bp(1)]


class TestSpinBlock:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_generated_labels_match_spin_blocks(self, p):
        for n in range(1, 31):
            for block in spin_blocks(n, p, "S"):
                assert labels_with_core_and_weight(block.core, p, block.w) == list(block.labels)

    @pytest.mark.parametrize("group", ["S", "A"])
    def test_equals_block_of_spin_blocks(self, group):
        # the whole list pins the order, the targets and every record, so
        # spin_blocks could be built from block_targets and spin_block alone
        for p in (3, 5, 7, 11):
            for n in range(2, 31):
                assert spin_blocks(n, p, group) == [spin_block(core, p, w, group)
                                                    for core, w in block_targets(n, p)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spin_block(EMPTY, 3, 0, "A")
        with pytest.raises(ValueError):
            spin_block(bp(3), 3, 1, "A")  # not a core
        with pytest.raises(ValueError):
            spin_block(bp(1), 4, 1, "A")


@pytest.mark.parametrize("p, max_w, max_core", [(3, 3, 100), (5, 2, 100), (7, 2, 100),
                                                 (11, 2, 30)])
def test_heights_past_the_oracle_match_the_smallest_core(p, max_w, max_core):
    # a measurement, not a theorem of the paper: a block's multiset of character
    # heights depends only on (p, w, sigma(core)), the empty core a class of its
    # own; the block of each class's smallest core is checked against the
    # bar-removal filter, which cannot reach n = 100
    reference = {}
    for core in bar_cores_up_to(max_core, p):
        for w in range(1, max_w + 1):
            for group in ("A", "S"):
                block = spin_block(core, p, w, group)
                hs = sorted(height for count, _degree, height in block.labels.values()
                            for _ in range(count))
                key = (sigma(core) if core.m else "empty", w, group)
                if key not in reference:
                    assert list(block.labels) == [
                        lam for lam in enumerate_bar_partitions(core.n + p * w)
                        if bar_core_and_weight(lam, p) == (core, w)]
                    reference[key] = hs
                assert hs == reference[key]
    assert len(reference) == 3 * max_w * 2


class TestRefusedBeforeLabels:
    @pytest.mark.parametrize("call, message", [
        (lambda: spin_block(EMPTY, 3, 0, "A"), "n must be positive, got 0"),
        (lambda: spin_block(bp(1), 3, 1, "B"), "group kind must be 'S' or 'A', got 'B'"),
        # a (kind, n) pair is not a kind
        (lambda: spin_block(bp(1), 3, 1, ("A", 4)), "group kind must be 'S' or 'A'"),
        (lambda: spin_block(EMPTY, 3, -1, "A"), "w must be nonnegative, got -1"),
        (lambda: spin_block(bp(1), 3, 1.5, "A"), "w must be an integer, got 1.5"),
        # the prime is checked before n = |core| + p*w is computed from it
        (lambda: spin_block(EMPTY, "3", 1, "A"), "p must be an odd prime, got '3'"),
        (lambda: spin_block(EMPTY, 3.0, 1, "A"), "p must be an odd prime, got 3.0"),
        (lambda: spin_blocks(0, 3, "A"), "n must be positive, got 0"),
        (lambda: spin_blocks(4, 3, ("A", 4)), "group kind must be 'S' or 'A'"),
    ], ids=["spin_block-n0", "spin_block-wrong-group", "spin_block-group-tag",
            "spin_block-negative-w", "spin_block-non-int-w", "spin_block-str-p",
            "spin_block-float-p", "spin_blocks-n0", "spin_blocks-group-tag"])
    def test_refused(self, monkeypatch, call, message):
        def refuse(*args):
            raise AssertionError("generated labels")

        monkeypatch.setattr(blocks, "labels_with_core_and_weight", refuse)
        monkeypatch.setattr(oracle, "enumerate_bar_partitions", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestHeights:
    def test_nine_sym(self):
        (block,) = spin_blocks(9, 3, "S")
        expected = {
            bp(9): 0, bp(8, 1): 0, bp(7, 2): 0, bp(6, 3): 0, bp(5, 4): 0,
            bp(6, 2, 1): 1, bp(5, 3, 1): 1, bp(4, 3, 2): 1,
        }
        assert heights(block) == expected

    def test_defect_zero(self):
        blocks = spin_blocks(5, 3, "S")
        (dz,) = [b for b in blocks if b.defect_class == DEFECT_ZERO]
        assert list(heights(dz).values()) == [0]

    def test_abelian_all_zero(self):
        (block,) = spin_blocks(4, 3, "S")
        assert set(heights(block).values()) == {0}

    def test_same_in_both_groups(self):
        for n in range(4, 14):
            sym_blocks = {b.core: heights(b) for b in spin_blocks(n, 3, "S")}
            alt_blocks = {b.core: heights(b) for b in spin_blocks(n, 3, "A")}
            assert sym_blocks == alt_blocks


class TestHeightZeroCriterion:
    def test_nine(self):
        (block,) = spin_blocks(9, 3, "S")
        got = at_closed_form(block)
        assert got == {bp(9), bp(8, 1), bp(7, 2), bp(6, 3), bp(5, 4)}

    def test_defect_zero(self):
        blocks = spin_blocks(5, 3, "A")
        (dz,) = [b for b in blocks if b.defect_class == DEFECT_ZERO]
        assert at_closed_form(dz) == {bp(4, 1)}

    def test_four(self):
        (block,) = spin_blocks(4, 3, "A")
        assert at_closed_form(block) == {bp(4), bp(3, 1)}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_heights(self, p):
        for n in range(2, 17):
            for block in spin_blocks(n, p, "A"):
                from_heights = {lam for lam, h in heights(block).items() if h == 0}
                assert at_closed_form(block) == from_heights


class TestEqualDegree:
    def test_nine_alt(self):
        (block,) = spin_blocks(9, 3, "A")
        flag, degrees = equal_degree_test(block)
        assert flag is False
        assert 8 in degrees and 56 in degrees

    def test_defect_zero(self):
        blocks = spin_blocks(5, 3, "A")
        (dz,) = [b for b in blocks if b.defect_class == DEFECT_ZERO]
        assert equal_degree_test(dz)[0] is True

    def test_four_alt(self):
        (block,) = spin_blocks(4, 3, "A")
        flag, degrees = equal_degree_test(block)
        assert flag is True
        assert set(degrees) == {2}


class TestOlssonHeightCheck:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_abelian_iff_flat(self, p):
        for n in range(2, 17):
            for block in spin_blocks(n, p, "A"):
                hs = set(heights(block).values())
                if 1 <= block.w < p:
                    assert hs == {0}
                elif block.w >= p:
                    assert max(hs) > 0

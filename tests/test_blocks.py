import pytest

from spinblocks.barpart import (
    EMPTY,
    enumerate_bar_partitions,
    labels_with_core_and_weight,
    make_bar_partition,
)
from spinblocks.blocks import (
    ABELIAN,
    DEFECT_ZERO,
    NON_ABELIAN,
    equal_degree_test,
    height_zero_by_criterion,
    height_zero_valuation,
    spin_block,
    spin_blocks,
)


def bp(*parts):
    return make_bar_partition(parts)


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
        assert by_core[bp(4, 1)].labels == (bp(4, 1),)
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

    def test_alternating_needs_two_letters(self):
        with pytest.raises(ValueError, match="n >= 2"):
            spin_blocks(1, 3, "A")
        with pytest.raises(ValueError, match="n >= 2"):
            spin_block(bp(1), 3, 0, "A")
        (block,) = spin_blocks(1, 3, "S")
        assert block.labels == (bp(1),)


class TestSpinBlock:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_generated_labels_match_spin_blocks(self, p):
        for n in range(1, 31):
            for block in spin_blocks(n, p, "S"):
                assert tuple(labels_with_core_and_weight(block.core, p, block.w)) == block.labels

    @pytest.mark.parametrize("group", ["S", "A"])
    def test_equals_block_of_spin_blocks(self, group):
        for block in spin_blocks(16, 3, group):
            assert spin_block(block.core, 3, block.w, group) == block

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spin_block(EMPTY, 3, 0, "A")
        with pytest.raises(ValueError):
            spin_block(bp(3), 3, 1, "A")  # not a core
        with pytest.raises(ValueError):
            spin_block(bp(1), 4, 1, "A")


class TestHeights:
    def test_nine_sym(self):
        (block,) = spin_blocks(9, 3, "S")
        expected = {
            bp(9): 0, bp(8, 1): 0, bp(7, 2): 0, bp(6, 3): 0, bp(5, 4): 0,
            bp(6, 2, 1): 1, bp(5, 3, 1): 1, bp(4, 3, 2): 1,
        }
        assert block.heights == expected

    def test_defect_zero(self):
        blocks = spin_blocks(5, 3, "S")
        (dz,) = [b for b in blocks if b.defect_class == DEFECT_ZERO]
        assert list(dz.heights.values()) == [0]

    def test_abelian_all_zero(self):
        (block,) = spin_blocks(4, 3, "S")
        assert set(block.heights.values()) == {0}

    def test_same_in_both_groups(self):
        for n in range(4, 14):
            sym_blocks = {b.core: b.heights for b in spin_blocks(n, 3, "S")}
            alt_blocks = {b.core: b.heights for b in spin_blocks(n, 3, "A")}
            assert sym_blocks == alt_blocks


class TestHeightZeroCriterion:
    def test_nine(self):
        (block,) = spin_blocks(9, 3, "S")
        got = height_zero_by_criterion(block)
        assert got == {bp(9), bp(8, 1), bp(7, 2), bp(6, 3), bp(5, 4)}

    def test_defect_zero(self):
        blocks = spin_blocks(5, 3, "A")
        (dz,) = [b for b in blocks if b.defect_class == DEFECT_ZERO]
        assert height_zero_by_criterion(dz) == {bp(4, 1)}

    def test_four(self):
        (block,) = spin_blocks(4, 3, "A")
        assert height_zero_by_criterion(block) == {bp(4), bp(3, 1)}

    def test_closed_form_values(self):
        assert height_zero_valuation(9, 3, 3) == 0     # v_3(9!) - v_3(9!)
        assert height_zero_valuation(12, 3, 1) == 4    # v_3(12!) = 5, v_3(3!) = 1
        assert height_zero_valuation(5, 3, 0) == 1     # defect zero: v_3(5!)
        assert height_zero_valuation(50, 5, 10) == 0   # v_5(50!) = v_5(50!) = 12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_heights(self, p):
        for n in range(2, 17):
            for block in spin_blocks(n, p, "A"):
                from_heights = {lam for lam, h in block.heights.items() if h == 0}
                assert height_zero_by_criterion(block) == from_heights


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
                hs = set(block.heights.values())
                if 1 <= block.w < p:
                    assert hs == {0}
                elif block.w >= p:
                    assert max(hs) > 0

import math

import pytest

from spinblocks import oracle, spinchar
from spinblocks.barpart import (
    EMPTY,
    degree_two_power,
    make_bar_partition,
    sigma,
    valuation,
    weight_tower,
)
from spinblocks.oracle import bars, enumerate_bar_partitions
from spinblocks.spinchar import character_count, check_group, spin_degree


def bp(*parts):
    return make_bar_partition(parts)


class TestSigma:
    def test_examples(self):
        assert sigma(EMPTY) == 1
        assert sigma(bp(3)) == 1
        assert sigma(bp(2, 1)) == -1

    def test_parity(self):
        for n in range(1, 12):
            for lam in enumerate_bar_partitions(n):
                assert sigma(lam) == (-1) ** (lam.n - lam.m)


class TestDegree:
    def test_examples(self):
        assert spin_degree(bp(3), "S") == 2
        assert spin_degree(bp(8, 1), "S") == 56
        assert spin_degree(bp(9), "S") == 16
        assert spin_degree(bp(2, 1), "S") == 1

    def test_rejects_empty(self):
        # the symmetric cover's own rule refuses n < 1
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            spin_degree(EMPTY, "S")

    def test_alternating_degree_rejects_one_letter(self):
        # (1) labels the symmetric cover on one letter; the alternating one needs n >= 2
        with pytest.raises(ValueError, match="alternating double cover needs n >= 2, got 1"):
            spin_degree(bp(1), "A")

    def test_inexact_division_names_the_label(self, monkeypatch):
        monkeypatch.setattr(spinchar, "bar_products", lambda lam: (5, 1))  # 5 does not divide 48
        with pytest.raises(RuntimeError, match="for 3,1$"):
            spin_degree(bp(3, 1), "S")

    def test_builds_no_bar_table(self, monkeypatch):
        labels = [bp(3), bp(8, 1), bp(6, 2, 1), bp(30, 17, 2), bp(25, 11, 7, 4, 1)]
        expected = [
            (1 << ((lam.n - lam.m) // 2)) * math.factorial(lam.n) // bars(lam).h_total
            for lam in labels
        ]

        def refuse(*args):
            raise AssertionError("spin_degree built a bar table")

        monkeypatch.setattr(oracle, "BarTable", refuse)
        assert [spin_degree(lam, "S") for lam in labels] == expected

    def test_even_when_splitting(self):
        # sigma = +1 forces an even degree, so restriction can split (n >= 2)
        for n in range(2, 15):
            for lam in enumerate_bar_partitions(n):
                if sigma(lam) == 1:
                    assert spin_degree(lam, "S") % 2 == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_valuation_links_to_weight_tower(self, p):
        for n in range(1, 13):
            nu_fact = valuation(math.factorial(n), p) if n > 1 else 0
            for lam in enumerate_bar_partitions(n):
                d = spin_degree(lam, "S")
                _, v = weight_tower(lam, p)
                assert (valuation(d, p) if d > 1 else 0) == nu_fact - v


    @pytest.mark.parametrize("n", range(2, 21))
    def test_alternating_degree_against_the_symmetric_one(self, n):
        # the two covers share one formula, only its power of 2 differs:
        # sigma = +1 halves the "S" degree, sigma = -1 keeps it
        for lam in enumerate_bar_partitions(n):
            assert spin_degree(lam, "A") * (2 if sigma(lam) == 1 else 1) == spin_degree(lam, "S")
            assert degree_two_power(lam, "S") == (n - lam.m) // 2
            assert degree_two_power(lam, "A") == (n - lam.m - 1) // 2


class TestSplitting:
    def test_sym_associate_pair(self):
        assert (character_count(bp(4), "S"), spin_degree(bp(4), "S")) == (2, 2)
        assert sigma(bp(4)) == -1

    def test_alt_splits_plus(self):
        assert (character_count(bp(3, 1), "A"), spin_degree(bp(3, 1), "A")) == (2, 2)

    def test_alt_nine(self):
        assert (character_count(bp(9), "A"), spin_degree(bp(9), "A")) == (2, 8)

    def test_alt_single_when_minus(self):
        assert (character_count(bp(8, 1), "A"), spin_degree(bp(8, 1), "A")) == (1, 56)

    def test_sym_single_when_plus(self):
        assert (character_count(bp(9), "S"), spin_degree(bp(9), "S")) == (1, 16)

    def test_group_mismatch(self):
        # the group is named by its kind alone; a (kind, n) pair is not a kind
        with pytest.raises(ValueError, match=r"group kind must be 'S' or 'A', got \('S', 4\)"):
            check_group(("S", 4), 4)
        with pytest.raises(ValueError, match="group kind must be 'S' or 'A', got 'B'"):
            check_group("B", 5)

    def test_degenerate_one_letter(self):
        # the label (1) has sigma = +1 with odd "S" degree 1: check_group refuses the group
        with pytest.raises(ValueError, match="n >= 2, got 1"):
            spin_degree(bp(1), "A")
        with pytest.raises(ValueError, match="alternating double cover needs n >= 2, got 1"):
            check_group("A", 1)
        check_group("S", 1)

    def test_rejects_non_positive_n(self):
        for kind in ("S", "A"):
            with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
                check_group(kind, 0)

    @pytest.mark.parametrize("lam, kind, message", [
        (bp(3), "B", "group kind must be 'S' or 'A', got 'B'"),
        (EMPTY, "S", "^n must be >= 1, got 0$"),
        (bp(1), "A", "alternating double cover needs n >= 2, got 1"),
    ], ids=["kind-B", "S-empty", "A-one-letter"])
    def test_count_refuses_what_the_degree_refuses(self, lam, kind, message):
        for count_or_degree in (character_count, spin_degree):
            with pytest.raises(ValueError, match=message):
                count_or_degree(lam, kind)

    def test_rejects_non_integer_n(self):
        for kind, n in (("A", 5.5), ("S", True), ("S", "4")):
            with pytest.raises(ValueError, match="n must be an integer, got %r" % (n,)):
                check_group(kind, n)


class TestCharacterCounts:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_sym_sum_of_squares(self, n):
        total = sum(
            character_count(lam, "S") * spin_degree(lam, "S") ** 2
            for lam in enumerate_bar_partitions(n)
        )
        assert total == math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_alt_sum_of_squares(self, n):
        total = sum(
            character_count(lam, "A") * spin_degree(lam, "A") ** 2
            for lam in enumerate_bar_partitions(n)
        )
        assert total == math.factorial(n) // 2


def test_degree_valuation():
    assert spin_degree(bp(9), "S") == 16
    assert valuation(spin_degree(bp(9), "S"), 3) == 0
    assert spin_degree(bp(6, 2, 1), "S") == 240
    assert valuation(spin_degree(bp(6, 2, 1), "S"), 3) == 1

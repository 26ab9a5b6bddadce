import math

import pytest

from spinblocks import oracle, spinchar
from spinblocks.barpart import (
    EMPTY,
    make_bar_partition,
    valuation,
    weight_tower,
)
from spinblocks.oracle import bars, enumerate_bar_partitions
from spinblocks.spinchar import (
    GroupTag,
    alt,
    alt_degree,
    characters_of_label,
    sigma,
    spin_degree_sym,
    sym,
)


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
        assert spin_degree_sym(bp(3)) == 2
        assert spin_degree_sym(bp(8, 1)) == 56
        assert spin_degree_sym(bp(9)) == 16
        assert spin_degree_sym(bp(2, 1)) == 1

    def test_rejects_empty(self):
        # the symmetric cover's own rule refuses n < 1
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            spin_degree_sym(EMPTY)

    def test_alternating_degree_rejects_one_letter(self):
        # (1) labels the symmetric cover on one letter; the alternating one needs n >= 2
        with pytest.raises(ValueError, match="alternating double cover needs n >= 2, got 1"):
            alt_degree(bp(1))

    def test_inexact_division_names_the_label(self, monkeypatch):
        monkeypatch.setattr(spinchar, "bar_products", lambda lam: (5, 1))  # 5 does not divide 48
        with pytest.raises(RuntimeError, match="for 3,1$"):
            spin_degree_sym(bp(3, 1))

    def test_builds_no_bar_table(self, monkeypatch):
        labels = [bp(3), bp(8, 1), bp(6, 2, 1), bp(30, 17, 2), bp(25, 11, 7, 4, 1)]
        expected = [
            (1 << ((lam.n - lam.m) // 2)) * math.factorial(lam.n) // bars(lam).h_total
            for lam in labels
        ]

        def refuse(*args):
            raise AssertionError("spin_degree_sym built a bar table")

        monkeypatch.setattr(oracle, "BarTable", refuse)
        assert [spin_degree_sym(lam) for lam in labels] == expected

    def test_even_when_splitting(self):
        # sigma = +1 forces an even degree, so restriction can split (n >= 2)
        for n in range(2, 15):
            for lam in enumerate_bar_partitions(n):
                if sigma(lam) == 1:
                    assert spin_degree_sym(lam) % 2 == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_valuation_links_to_weight_tower(self, p):
        for n in range(1, 13):
            nu_fact = valuation(math.factorial(n), p) if n > 1 else 0
            for lam in enumerate_bar_partitions(n):
                d = spin_degree_sym(lam)
                _, v = weight_tower(lam, p)
                assert (valuation(d, p) if d > 1 else 0) == nu_fact - v


class TestSplitting:
    def test_sym_associate_pair(self):
        chars = characters_of_label(bp(4), sym(4))
        assert [c.degree for c in chars] == [2, 2]
        assert [c.associate_index for c in chars] == [0, 1]
        assert all(c.sigma == -1 for c in chars)

    def test_alt_splits_plus(self):
        chars = characters_of_label(bp(3, 1), alt(4))
        assert [c.degree for c in chars] == [2, 2]

    def test_alt_nine(self):
        chars = characters_of_label(bp(9), alt(9))
        assert [c.degree for c in chars] == [8, 8]

    def test_alt_single_when_minus(self):
        chars = characters_of_label(bp(8, 1), alt(9))
        assert [c.degree for c in chars] == [56]

    def test_sym_single_when_plus(self):
        chars = characters_of_label(bp(9), sym(9))
        assert [c.degree for c in chars] == [16]

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            characters_of_label(bp(3), sym(4))
        with pytest.raises(ValueError, match="group kind must be 'S' or 'A', got 'B'"):
            GroupTag("B", 5)

    def test_degenerate_one_letter(self):
        # the label (1) has sigma = +1 with odd degree 1: GroupTag refuses the group
        with pytest.raises(ValueError, match="n >= 2, got 1"):
            characters_of_label(bp(1), alt(1))
        with pytest.raises(ValueError, match="n >= 2, got 1"):
            characters_of_label(bp(1), "A")

    def test_replace_validates(self):
        assert str(alt(3)._replace(n=5)) == "2.A_5"
        with pytest.raises(ValueError, match="alternating double cover needs n >= 2, got 1"):
            alt(3)._replace(n=1)
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            sym(3)._replace(n=0)

    def test_rejects_non_integer_n(self):
        for kind, n in (("A", 5.5), ("S", True), ("S", "4")):
            with pytest.raises(ValueError, match="n must be an integer, got %r" % (n,)):
                GroupTag(kind, n)


class TestCharacterCounts:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_sym_sum_of_squares(self, n):
        total = sum(
            c.degree**2
            for lam in enumerate_bar_partitions(n)
            for c in characters_of_label(lam, sym(n))
        )
        assert total == math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_alt_sum_of_squares(self, n):
        total = sum(
            c.degree**2
            for lam in enumerate_bar_partitions(n)
            for c in characters_of_label(lam, alt(n))
        )
        assert total == math.factorial(n) // 2


def test_degree_valuation():
    (chi,) = characters_of_label(bp(9), sym(9))
    assert chi.degree == 16
    assert valuation(chi.degree, 3) == 0
    (chi,) = characters_of_label(bp(6, 2, 1), sym(9))
    assert chi.degree == 240
    assert valuation(chi.degree, 3) == 1

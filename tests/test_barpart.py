import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinblocks.barpart import (
    EMPTY,
    BarPartition,
    _core_run,
    _runner_pair_parts,
    abacus_core,
    bar_cores_up_to,
    bar_products,
    count_bar_lengths_divisible,
    factorial_valuation,
    format_partition,
    labels_with_core_and_weight,
    make_bar_partition,
    parse_partition,
    runner_charges,
    valuation,
    weight_tower,
    with_part,
)
from spinblocks.oracle import (
    TYPE1,
    TYPE2,
    TYPE3,
    Bar,
    bar_core_and_weight,
    bars,
    enumerate_bar_partitions,
    remove_bar,
)

bar_partitions = st.sets(st.integers(1, 28), max_size=6).map(
    lambda s: BarPartition(tuple(sorted(s, reverse=True)))
)


def bp(*parts):
    return make_bar_partition(parts)


class TestWithPart:
    @given(bar_partitions, st.integers(1, 40), st.data())
    def test_equals_make_bar_partition(self, lam, new, data):
        old = data.draw(st.sampled_from((None,) + lam.parts))
        rest = [a for a in lam.parts if a != old]
        if new in rest:
            with pytest.raises(ValueError, match="repeated part %d" % new):
                with_part(lam, new, old)
        else:
            built = with_part(lam, new, old)
            assert built == make_bar_partition(rest + [new])
            assert type(built) is BarPartition and type(built.parts) is tuple

    def test_examples(self):
        assert with_part(EMPTY, 3) == bp(3)
        assert with_part(bp(4, 1), 2) == bp(4, 2, 1)
        assert with_part(bp(4, 1), 7, 4) == bp(7, 1)
        assert with_part(bp(4, 1), 4, 4) == bp(4, 1)
        assert with_part(bp(7, 4, 1), 2, 7) == bp(4, 2, 1)

    @pytest.mark.parametrize("new", [4, 1, 0, -3, True, False, 2.0, "5", None])
    def test_refuses_bad_part(self, new):
        with pytest.raises(ValueError):
            with_part(bp(4, 1), new)

    @pytest.mark.parametrize("lam, new, old", [(bp(4, 1), 5, 3), (EMPTY, 5, 1), (bp(4, 1), 5, 0)])
    def test_refuses_missing_old(self, lam, new, old):
        with pytest.raises(ValueError, match="%d is not a part of %s" % (old, lam)):
            with_part(lam, new, old)


class TestConstruction:
    def test_basic(self):
        lam = bp(4, 1)
        assert lam.parts == (4, 1)
        assert lam.n == 5
        assert lam.m == 2

    def test_empty(self):
        assert EMPTY.n == 0
        assert EMPTY.m == 0

    def test_sorts_input(self):
        assert make_bar_partition([1, 4]).parts == (4, 1)
        # only make_bar_partition orders the parts
        with pytest.raises(ValueError, match="strictly decreasing"):
            BarPartition((1, 3))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            make_bar_partition([3, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_bar_partition([3, 0])
        with pytest.raises(ValueError):
            make_bar_partition([-1])

    def test_named_tuple_contract(self):
        lam = BarPartition(parts=(3, 1))
        assert lam == bp(3, 1)
        assert repr(lam) == "BarPartition(parts=(3, 1))"
        assert hash(lam) == hash((lam.parts,))
        with pytest.raises(AttributeError):
            lam.parts = (4,)
        with pytest.raises(AttributeError):
            lam.weight = 0

    def test_stores_a_tuple(self):
        lam = BarPartition([3, 1])
        assert lam.parts == (3, 1)
        assert lam == BarPartition((3, 1))
        assert hash(lam) == hash(BarPartition((3, 1)))
        assert BarPartition(a for a in (3, 1)) == bp(3, 1)
        with pytest.raises(ValueError, match="strictly decreasing"):
            BarPartition(a for a in (1, 3))

    def test_ordered_by_parts(self):
        labels = [lam for n in range(13) for lam in enumerate_bar_partitions(n)]
        random.Random(0).shuffle(labels)
        assert [lam.parts for lam in sorted(labels)] == sorted(lam.parts for lam in labels)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match=r"repeated part 1 in \(1, 1\)"):
            bp(3, 1)._replace(parts=(1, 1))
        assert bp(3, 1)._replace(parts=(4, 1)) == bp(4, 1)

    def test_text_roundtrip(self):
        assert parse_partition("8,1").parts == (8, 1)
        assert parse_partition("-") == EMPTY
        assert format_partition(bp(8, 1)) == "8,1"
        assert format_partition(EMPTY) == "-"
        with pytest.raises(ValueError):
            parse_partition("8,x")
        with pytest.raises(ValueError):
            parse_partition("3,3")


class TestEnumeration:
    def test_zero(self):
        assert enumerate_bar_partitions(0) == [EMPTY]

    def test_three(self):
        assert enumerate_bar_partitions(3) == [bp(3), bp(2, 1)]

    def test_nine(self):
        got = enumerate_bar_partitions(9)
        expected = {bp(9), bp(8, 1), bp(7, 2), bp(6, 3), bp(5, 4),
                    bp(6, 2, 1), bp(5, 3, 1), bp(4, 3, 2)}
        assert set(got) == expected
        assert len(got) == 8
        # canonical order is decreasing lexicographic on part lists
        assert got == sorted(got, key=lambda lam: lam.parts, reverse=True)

    def test_negative(self):
        with pytest.raises(ValueError):
            enumerate_bar_partitions(-1)

    @pytest.mark.parametrize("n", [5.5, True, "4"])
    def test_rejects_non_integer_n(self, n):
        # a float would reach range() as a TypeError, True would pass as n = 1
        with pytest.raises(ValueError, match="n must be an integer, got %r" % (n,)):
            enumerate_bar_partitions(n)


class TestBars:
    def test_single_part(self):
        table = bars(bp(3))
        assert table.lengths() == [1, 2, 3]
        assert all(b.kind in (TYPE1, TYPE2) for b in table.bars)
        assert table.h_total == 6
        assert table.h_mixed == 1

    def test_five_one(self):
        table = bars(bp(5, 1))
        assert table.lengths() == [1, 1, 2, 3, 5, 6]
        assert table.h_total == 180

    def test_two_one(self):
        table = bars(bp(2, 1))
        assert table.lengths() == [1, 2, 3]
        assert table.h_total == 6
        assert table.h_mixed == 3
        (mixed,) = [b for b in table.bars if b.kind == TYPE3]
        assert (mixed.i, mixed.j, mixed.length) == (1, 2, 3)

    @pytest.mark.parametrize("n", range(13))
    def test_multiset_size_is_n(self, n):
        for lam in enumerate_bar_partitions(n):
            assert len(bars(lam).bars) == lam.n

    @given(st.integers(1, 40))
    def test_single_part_factorial(self, a):
        table = bars(BarPartition((a,)))
        assert table.lengths() == list(range(1, a + 1))
        assert table.h_mixed == 1
        assert table.h_total == math.factorial(a)

    @given(bar_partitions)
    def test_products_consistent(self, lam):
        table = bars(lam)
        assert table.h_total == table.h_unmixed * table.h_mixed
        prod = 1
        for length in table.lengths():
            prod *= length
        assert prod == table.h_total


DIVISORS = (2, 3, 4, 5, 6, 7, 9, 11, 25)


def assert_products_and_counts_match_bars(lam):
    table = bars(lam)
    assert bar_products(lam) == (table.h_unmixed, table.h_mixed)
    for q in DIVISORS:
        expected = sum(1 for b in table.bars if b.length % q == 0)
        assert count_bar_lengths_divisible(lam, q) == expected


class TestBarProductsFromParts:
    """Schur's formula and the divisible count against the full bar table."""

    @pytest.mark.parametrize("n", range(31))
    def test_every_partition_up_to_thirty(self, n):
        for lam in enumerate_bar_partitions(n):
            assert_products_and_counts_match_bars(lam)

    @given(st.lists(st.integers(1, 80), max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_sample_up_to_eighty(self, candidates):
        parts = set()
        for a in candidates:
            if a not in parts and sum(parts) + a <= 80:
                parts.add(a)
        assert_products_and_counts_match_bars(make_bar_partition(parts))

    def test_empty(self):
        assert bar_products(EMPTY) == (1, 1)
        for q in DIVISORS:
            assert count_bar_lengths_divisible(EMPTY, q) == 0

    @pytest.mark.parametrize("a", [1, 2, 7, 25, 60])
    def test_single_part(self, a):
        assert bar_products(bp(a)) == (math.factorial(a), 1)
        for q in DIVISORS:
            assert count_bar_lengths_divisible(bp(a), q) == a // q

    def test_hand_values(self):
        # (5, 1): unmixed lengths 1, 2, 3, 5 and 1; mixed length 6
        assert bar_products(bp(5, 1)) == (30, 6)
        assert count_bar_lengths_divisible(bp(5, 1), 3) == 2
        assert count_bar_lengths_divisible(bp(5, 1), 2) == 2

    def test_rejects_bad_divisor(self):
        for q in (0, -3, 1.0, True, "3"):
            with pytest.raises(ValueError, match="q must be a positive integer, got %r" % (q,)):
                count_bar_lengths_divisible(bp(3, 1), q)


class TestRemoveBar:
    def test_whole_part(self):
        assert remove_bar(bp(3), Bar(TYPE2, 3, y=3)) == EMPTY

    def test_mixed(self):
        assert remove_bar(bp(2, 1), Bar(TYPE3, 3, i=1, j=2)) == EMPTY

    def test_rejects_part_as_x(self):
        # length 3 is not a bar of part 4 in (4,1): the shrunk value 1 is a part
        with pytest.raises(ValueError):
            remove_bar(bp(4, 1), Bar(TYPE1, 3, x=1, y=4))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            remove_bar(bp(3), Bar(TYPE2, 2, y=3))

    @pytest.mark.parametrize("bar, message", [
        (Bar(TYPE2, 2, y=2), "no part 2"),
        (Bar(TYPE1, 1, x=1, y=2), "no part 2"),
        (Bar(TYPE1, 3, x=0, y=3), "need 0 < x < y"),
        (Bar(TYPE1, 5, x=2, y=3), "bad length 5 for bar"),
        (Bar(TYPE3, 4, i=2, j=1), "bad positions"),
        (Bar(TYPE3, 5, i=1, j=2), "bad length 5 for mixed bar"),
        (Bar(9, 1), "unknown bar kind"),
    ], ids=["deleted-non-part", "shrunk-non-part", "x-zero", "type1-length", "positions",
            "mixed-length", "unknown-kind"])
    def test_rejects_foreign_bar(self, bar, message):
        with pytest.raises(ValueError, match=message):
            remove_bar(bp(3, 1), bar)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_bar_removes_cleanly(self, n):
        for lam in enumerate_bar_partitions(n):
            for bar in bars(lam).bars:
                smaller = remove_bar(lam, bar)
                assert smaller.n == lam.n - bar.length


class TestCoreAndWeight:
    def test_examples(self):
        assert bar_core_and_weight(bp(3), 3) == (EMPTY, 1)
        assert bar_core_and_weight(bp(4, 1), 3) == (bp(4, 1), 0)
        assert bar_core_and_weight(bp(8, 1), 3) == (EMPTY, 3)

    def test_rejects_bad_p(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                bar_core_and_weight(bp(3), p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_invariants(self, p):
        for n in range(15):
            for lam in enumerate_bar_partitions(n):
                core, w = bar_core_and_weight(lam, p)
                assert lam.n == core.n + p * w
                assert count_bar_lengths_divisible(core, p) == 0
                assert bar_core_and_weight(core, p) == (core, 0)

    def test_order_independence(self):
        rng = random.Random(20240817)
        for n in range(13):
            for lam in enumerate_bar_partitions(n):
                expected = bar_core_and_weight(lam, 3)
                for _ in range(25):
                    assert bar_core_and_weight(lam, 3, rng=rng) == expected

    @given(bar_partitions, st.sampled_from([3, 5, 7]), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_order_independence_random(self, lam, p, seed):
        deterministic = bar_core_and_weight(lam, p)
        assert bar_core_and_weight(lam, p, rng=random.Random(seed)) == deterministic


class TestAbacusCore:
    """The residue-class abacus core against bar removal, the structural oracle."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_partition_up_to_thirty(self, p):
        for n in range(31):
            for lam in enumerate_bar_partitions(n):
                assert abacus_core(lam, p) == bar_core_and_weight(lam, p)

    @given(st.lists(st.integers(1, 80), max_size=16), st.sampled_from([3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_sample_up_to_eighty(self, candidates, p):
        parts = set()
        for a in candidates:
            if a not in parts and sum(parts) + a <= 80:
                parts.add(a)
        lam = make_bar_partition(parts)
        assert abacus_core(lam, p) == bar_core_and_weight(lam, p)

    def test_examples(self):
        assert abacus_core(EMPTY, 3) == (EMPTY, 0)
        assert abacus_core(bp(8, 1), 3) == (EMPTY, 3)
        assert abacus_core(bp(30, 17, 2), 5) == bar_core_and_weight(bp(30, 17, 2), 5)
        # one bar table per removal would hold about a million bars
        assert abacus_core(bp(1000000, 1), 3) == (bp(4, 1), 333332)

    def test_rejects_bad_p(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                abacus_core(bp(3), p)


class TestRunnerCharges:
    """The one reader of the p-abacus against bar removal, the structural oracle."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_partition_up_to_twenty(self, p):
        for n in range(21):
            for lam in enumerate_bar_partitions(n):
                charges, w = runner_charges(lam, p)
                core, removals = bar_core_and_weight(lam, p)
                assert runner_charges(core, p) == (charges, 0)
                assert w == removals

    def test_examples(self):
        assert runner_charges(EMPTY, 5) == ((0, 0), 0)
        assert runner_charges(bp(4, 1), 3) == ((2,), 0)
        assert runner_charges(bp(8, 1), 3) == ((0,), 3)
        assert runner_charges(bp(3, 1), 5) == ((1, -1), 0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            runner_charges(bp(3, 1), 9)


class TestWeightTower:
    def test_empty(self):
        assert weight_tower(EMPTY, 3) == ((), 0)

    def test_nine(self):
        ws, v = weight_tower(bp(9), 3)
        assert ws == (3, 1)
        assert v == 4 == valuation(math.factorial(9), 3)

    def test_five_one(self):
        assert weight_tower(bp(5, 1), 3) == ((2,), 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_valuation_of_product(self, p):
        for n in range(13):
            for lam in enumerate_bar_partitions(n):
                ws, v = weight_tower(lam, p)
                assert v == sum(ws)
                h = bars(lam).h_total
                assert v == (valuation(h, p) if h > 1 else 0)

    def test_first_weight_matches_core_removals(self):
        for n in range(13):
            for lam in enumerate_bar_partitions(n):
                ws, _ = weight_tower(lam, 3)
                w1 = ws[0] if ws else 0
                assert bar_core_and_weight(lam, 3)[1] == w1


class TestFactorialValuation:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_valuation_of_factorial(self, p):
        assert factorial_valuation(0, p) == 0
        for k in range(1, 80):
            assert factorial_valuation(k, p) == valuation(math.factorial(k), p)

    @pytest.mark.parametrize("p", [1, -2, 0, 2, 9, 3.0, True])
    def test_rejects_p_not_an_odd_prime_before_the_loop(self, p):
        # p = 1 looped forever, -2 gave -3 and 0 raised ZeroDivisionError
        class Unread(int):
            def __floordiv__(self, other):
                raise AssertionError("k was divided")

        with pytest.raises(ValueError, match="p must be an odd prime, got %r" % (p,)):
            factorial_valuation(Unread(10), p)

    @pytest.mark.parametrize("k", [5.5, "5", True])
    def test_rejects_non_int_k(self, k):
        # 5.5 returned 1.0
        with pytest.raises(ValueError, match="k must be an integer, got %r" % (k,)):
            factorial_valuation(k, 3)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k! needs k >= 0, got -1"):
            factorial_valuation(-1, 3)


class TestLabelsWithCoreAndWeight:
    def test_empty_core_weight_one(self):
        assert labels_with_core_and_weight(EMPTY, 3, 1) == [bp(3), bp(2, 1)]

    def test_empty_core_weight_three(self):
        got = labels_with_core_and_weight(EMPTY, 3, 3)
        assert got == enumerate_bar_partitions(9)

    def test_weight_zero(self):
        assert labels_with_core_and_weight(bp(4, 1), 3, 0) == [bp(4, 1)]

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            labels_with_core_and_weight(bp(3), 3, 1)
        with pytest.raises(ValueError, match="w must be nonnegative, got -1"):
            labels_with_core_and_weight(EMPTY, 3, -1)

    @pytest.mark.parametrize("w", [True, 1.0, "1"])
    def test_rejects_non_int_weight(self, w):
        # True was taken as w = 1
        with pytest.raises(ValueError, match="w must be an integer, got %r" % (w,)):
            labels_with_core_and_weight(EMPTY, 3, w)

    def test_generated_charge_runners(self):
        # 7-bar-core (9, 2) has charges +1 on pair (2, 5) and -1 on pair (1, 6)
        got = labels_with_core_and_weight(bp(9, 2), 7, 2)
        n = 11 + 14
        assert got == [lam for lam in enumerate_bar_partitions(n)
                       if bar_core_and_weight(lam, 7) == (bp(9, 2), 2)]

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_filter_up_to_forty(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        core = data.draw(st.sampled_from(bar_cores_up_to(40 - p, p)))
        w = data.draw(st.integers(1, (40 - core.n) // p))
        n = core.n + p * w
        brute = [lam for lam in enumerate_bar_partitions(n)
                 if bar_core_and_weight(lam, p) == (core, w)]
        assert labels_with_core_and_weight(core, p, w) == brute


class TestBarCoresUpTo:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
    def test_matches_filter(self, p):
        brute = [lam for n in range(26) for lam in enumerate_bar_partitions(n)
                 if count_bar_lengths_divisible(lam, p) == 0]
        assert bar_cores_up_to(25, p) == brute

    def test_small(self):
        assert bar_cores_up_to(7, 3) == [EMPTY, bp(1), bp(2), bp(4, 1), bp(5, 2)]
        assert bar_cores_up_to(-1, 3) == []

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            bar_cores_up_to(5, 9)

    @pytest.mark.parametrize("max_size", [5.5, True, "5"])
    def test_rejects_non_int_size(self, max_size):
        # 5.5 listed the cores of size <= 5
        with pytest.raises(ValueError, match="max_size must be an integer, got %r" % (max_size,)):
            bar_cores_up_to(max_size, 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_counts_match_the_core_quotient_identity(self, p):
        # the core-quotient bijection (Morris; Olsson 1993): a strict partition of s
        # is a p-bar-core of size s - pw and a quotient of weight w, one strict
        # partition and (p-1)/2 partitions, so q(s) = sum_w c_p(s - pw) B_p(w), where
        # B_p(w) is the coefficient of x^w in prod_k (1 + x^k) / (1 - x^k)^((p-1)/2)
        top = 100

        def times(series, k, sign):
            # series * (1 + x^k) for sign 1, series / (1 - x^k) for sign -1
            out = list(series)
            for s in (range(top, k - 1, -1) if sign == 1 else range(k, top + 1)):
                out[s] += out[s - k]
            return out

        strict = quotients = [1] + [0] * top
        for k in range(1, top + 1):
            strict = times(strict, k, 1)
            quotients = times(quotients, k, 1)
            for _ in range((p - 1) // 2):
                quotients = times(quotients, k, -1)
        cores = [0] * (top + 1)
        for s in range(top + 1):
            cores[s] = strict[s] - sum(cores[s - p * w] * quotients[w]
                                       for w in range(1, s // p + 1))
        counts = [0] * (top + 1)
        for core in bar_cores_up_to(top, p):
            counts[core.n] += 1
        assert counts == cores

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_core_run_is_the_empty_quotient(self, p):
        for j in range(1, p):
            for charge in range(-15, 16):
                assert list(_core_run(charge, j, p)) == _runner_pair_parts((), charge, j, p)


def test_valuation():
    assert valuation(240, 3) == 1
    assert valuation(16, 3) == 0
    assert valuation(1, 5) == 0
    assert valuation(250, 5) == 3
    with pytest.raises(ValueError):
        valuation(0, 3)


@pytest.mark.parametrize("x, base, name", [
    (3**40 * 2, 3.0, "valuation base"),  # read 1, not 40
    (3**700, 3.0, "valuation base"),  # raised OverflowError
    (10, 2.5, "valuation base"),  # read 1
    (True, 3, "x"),  # read 0
], ids=["float-base", "float-base-past-float-range", "fractional-base", "bool-x"])
def test_valuation_rejects_non_integers(x, base, name):
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        valuation(x, base)


@pytest.mark.parametrize("base", [1, -1, 0])
def test_valuation_rejects_base_below_two(base):
    with pytest.raises(ValueError, match="base must be >= 2"):
        valuation(5, base)

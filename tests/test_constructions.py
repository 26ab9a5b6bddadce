import json
import re
from fractions import Fraction

import pytest

from spinblocks import constructions
from spinblocks.barpart import (
    EMPTY,
    abacus_core,
    bar_cores_up_to,
    count_bar_lengths_divisible,
    labels_with_core_and_weight,
    make_bar_partition,
    valuation,
)
from spinblocks.blocks import spin_block
from spinblocks.cli import main
from spinblocks.constructions import (
    EMPTY_CORE,
    TWO_CLASSES,
    UNIQUE_CLASS,
    RatioCheck,
    _certify,
    _forms,
    _step,
    add_part_ratio,
    compare_chain,
    decompose_core,
    grow_class,
    grow_class_ratio,
    verify_ratio_chain,
)
from spinblocks.oracle import TYPE1, TYPE2, bar_core_and_weight, bars, enumerate_bar_partitions
from spinblocks.witness import build_witness


def bp(*parts):
    return make_bar_partition(parts)


def cores_up_to(size, p):
    out = []
    for n in range(size + 1):
        out.extend(lam for lam in enumerate_bar_partitions(n)
                   if count_bar_lengths_divisible(lam, p) == 0)
    return out


def class_parts(dec, j):
    """The parts of dec.gamma congruent to j mod p, increasing."""
    return tuple(a for a in reversed(dec.gamma.parts) if a % dec.p == j)


class TestDecompose:
    def test_single_part(self):
        dec = decompose_core(bp(1), 3)
        assert [class_parts(dec, j) for j in range(3)] == [(), (1,), ()]
        assert dec.charges == (1,)
        assert dec.e == (-3, 1, -1)
        assert dec.nonempty == (1,)
        assert dec.top_order == (1,)

    def test_two_classes(self):
        dec = decompose_core(bp(3, 1), 5)
        assert class_parts(dec, 1) == (1,)
        assert class_parts(dec, 3) == (3,)
        assert dec.charges == (1, -1)
        assert dec.nonempty == (1, 3)
        assert dec.e[1] == 1 and dec.e[3] == 3
        assert dec.top_order == (3, 1)

    def test_stacked_class(self):
        dec = decompose_core(bp(4, 1), 3)
        assert class_parts(dec, 1) == (1, 4)
        assert dec.charges == (2,)
        assert dec.e[1] == 4
        assert dec.top_order == (1,)

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            decompose_core(bp(3), 3)  # part divisible by p
        with pytest.raises(ValueError):
            decompose_core(bp(2, 1), 3)  # opposite classes both occupied
        with pytest.raises(ValueError):
            decompose_core(bp(4), 3)  # class 1 has a gap (no part 1)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_classes_of_every_core(self, p):
        # what lets decompose_core read each class's top off the parts: a core's
        # class j is the gapless run j, j+p, ..., e_j, and no two opposite
        # classes are both occupied
        for gamma in bar_cores_up_to(30, p):
            dec = decompose_core(gamma, p)
            assert class_parts(dec, 0) == ()
            for j in range(1, p):
                assert not (class_parts(dec, j) and class_parts(dec, p - j))
                assert class_parts(dec, j) == tuple(range(j, dec.e[j] + 1, p))
                assert (j in dec.nonempty) == bool(class_parts(dec, j))
            assert dec.charges == tuple(len(class_parts(dec, j)) - len(class_parts(dec, p - j))
                                        for j in range(1, (p + 1) // 2))

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_rejects_every_non_core(self, p):
        cores = set(bar_cores_up_to(20, p))
        for n in range(21):
            for lam in enumerate_bar_partitions(n):
                if lam not in cores:
                    with pytest.raises(ValueError, match="not a %d-bar-core" % p):
                        decompose_core(lam, p)


CORE_ENTRIES = [
    (decompose_core, ()),
    (labels_with_core_and_weight, (1,)),
    (grow_class, (None, 1)),
    (grow_class_ratio, (None, 1)),
    (verify_ratio_chain, (1,)),
    (compare_chain, (1,)),
    (build_witness, (3,)),
    (spin_block, (1, "A")),
]


@pytest.mark.parametrize("entry, args", CORE_ENTRIES,
                         ids=[entry.__name__ for entry, _args in CORE_ENTRIES])
def test_every_entry_taking_a_core_refuses_a_non_core(entry, args):
    # (4) has the bar length 3 at p = 3: each entry refuses it at barpart.core_charges
    with pytest.raises(ValueError, match=r"^4 is not a 3-bar-core$"):
        entry(bp(4), 3, *args)


def test_witness_command_refuses_a_non_core(capsys):
    assert main(["witness", "--core", "4", "--w", "3", "--p", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: 4 is not a 3-bar-core\n"


class TestConstructions:
    def test_add_part(self):
        assert grow_class(bp(1), 3, None, 1) == bp(3, 1)
        assert grow_class(bp(1), 3, None, 3) == bp(9, 1)
        assert grow_class(EMPTY, 3, None, 2) == bp(6)
        with pytest.raises(ValueError, match="w must be >= 1, got 0"):
            grow_class(bp(1), 3, None, 0)

    @pytest.mark.parametrize("build", [grow_class, grow_class_ratio])
    @pytest.mark.parametrize("i", [1.0, True])
    def test_grow_class_rejects_non_int_class(self, build, i):
        # 1.0 raised TypeError from the class tuple's index
        with pytest.raises(ValueError, match="i must be an integer, got %r" % (i,)):
            build(bp(1), 3, i, 1)

    def test_grow_class(self):
        assert grow_class(bp(1), 3, 1, 1) == bp(4)
        assert grow_class(bp(1), 3, None, 3) == bp(9, 1)  # the add-part chain
        assert grow_class(bp(4, 1), 3, 1, 2) == bp(10, 1)
        assert grow_class(bp(3, 1), 5, 3, 1) == bp(8, 1)

    def test_grow_class_rejects_empty_class(self):
        with pytest.raises(ValueError):
            grow_class(bp(1), 3, 2, 1)

    @pytest.mark.parametrize("gamma, p, i, w, refused", [
        (bp(3), 3, 1, 0, True),
        (bp(1), 3, 2, 0, True),
        (bp(1), 3, 1, 0, True),
        (bp(1), 3, 1, True, True),
        (bp(1), 3, 1, 2.0, True),
        (bp(1), 4, 1, 0, True),
        (EMPTY, 3, None, 2, False),
    ], ids=["non-core", "empty-class", "w-zero", "w-bool", "w-float", "non-prime",
            "empty-core"])
    def test_label_and_ratio_refuse_alike(self, gamma, p, i, w, refused):
        # one gate checks the prime and the core, then the class, then w
        for residue in (i, None):
            args = (gamma, p, residue, w)
            if not refused:
                assert abacus_core(grow_class(*args), p) == (gamma, w)
                assert isinstance(grow_class_ratio(*args), Fraction)
                continue
            with pytest.raises(ValueError) as error:
                grow_class(*args)
            with pytest.raises(ValueError, match="^%s$" % re.escape(str(error.value))):
                grow_class_ratio(*args)
        # add_part_ratio is the add-part chain's ratio (the last residue) under a second name
        if not refused:
            assert add_part_ratio(gamma, p, w) == grow_class_ratio(gamma, p, None, w)
            return
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(error.value))):
            add_part_ratio(gamma, p, w)

    def test_principal_pair(self):
        for p, w, pair in ((3, 3, (bp(9), bp(8, 1))), (5, 2, (bp(10), bp(9, 1)))):
            res = compare_chain(EMPTY, p, w)[-1]
            assert (res.w, res.case, res.larger, res.smaller) == (w, EMPTY_CORE) + pair
        # the empty core's chain starts at w = 2
        assert [res.w for res in compare_chain(EMPTY, 3, 3)] == [2, 3]

    @pytest.mark.parametrize("p", [3, 5])
    def test_core_weight_and_length(self, p):
        # the abacus certificate of every construction against bar removal
        for gamma in cores_up_to(8, p):
            for w in range(1, p + 2):
                lam = grow_class(gamma, p, None, w)
                assert bar_core_and_weight(lam, p) == (gamma, w)
                assert lam.m == gamma.m + 1
                dec = decompose_core(gamma, p)
                for i in dec.nonempty:
                    mu = grow_class(gamma, p, i, w)
                    assert bar_core_and_weight(mu, p) == (gamma, w)
                    assert mu.m == gamma.m
        results = compare_chain(EMPTY, p, p + 1)
        assert [res.w for res in results] == list(range(2, p + 2))
        for res in results:
            first, second = res.larger, res.smaller
            assert (bar_core_and_weight(first, p) == bar_core_and_weight(second, p)
                    == (EMPTY, res.w))
            assert (first.m, second.m) == (1, 2)

    @pytest.mark.parametrize("p", [3, 5])
    def test_divisible_bar_types(self, p):
        # every p-divisible bar of a grown label is a part-shrinking bar;
        # the added-part label has exactly one part-deletion bar among them
        for gamma in cores_up_to(8, p):
            dec = decompose_core(gamma, p)
            for w in (1, 2, 3):
                for i in dec.nonempty:
                    mu = grow_class(gamma, p, i, w)
                    kinds = [b.kind for b in bars(mu).bars if b.length % p == 0]
                    assert kinds and set(kinds) == {TYPE1}
                lam = grow_class(gamma, p, None, w)
                kinds = [b.kind for b in bars(lam).bars if b.length % p == 0]
                assert kinds.count(TYPE2) == 1
                assert set(kinds) <= {TYPE1, TYPE2}


class TestLabelBuild:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_labels_equal_the_sorted_build(self, p):
        # with_part's bisection against sorting every part, for every core of size <= 30
        for gamma in bar_cores_up_to(30, p):
            dec = decompose_core(gamma, p)
            for w in range(1, 11):
                for i in dec.nonempty:
                    ei = dec.e[i]
                    assert constructions._chain_label(dec, i, w) == bp(
                        *(a + p * w if a == ei else a for a in gamma.parts))
                assert constructions._chain_label(dec, None, w) == bp(*gamma.parts, p * w)


class TestCertify:
    @pytest.mark.parametrize("lam, gamma, p, w, expected_m", [
        # (5, 4) has 5-bar-core (4) and weight 1; (3, 1) is a 5-bar-core of the same size
        (bp(5, 4), bp(3, 1), 5, 1, 2),
        (bp(10, 1), bp(4, 1), 3, 3, 2),   # (10, 1) has 3-bar-core (4, 1), weight 2, not 3
        (bp(10, 1), bp(4, 1), 3, 2, 3),   # ... and two parts, not three
    ], ids=["wrong-core", "wrong-weight", "wrong-part-count"])
    def test_wrong_label_raises(self, lam, gamma, p, w, expected_m):
        dec = decompose_core(gamma, p)
        with pytest.raises(RuntimeError, match="construction for %s, p=%d, w=%d produced %s"
                           % (gamma, p, w, lam)):
            _certify(lam, dec, w, expected_m)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_same_verdict_as_abacus_core(self, p):
        # exhaustive: the charge check accepts exactly the labels whose
        # abacus core and weight are (gamma, w), among all strict partitions of n
        decs = [decompose_core(gamma, p) for gamma in bar_cores_up_to(30, p)]
        for n in range(31):
            for lam in enumerate_bar_partitions(n):
                core, weight = abacus_core(lam, p)
                for dec in decs:
                    w, rest = divmod(n - dec.gamma.n, p)
                    if rest or w < 0:
                        continue
                    if (core, weight) == (dec.gamma, w):
                        assert _certify(lam, dec, w, lam.m) is lam
                        with pytest.raises(RuntimeError):
                            _certify(lam, dec, w, lam.m + 1)
                    else:
                        with pytest.raises(RuntimeError):
                            _certify(lam, dec, w, lam.m)


class TestRatioValues:
    def test_grow_class_examples(self):
        assert grow_class_ratio(bp(1), 3, 1, 1) == 24
        assert grow_class_ratio(bp(1), 3, 1, 2) == 210
        assert grow_class_ratio(bp(4, 1), 3, 1, 1) == 168

    def test_grow_class_stacked_class_direct(self):
        # H((7,1)) / H((4,1)) with p = 3, where class 1 holds both parts
        assert Fraction(bars(bp(7, 1)).h_total, bars(bp(4, 1)).h_total) == 168

    def test_add_part_examples(self):
        def unmixed_mixed(gamma, w):
            return tuple(Fraction(*pair) for pair in _step(decompose_core(gamma, 3), None, w)[:2])

        assert unmixed_mixed(bp(1), 1) == (3, 4)
        assert unmixed_mixed(bp(1), 2) == (48, Fraction(7, 4))
        assert unmixed_mixed(bp(4, 1), 1)[1] == 28
        assert add_part_ratio(bp(1), 3, 1) == 12

    def test_parts_multiply_to_total(self):
        for gamma, p in ((bp(1), 3), (bp(4, 1), 3), (bp(3, 1), 5)):
            dec = decompose_core(gamma, p)
            for w in (1, 2, 3):
                for i in dec.nonempty + (None,):
                    (ua, ub), (ma, mb), (ta, tb) = _step(dec, i, w)
                    assert ua * ma * tb == ta * ub * mb

    def test_empty_core_add_part_ratio_is_the_direct_quotient(self):
        # was refused ("the core must be nonempty"), although grow_class(EMPTY, p, None, w)
        # is (pw): the chain (p), (2p), ... has the step H(pw)/H(p(w-1))
        for p in (3, 5, 7, 11, 13):
            dec = decompose_core(EMPTY, p)
            for w in range(1, 9):
                direct = Fraction(bars(bp(p * w)).h_total,
                                  bars(bp(p * (w - 1)) if w > 1 else EMPTY).h_total)
                assert Fraction(*_step(dec, None, w)[2]) == add_part_ratio(EMPTY, p, w) == direct

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_private_pairs_reduce_to_public_fractions(self, p):
        for gamma in bar_cores_up_to(15, p):
            if not gamma.m:
                continue
            dec = decompose_core(gamma, p)
            for w in range(1, 7):
                for i in dec.nonempty:
                    assert Fraction(*_step(dec, i, w)[2]) == grow_class_ratio(gamma, p, i, w)
                assert Fraction(*_step(dec, None, w)[2]) == add_part_ratio(gamma, p, w)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_forms_give_total_valuation_one_plus_vp_w(self, p):
        # every step total is pw times factors prime to p, so v_p(total) = 1 + v_p(w)
        for gamma in bar_cores_up_to(25, p):
            dec = decompose_core(gamma, p)
            for i in dec.nonempty + ((None,) if gamma.m else ()):
                forms = _forms(dec, i)
                total, total_den = forms[2]
                assert total_den == [] and total.count(0) == 1
                for num, den in forms:
                    assert all(c % p for c in num if c) and all(d % p for d in den)
                for w in (1, 2, p, 2 * p, p * p):
                    num, den = _step(dec, i, w, forms)[2]
                    assert den == 1 and valuation(num, p) == 1 + valuation(w, p)

    @pytest.mark.parametrize("ratio, args", [(grow_class_ratio, (1,)), (add_part_ratio, ())])
    @pytest.mark.parametrize("w", [2.0, True])
    def test_ratio_rejects_non_int_w(self, ratio, args, w):
        # True was read as w = 1, and 2.0 raised TypeError from Fraction
        with pytest.raises(ValueError, match="w must be an integer, got %r" % (w,)):
            ratio(bp(1), 3, *args, w)


class TestRatioIdentities:
    def test_report_structure(self):
        checks = verify_ratio_chain(bp(1), 3, 1)
        assert [c.w for c in checks] == [1] * 6
        assert all(c.ok for c in checks)
        assert {c.identity for c in checks} == {
            "grow-class-unmixed", "grow-class-mixed", "grow-class-total",
            "add-part-unmixed", "add-part-mixed", "add-part-total",
        }

    def test_empty_core_has_no_checks(self):
        # no occupied class, and no add-part closed form for the empty core
        assert verify_ratio_chain(EMPTY, 3, 2) == []

    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep(self, p):
        for gamma in cores_up_to(9, p):
            checks = verify_ratio_chain(gamma, p, 3)
            # three checks per chain at each w, in order of w
            chains = len(decompose_core(gamma, p).nonempty) + (gamma.m > 0)
            assert [c.w for c in checks] == [w for w in (1, 2, 3) for _ in range(3 * chains)]
            assert all(c.ok for c in checks)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_cross_multiplication_is_fraction_equality(self, p):
        for gamma in bar_cores_up_to(15, p):
            if not gamma.m:
                continue
            for check in verify_ratio_chain(gamma, p, 6):
                assert check.closed_pair[1] > 0 and check.direct_pair[1] > 0
                assert check.ok == (check.closed_form == check.direct)
                assert check.ok
                a, b = check.closed_pair
                assert not check._replace(closed_pair=(a + 1, b)).ok

    def test_unequal_pairs_fail(self):
        check = RatioCheck("grow-class-total", 1, 1, (50, 2), (24, 1))
        assert not check.ok
        assert (check.closed_form, check.direct) == (25, 24)
        assert RatioCheck("grow-class-total", 1, 1, (48, 2), (72, 3)).ok

    def test_telescoping(self):
        # the product of step ratios recovers the full quotient H(lam)/H(gamma)
        for gamma, p, i in ((bp(1), 3, 1), (bp(4, 1), 3, 1), (bp(3, 1), 5, 3)):
            h_gamma = bars(gamma).h_total
            for w in (1, 2, 3, 4):
                prod = Fraction(1)
                for step in range(1, w + 1):
                    prod *= grow_class_ratio(gamma, p, i, step)
                assert prod == Fraction(bars(grow_class(gamma, p, i, w)).h_total, h_gamma)
                prod = Fraction(1)
                for step in range(1, w + 1):
                    prod *= add_part_ratio(gamma, p, step)
                assert prod == Fraction(bars(grow_class(gamma, p, None, w)).h_total, h_gamma)


def test_ratio_chain_certifies_each_label_once(monkeypatch, capsys):
    certified = []

    def counting(lam, dec, w, expected_m):
        certified.append((lam, dec.p))
        return _certify(lam, dec, w, expected_m)

    monkeypatch.setattr(constructions, "_certify", counting)
    assert main(["verify", "ratios", "--p", "5", "--max-core", "12", "--max-w", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    # one grow_class chain per occupied class, one add_part chain per nonempty core
    chains = sum(len(decompose_core(g, 5).nonempty) + (g.m > 0) for g in cores_up_to(12, 5))
    assert len(certified) == len(set(certified)) == 6 * chains


def test_thm35_decomposes_each_core_once(monkeypatch, capsys):
    decomposed = []

    def counting(gamma, p):
        decomposed.append(gamma)
        return decompose_core(gamma, p)

    monkeypatch.setattr(constructions, "decompose_core", counting)
    assert main(["verify", "thm35", "--p", "5", "--max-core", "12", "--max-w", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert decomposed == [g for g in bar_cores_up_to(12, 5) if g.m]


class TestComparisons:
    def test_two_classes(self):
        (res,) = compare_chain(bp(3, 1), 5, 1)
        assert res.case == TWO_CLASSES
        assert res.larger == bp(8, 1)
        assert res.smaller == bp(6, 3)
        assert (res.h_larger, res.h_smaller) == (51840, 12960)
        assert res.verified

    def test_unique_class(self):
        res = compare_chain(bp(1), 3, 3)[-1]
        assert (res.w, res.case) == (3, UNIQUE_CLASS)
        assert res.larger == bp(10)
        assert res.smaller == bp(9, 1)
        assert res.verified

    def test_rejects_empty_core(self):
        # Prop. 3.6 needs w >= 2: at p = 3, w = 1 the pair (3), (2, 1) ties
        assert bars(bp(3)).h_total == bars(bp(2, 1)).h_total == 6
        for p in (3, 5):
            assert compare_chain(EMPTY, p, 1) == []

    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep_strict(self, p):
        for gamma in cores_up_to(9, p):
            if gamma.m == 0:
                continue
            results = compare_chain(gamma, p, 4)
            assert [res.w for res in results] == [1, 2, 3, 4]
            assert all(res.verified for res in results)
        # no weight to compare below w = 1
        assert compare_chain(bp(1), 3, 0) == []

    @pytest.mark.parametrize("walk", [compare_chain, verify_ratio_chain])
    @pytest.mark.parametrize("max_w", [2.0, True])
    def test_walk_rejects_non_int_max_w(self, walk, max_w):
        # 2.0 raised TypeError from range
        with pytest.raises(ValueError, match="max_w must be an integer, got %r" % (max_w,)):
            walk(bp(1), 3, max_w)

    def test_monotone_in_w(self):
        # each step ratio exceeds 1, so the grown label's product grows with w
        for gamma, p, i in ((bp(1), 3, 1), (bp(3, 1), 5, 1)):
            for w in (2, 3, 4):
                assert grow_class_ratio(gamma, p, i, w) > 1
                assert add_part_ratio(gamma, p, w) > 1


class TestPrincipalGap:
    def test_values(self):
        for p, w, values in ((3, 2, (720, 180)), (3, 3, (362880, 51840)),
                             (5, 2, (3628800, 453600))):
            res = compare_chain(EMPTY, p, w)[-1]
            assert (res.w, res.case) == (w, EMPTY_CORE)
            assert (res.h_larger, res.h_smaller) == values
            assert res.verified
        # the empty core's pair is judged by Prop. 3.6's gap, not by a strict
        # inequality, and the claim is read from the core, whatever the case says
        assert not res._replace(h_larger=2 * res.h_smaller).verified
        assert not res._replace(case=TWO_CLASSES, h_larger=2 * res.h_smaller).verified
        strict = compare_chain(bp(1), 3, 2)[-1]
        assert strict._replace(case=EMPTY_CORE, h_larger=strict.h_smaller + 1).verified

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sweep(self, p):
        results = compare_chain(EMPTY, p, 10)
        assert [res.w for res in results] == list(range(2, 11))
        assert all(res.verified for res in results)


@pytest.mark.parametrize("record", [
    bp(3, 1),
    decompose_core(bp(4, 1), 3),
    verify_ratio_chain(bp(1), 3, 1)[0],
    compare_chain(bp(1), 3, 1)[0],
], ids=lambda record: type(record).__name__)
def test_record_hashes_as_an_equal_copy(record):
    # the records whose fields all hash; SpinBlock, WitnessCertificate
    # and ScanSummary hold a dict and do not
    copy = record._replace()
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinblocks import constructions, spinchar, witness
from spinblocks.barpart import (
    EMPTY,
    bar_cores_up_to,
    bar_product_quotient,
    bar_products,
    count_bar_lengths_divisible,
    factorial_valuation,
    in_block,
    labels_with_core_and_weight,
    make_bar_partition,
    runner_charges,
    valuation,
    weight_tower,
)
from spinblocks.blocks import (
    block_targets,
    equal_degree_test,
    spin_blocks,
)
from spinblocks.constructions import EMPTY_CORE, TWO_CLASSES
from spinblocks.oracle import bars, enumerate_bar_partitions
from spinblocks.spinchar import spin_degree
from spinblocks.witness import (
    CASE_UNIQUE_ODD_P3_SMALL,
    NON_ABELIAN,
    ScanSummary,
    WitnessCertificate,
    _degrees_differ,
    _residue_and_valuation,
    build_witness,
    defect_class,
    scan,
    verify_witness,
    witness_eligible,
)


def bp(*parts):
    return make_bar_partition(parts)


class TestAltDegree:
    def test_examples(self):
        assert spin_degree(bp(9), "A") == 8  # sigma +1: half of 16
        assert spin_degree(bp(8, 1), "A") == 56  # sigma -1: unchanged
        assert spin_degree(bp(3, 1), "A") == 2


class TestBuildWitness:
    def test_empty_core(self):
        cert = build_witness(EMPTY, 3, 3)
        assert cert.case == EMPTY_CORE
        assert (cert.label_a, cert.label_b) == (bp(9), bp(8, 1))
        assert (spin_degree(cert.label_a, "A"), spin_degree(cert.label_b, "A")) == (8, 56)
        assert cert.checks["congruence_ok"] is None
        assert cert.verified

    def test_unique_class(self):
        cert = build_witness(bp(1), 3, 3)
        assert cert.case == CASE_UNIQUE_ODD_P3_SMALL
        assert (cert.label_a, cert.label_b) == (bp(10), bp(9, 1))
        assert (spin_degree(cert.label_a, "A"), spin_degree(cert.label_b, "A")) == (16, 64)
        assert cert.verified

    def test_two_classes(self):
        cert = build_witness(bp(3, 1), 5, 5)
        assert cert.case == TWO_CLASSES
        assert {cert.label_a, cert.label_b} == {bp(28, 1), bp(26, 3)}
        assert cert.verified

    def test_two_class_sigma_agreement(self):
        # two-class witnesses keep the same part count, hence the same sigma
        cert = build_witness(bp(3, 1), 5, 5)
        assert (cert.label_a.n - cert.label_a.m) % 2 == (cert.label_b.n - cert.label_b.m) % 2

    def test_empty_core_parity(self):
        # (pw) and (pw-1, 1) always differ in degree; which one is larger
        # depends only on the parity bookkeeping and the factor-2 gap
        for p, w in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
            cert = build_witness(EMPTY, p, w)
            assert spin_degree(cert.label_a, "A") != spin_degree(cert.label_b, "A")
            h_a, h_b = bars(cert.label_a).h_total, bars(cert.label_b).h_total
            assert h_a > 2 * h_b

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_pair_is_the_constructions_pair(self, p):
        # the certificate carries the comparison's pair, the empty core's included
        for core in bar_cores_up_to(40, p):
            for res in constructions.compare_chain(core, p, (40 - core.n) // p):
                if not witness_eligible(core, p, res.w):
                    continue
                cert = build_witness(core, p, res.w)
                assert (cert.label_a, cert.label_b) == (res.larger, res.smaller)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_witness(EMPTY, 3, 1)
        with pytest.raises(ValueError):
            build_witness(bp(1), 3, 2)  # nonempty core needs w >= p
        with pytest.raises(ValueError):
            build_witness(bp(3), 3, 3)  # not a core

    @pytest.mark.parametrize("core", [EMPTY, bp(1)])
    def test_rejects_negative_w(self, core):
        # was "has no witness pair ... only the empty core with w >= 2 is accepted below w = p"
        with pytest.raises(ValueError, match="^w must be >= 0, got -1$"):
            build_witness(core, 3, -1)

    @pytest.mark.parametrize("w", [3.0, True])
    def test_rejects_non_int_w(self, w):
        # 3.0 was refused only by the label it built: "parts must be positive integers, got 10.0"
        with pytest.raises(ValueError, match="w must be an integer, got %r" % (w,)):
            build_witness(bp(1), 3, w)


class TestVerifyWitness:
    def test_detects_tampering(self):
        cert = build_witness(EMPTY, 3, 3)
        bad = verify_witness(cert._replace(label_a=bp(10, 2)))
        assert bad.checks["same_block"] is False
        assert not bad.verified
        assert ("block membership failed: 10,2 and 8,1, core - weight 3, outside the block: 10,2"
                in bad.notes)

    def test_detects_positive_height(self):
        # (6, 2, 1) lies in the block of (9) and (8, 1) but has height 1
        cert = build_witness(EMPTY, 3, 3)
        bad = verify_witness(cert._replace(label_a=bp(6, 2, 1)))
        assert bad.checks["same_block"] is True
        assert bad.checks["degrees_distinct"] is True
        assert bad.checks["both_height_zero"] is False
        assert not bad.verified
        # v_3(9!) = 4: a degree 2^k 9!/H of valuation 1 has v_3(H) = 3, below v_3((pw)!) = 4
        assert "height-zero check failed: v_p(H) 3 and 4, v_p((pw)!) 4" in bad.notes

    def test_detects_equal_degrees(self):
        # (4) and (3, 1) share the block (core 1, w 1) at p = 3, both of
        # height zero, with one degree 2 in the alternating double cover
        cert = WitnessCertificate(p=3, core=bp(1), w=1, case=CASE_UNIQUE_ODD_P3_SMALL,
                                  label_a=bp(4), label_b=bp(3, 1), checks={})
        assert (spin_degree(cert.label_a, "A"), spin_degree(cert.label_b, "A")) == (2, 2)
        bad = verify_witness(cert)
        assert bad.checks["same_block"] is True
        assert bad.checks["both_height_zero"] is True
        assert bad.checks["degrees_distinct"] is False
        assert not bad.verified
        assert "degree check failed: 4 and 3,1" in bad.notes

    @pytest.mark.parametrize("w, message", [
        (-1, "^w must be >= 0, got -1$"),
        (3.0, "^w must be an integer, got 3.0$"),
    ], ids=["negative", "non-int"])
    def test_refuses_bad_weight_up_front(self, w, message):
        # -1 was refused by the failure note's defect-group minimum, for a block
        # of n = -2 that nobody asked for
        with pytest.raises(ValueError, match=message):
            verify_witness(build_witness(bp(1), 3, 3)._replace(w=w))

    def test_replace_round_trip_keeps_verified(self):
        cert = build_witness(bp(1), 3, 3)
        assert cert.verified
        cleared = cert._replace(checks={}, notes=())
        assert not cleared.verified
        again = verify_witness(cleared)
        assert again == cert and again.verified

    def test_detects_congruence_failure(self, monkeypatch):
        cert = build_witness(bp(1), 3, 3)
        real = witness._residue_and_valuation
        monkeypatch.setattr(witness, "_residue_and_valuation", lambda lam, p: (0, real(lam, p)[1]))
        bad = verify_witness(cert)
        assert bad.checks["congruence_ok"] is False
        assert not bad.verified
        assert "p'-part residues 0, 0 not congruent to +-1 mod 3" in bad.notes

    def test_claimed_empty_core_does_not_skip_congruence(self, monkeypatch):
        # was verified, with "congruence check not applicable for the empty core"
        cert = build_witness(bp(1), 7, 7)._replace(case=EMPTY_CORE)
        real = witness._residue_and_valuation
        monkeypatch.setattr(witness, "_residue_and_valuation", lambda lam, p: (0, real(lam, p)[1]))
        bad = verify_witness(cert)
        assert bad.checks["congruence_ok"] is False
        assert not bad.verified
        assert bad.notes == ("p'-part residues 0, 0 not congruent to +-1 mod 7",)

    def test_claimed_case_does_not_impose_congruence_on_empty_core(self):
        # was unverified: "p'-part residues 4, 3 not congruent to +-1 mod 5"
        cert = verify_witness(build_witness(EMPTY, 5, 5)._replace(case=TWO_CLASSES))
        assert cert.verified
        assert cert.checks["congruence_ok"] is None
        assert cert.notes == ("congruence check not applicable for the empty core",)

    def test_n_is_derived(self):
        cert = build_witness(bp(2, 1), 5, 6)
        assert cert.n == cert.core.n + cert.p * cert.w == cert.label_a.n == 33
        with pytest.raises(ValueError):
            cert._replace(n=99)  # was accepted, and failed same_block


class TestSmallIntegerVerdicts:
    """Height zero and distinct degrees from v_p(H) over parts and pairs and
    from unshared parts, against the degrees themselves."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_match_degrees_in_every_block_to_thirty(self, p):
        for n in range(2, 31):
            for core, w in block_targets(n, p):
                labels = labels_with_core_and_weight(core, p, w)
                low = factorial_valuation(n, p) - factorial_valuation(p * w, p)
                degree = {lam: spin_degree(lam, "A") for lam in labels}
                for lam in labels:
                    v = _residue_and_valuation(lam, p)[1]
                    assert (v == factorial_valuation(p * w, p)) == (valuation(degree[lam], p) == low)
                for a in labels:
                    for b in labels:
                        if a != b:
                            assert _degrees_differ(a, b) == (degree[a] != degree[b])
                for b in labels[1:]:  # the verifier's verdicts are these
                    cert = verify_witness(WitnessCertificate(p, core, w, TWO_CLASSES,
                                                             labels[0], b, {}))
                    assert cert.checks["same_block"]
                    assert cert.checks["both_height_zero"] == (
                        valuation(degree[labels[0]], p) == valuation(degree[b], p) == low)
                    assert cert.checks["degrees_distinct"] == (degree[labels[0]] != degree[b])

    @given(st.lists(st.integers(1, 60), max_size=12), st.lists(st.integers(1, 60), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_unshared_quotient_is_the_bar_product_quotient(self, first, second):
        lam = strict_from(first, 60)
        mu = strict_from(second, lam.n, fill=True)
        assert mu.n == lam.n
        num, den = bar_product_quotient(lam, mu)
        assert num * math.prod(bar_products(mu)) == den * math.prod(bar_products(lam))

    def test_certificates_compute_no_degree(self, monkeypatch):
        def refuse(lam, kind):
            raise AssertionError("a degree was computed for %s" % (lam,))

        assert WitnessCertificate._fields == ("p", "core", "w", "case", "label_a", "label_b",
                                              "checks", "notes")
        assert [name for name in dir(WitnessCertificate) if "degree" in name] == []
        monkeypatch.setattr(spinchar, "spin_degree", refuse)
        summary = scan(60, (3, 5, 7))
        assert summary.notes == ()
        assert summary.witnesses_verified == sum(
            count for (_p, dc), count in summary.block_counts.items() if dc == NON_ABELIAN)
        assert build_witness(bp(3, 1), 5, 5).verified


def strict_from(candidates, n, fill=False):
    """A strict partition from the distinct candidates that fit in n; with
    fill, the rest of n is added as a new part, or onto the largest part."""
    parts = set()
    for a in candidates:
        if a not in parts and sum(parts) + a <= n:
            parts.add(a)
    rest = n - sum(parts)
    if fill and rest:
        if rest in parts:
            top = max(parts)
            parts.remove(top)
            rest += top
        parts.add(rest)
    return make_bar_partition(parts)


class TestBlockMembership:
    def test_flags_label_outside_block(self):
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(cert._replace(label_a=bp(7, 4, 1)))  # the core 7,4,1
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert bad.checks["degrees_distinct"] is False
        assert not bad.verified
        assert any("height-zero check failed" in note for note in bad.notes)
        assert any("degree check failed" in note for note in bad.notes)

    @pytest.mark.parametrize("label", [EMPTY, bp(1)])
    def test_flags_label_without_degree(self, label):
        # no degree in the alternating double cover below two letters: the
        # verifier computes none, so the note names the labels
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(cert._replace(label_a=label))
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert bad.checks["degrees_distinct"] is False
        assert "degree check failed: %s and 11,1" % (label,) in bad.notes

    @pytest.mark.parametrize("core", [EMPTY, bp(1)])
    def test_no_height_zero_below_two_letters(self, core):
        # the label is its own block of weight 0, with no degree to have a height
        cert = WitnessCertificate(p=3, core=core, w=0, case=TWO_CLASSES,
                                  label_a=core, label_b=core, checks={})
        bad = verify_witness(cert)
        assert bad.checks["both_height_zero"] is False
        assert "height-zero check failed: v_p(H) 0 and 0, v_p((pw)!) 0" in bad.notes

    def test_one_label_twice_is_not_a_block_pair(self):
        # was both_height_zero True: the gate checked the cores, not two labels
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(cert._replace(label_b=cert.label_a))
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert bad.checks["degrees_distinct"] is False
        assert not bad.verified
        assert "height-zero check failed: v_p(H) 5 and 5, v_p((pw)!) 5" in bad.notes
        assert ("block membership failed: 12 and 12, core - weight 4, outside the block: none"
                in bad.notes)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a_core_that_is_no_core_fails_membership(self, p):
        # the verifier reads the claimed core's runner charges; a gamma with a
        # bar length divisible by p has the charges of a smaller core, so no
        # label of |gamma| + p*w lies in its "block", and nothing is raised
        for size in range(p, 16):
            for gamma in enumerate_bar_partitions(size):
                if count_bar_lengths_divisible(gamma, p) == 0:
                    continue
                charges = runner_charges(gamma, p)[0]
                for w in range(3):
                    labels = enumerate_bar_partitions(size + p * w)
                    assert not any(in_block(lam, p, charges, w, size + p * w) for lam in labels)
                    cert = verify_witness(WitnessCertificate(p, gamma, w, TWO_CLASSES,
                                                             labels[0], labels[-1], {}))
                    assert cert.checks["same_block"] is False
                    assert not cert.verified
                    assert any(note.startswith("block membership failed: ")
                               for note in cert.notes)

    @pytest.mark.parametrize("core, w", [(EMPTY, 3), (bp(1), 3), (bp(1), 4)])
    def test_flags_block_of_wrong_core_or_weight(self, core, w):
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(cert._replace(core=core, w=w))
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert not bad.verified


def residue_from_bars(lam, p):
    r = 1
    for b in bars(lam).bars:
        if b.length % p:
            r = r * b.length % p
    return r


def residue_per_difference(lam, p):
    """The p'-residue from the parts with one inverse mod p per difference of parts."""
    r = 1
    for idx, a in enumerate(lam.parts):
        r = r * (-1) ** (a // p) * math.factorial(a % p) % p
        for b in lam.parts[idx + 1:]:
            if (a - b) % p:
                r = r * pow(a - b, -1, p) % p
            if (a + b) % p:
                r = r * (a + b) % p
    return r


def pprime_residue(lam, p):
    return _residue_and_valuation(lam, p)[0]


class TestResidueAndValuation:
    """v_p(H) from the parts and their pairs against the weight tower and the
    bar table, and the p'-residue of the same pass against the bar table."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_partition_up_to_thirty(self, p):
        for n in range(31):
            for lam in enumerate_bar_partitions(n):
                v = _residue_and_valuation(lam, p)[1]
                assert v == weight_tower(lam, p)[1] == valuation(bars(lam).h_total, p)

    @given(st.sets(st.integers(1, 200), max_size=12), st.sampled_from([3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_sample_with_parts_up_to_two_hundred(self, parts, p):
        lam = make_bar_partition(parts)
        r, v = _residue_and_valuation(lam, p)
        assert v == weight_tower(lam, p)[1] == valuation(bars(lam).h_total, p)
        assert r == residue_from_bars(lam, p)


class TestPprimeResidue:
    """The p'-residue from the parts against the product over the bar table."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_one_inverse_matches_one_per_difference(self, p):
        # every label of every block with n <= 30
        for core in bar_cores_up_to(30, p):
            for w in range((30 - core.n) // p + 1):
                for lam in labels_with_core_and_weight(core, p, w):
                    assert pprime_residue(lam, p) == residue_per_difference(lam, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_partition_up_to_thirty(self, p):
        for n in range(31):
            for lam in enumerate_bar_partitions(n):
                assert pprime_residue(lam, p) == residue_from_bars(lam, p)

    @given(st.lists(st.integers(1, 80), max_size=16), st.sampled_from([3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_sample_up_to_eighty(self, candidates, p):
        parts = set()
        for a in candidates:
            if a not in parts and sum(parts) + a <= 80:
                parts.add(a)
        lam = make_bar_partition(parts)
        assert pprime_residue(lam, p) == residue_from_bars(lam, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_empty_and_single_parts(self, p):
        assert pprime_residue(EMPTY, p) == 1
        for a in range(1, 4 * p + 2):
            assert pprime_residue(bp(a), p) == residue_from_bars(bp(a), p)


class TestScan:
    def test_up_to_twelve(self):
        summary = scan(12, [3])
        assert summary.failed == ()
        assert summary.witnesses_verified > 0
        assert summary.notes == ()

    def test_note_when_nothing_non_abelian(self):
        summary = scan(9, [5])
        assert summary.witnesses_verified == 0
        assert any("p=5" in note for note in summary.notes)

    @pytest.mark.parametrize("primes", [[3, 3], [3, 5, 3]])
    def test_rejects_repeated_prime(self, monkeypatch, primes):
        # refused before any work: a repeated prime would count every block twice
        def refuse(*args):
            raise AssertionError("scan listed cores")

        monkeypatch.setattr(witness, "bar_cores_up_to", refuse)
        with pytest.raises(ValueError, match="repeated prime 3"):
            scan(12, primes)

    def test_rejects_empty_prime_list(self):
        with pytest.raises(ValueError, match="at least one prime"):
            scan(12, [])

    def test_rejects_max_n_below_four(self):
        with pytest.raises(ValueError, match="^max_n must be >= 4, got 3$"):
            scan(3, (3,))

    @pytest.mark.parametrize("max_n", [30.5, "30", True])
    def test_rejects_non_int_max_n(self, max_n):
        # 30.5 was named max_size by a later check, and "30" raised TypeError
        with pytest.raises(ValueError, match="max_n must be an integer, got %r" % (max_n,)):
            scan(max_n, [3])

    def test_builds_no_comparison(self, monkeypatch):
        # a certificate needs the pair, not the two bar products a comparison computes
        def refuse(*args):
            raise AssertionError("scan built a comparison")

        monkeypatch.setattr(constructions, "ComparisonResult", refuse)
        summary = scan(40, [3, 5])
        assert summary.witnesses_verified > 0 and summary.notes == ()

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_certifies_each_non_abelian_block_once(self, monkeypatch, p):
        # the totals alone would hide one block certified twice and another skipped
        calls = []
        build = witness._build_witness

        def recording(dec, w):
            calls.append((dec.gamma, w))
            return build(dec, w)

        monkeypatch.setattr(witness, "_build_witness", recording)
        summary = scan(40, [p])
        targets = [target for n in range(4, 41) for target in block_targets(n, p)]
        assert sorted(calls) == sorted((core, w) for core, w in targets if w >= p)
        assert summary.block_counts == Counter((p, defect_class(p, w)) for _core, w in targets)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_block_based_check(self, p):
        # scan lists (core, w) and builds no block; spin_blocks builds every
        # block of n from the structural oracle, which makes it the oracle for scan
        max_n = 30
        counts, verified, failed, notes = {}, 0, [], []
        for n in range(4, max_n + 1):
            blocks = spin_blocks(n, p, "A")
            assert block_targets(n, p) == [(b.core, b.w) for b in blocks]
            for b in blocks:
                low = min(valuation(degree, p) for _count, degree, _height in b.labels.values())
                assert low == factorial_valuation(n, p) - factorial_valuation(p * b.w, p)
                counts[(p, b.defect_class)] = counts.get((p, b.defect_class), 0) + 1
                if b.defect_class != NON_ABELIAN:
                    continue
                flag, _ = equal_degree_test(b)
                cert = build_witness(b.core, p, b.w)
                assert not (flag and cert.verified)  # a verified witness has two degrees
                verified += cert.verified
                if not cert.verified:
                    failed.append(cert)
                    notes.append("non-abelian block p=%d n=%d core %s w=%d: witness not"
                                 " verified; certificate notes: %s"
                                 % (p, n, b.core, b.w, "; ".join(cert.notes)))
        if not counts.get((p, NON_ABELIAN)):
            notes.append("no non-abelian blocks for p=%d with n <= %d" % (p, max_n))
        expected = ScanSummary(max_n, (p,), counts, verified, tuple(failed), tuple(notes))
        assert scan(max_n, [p]) == expected

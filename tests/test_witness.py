from dataclasses import replace

import pytest

from spinblocks.barpart import EMPTY, bars, make_bar_partition
from spinblocks.blocks import NON_ABELIAN
from spinblocks.witness import (
    CASE_EMPTY_CORE,
    CASE_TWO_CLASSES,
    CASE_UNIQUE_ODD_P3_SMALL,
    alt_degree,
    build_witness,
    check_conjecture,
    scan,
    verify_witness,
)


def bp(*parts):
    return make_bar_partition(parts)


class TestAltDegree:
    def test_examples(self):
        assert alt_degree(bp(9)) == 8       # sigma +1: half of 16
        assert alt_degree(bp(8, 1)) == 56   # sigma -1: unchanged
        assert alt_degree(bp(3, 1)) == 2


class TestBuildWitness:
    def test_empty_core(self):
        cert = build_witness(EMPTY, 3, 3)
        assert cert.case == CASE_EMPTY_CORE
        assert (cert.label_a, cert.label_b) == (bp(9), bp(8, 1))
        assert (cert.degree_a, cert.degree_b) == (8, 56)
        assert cert.checks["congruence_ok"] is None
        assert cert.verified

    def test_unique_class(self):
        cert = build_witness(bp(1), 3, 3)
        assert cert.case == CASE_UNIQUE_ODD_P3_SMALL
        assert (cert.label_a, cert.label_b) == (bp(10), bp(9, 1))
        assert (cert.degree_a, cert.degree_b) == (16, 64)
        assert cert.verified

    def test_two_classes(self):
        cert = build_witness(bp(3, 1), 5, 5)
        assert cert.case == CASE_TWO_CLASSES
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
            assert cert.degree_a != cert.degree_b
            h_a, h_b = bars(cert.label_a).h_total, bars(cert.label_b).h_total
            assert h_a > 2 * h_b

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_witness(EMPTY, 3, 1)
        with pytest.raises(ValueError):
            build_witness(bp(1), 3, 2)  # nonempty core needs w >= p
        with pytest.raises(ValueError):
            build_witness(bp(3), 3, 3)  # not a core


class TestVerifyWitness:
    def test_detects_tampering(self):
        cert = build_witness(EMPTY, 3, 3)
        bad = verify_witness(replace(cert, label_a=bp(10, 2)))
        assert bad.checks["same_block"] is False
        assert not bad.verified
        assert any("block membership" in note for note in bad.notes)

    def test_detects_degree_tampering(self):
        cert = build_witness(bp(1), 3, 3)
        bad = verify_witness(replace(cert, degree_a=cert.degree_a + 1))
        assert bad.checks["degrees_distinct"] is False
        assert not bad.verified


class TestBlockMembership:
    def test_flags_label_outside_block(self):
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(replace(cert, label_a=bp(7, 4, 1)))  # the core 7,4,1
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert bad.checks["degrees_distinct"] is False
        assert not bad.verified
        assert any("height-zero check failed" in note for note in bad.notes)
        assert any("degree check failed" in note for note in bad.notes)

    @pytest.mark.parametrize("core, w", [(EMPTY, 3), (bp(1), 3), (bp(1), 4)])
    def test_flags_block_of_wrong_core_or_weight(self, core, w):
        cert = build_witness(EMPTY, 3, 4)
        bad = verify_witness(replace(cert, core=core, w=w))
        assert bad.checks["same_block"] is False
        assert bad.checks["both_height_zero"] is False
        assert not bad.verified


class TestCheckConjecture:
    def test_nine(self):
        reports = check_conjecture(9, 3)
        (non_ab,) = [r for r in reports if r.defect_class == NON_ABELIAN]
        assert non_ab.core == EMPTY and non_ab.w == 3
        assert non_ab.equal_degree is False
        assert non_ab.certificate.verified

    def test_small_n(self):
        # no non-abelian blocks yet: only descriptive reports, no certificates
        for n in (4, 5):
            reports = check_conjecture(n, 3)
            assert all(r.certificate is None for r in reports)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            check_conjecture(3, 3)


class TestScan:
    def test_up_to_twelve(self):
        summary = scan(12, [3])
        assert summary.equal_degree_non_abelian == 0
        assert summary.witnesses_verified > 0
        assert summary.notes == ()

    def test_note_when_nothing_non_abelian(self):
        summary = scan(9, [5])
        assert summary.witnesses_verified == 0
        assert any("p=5" in note for note in summary.notes)

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinblocks import witness
from spinblocks.blocks import spin_blocks
from spinblocks.cli import INT64_MAX, _witness_targets, jsonable, main, render


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, _err = run(capsys, *argv)
    return rc, json.loads(out)


class TestBars:
    def test_basic(self, capsys):
        rc, rec = run_json(capsys, "bars", "8,1")
        assert rc == 0
        assert rec["schema_version"] == "1"
        assert rec["command"] == "bars"
        assert rec["status"] == "info"
        assert rec["payload"]["h_total"] == 51840
        assert sorted(rec["payload"]["lengths"]) == [1, 1, 2, 3, 4, 5, 6, 8, 9]

    def test_with_prime(self, capsys):
        rc, rec = run_json(capsys, "bars", "9", "--p", "3")
        assert rc == 0
        assert rec["payload"]["weights"] == [3, 1]
        assert rec["payload"]["valuation"] == 4

    def test_empty(self, capsys):
        rc, rec = run_json(capsys, "bars", "-")
        assert rc == 0
        assert rec["payload"]["h_total"] == 1

    def test_bad_partition(self, capsys):
        rc, out, err = run(capsys, "bars", "3,3")
        assert rc == 2
        assert out == ""
        assert "error" in err


class TestCore:
    def test_basic(self, capsys):
        rc, rec = run_json(capsys, "core", "8,1", "--p", "3")
        assert rc == 0
        assert rec["payload"]["core"] == "-"
        assert rec["payload"]["weight"] == 3

    def test_bad_prime(self, capsys):
        rc, _out, err = run(capsys, "core", "9", "--p", "2")
        assert rc == 2
        assert "odd prime" in err


class TestBlocks:
    def test_nine(self, capsys):
        rc, rec = run_json(capsys, "blocks", "--n", "9", "--p", "3")
        assert rc == 0
        (block,) = rec["payload"]["blocks"]
        assert block["core"] == "-"
        assert block["weight"] == 3
        assert block["defect_class"] == "non-abelian"
        assert block["equal_degree"] is False
        by_label = {entry["label"]: entry for entry in block["labels"]}
        assert by_label["9"]["degree"] == 8
        assert by_label["9"]["height"] == 0
        assert by_label["6,2,1"]["height"] == 1

    def test_alternating_needs_two_letters(self, capsys):
        rc, out, err = run(capsys, "blocks", "--n", "1", "--p", "3")
        assert rc == 2
        assert out == ""
        assert "n >= 2" in err
        rc, _rec = run_json(capsys, "blocks", "--n", "1", "--p", "3", "--group", "S")
        assert rc == 0

    def test_group_choice(self, capsys):
        rc, rec = run_json(capsys, "blocks", "--n", "9", "--p", "3", "--group", "S")
        assert rc == 0
        (block,) = rec["payload"]["blocks"]
        by_label = {entry["label"]: entry for entry in block["labels"]}
        assert by_label["9"]["degree"] == 16


class TestVerify:
    def test_ratios(self, capsys):
        rc, rec = run_json(capsys, "verify", "ratios", "--p", "3",
                           "--max-core", "6", "--max-w", "2")
        assert rc == 0
        assert rec["status"] == "pass"
        assert rec["payload"]["failures"] == []
        assert rec["payload"]["checked"] > 0

    def test_thm35(self, capsys):
        rc, rec = run_json(capsys, "verify", "thm35", "--p", "3",
                           "--max-core", "6", "--max-w", "2")
        assert rc == 0
        assert rec["status"] == "pass"

    def test_prop36(self, capsys):
        rc, rec = run_json(capsys, "verify", "prop36", "--p", "3", "--max-w", "4")
        assert rc == 0
        values = {entry["w"]: entry for entry in rec["payload"]["values"]}
        assert values[2]["h_single"] == 720
        assert values[2]["h_split"] == 180

    @pytest.mark.parametrize("argv", [
        ("ratios", "--p", "3", "--max-w", "0"),
        ("thm35", "--p", "3", "--max-core", "0"),
        ("prop36", "--p", "3", "--max-w", "1"),
    ])
    def test_empty_bounds_rejected(self, capsys, argv):
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2
        assert out == ""
        assert "nothing to check" in err


class TestWitness:
    def test_by_n(self, capsys):
        rc, rec = run_json(capsys, "witness", "--n", "9", "--p", "3")
        assert rc == 0
        assert rec["status"] == "pass"
        (cert,) = rec["payload"]["certificates"]
        assert cert["label_a"] == "9"
        assert cert["label_b"] == "8,1"
        assert cert["degree_a"] == 8
        assert cert["degree_b"] == 56
        assert cert["verified"] is True

    def test_by_core(self, capsys):
        rc, rec = run_json(capsys, "witness", "--core", "1", "--w", "3", "--p", "3")
        assert rc == 0
        (cert,) = rec["payload"]["certificates"]
        assert cert["case"] == "unique-class-odd-p3-small"

    def test_info_below_p(self, capsys):
        # the empty core with 2 <= w < p is accepted but only informational
        rc, rec = run_json(capsys, "witness", "--n", "6", "--p", "3")
        assert rc == 0
        assert rec["status"] == "info"

    def test_no_qualifying_block(self, capsys):
        rc, _out, err = run(capsys, "witness", "--n", "7", "--p", "3")
        assert rc == 2
        assert "no spin block" in err

    @pytest.mark.parametrize("p", [3, 5])
    def test_targets_are_the_qualifying_blocks(self, p):
        for n in range(1, 31):
            # blocks of "S" and "A" share cores and weights; "A" has no n = 1
            expected = [(b.core, b.w) for b in spin_blocks(n, p, "S")
                        if b.w >= p or (b.core.m == 0 and b.w >= 2)]
            assert _witness_targets(n, p) == expected

    def test_conflicting_selectors(self, capsys):
        rc, _out, err = run(capsys, "witness", "--n", "9", "--core", "-",
                            "--w", "3", "--p", "3")
        assert rc == 2


class TestCheck:
    def test_small_scan(self, capsys):
        rc, rec = run_json(capsys, "check", "--max-n", "10", "--primes", "3")
        assert rc == 0
        assert rec["status"] == "pass"
        assert rec["payload"]["equal_degree_non_abelian"] == 0
        assert rec["payload"]["witnesses_verified"] > 0

    @pytest.mark.parametrize("fault", ["unverified", "equal-degree"])
    def test_failed_block_is_reported(self, capsys, monkeypatch, fault):
        # a verified witness already proves the degrees unequal, so check
        # runs the equal-degree test only on a block whose witness failed
        build = witness.build_witness
        monkeypatch.setattr(witness, "build_witness", lambda core, p, w: replace(
            build(core, p, w), checks={"same_block": False}, notes=("forced failure",)))
        if fault == "equal-degree":
            monkeypatch.setattr(witness, "equal_degree_test", lambda block: (True, []))
        rc, rec = run_json(capsys, "check", "--max-n", "10", "--primes", "3")
        assert rc == 1
        assert rec["status"] == "fail"
        notes = rec["payload"]["notes"]
        assert any("p=3 n=9 core - w=3" in note for note in notes)
        if fault == "unverified":
            assert rec["payload"]["witnesses_verified"] == 0
            assert all("forced failure" in note for note in notes)
        else:
            assert rec["payload"]["equal_degree_non_abelian"] == 2

    def test_builds_no_block(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("check built a block")

        monkeypatch.setattr(witness, "spin_blocks", refuse)
        monkeypatch.setattr(witness, "spin_block", refuse)
        rc, rec = run_json(capsys, "check", "--max-n", "30", "--primes", "3,5")
        assert rc == 0
        assert rec["status"] == "pass"
        non_abelian = sum(row["blocks"] for row in rec["payload"]["block_counts"]
                          if row["defect_class"] == "non-abelian")
        assert rec["payload"]["witnesses_verified"] == non_abelian > 0
        assert rec["payload"]["notes"] == []

    def test_rejects_tiny(self, capsys):
        rc, _out, err = run(capsys, "check", "--max-n", "3", "--primes", "3")
        assert rc == 2

    def test_bad_primes(self, capsys):
        rc, _out, err = run(capsys, "check", "--max-n", "6", "--primes", "3,4")
        assert rc == 2


class TestOutput:
    def test_deterministic(self, capsys):
        _rc, out1, _ = run(capsys, "blocks", "--n", "9", "--p", "3")
        _rc, out2, _ = run(capsys, "blocks", "--n", "9", "--p", "3")
        assert out1 == out2

    def test_csv_has_same_fields(self, capsys):
        _rc, rec = run_json(capsys, "core", "8,1", "--p", "3")
        rc, out, _ = run(capsys, "core", "8,1", "--p", "3", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        fields = {line.split(",", 1)[0] for line in lines[1:]}
        assert "payload.core" in fields
        assert "payload.weight" in fields
        assert any(line == "payload.weight,3" for line in lines)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "core.json"
        rc, out, _ = run(capsys, "core", "8,1", "--p", "3", "--out", str(target))
        assert rc == 0
        assert out == ""
        rec = json.loads(target.read_text())
        assert rec["payload"]["weight"] == 3

    def test_big_integers_become_strings(self, capsys):
        rc, rec = run_json(capsys, "bars", "30,17,2")
        assert rc == 0
        assert isinstance(rec["payload"]["h_total"], str)
        assert int(rec["payload"]["h_total"]) > 2**63

    def test_missing_subcommand(self, capsys):
        rc, _out, _err = run(capsys, )
        assert rc == 2


def roundtrip(value):
    return json.loads(render(jsonable({"v": value}), "json"))["v"]


class TestJsonRoundTrip:
    @given(st.integers(-INT64_MAX - 1, INT64_MAX + 1))
    @example(INT64_MAX)
    @example(-INT64_MAX)
    @example(INT64_MAX + 1)
    @example(-INT64_MAX - 1)
    def test_ints(self, x):
        back = roundtrip(x)
        if abs(x) <= INT64_MAX:
            assert type(back) is int and back == x
        else:
            assert back == str(x) and int(back) == x

    @given(st.fractions())
    def test_fractions(self, q):
        back = roundtrip(q)
        if q.denominator == 1:
            assert back == str(q.numerator)
        else:
            assert back == "%d/%d" % (q.numerator, q.denominator)
        assert Fraction(back) == q

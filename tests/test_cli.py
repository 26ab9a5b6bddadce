import csv
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinblocks import barpart, blocks, cli, constructions, oracle, spinchar, witness
from spinblocks.blocks import spin_blocks
from spinblocks.cli import (
    COMMANDS,
    COMMON,
    INT64_MAX,
    _plain_parse,
    _witness_targets,
    build_parser,
    jsonable,
    main,
    render,
)
from test_golden import GOLDEN
from test_mutants import MUTANTS, apply


ROOT = Path(__file__).resolve().parent.parent


def exact_digits(x):
    """Decimal digits of x >= 0, from pieces short enough for str()."""
    if x < 10**1000:
        return str(x)
    hi, lo = divmod(x, 10**1000)
    return exact_digits(hi) + "%0*d" % (1000, lo)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, _err = run(capsys, *argv)
    return rc, json.loads(out)


def refuse_bar_work(monkeypatch):
    """Make building a bar table, or removing a bar anywhere in spinblocks, raise."""
    def refuse(*args):
        raise AssertionError("built a bar table or removed a bar")

    monkeypatch.setattr(oracle, "BarTable", refuse)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "spinblocks" and hasattr(module, "remove_bar"):
            monkeypatch.setattr(module, "remove_bar", refuse)
    with pytest.raises(AssertionError):
        oracle.bars(barpart.BarPartition((3,)))
    with pytest.raises(AssertionError):
        oracle.remove_bar(barpart.BarPartition((3,)), oracle.Bar(oracle.TYPE2, 3, y=3))


def grow_total_one_more(step):
    """step, returning (unmixed, mixed, total) pairs, with grow_class totals raised by 1."""
    def patched(dec, i, w, forms=None):
        unmixed, mixed, (num, den) = step(dec, i, w, forms)
        return unmixed, mixed, (num + den if i is not None else num, den)

    return patched


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

    def test_large_part(self, capsys):
        # from the abacus core: bar removal would build ~10**6 bars per step
        rc, rec = run_json(capsys, "core", "1000000,1", "--p", "3")
        assert rc == 0
        assert rec["payload"]["core"] == "4,1"
        assert rec["payload"]["weight"] == 333332

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

    @pytest.mark.parametrize("argv", [
        ("ratios", "--p", "5", "--max-core", "12", "--max-w", "4"),
        ("thm35", "--p", "5", "--max-core", "12", "--max-w", "4"),
        ("prop36", "--p", "5", "--max-w", "10"),
    ])
    def test_builds_no_bar_table(self, capsys, monkeypatch, argv):
        refuse_bar_work(monkeypatch)
        rc, rec = run_json(capsys, "verify", *argv)
        assert rc == 0
        assert rec["status"] == "pass"
        assert rec["payload"]["checked"] > 0
        assert rec["payload"]["failures"] == []


    @pytest.mark.parametrize("kind", ["ratios", "thm35"])
    def test_builds_no_fraction(self, capsys, monkeypatch, kind):
        # the closed forms are checked by cross-multiplying integer pairs
        def refuse(*args):
            raise AssertionError("built a Fraction")

        monkeypatch.setattr(constructions, "Fraction", refuse)
        with pytest.raises(AssertionError):
            constructions.grow_class_ratio(barpart.BarPartition((1,)), 3, 1, 1)
        rc, rec = run_json(capsys, "verify", kind, "--p", "5", "--max-core", "12", "--max-w", "6")
        assert rc == 0
        assert rec["status"] == "pass"
        assert rec["payload"]["checked"] > 0

    @pytest.mark.parametrize("kind, fault, first", [
        # a grow_class total one too large: grow (1) -> (4) at p=3, w=1 has ratio 24
        ("ratios",
         lambda real: ("_step", grow_total_one_more(real._step)),
         {"core": "1", "w": 1, "identity": "grow-class-total", "residue": 1,
          "closed_form": "25", "direct": "24"}),
        # bar products replaced by (1, number of parts): the grown label never wins
        ("thm35",
         lambda real: ("bar_products", lambda lam: (1, lam.m)),
         {"core": "1", "w": 1, "case": "unique-class", "larger": "4", "smaller": "3,1",
          "h_larger": 1, "h_smaller": 2}),
        # the same fault: (pw) no longer exceeds twice (pw-1, 1)
        ("prop36",
         lambda real: ("bar_products", lambda lam: (1, lam.m)),
         {"w": 2, "h_single": 1, "h_split": 2, "ok": False}),
    ], ids=["ratios", "thm35", "prop36"])
    def test_failure_is_reported(self, capsys, monkeypatch, kind, fault, first):
        name, patched = fault(constructions)
        monkeypatch.setattr(constructions, name, patched)
        rc, rec = run_json(capsys, "verify", kind, "--p", "3", "--max-core", "4", "--max-w", "2")
        assert rc == 1
        assert rec["status"] == "fail"
        assert rec["payload"]["failures"][0] == first

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

    def test_verifier_decides_membership_by_in_block(self, capsys, monkeypatch):
        # building and verifying share the one rule, barpart.in_block; the
        # verifier applies it to both labels itself, trusting no builder's verdict
        derived = []
        rule = witness.in_block

        def counting(lam, p, charges, w, n):
            derived.append(barpart.format_partition(lam))
            return rule(lam, p, charges, w, n)

        monkeypatch.setattr(witness, "in_block", counting)
        rc, rec = run_json(capsys, "witness", "--core", "1", "--w", "14", "--p", "3")
        assert rc == 0 and rec["status"] == "pass"
        (cert,) = rec["payload"]["certificates"]
        assert derived == [cert["label_a"], cert["label_b"]]

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
        rc, out, err = run(capsys, "witness", "--core", "1", "--p", "3")
        assert (rc, out) == (2, "")
        assert "need --n, or both --core and --w" in err


class TestCheck:
    def test_small_scan(self, capsys):
        rc, rec = run_json(capsys, "check", "--max-n", "10", "--primes", "3")
        assert rc == 0
        assert rec["status"] == "pass"
        assert rec["payload"]["equal_degree_non_abelian"] == 0
        assert rec["payload"]["witnesses_verified"] > 0

    def test_certifying_nothing_is_info(self, capsys):
        # no block up to 8 is non-abelian at p = 3 or 5: nothing certified, nothing failed
        rc, rec = run_json(capsys, "check", "--max-n", "8", "--primes", "3,5")
        assert rc == 0
        assert rec["status"] == "info"
        assert rec["payload"]["witnesses_verified"] == 0
        assert rec["payload"]["notes"] == ["no non-abelian blocks for p=%d with n <= 8" % p
                                           for p in (3, 5)]

    @pytest.mark.parametrize("fault", ["unverified", "equal-degree"])
    def test_failed_block_is_reported(self, capsys, monkeypatch, fault):
        # a verified witness already proves the degrees unequal, so check
        # runs the equal-degree test only on a block whose witness failed
        build = witness._build_witness
        monkeypatch.setattr(witness, "_build_witness", lambda dec, w: build(dec, w)._replace(
            checks={"same_block": False}, notes=("forced failure",)))
        if fault == "equal-degree":
            monkeypatch.setattr(blocks, "equal_degree_test", lambda block: (True, []))
        rc, rec = run_json(capsys, "check", "--max-n", "10", "--primes", "3")
        assert rc == 1
        assert rec["status"] == "fail"
        assert rec["payload"]["witnesses_verified"] == 0
        equal = fault == "equal-degree"
        assert rec["payload"]["equal_degree_non_abelian"] == (2 if equal else 0)
        # scan's note per failed witness, then the CLI's verdict per built block
        failing = ("p=3 n=9 core - w=3", "p=3 n=10 core 1 w=3")
        assert rec["payload"]["notes"] == [
            "non-abelian block %s: witness not verified; certificate notes: forced failure"
            % block for block in failing] + [
            "non-abelian block %s: equal degrees %s" % (block, "yes" if equal else "no")
            for block in failing]

    def test_builds_no_block(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("check built a block")

        monkeypatch.setattr(blocks, "spin_block", refuse)
        rc, rec = run_json(capsys, "check", "--max-n", "30", "--primes", "3,5")
        assert rc == 0
        assert rec["status"] == "pass"
        non_abelian = sum(row["blocks"] for row in rec["payload"]["block_counts"]
                          if row["defect_class"] == "non-abelian")
        assert rec["payload"]["witnesses_verified"] == non_abelian > 0
        assert rec["payload"]["notes"] == []

    def test_builds_no_bar_table(self, capsys, monkeypatch):
        refuse_bar_work(monkeypatch)
        summary = witness.scan(60, [3, 5])
        assert summary.witnesses_verified > 0 and summary.notes == ()
        rc, rec = run_json(capsys, "check", "--max-n", "30", "--primes", "3,5")
        assert rc == 0 and rec["status"] == "pass"
        rc, rec = run_json(capsys, "witness", "--n", "46", "--p", "5")
        assert rc == 0 and rec["status"] == "pass"
        rc, rec = run_json(capsys, "witness", "--core", "1", "--w", "14", "--p", "3")
        assert rc == 0 and rec["status"] == "pass"
        rc, rec = run_json(capsys, "core", "30,17,2", "--p", "5")
        assert rc == 0

    def test_lists_cores_once_per_prime(self, monkeypatch):
        calls = []

        def counting(max_size, p):
            calls.append((max_size, p))
            return barpart.bar_cores_up_to(max_size, p)

        monkeypatch.setattr(witness, "bar_cores_up_to", counting)
        monkeypatch.setattr(blocks, "bar_cores_up_to", counting)
        witness.scan(30, [3, 5])
        assert calls == [(30, 3), (30, 5)]

    def test_decomposes_each_core_once(self, capsys, monkeypatch):
        # one decomposition per core with a non-abelian block (w >= p), the
        # empty core included, shared by all of that core's certificates
        decomposed = []
        decompose = constructions.decompose_core

        def counting(gamma, p):
            decomposed.append((gamma, p))
            return decompose(gamma, p)

        monkeypatch.setattr(witness, "decompose_core", counting)
        monkeypatch.setattr(constructions, "decompose_core", counting)
        rc, rec = run_json(capsys, "check", "--max-n", "30", "--primes", "3,5")
        assert rc == 0 and rec["status"] == "pass"
        assert decomposed == [(core, p) for p in (3, 5) for core in barpart.bar_cores_up_to(30, p)
                              if core.n + p * p <= 30]

    def test_rejects_tiny(self, capsys):
        rc, out, err = run(capsys, "check", "--max-n", "3", "--primes", "3")
        assert (rc, out) == (2, "")
        assert err == "error: max_n must be >= 4, got 3\n"

    def test_bad_primes(self, capsys):
        rc, _out, err = run(capsys, "check", "--max-n", "6", "--primes", "3,4")
        assert rc == 2
        # a repeated prime would count every block twice
        rc, out, err = run(capsys, "check", "--max-n", "12", "--primes", "3,3")
        assert rc == 2
        assert out == ""
        assert "repeated prime 3" in err
        rc, out, err = run(capsys, "check", "--max-n", "10", "--primes", "3,x")
        assert (rc, out) == (2, "")
        assert "cannot parse prime list '3,x'" in err


# a command and the library function that a forced RuntimeError replaces
INVARIANT_FAULTS = [
    (("verify", "ratios", "--p", "3", "--max-core", "4", "--max-w", "2"),
     constructions, "_certify"),
    (("witness", "--n", "9", "--p", "3"), spinchar, "spin_degree"),
]


def force_invariant_failure(monkeypatch, module, name):
    def fail(*args):
        raise RuntimeError("forced invariant failure")

    monkeypatch.setattr(module, name, fail)


def status_of(out):
    """The status of a JSON or CSV record."""
    if out.startswith("field,value\n"):
        return dict(csv.reader(io.StringIO(out)))["status"]
    return json.loads(out)["status"]


# (argv, fault): every golden command unfaulted, then each forced invariant
# failure and the forms-constant-off mutant under verify ratios
ONE_WRITER = [(command.split(), None) for command, _code, _digest in GOLDEN] + [
    (argv, functools.partial(force_invariant_failure, module=module, name=name))
    for argv, module, name in INVARIANT_FAULTS
] + [(("verify", "ratios", "--p", "3", "--max-core", "1", "--max-w", "1"),
      functools.partial(apply, mutant=MUTANTS["forms-constant-off"]))]


class TestOneWriter:
    @pytest.mark.parametrize("argv, fault", ONE_WRITER,
                             ids=[" ".join(argv) + (" faulted" if fault else "")
                                  for argv, fault in ONE_WRITER])
    def test_exit_code_follows_status(self, capsys, monkeypatch, argv, fault):
        if fault:
            fault(monkeypatch)
        rc, out, err = run(capsys, *argv)
        assert err == ""
        status = status_of(out)
        assert (status == "fail") is (fault is not None)
        assert rc == (1 if status == "fail" else 0)

    def test_prop36_failure_echoes_the_passing_inputs(self, capsys, monkeypatch):
        argv = ("verify", "prop36", "--p", "3", "--max-w", "4")
        rc, passing = run_json(capsys, *argv)
        assert (rc, passing["status"]) == (0, "pass")
        force_invariant_failure(monkeypatch, constructions, "compare_chain")
        rc, failing = run_json(capsys, *argv)
        assert (rc, failing["status"]) == (1, "fail")
        assert failing["inputs"] == passing["inputs"] == {"kind": "prop36", "p": 3, "max_w": 4}


# an invalid p for every subcommand, with bounds that select work (and, for
# prop36 --max-w 1, bounds that select none)
BAD_PRIME = [
    ("bars", "8,1", "--p", "4"),
    ("core", "8,1", "--p", "9"),
    ("blocks", "--n", "9", "--p", "2"),
    ("verify", "ratios", "--p", "15", "--max-core", "6", "--max-w", "2"),
    ("verify", "thm35", "--p", "1", "--max-core", "6", "--max-w", "2"),
    ("verify", "prop36", "--p", "4", "--max-w", "4"),
    ("verify", "prop36", "--p", "4", "--max-w", "1"),
    ("witness", "--n", "9", "--p", "21"),
    ("witness", "--core", "1", "--w", "3", "--p", "4"),
    ("check", "--max-n", "10", "--primes", "3,4"),
]


class TestRefusals:
    @pytest.mark.parametrize("argv", BAD_PRIME + [
        # other inputs the library refuses
        ("blocks", "--n", "0", "--p", "3"),
        ("check", "--max-n", "3", "--primes", "3"),
        ("witness", "--core", "4", "--w", "3", "--p", "3"),  # 4 is not a 3-bar-core
        ("witness", "--core", "1", "--w", "2", "--p", "3"),  # abelian defect
    ], ids=" ".join)
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("built a certificate")

        refuse_bar_work(monkeypatch)
        monkeypatch.setattr(witness, "WitnessCertificate", refuse)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_names_a_negative_weight(self, capsys):
        rc, out, err = run(capsys, "witness", "--core", "1", "--w", "-1", "--p", "3")
        assert (rc, out) == (2, "")
        assert err == "error: w must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", BAD_PRIME, ids=" ".join)
    def test_names_the_bad_prime(self, capsys, argv):
        rc, _out, err = run(capsys, *argv)
        assert rc == 2
        assert "p must be an odd prime" in err

    @pytest.mark.parametrize("argv, module, name", INVARIANT_FAULTS,
                             ids=["verify-ratios", "witness"])
    def test_invariant_failure_is_reported(self, capsys, monkeypatch, argv, module, name):
        force_invariant_failure(monkeypatch, module, name)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (1, "")
        rec = json.loads(out)
        assert rec["command"] == argv[0]
        assert rec["inputs"]["p"] == 3
        assert rec["status"] == "fail"
        assert rec["payload"] == {"error": "forced invariant failure"}


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

    def test_unwritable_out_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run(capsys, "core", "8,1", "--p", "3", "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()

    def test_big_integers_become_strings(self, capsys):
        rc, rec = run_json(capsys, "bars", "30,17,2")
        assert rc == 0
        assert isinstance(rec["payload"]["h_total"], str)
        assert int(rec["payload"]["h_total"]) > 2**63

    @pytest.mark.parametrize("argv, path, value", [
        # (2000) has the bar lengths 1..2000; 2000! has 5 736 digits
        (("bars", "2000"), ("h_total",), math.factorial(2000)),
        # (4500) = (p*w) at p=3, w=1500; 4500! has 14 488 digits
        (("verify", "prop36", "--p", "3", "--max-w", "1500"), ("values", -1, "h_single"),
         math.factorial(4500)),
    ], ids=["bars-2000", "prop36-1500"])
    def test_integers_past_the_str_digit_limit(self, capsys, argv, path, value):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        entry = json.loads(out)["payload"]
        for key in path:
            entry = entry[key]
        assert len(entry) > sys.int_info.default_max_str_digits
        assert entry == exact_digits(value)

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "spinblocks", "core", "8,1", "--p", "3"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["weight"] == 3
        assert "spinblocks.__main__" not in sys.modules

    def test_missing_subcommand(self, capsys):
        rc, _out, _err = run(capsys, )
        assert rc == 2


# each command with valid arguments, and with one int option given "x"
VALID = {
    "bars": ["3,1"], "core": ["3,1", "--p", "3"], "blocks": ["--n", "9", "--p", "3"],
    "verify": ["ratios", "--p", "3"], "witness": ["--p", "3"],
    "check": ["--max-n", "16", "--primes", "3"],
}
BAD_INT = {
    "bars": ["3,1", "--p", "x"], "core": ["3,1", "--p", "x"], "blocks": ["--n", "x", "--p", "3"],
    "verify": ["ratios", "--p", "x"], "witness": ["--p", "x"],
    "check": ["--max-n", "x", "--primes", "3"],
}
USAGE_ARGVS = [[], ["-h"], ["frobnicate"], ["frobnicate", "--p", "3"]] + [
    argv for name in VALID
    for argv in ([name, "-h"], [name], [name] + BAD_INT[name], [name] + VALID[name] + ["--bogus"],
                 [name] + VALID[name] + ["extra", "-h"])
]
# a value outside its choices: an option's, a positional's and a common option's
BAD_CHOICE = [["blocks", "--n", "9", "--p", "3", "--group", "X"], ["verify", "nope", "--p", "3"],
              ["core", "8,1", "--p", "3", "--format", "xml"]]
USAGE_ARGVS += BAD_CHOICE


# command lines the plain parse declines, each with the well-formed line that
# means the same to the full parser, or None where there is none
FALLBACK = [
    (["check", "--max-n=16", "--primes", "3"], ["check", "--max-n", "16", "--primes", "3"]),
    (["check", "--max", "16", "--primes", "3"], ["check", "--max-n", "16", "--primes", "3"]),
    (["check", "--max-n", "8", "--primes", "3", "--max-n", "16"],
     ["check", "--max-n", "16", "--primes", "3"]),
    (["witness", "--core", "1", "--w", "-1", "--p", "3"], None),
    (["core", "--p", "3", "--", "8,1"], ["core", "8,1", "--p", "3"]),
    (["bars", "8,1", "3,1"], None),
    (["check", "--max-n", "16"], None),
    (["check", "-h"], None),
] + [(argv, None) for argv in BAD_CHOICE]
# tokens that the plain parse declines where they stand
REFUSED = ["-1", "x", "", "-h", "--", "--max", "--p=3", "--p"]
MOSTLY = (True, True, True, False)


@st.composite
def command_lines(draw):
    """A command and, in any order, most of its options and positionals, each
    with a value that mostly fits it; now and then one more refused token."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for word, keywords in draw(st.permutations(COMMANDS[name][2] + COMMON)):
        if draw(st.sampled_from(MOSTLY)):
            fitting = list(keywords.get("choices")
                           or (["3", "5", "16"] if "type" in keywords else ["8,1", "3,5", "-"]))
            argv += [word] if word.startswith("-") else []
            argv.append(draw(st.sampled_from(fitting * 3 + [draw(st.sampled_from(REFUSED))])))
    if not draw(st.sampled_from(MOSTLY)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(REFUSED)))
    return argv


# the add_argument keywords that the plain parse reads as argparse does
PLAIN_KEYWORDS = frozenset(("type", "default", "required", "choices", "help"))


def table_faults(declared):
    """What, in one command's declared options, the plain parse would read
    otherwise than argparse: a keyword it does not honour, a destination
    declared twice, or one that the namespace keeps for cmd or func."""
    faults = []
    seen = set()
    for name, keywords in declared:
        faults += ["%s takes %s" % (name, key) for key in sorted(keywords.keys() - PLAIN_KEYWORDS)]
        dest = cli._dest(name)
        if dest in seen or dest in ("cmd", "func"):
            faults.append("%s cannot be the destination of %s" % (dest, name))
        seen.add(dest)
    return faults


def load_benchmark_file(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParsers:
    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
    def test_same_usage_as_the_full_parser(self, capsys, argv):
        # a command's own parser prints the help, usage and errors of the full parser
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            expected = (exc.code, *capsys.readouterr())
        else:
            raise AssertionError("the full parser accepted %r" % (argv,))
        assert run(capsys, *argv) == expected

    def test_plain_check_builds_no_parser(self, capsys):
        build_parser.cache_clear()
        rc, plain, _err = run(capsys, "check", "--max-n", "16", "--primes", "3")
        assert rc == 0
        assert build_parser.cache_info().currsize == 0
        rc, full, _err = run(capsys, "check", "--max-n=16", "--primes", "3")
        assert (rc, full) == (0, plain)
        assert build_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("argv, means", FALLBACK, ids=[" ".join(argv) for argv, _ in FALLBACK])
    def test_declined_lines_go_to_the_full_parser(self, capsys, monkeypatch, argv, means):
        assert _plain_parse(argv) is None
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit as exc:
            expected = (exc.code, *capsys.readouterr())
        else:
            if means is not None:
                assert vars(parsed) == vars(_plain_parse(means))
            # main run on the full parser's namespace
            monkeypatch.setattr(cli, "_plain_parse", lambda argv: parsed)
            expected = run(capsys, *argv)
            monkeypatch.undo()
        assert run(capsys, *argv) == expected

    def test_table_declares_only_what_the_plain_parse_honours(self):
        for name, (_help, _func, declared) in COMMANDS.items():
            assert table_faults(declared + COMMON) == [], name

    @pytest.mark.parametrize("entry, fault", [
        (("--k", dict(type=int, nargs="?")), "--k takes nargs"),
        (("--quiet", dict(action="store_true")), "--quiet takes action"),
        (("--max-core", dict(type=int)), "max_core cannot be the destination of --max-core"),
        (("--cmd", {}), "cmd cannot be the destination of --cmd"),
    ], ids=["nargs", "action", "repeated", "reserved"])
    def test_table_check_refuses(self, entry, fault):
        assert table_faults(COMMANDS["verify"][2] + (entry,) + COMMON) == [fault]

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_plain_parse_agrees_with_the_full_parser(self, argv):
        args = _plain_parse(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    def test_workload_lines_take_the_plain_parse(self, monkeypatch):
        # the benchmark loads its workloads beside its reference, imported by that name
        monkeypatch.setitem(sys.modules, "reference", load_benchmark_file("reference"))
        workloads = load_benchmark_file("workloads")
        lines = [argv for workload in workloads.WORKLOADS.values() for seed in range(4)
                 for argv in workload.commands(seed)]
        # and the empty partition's lone -, as a positional and as a value
        for argv in lines + [["bars", "-"], ["witness", "--core", "-", "--w", "2", "--p", "5"]]:
            args = _plain_parse(argv)
            assert args is not None, argv
            assert vars(args) == vars(build_parser().parse_args(argv))


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

    @pytest.mark.parametrize("value, text", [
        (10**4300, "1" + "0" * 4300),
        (-(10**5000) - 7, "-" + exact_digits(10**5000 + 7)),
        (Fraction(10**5000 + 1, 3), exact_digits(10**5000 + 1) + "/3"),
        (Fraction(3, 10**5000 + 1), "3/" + exact_digits(10**5000 + 1)),
    ], ids=["int", "negative", "numerator", "denominator"])
    def test_past_the_str_digit_limit(self, value, text):
        assert roundtrip(value) == text

    def test_sets_are_refused(self):
        # a set's order follows the hash seed, so its output would not be deterministic
        with pytest.raises(TypeError):
            jsonable({1, 2})

    @given(st.fractions())
    def test_fractions(self, q):
        back = roundtrip(q)
        if q.denominator == 1:
            assert back == str(q.numerator)
        else:
            assert back == "%d/%d" % (q.numerator, q.denominator)
        assert Fraction(back) == q

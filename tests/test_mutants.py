"""Committed mutation checks for the certificate path.

Each row of MUTANTS breaks one function by a monkeypatch and records which
primes kill it, each with its kill input: a witness (core, w) that
build_witness makes at p, a hand-built certificate that verify_witness
reads, a ratio walk (core, max_w) that verify_ratio_chain makes at p, or a
non-core (core, w) that build_witness refuses at p unless mutated. A
row's kill is the name of a check, which the mutant flips between True and
False and with it the certificate's verdict; or an exception the mutant
raises (the CLI reports it with exit 1); or, for a ratio walk, the set of
identities whose RatioChecks fail under the mutant and pass without it. A
row's blind primes are written down too, each with the n up to which every
witness it builds still verifies under the mutant, so a blind spot of the
verifier is stated rather than found again. build_witness is used rather
than scan, which certifies a whole range. scan builds no block, and the
check command builds a block whose witness failed, for its equal-degree
test, only up to n = cli.DIAGNOSE_MAX_N, so a broken verifier makes check
exit 1 at once (the fail-fast tests at the end).
"""

import json
import re
from collections import namedtuple
from itertools import combinations

import pytest

from spinblocks import barpart, blocks, cli, constructions, witness
from spinblocks.barpart import (
    bar_cores_up_to,
    bar_product_quotient,
    make_bar_partition,
    valuation,
)
from spinblocks.constructions import verify_ratio_chain
from spinblocks.witness import (
    WitnessCertificate,
    build_witness,
    verify_witness,
    witness_eligible,
)

Mutant = namedtuple("Mutant", "module name replacement kills kill blind")
RatioWalk = namedtuple("RatioWalk", "core max_w")
NonCore = namedtuple("NonCore", "core w")  # a witness input the unmutated gate refuses

# the real ones, before any patch
residue_and_valuation = witness._residue_and_valuation
runner_charges = barpart.runner_charges
forms = constructions._forms


def difference_valuations_kept(lam, p):
    """_residue_and_valuation with sum v_p(a - b) over the pairs a > b added
    back, as if the differences were never taken out of v_p(H)."""
    r, v = residue_and_valuation(lam, p)
    return r, v + sum(valuation(a - b, p) for a, b in combinations(lam.parts, 2))


def degrees_differ_unshifted(lam, mu):
    """_degrees_differ without the power of 2 that the part counts put
    between the two degrees: H_lam != H_mu."""
    num, den = bar_product_quotient(lam, mu)
    return num != den


def first_charge_off(lam, p):
    """runner_charges with the charge of runner pair (1, p-1) one too high
    on a partition that is not a p-bar-core (w > 0)."""
    charges, w = runner_charges(lam, p)
    return ((charges[0] + 1,) + charges[1:], w) if w else (charges, w)


def gate_open(gamma, p):
    """core_charges that never refuses: any gamma's runner charges."""
    return runner_charges(gamma, p)[0]


def total_constant_up(dec, i):
    """_forms with the second constant of the total form one too high."""
    unmixed, mixed, (total, den) = forms(dec, i)
    return unmixed, mixed, ([total[0], total[1] + 1] + total[2:], den)


MUTANTS = {
    # the differences a - b multiplied into the p'-residue instead of inverted;
    # mod 3 and 5 every unit x has x^-1 = +-x, so the residue is off by a sign
    # at most and the congruence, which admits +-target, cannot see it
    "inverted-difference": Mutant(
        witness, "pow", lambda base, exp, mod: base % mod,
        kills={p: (make_bar_partition((2,)), p) for p in (7, 11, 13)},
        kill="congruence_ok",
        blind={3: 60, 5: 80},
    ),
    # v_p(H) without its pair differences: a label whose parts differ by a
    # multiple of p reads a valuation too high for height zero
    "difference-valuations-kept": Mutant(
        witness, "_residue_and_valuation", difference_valuations_kept,
        kills={p: (make_bar_partition((p + 1, 1)), p) for p in (3, 5, 7, 11, 13)},
        kill="both_height_zero",
        blind={},
    ),
    # distinct bar products taken for distinct degrees: every built pair has
    # equal part counts or H_a/H_b > 2, so only a hand-built pair whose
    # products differ by exactly the factor 2 of the part counts sees it;
    # (4) and (3, 1) share the block (core 1, w 1) at p = 3, both of degree 2
    "degree-shift-dropped": Mutant(
        witness, "_degrees_differ", degrees_differ_unshifted,
        kills={3: WitnessCertificate(3, make_bar_partition((1,)), 1, "hand-built",
                                     make_bar_partition((4,)), make_bar_partition((3, 1)), {})},
        kill="degrees_distinct",
        blind={3: 60, 5: 70, 7: 70, 11: 150},
    ),
    # one runner charge of a label off reaches the verifier's abacus_core
    # alone (the builder's constructions binds its own runner_charges, and a
    # core's charges are kept), so the verifier reads a core of the wrong size
    "runner-charge-off": Mutant(
        barpart, "runner_charges", first_charge_off,
        kills={p: (make_bar_partition((p + 1, 1)), p) for p in (3, 5, 7, 11, 13)},
        kill=RuntimeError,
        blind={},
    ),
    # the builder's core gate open: a non-core passes decompose_core, and the
    # builder's _certify then refuses the first label it makes; on a core the
    # gate changes nothing, so only a non-core (NonCore) sees it
    "core-gate-open": Mutant(
        constructions, "core_charges", gate_open,
        kills={p: NonCore(make_bar_partition((p,)), p) for p in (3, 5, 7)},
        kill=RuntimeError,
        blind={},
    ),
    # a closed form of the ratio walk off by one constant: its total no longer
    # equals the direct quotient at w = 1; no witness reads _forms, so every
    # built witness is blind to it
    "forms-constant-off": Mutant(
        constructions, "_forms", total_constant_up,
        kills={p: RatioWalk(make_bar_partition((1,)), 1) for p in (3, 5, 7, 11, 13)},
        kill={"grow-class-total", "add-part-total"},
        blind={3: 40, 5: 50, 7: 60, 11: 130, 13: 180},
    ),
}


def apply(monkeypatch, mutant):
    monkeypatch.setattr(mutant.module, mutant.name, mutant.replacement, raising=False)


KILLS = [(name, p) for name, mutant in MUTANTS.items() for p in mutant.kills]
BLIND = [(name, p) for name, mutant in MUTANTS.items() for p in mutant.blind]


def certify(kill_input, p):
    if isinstance(kill_input, WitnessCertificate):
        return verify_witness(kill_input)
    if isinstance(kill_input, RatioWalk):
        return verify_ratio_chain(kill_input.core, p, kill_input.max_w)
    core, w = kill_input
    return build_witness(core, p, w)


@pytest.mark.parametrize("name, p", KILLS)
def test_mutant_is_killed(monkeypatch, name, p):
    mutant = MUTANTS[name]
    kill_input = mutant.kills[p]
    if isinstance(kill_input, NonCore):
        with pytest.raises(ValueError, match="is not a %d-bar-core" % p):
            certify(kill_input, p)
        apply(monkeypatch, mutant)
        with pytest.raises(mutant.kill, match="^construction for "):  # from _certify
            certify(kill_input, p)
        return
    real = certify(kill_input, p)
    if isinstance(kill_input, RatioWalk):
        assert all(check.ok for check in real)
        apply(monkeypatch, mutant)
        assert {check.identity for check in certify(kill_input, p) if not check.ok} == mutant.kill
        return
    if not isinstance(kill_input, WitnessCertificate):
        assert real.verified  # a built witness is good unmutated
    apply(monkeypatch, mutant)
    if isinstance(mutant.kill, str):
        cert = certify(kill_input, p)
        assert real.checks[mutant.kill] is real.verified
        assert cert.checks[mutant.kill] is cert.verified
        assert cert.verified is not real.verified
    else:
        with pytest.raises(mutant.kill):
            certify(kill_input, p)


@pytest.mark.parametrize("name, p", BLIND)
def test_blind_prime_lets_every_witness_through(monkeypatch, name, p):
    mutant = MUTANTS[name]
    max_n = mutant.blind[p]
    apply(monkeypatch, mutant)
    built = 0
    for core in bar_cores_up_to(max_n, p):
        for w in range((max_n - core.n) // p + 1):
            if core.n + p * w >= 4 and witness_eligible(core, p, w):
                assert build_witness(core, p, w).verified, (core, w)
                built += 1
    assert built  # the range holds witnesses, so the blind spot is measured


def failing_check(capsys, argv):
    """cli.main on argv, which must exit 1, and its payload."""
    assert cli.main(argv) == 1
    return json.loads(capsys.readouterr().out)["payload"]


def verdicts(payload):
    """(n, verdict) of each of the check command's equal-degree notes."""
    return [(int(m.group(1)), m.group(2)) for note in payload["notes"]
            if (m := re.search(r" n=(\d+) .*: equal degrees (.*)$", note))]


def test_failing_check_builds_only_small_blocks(monkeypatch, capsys):
    apply(monkeypatch, MUTANTS["difference-valuations-kept"])
    built = []
    spin_block = blocks.spin_block

    def recording(core, p, w, group):
        built.append(core.n + p * w)
        return spin_block(core, p, w, group)

    monkeypatch.setattr(blocks, "spin_block", recording)
    payload = failing_check(capsys, ["check", "--max-n", "60", "--primes", "3"])
    assert payload["equal_degree_non_abelian"] == 0
    found = verdicts(payload)
    assert found == [(n, "no" if n <= cli.DIAGNOSE_MAX_N else "not built") for n, _ in found]
    assert {verdict for _, verdict in found} == {"no", "not built"}
    assert sorted(built) == sorted(n for n, verdict in found if verdict == "no")
    assert max(built) <= cli.DIAGNOSE_MAX_N


def test_failing_check_past_the_bound_builds_no_block(monkeypatch, capsys):
    # every non-abelian block of p = 7 has n >= 49, past the bound
    def refuse(*args):
        raise AssertionError("check built a block")

    apply(monkeypatch, MUTANTS["difference-valuations-kept"])
    monkeypatch.setattr(blocks, "spin_block", refuse)
    payload = failing_check(capsys, ["check", "--max-n", "90", "--primes", "7"])
    found = verdicts(payload)
    assert len(found) == 369 and {verdict for _, verdict in found} == {"not built"}
    assert payload["equal_degree_non_abelian"] == 0

"""Committed mutation checks for the certificate path.

Each row of MUTANTS breaks one private function by a monkeypatch and
records which primes kill it: at each killing prime p a named witness
(core, p, w) from build_witness must come back unverified, with the named
check False. A row's blind primes are written down too, each with the n up
to which every witness it builds still verifies under the mutant, so a
blind spot of the verifier is stated rather than found again. build_witness
is used rather than scan, which builds a whole block for every failing
witness before it reports.
"""

from collections import namedtuple
from itertools import combinations

import pytest

from spinblocks import witness
from spinblocks.barpart import bar_cores_up_to, make_bar_partition, valuation
from spinblocks.witness import build_witness, witness_eligible

Mutant = namedtuple("Mutant", "module name replacement kills check blind")

residue_and_valuation = witness._residue_and_valuation  # the real one, before any patch


def difference_valuations_kept(lam, p):
    """_residue_and_valuation with sum v_p(a - b) over the pairs a > b added
    back, as if the differences were never taken out of v_p(H)."""
    r, v = residue_and_valuation(lam, p)
    return r, v + sum(valuation(a - b, p) for a, b in combinations(lam.parts, 2))


MUTANTS = {
    # the differences a - b multiplied into the p'-residue instead of inverted;
    # mod 3 and 5 every unit x has x^-1 = +-x, so the residue is off by a sign
    # at most and the congruence, which admits +-target, cannot see it
    "inverted-difference": Mutant(
        witness, "pow", lambda base, exp, mod: base % mod,
        kills={p: (make_bar_partition((2,)), p) for p in (7, 11, 13)},
        check="congruence_ok",
        blind={3: 60, 5: 80},
    ),
    # v_p(H) without its pair differences: a label whose parts differ by a
    # multiple of p reads a valuation too high for height zero
    "difference-valuations-kept": Mutant(
        witness, "_residue_and_valuation", difference_valuations_kept,
        kills={p: (make_bar_partition((p + 1, 1)), p) for p in (3, 5, 7, 11, 13)},
        check="both_height_zero",
        blind={},
    ),
}


def apply(monkeypatch, mutant):
    monkeypatch.setattr(mutant.module, mutant.name, mutant.replacement, raising=False)


KILLS = [(name, p) for name, mutant in MUTANTS.items() for p in mutant.kills]
BLIND = [(name, p) for name, mutant in MUTANTS.items() for p in mutant.blind]


@pytest.mark.parametrize("name, p", KILLS)
def test_mutant_is_killed(monkeypatch, name, p):
    mutant = MUTANTS[name]
    core, w = mutant.kills[p]
    assert build_witness(core, p, w).verified  # the input is a good witness unmutated
    apply(monkeypatch, mutant)
    cert = build_witness(core, p, w)
    assert not cert.verified
    assert cert.checks[mutant.check] is False


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

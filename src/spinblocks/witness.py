"""Witness pairs: two height-zero characters of distinct degrees per block.

For every spin block of the alternating double cover with non-abelian
defect (weight w >= p), a pair of labels is taken from the one case
analysis on the residue classes of the core (constructions._witness_pair),
the pair whose bar products constructions.compare_chain compares,
and every claimed property (same block, height zero, distinct degrees, the
mod-p congruence of the p'-part of the bar product) is verified from
scratch rather than trusted.  A certificate's checks read five inputs
alone: p, core, w and the two labels.  Its n is derived (|core| + p*w),
and its case names the builder's construction without being read by any
check.  Block membership, decided once from the abacus core, gates the
height-zero and degree checks, and the congruence applies to a nonempty
core.  Each label's p'-residue and v_p(H), H the product of its bar
lengths, come from one loop over its parts and their pairs
(_residue_and_valuation), so certifying builds no bar table.  A
certificate stores no degree and proves both degree facts from small
integers: height zero is v_p(H) = sum of v_p(a!) over the parts a and of
v_p(a + b) - v_p(a - b) over the pairs a > b (Schur's formula, Legendre's
formula) against v_p((pw)!), the defect-group minimum, and distinct
degrees are the quotient of the two bar products over the parts the
labels do not share (barpart.bar_product_quotient) against the powers of
2 of the two degrees.  No degree is computed here, not even for a failed
check, whose notes give the valuations or the labels it compared; a
caller that prints degrees computes them (spinchar.spin_degree).  The
module imports no block, character or oracle module: neither building
nor verifying a certificate builds the block.  scan, the one
certification walk, certifies every block from its (core, w) alone,
walking each p-bar-core's weights once on one decomposition of the core,
and returns the failing certificates for the caller to diagnose.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .barpart import (
    BarPartition,
    _check_odd_prime,
    _check_weight,
    abacus_core,
    bar_cores_up_to,
    bar_product_quotient,
    bar_products,
    check_int,
    degree_two_power,
    factorial_valuation,
    sigma,
)
from .constructions import UNIQUE_CLASS, _witness_pair, decompose_core

CASE_UNIQUE_EVEN = "unique-class-even"
CASE_UNIQUE_ODD = "unique-class-odd"
CASE_UNIQUE_ODD_P3_LARGE = "unique-class-odd-p3-large"
CASE_UNIQUE_ODD_P3_SMALL = "unique-class-odd-p3-small"


class WitnessCertificate(NamedTuple):
    p: int
    core: BarPartition
    w: int
    case: str  # the builder's label for its construction; no check reads it
    label_a: BarPartition
    label_b: BarPartition
    checks: dict
    notes: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        """The size |core| + p*w of the block's labels."""
        return self.core.n + self.p * self.w

    @property
    def verified(self) -> bool:
        required = ("same_block", "both_height_zero", "degrees_distinct", "congruence_ok")
        return all(k in self.checks for k in required) and all(
            v is True or v is None for v in self.checks.values()
        )


DEFECT_ZERO = "defect-zero"
ABELIAN = "abelian"
NON_ABELIAN = "non-abelian"


def defect_class(p: int, w: int) -> str:
    """The defect class of a block of weight w, read off the weight alone:
    zero (w = 0), abelian (w < p), non-abelian (w >= p)."""
    if w == 0:
        return DEFECT_ZERO
    return ABELIAN if w < p else NON_ABELIAN


def witness_eligible(core: BarPartition, p: int, w: int) -> bool:
    """Whether the block (core, w) gets a witness pair: every block of
    non-abelian defect (w >= p), and the empty core at every w >= 2, where
    its pair already works."""
    return defect_class(p, w) == NON_ABELIAN or (core.m == 0 and w >= 2)


def build_witness(gamma: BarPartition, p: int, w: int) -> WitnessCertificate:
    """Construct and fully verify a witness pair for the block (gamma, p, w).

    Accepted inputs are the blocks that witness_eligible names; a gamma
    that is not a p-bar-core is refused by barpart.core_charges, through
    constructions.decompose_core (the empty core is always one).
    """
    _check_odd_prime(p)
    _check_weight(w)
    if not witness_eligible(gamma, p, w):
        raise ValueError(
            "block (core %s, w=%d) has no witness pair: only the empty core"
            " with w >= 2 is accepted below w = p" % (gamma, w)
        )
    return _build_witness(decompose_core(gamma, p), w)


def _build_witness(dec, w):
    """build_witness on a decomposed core, for a block witness_eligible names;
    the case of a unique class is refined by sigma, p and the core."""
    p, gamma = dec.p, dec.gamma
    case, label_a, label_b = _witness_pair(dec, w)
    if case == UNIQUE_CLASS:
        if sigma(label_a) == 1:
            case = CASE_UNIQUE_EVEN
        elif p > 3:
            case = CASE_UNIQUE_ODD
        elif gamma.m >= 2:  # the one occupied class i reaches e_i >= i + p
            case = CASE_UNIQUE_ODD_P3_LARGE
        else:
            case = CASE_UNIQUE_ODD_P3_SMALL
    cert = WitnessCertificate(
        p=p,
        core=gamma,
        w=w,
        case=case,
        label_a=label_a,
        label_b=label_b,
        checks={},
    )
    return verify_witness(cert)


def _residue_and_valuation(lam: BarPartition, p: int) -> tuple[int, int]:
    """(r, v): the product r of lam's bar lengths coprime to p, reduced mod p,
    and v = v_p(H(lam)), H the product of all its bar lengths, in one loop
    over the parts and their pairs.

    Part a has the unmixed lengths {1..a} less the differences a - b with
    smaller parts b, and the mixed lengths a + b (Schur's formula).  The
    product of the k <= a coprime to p is (-1)^(a // p) * (a mod p)! mod p by
    Wilson's theorem.  The differences coprime to p are multiplied into one
    product mod p, inverted once.  By Legendre's formula v is the sum of
    v_p(a!) over the parts and of v_p(a + b) - v_p(a - b) over the pairs.
    """
    r = den = 1
    v = 0
    parts = lam.parts
    for idx, a in enumerate(parts):
        q = a // p
        if q & 1:
            r = -r
        r = r * math.factorial(a % p) % p
        while q:
            v += q
            q //= p
        for b in parts[idx + 1:]:
            d = a - b
            if d % p:
                den = den * d % p
            else:
                while not d % p:
                    d //= p
                    v -= 1
            s = a + b
            if s % p:
                r = r * s % p
            else:
                while not s % p:
                    s //= p
                    v += 1
    return r * pow(den, -1, p) % p, v


def _degrees_differ(lam: BarPartition, mu: BarPartition) -> bool:
    """Whether two labels of one n differ in degree in the alternating double cover.

    The degree is 2**k n!/H with k = degree_two_power(label, "A"). So the
    degrees differ exactly when 2**k_lam H_mu != 2**k_mu H_lam,
    cross-multiplied on the quotient of the bar products over the parts the
    labels do not share.
    """
    num, den = bar_product_quotient(lam, mu)  # H_lam / H_mu
    shift = degree_two_power(lam, "A") - degree_two_power(mu, "A")  # k_lam - k_mu
    return den << max(shift, 0) != num << max(-shift, 0)


def verify_witness(cert: WitnessCertificate) -> WitnessCertificate:
    """Re-evaluate every check of a certificate from its five inputs alone:
    p, core, w, label_a and label_b; the derived n and the informational
    case are not read.

    A weight that is not an int >= 0 is refused first, as build_witness
    refuses it.  same_block, decided once, asks that the labels differ and
    that the abacus core give both the certificate's core and weight (and so
    its n).  It gates height zero and distinct degrees: two labels of one
    block have w >= 1, so n >= p >= 3 and both have a degree.  p is odd, so
    a degree 2**k n!/H is of height zero exactly when v_p(H) = v_p((pw)!);
    one loop over each label's parts and pairs (_residue_and_valuation)
    gives v_p(H) and the p'-residue, for the congruence of a nonempty core.
    Distinct degrees come from the quotient of the bar products over the
    parts the labels do not share (_degrees_differ).  No degree is computed
    and the block itself is never built.  A failed check is recorded in the
    notes with what it compared: the two v_p(H) against v_p((pw)!), the two
    labels, or the two residues against the target; nothing is ever
    silently passed.
    """
    p, gamma, w = cert.p, cert.core, cert.w
    _check_weight(w)
    label_a, label_b = cert.label_a, cert.label_b
    checks = {}
    notes = []

    core_a, w_a = abacus_core(label_a, p)
    core_b, w_b = abacus_core(label_b, p)
    same_block = label_a != label_b and (core_a, w_a) == (core_b, w_b) == (gamma, w)
    checks["same_block"] = same_block
    if not same_block:
        notes.append(
            "block membership failed: %s has core %s weight %d, %s has core %s weight %d"
            % (label_a, core_a, w_a, label_b, core_b, w_b)
        )

    res_a, val_a = _residue_and_valuation(label_a, p)
    res_b, val_b = _residue_and_valuation(label_b, p)
    val_pw = factorial_valuation(p * w, p)
    checks["both_height_zero"] = same_block and val_a == val_b == val_pw
    if not checks["both_height_zero"]:
        notes.append("height-zero check failed: v_p(H) %d and %d, v_p((pw)!) %d"
                     % (val_a, val_b, val_pw))

    checks["degrees_distinct"] = same_block and _degrees_differ(label_a, label_b)
    if not checks["degrees_distinct"]:
        notes.append("degree check failed: %s and %s" % (label_a, label_b))

    if gamma.m == 0:
        checks["congruence_ok"] = None
        notes.append("congruence check not applicable for the empty core")
    else:
        target = math.prod(bar_products(gamma)) % p
        allowed = (target, (-target) % p)
        ok = res_a in allowed and res_b in allowed
        checks["congruence_ok"] = ok
        if not ok:
            notes.append("p'-part residues %d, %d not congruent to +-%d mod %d"
                         % (res_a, res_b, target, p))

    return cert._replace(checks=checks, notes=tuple(notes))


class ScanSummary(NamedTuple):
    """What scan certified: the blocks counted by (p, defect class), the
    verified witnesses, and the certificates that failed, each also named in
    the notes.  No block is built, so whether a failing block's height-zero
    degrees all agree is the caller's question (the check command asks it of
    the small ones)."""

    max_n: int
    primes: tuple[int, ...]
    block_counts: dict  # (p, defect_class) -> count
    witnesses_verified: int
    failed: tuple[WitnessCertificate, ...]  # the unverified certificates, in walk order
    notes: tuple[str, ...]


def scan(max_n: int, primes) -> ScanSummary:
    """Certify every non-abelian block of 4..max_n for each prime and aggregate.

    Each block is one pair (p-bar-core, w) of n = |core| + p*w, so the sweep
    walks the weights of each core from bar_cores_up_to(max_n, p), skipping
    n < 4, and builds only the witnesses, decomposing a core once, at its
    first non-abelian block.  A verified witness already shows two
    height-zero degrees that differ.  No block is built: a certificate that
    fails is returned in failed and named in the notes with its own notes,
    both in walk order (core, then w), and whether that block's height-zero
    degrees are all equal is left to the caller.  An empty prime list is refused, since it certifies
    nothing, and so is a prime given twice, since it would count every block
    twice.
    """
    check_int(max_n, "max_n")
    if max_n < 4:
        raise ValueError("max_n must be >= 4, got %d" % max_n)
    primes = tuple(primes)
    if not primes:
        raise ValueError("scan needs at least one prime")
    for idx, p in enumerate(primes):
        _check_odd_prime(p)
        if p in primes[:idx]:
            raise ValueError("repeated prime %d in %s" % (p, ",".join(map(str, primes))))
    counts = {}
    witnesses = 0
    failed = []
    notes = []
    for p in primes:
        for core in bar_cores_up_to(max_n, p):
            dec, size = None, core.n
            for w in range((max_n - size) // p + 1):
                n = size + p * w
                if n < 4:
                    continue
                dc = defect_class(p, w)
                counts[(p, dc)] = counts.get((p, dc), 0) + 1
                if dc != NON_ABELIAN:
                    continue
                if dec is None:
                    dec = decompose_core(core, p)
                cert = _build_witness(dec, w)
                if cert.verified:
                    witnesses += 1
                    continue
                failed.append(cert)
                notes.append("non-abelian block p=%d n=%d core %s w=%d: witness not verified;"
                             " certificate notes: %s" % (p, n, core, w, "; ".join(cert.notes)))
        if (p, NON_ABELIAN) not in counts:
            notes.append("no non-abelian blocks for p=%d with n <= %d" % (p, max_n))
    return ScanSummary(max_n, primes, counts, witnesses, tuple(failed), tuple(notes))

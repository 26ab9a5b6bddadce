"""Witness pairs: two height-zero characters of distinct degrees per block.

For every spin block of the alternating double cover with non-abelian
defect (weight w >= p), a pair of labels is constructed by case analysis on
the residue classes of the core, and every claimed property (same block,
height zero, distinct degrees, the mod-p congruence of the p'-part of the
bar product) is verified from scratch rather than trusted.  A certificate
needs only its two labels: height zero is the defect-group minimum of the
degree valuation (blocks.height_zero_valuation), so neither building nor
verifying it builds the block.  scan certifies every block from its
(core, w) alone; check_conjecture stays block-based as the descriptive
report and the oracle for scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_core_and_weight,
    bars,
    is_bar_core,
    valuation,
)
from .blocks import (
    NON_ABELIAN,
    block_targets,
    defect_class,
    equal_degree_test,
    height_zero_valuation,
    spin_block,
    spin_blocks,
)
from .constructions import TWO_CLASSES, compare_constructions, principal_pair
from .spinchar import alt_degree

CASE_EMPTY_CORE = "empty-core"
CASE_TWO_CLASSES = "two-classes"
CASE_UNIQUE_EVEN = "unique-class-even"
CASE_UNIQUE_ODD = "unique-class-odd"
CASE_UNIQUE_ODD_P3_LARGE = "unique-class-odd-p3-large"
CASE_UNIQUE_ODD_P3_SMALL = "unique-class-odd-p3-small"


@dataclass
class WitnessCertificate:
    p: int
    core: BarPartition
    w: int
    n: int
    case: str
    label_a: BarPartition
    label_b: BarPartition
    degree_a: int  # degrees in the alternating double cover
    degree_b: int
    checks: dict
    notes: tuple[str, ...] = ()

    @property
    def verified(self) -> bool:
        required = ("same_block", "both_height_zero", "degrees_distinct", "congruence_ok")
        return all(k in self.checks for k in required) and all(
            v is True or v is None for v in self.checks.values()
        )


def build_witness(gamma: BarPartition, p: int, w: int) -> WitnessCertificate:
    """Construct and fully verify a witness pair for the block (gamma, p, w).

    Accepted inputs: any core with w >= p, or the empty core with w >= 2
    (the empty-core pair already works for every weight >= 2).
    """
    _check_odd_prime(p)
    if not is_bar_core(gamma, p):
        raise ValueError("%s is not a %d-bar-core" % (gamma, p))
    if gamma.m == 0:
        if w < 2:
            raise ValueError("empty core needs w >= 2, got %d" % w)
        label_a, label_b = principal_pair(p, w)
        case = CASE_EMPTY_CORE
    else:
        if w < p:
            raise ValueError("nonempty core needs non-abelian defect (w >= p), got w=%d" % w)
        pair = compare_constructions(gamma, p, w)
        label_a, label_b = pair.larger, pair.smaller
        if pair.case == TWO_CLASSES:
            case = CASE_TWO_CLASSES
        elif (label_a.n - label_a.m) % 2 == 0:
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
        n=gamma.n + p * w,
        case=case,
        label_a=label_a,
        label_b=label_b,
        degree_a=alt_degree(label_a),
        degree_b=alt_degree(label_b),
        checks={},
    )
    return verify_witness(cert)


def _pprime_residue(lam: BarPartition, p: int) -> int:
    """Product of the bar lengths coprime to p, reduced mod p."""
    r = 1
    for b in bars(lam).bars:
        if b.length % p:
            r = r * b.length % p
    return r


def verify_witness(cert: WitnessCertificate) -> WitnessCertificate:
    """Re-evaluate every check of a certificate from its labels alone.

    Both labels' cores and weights come from bar removal and both degrees
    from alt_degree, recomputed and compared with the stored ones.  A label
    has height zero when it lies in the block (core, w) and its degree
    valuation is the defect-group minimum v_p(n!) - v_p((pw)!); the block
    itself is never built.  A failed check is recorded with the offending
    values in the notes; nothing is ever silently passed.
    """
    p, gamma, w = cert.p, cert.core, cert.w
    checks = {}
    notes = []

    core_a, w_a = bar_core_and_weight(cert.label_a, p)
    core_b, w_b = bar_core_and_weight(cert.label_b, p)
    checks["same_block"] = (
        cert.label_a != cert.label_b
        and core_a == core_b == gamma
        and w_a == w_b == w
        and cert.label_a.n == cert.label_b.n == cert.n
    )
    if not checks["same_block"]:
        notes.append(
            "block membership failed: %s has core %s weight %d, %s has core %s weight %d"
            % (cert.label_a, core_a, w_a, cert.label_b, core_b, w_b)
        )

    # the alternating double cover needs n >= 2: a smaller label has no degree
    da, db = (alt_degree(lam) if lam.n >= 2 else None for lam in (cert.label_a, cert.label_b))
    va, vb = (None if d is None else valuation(d, p) for d in (da, db))
    low = height_zero_valuation(gamma.n + p * w, p, w)
    checks["both_height_zero"] = (
        (core_a, w_a) == (core_b, w_b) == (gamma, w) and va == vb == low
    )
    if not checks["both_height_zero"]:
        notes.append("height-zero check failed: degree valuations %s and %s,"
                     " defect-group minimum %d" % (va, vb, low))

    checks["degrees_distinct"] = (
        da != db and cert.degree_a == da and cert.degree_b == db
    )
    if not checks["degrees_distinct"]:
        notes.append("degree check failed: recomputed %s and %s, stored %d and %d"
                     % (da, db, cert.degree_a, cert.degree_b))

    if cert.case == CASE_EMPTY_CORE:
        checks["congruence_ok"] = None
        notes.append("congruence check not applicable for the empty core")
    else:
        target = bars(gamma).h_total % p
        ok = all(
            _pprime_residue(lam, p) in (target, (-target) % p)
            for lam in (cert.label_a, cert.label_b)
        )
        checks["congruence_ok"] = ok
        if not ok:
            notes.append(
                "p'-part residues %d, %d not congruent to +-%d mod %d"
                % (_pprime_residue(cert.label_a, p), _pprime_residue(cert.label_b, p),
                   target, p)
            )

    return replace(cert, checks=checks, notes=tuple(notes))


@dataclass
class BlockReport:
    p: int
    n: int
    core: BarPartition
    w: int
    defect_class: str
    equal_degree: bool
    height_zero_degrees: list[int]
    certificate: WitnessCertificate | None


def check_conjecture(n: int, p: int) -> list[BlockReport]:
    """Per-block report for the alternating double cover on n letters.

    Every non-abelian block should carry a verified witness (and hence fail
    the equal-degree test); a block that does not is reported as it is,
    never raised.  Abelian and defect-zero blocks are reported
    descriptively, with no nilpotency verdict attached.
    """
    if n < 4:
        raise ValueError("n must be >= 4, got %d" % n)
    _check_odd_prime(p)
    reports = []
    for block in spin_blocks(n, p, "A"):
        flag, degrees = equal_degree_test(block)
        cert = None
        if block.defect_class == NON_ABELIAN:
            cert = build_witness(block.core, p, block.w)
        reports.append(
            BlockReport(p, n, block.core, block.w, block.defect_class, flag, degrees, cert)
        )
    return reports


@dataclass
class ScanSummary:
    max_n: int
    primes: tuple[int, ...]
    block_counts: dict  # (p, defect_class) -> count
    witnesses_verified: int
    equal_degree_non_abelian: int  # expected 0
    notes: tuple[str, ...]


def scan(max_n: int, primes) -> ScanSummary:
    """Certify every non-abelian block of 4..max_n for each prime and aggregate.

    Blocks are listed by (core, w) in check_conjecture's order and only
    their witnesses are built.  A verified witness already shows two
    height-zero degrees that differ; only a block whose witness fails is
    built, for the equal-degree test.  Each such block is named in the notes.
    """
    if max_n < 4:
        raise ValueError("max_n must be >= 4, got %d" % max_n)
    primes = tuple(primes)
    for p in primes:
        _check_odd_prime(p)
    counts = {}
    witnesses = 0
    anomalies = 0
    notes = []
    for p in primes:
        non_abelian_seen = False
        for n in range(4, max_n + 1):
            for core, w in block_targets(n, p):
                dc = defect_class(p, w)
                counts[(p, dc)] = counts.get((p, dc), 0) + 1
                if dc != NON_ABELIAN:
                    continue
                non_abelian_seen = True
                cert = build_witness(core, p, w)
                if cert.verified:
                    witnesses += 1
                    continue
                equal, _ = equal_degree_test(spin_block(core, p, w, "A"))
                anomalies += equal
                notes.append(
                    "non-abelian block p=%d n=%d core %s w=%d: witness not verified, equal"
                    " degrees %s; certificate notes: %s"
                    % (p, n, core, w, "yes" if equal else "no", "; ".join(cert.notes))
                )
        if not non_abelian_seen:
            notes.append("no non-abelian blocks for p=%d with n <= %d" % (p, max_n))
    return ScanSummary(max_n, primes, counts, witnesses, anomalies, tuple(notes))

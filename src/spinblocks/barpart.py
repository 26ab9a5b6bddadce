"""Bar partitions (partitions into distinct parts) and their bar lengths.

All arithmetic is exact; products of bar lengths are plain Python ints.
The partition text format used across the package is "a,b,c" with strictly
decreasing positive parts, and "-" for the empty partition.

Bar lengths are read off the parts: their products by Schur's formula
(bar_products), the counts divisible by q from a residue histogram
(count_bar_lengths_divisible), and the p-abacus by runner_charges alone,
for cores (abacus_core) and block labels from p-bar quotients
(labels_with_core_and_weight). core_charges is the one gate of a
p-bar-core, and this module alone reads the sign of a charge. The
structural oracle they are checked against (the bar table kept bar by bar,
bar removal and full enumeration) lives in spinblocks.oracle. Records here
and on every certification path are named tuples, compared and ordered as
the tuple of their fields; those holding a dict (SpinBlock,
WitnessCertificate, ScanSummary) do not hash.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import NamedTuple

class _BarPartitionFields(NamedTuple):
    parts: tuple[int, ...]


class BarPartition(_BarPartitionFields):
    """A partition into strictly decreasing positive parts."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError("parts must be positive integers, got %r" % (a,))
        for a, b in zip(parts, parts[1:]):
            if a == b:
                raise ValueError("repeated part %d in %r" % (a, parts))
            if a < b:
                raise ValueError("parts must be strictly decreasing, got %r" % (parts,))
        return tuple.__new__(cls, (parts,))

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def __str__(self):
        return format_partition(self)


EMPTY = BarPartition(())


def make_bar_partition(parts) -> BarPartition:
    """Canonically order a list of parts; BarPartition validates them."""
    return BarPartition(tuple(sorted(parts, reverse=True)))


def with_part(lam: BarPartition, new: int, old: int | None = None) -> BarPartition:
    """lam with the part old removed (when given) and the part new added.

    Only new is checked: a positive int, not a bool, and none of the parts
    kept. Those are lam's, already positive and strictly decreasing, so new
    is placed by bisection and BarPartition's loops over every part are
    skipped. A missing old is refused too.
    """
    if not isinstance(new, int) or isinstance(new, bool) or new < 1:
        raise ValueError("parts must be positive integers, got %r" % (new,))
    parts = lam.parts
    if old is not None:
        try:
            k = parts.index(old)
        except ValueError:
            raise ValueError("%r is not a part of %s" % (old, lam)) from None
        parts = parts[:k] + parts[k + 1:]
    k = bisect.bisect_left(parts, -new, key=operator.neg)
    if k < len(parts) and parts[k] == new:
        raise ValueError("repeated part %d in %r" % (new, parts))
    return tuple.__new__(BarPartition, (parts[:k] + (new,) + parts[k:],))


def parse_partition(text: str) -> BarPartition:
    """Parse "a,b,c" (or "-" for the empty partition)."""
    text = text.strip()
    if text in ("-", ""):
        return EMPTY
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError("cannot parse partition %r" % text) from None
    return make_bar_partition(parts)


def format_partition(lam: BarPartition) -> str:
    if not lam.parts:
        return "-"
    return ",".join(str(a) for a in lam.parts)


def sigma(lam: BarPartition) -> int:
    """The sign (-1)**(n - m) governing associate splitting."""
    return -1 if (lam.n - lam.m) % 2 else 1


def degree_two_power(lam: BarPartition, kind: str) -> int:
    """The k of a degree 2**k n!/H of lam in the double cover of kind "S" or "A".

    floor((n - m)/2) in "S"; one less in "A" where sigma = +1 (n - m even)
    halves the "S" degree, so floor((n - m - 1)/2) there.
    """
    return (lam.n - lam.m - (kind == "A")) // 2


def bar_products(lam: BarPartition) -> tuple[int, int]:
    """(h_unmixed, h_mixed) of lam from its parts, without building bars.

    Schur's product formula: the unmixed product is prod a_i! divided by
    prod_{i<j} (a_i - a_j), the mixed product is prod_{i<j} (a_i + a_j).
    """
    num = den = h_m = 1
    for idx, a in enumerate(lam.parts):
        num *= math.factorial(a)
        for b in lam.parts[idx + 1:]:
            den *= a - b
            h_m *= a + b
    return num // den, h_m


def bar_product_quotient(lam: BarPartition, mu: BarPartition) -> tuple[int, int]:
    """(num, den) with H(lam) / H(mu) = num / den, H the product of all bar lengths.

    Schur's formula (bar_products) makes H the product of a! over the parts a
    and of (a + b) / (a - b) over the pairs a > b of parts. The factors within
    the parts lam and mu share cancel, so only the parts x of one label that
    the other lacks are read: x!, and (x + y) / |x - y| against every other
    part y of x's label, each pair counted once.
    """
    shared = set(lam.parts) & set(mu.parts)
    terms = [1, 1]
    for side, label in ((0, lam), (1, mu)):
        own = [x for x in label.parts if x not in shared]
        for idx, x in enumerate(own):
            terms[side] *= math.factorial(x)
            for y in [*shared, *own[idx + 1:]]:
                terms[side] *= x + y
                terms[1 - side] *= abs(x - y)
    return terms[0], terms[1]


def _residue_classes(lam: BarPartition, q: int) -> tuple[int, dict[int, int]]:
    """(sum of a // q, {r: n_r}) over the parts a of lam, n_r of them = r mod q."""
    quotients = 0
    classes = {}
    for a in lam.parts:
        quotients += a // q
        r = a % q
        classes[r] = classes.get(r, 0) + 1
    return quotients, classes


def _divisible_count(q: int, quotients: int, classes: dict[int, int]) -> int:
    """count_bar_lengths_divisible from the residue histogram _residue_classes(lam, q)."""
    count = quotients
    for r, n_r in classes.items():
        if 2 * r % q:
            count -= n_r * (n_r - 1) // 2
            if 2 * r < q:
                count += n_r * classes.get(q - r, 0)
    return count


def count_bar_lengths_divisible(lam: BarPartition, q: int) -> int:
    """Number of bars of lam whose length is divisible by q, in O(m) from the parts.

    Part a has a // q unmixed lengths in {1..a} divisible by q, less the
    differences a - b with smaller parts b; each pair a + b adds a mixed one.
    With n_r parts congruent to r mod q, a pair in one residue class loses a
    difference, a pair in opposite classes r, q - r gains a sum, and in a
    class with 2r = 0 mod q the two cancel:

        sum a // q + sum_{0 < r < q - r} n_r n_{q-r} - sum_{2r != 0} C(n_r, 2).
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError("q must be a positive integer, got %r" % (q,))
    return _divisible_count(q, *_residue_classes(lam, q))


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_odd_prime(p):
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime, got %r" % (p,))


def check_int(value, name):
    """Refuse a value that is not an int, a bool included, naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an integer, got %r" % (name, value))


def _check_weight(w):
    """Refuse a block weight that is not an int >= 0."""
    check_int(w, "w")
    if w < 0:
        raise ValueError("w must be nonnegative, got %d" % w)


def weight_tower(lam: BarPartition, p: int) -> tuple[tuple[int, ...], int]:
    """Counts w_k of bar lengths divisible by p**k, and their sum v.

    v equals the p-adic valuation of the product of all bar lengths. No bar
    is longer than the two largest parts together, so the powers of p above
    that length count none and are not read.
    """
    _check_odd_prime(p)
    ws = []
    q, longest = p, sum(lam.parts[:2])
    while q <= longest and (count := count_bar_lengths_divisible(lam, q)):
        ws.append(count)
        q *= p
    return tuple(ws), sum(ws)


def factorial_valuation(k: int, p: int) -> int:
    """v_p(k!) for an int k >= 0 and an odd prime p, by Legendre's formula:
    the sum of k // p**i, i >= 1."""
    _check_odd_prime(p)
    check_int(k, "k")
    if k < 0:
        raise ValueError("k! needs k >= 0, got %d" % k)
    total = 0
    while k:
        k //= p
        total += k
    return total


def valuation(x: int, p: int) -> int:
    """Largest k with p**k dividing x (x a nonzero int, base p an int >= 2)."""
    check_int(x, "x")
    check_int(p, "valuation base")
    if p < 2:
        raise ValueError("valuation base must be >= 2, got %r" % (p,))
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _gen_partitions(n: int, maxpart: int, distinct: bool):
    """Partitions of n with parts <= maxpart, distinct parts if asked, in
    decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for a in range(min(n, maxpart), 0, -1):
        for rest in _gen_partitions(n - a, a - 1 if distinct else a, distinct):
            yield (a,) + rest


def _runner_pair_parts(mu: tuple[int, ...], charge: int, j: int, p: int) -> list[int]:
    """Parts on runners j and p-j whose Maya diagram is mu at the given charge.

    The beads of mu sit at mu_i - i + charge (i >= 1).  A bead at x >= 0 is
    the part j + x*p; a gap at x < 0 is the part (p-j) + (-x-1)*p.
    """
    depth = len(mu) + abs(charge) + 1
    beads = {(mu[i] if i < len(mu) else 0) - i - 1 + charge for i in range(depth)}
    top = max(beads)
    parts = [j + x * p for x in range(top + 1) if x in beads]
    parts.extend(p - j + (-x - 1) * p for x in range(charge - depth, 0) if x not in beads)
    return parts


def _core_run(charge: int, j: int, p: int) -> range:
    """Parts on runners j and p-j of the empty quotient at the given charge.

    The arithmetic run j, j+p, ..., j+(c-1)p for c > 0, and p-j+(|c|-1)p,
    ..., p-j (decreasing, as _runner_pair_parts lists it) for c < 0.
    """
    if charge >= 0:
        return range(j, j + charge * p, p)
    return range(p - j - (charge + 1) * p, 0, -p)


def runner_charges(lam: BarPartition, p: int) -> tuple[tuple[int, ...], int]:
    """(charges, w) of lam from one residue histogram of its parts: the runner
    charges c_j - c_{p-j}, j = 1..(p-1)/2, c_j counting the parts = j mod p,
    and the number w of bar lengths divisible by p."""
    _check_odd_prime(p)
    quotients, classes = _residue_classes(lam, p)
    charges = [0] * (p // 2)
    for r, n_r in classes.items():
        if 2 * r > p:
            charges[p - r - 1] -= n_r
        elif r:
            charges[r - 1] += n_r
    return tuple(charges), _divisible_count(p, quotients, classes)


def core_charges(gamma: BarPartition, p: int) -> tuple[int, ...]:
    """The runner charges of gamma from one runner_charges pass, which checks
    p; a bar length divisible by p refuses gamma as no p-bar-core. On a core,
    c > 0 on pair j is c parts in class j, and c < 0 is |c| in class p - j.
    """
    charges, w = runner_charges(gamma, p)
    if w:
        raise ValueError("%s is not a %d-bar-core" % (gamma, p))
    return charges


def abacus_core(lam: BarPartition, p: int) -> tuple[BarPartition, int]:
    """(core, w) of lam from its residue-class abacus, without removing a bar.

    Removing a p-bar never changes the runner-pair charges c_j - c_{p-j}
    (Olsson 1993), and a p-bar-core is the empty partition at those charges
    on every runner pair, so the core is one arithmetic run per runner pair
    (_core_run), read off the charges in O(m). Each run is distinct positive
    parts of one residue, j or p - j mod p, so the runs' parts, sorted, are
    a strict partition, built without BarPartition's loops over every part,
    as with_part builds one.
    Agreement of w with the count of bar lengths divisible by p and with
    |lam| = |core| + p*w is asserted, as in oracle.bar_core_and_weight; the charges
    and that count come from runner_charges.
    """
    charges, target_w = runner_charges(lam, p)
    parts = []
    for j, charge in enumerate(charges, start=1):
        parts.extend(_core_run(charge, j, p))
    parts.sort(reverse=True)
    core = tuple.__new__(BarPartition, (tuple(parts),))
    w, rest = divmod(lam.n - core.n, p)
    if rest:
        raise RuntimeError("size mismatch: |%s| - |%s| is not a multiple of %d" % (lam, core, p))
    if w != target_w:
        raise RuntimeError(
            "abacus core %s of %s has weight %d but %d bar lengths are divisible by %d"
            % (core, lam, w, target_w, p)
        )
    return core, w


def _quotients(w: int, runners: int):
    """(mu0, mu1, ..., mu_runners): mu0 strict, the rest ordinary, of total size w."""
    if runners == 0:
        for mu0 in _gen_partitions(w, w, True):
            yield (mu0,)
        return
    for k in range(w + 1):
        for mu in _gen_partitions(k, k, False):
            for rest in _quotients(w - k, runners - 1):
                yield rest + (mu,)


def labels_with_core_and_weight(gamma: BarPartition, p: int, w: int) -> list[BarPartition]:
    """All bar partitions of |gamma| + p*w whose p-bar-core is gamma.

    The labels are generated from their p-bar quotients (Morris-Yaseen):
    runner 0 carries a strict partition mu0 (parts p*k, k in mu0) and each
    runner pair (j, p-j) an ordinary partition on a Maya diagram whose
    charge is the core's.  Output is in decreasing lexicographic order.
    """
    charges = core_charges(gamma, p)
    _check_weight(w)
    out = []
    for quotient in _quotients(w, len(charges)):
        parts = [p * k for k in quotient[0]]
        for j, (mu, charge) in enumerate(zip(quotient[1:], charges), start=1):
            parts.extend(_runner_pair_parts(mu, charge, j, p))
        out.append(make_bar_partition(parts))
    out.sort(reverse=True)
    return out


def bar_cores_up_to(max_size: int, p: int) -> list[BarPartition]:
    """All p-bar-cores of size <= max_size, by size, then decreasing lexicographic.

    A p-bar-core has nothing on runner 0 and, on each runner pair (j, p-j),
    the empty partition at some signed bead count c, the run _core_run(c, j,
    p). A nonzero charge on pair j puts a part >= j in the run, so the pairs
    j > max_size hold charge 0 and are not walked.
    """
    _check_odd_prime(p)
    check_int(max_size, "max_size")
    cores = [()] if max_size >= 0 else []
    for j in range(1, min((p + 1) // 2, max_size + 1)):
        grown = []
        for parts in cores:
            grown.append(parts)
            for step in (1, -1):
                charge = step
                run = _core_run(charge, j, p)
                while sum(parts) + sum(run) <= max_size:
                    grown.append(parts + tuple(run))
                    charge += step
                    run = _core_run(charge, j, p)
        cores = grown
    out = sorted(map(make_bar_partition, cores), reverse=True)
    return sorted(out, key=lambda lam: lam.n)

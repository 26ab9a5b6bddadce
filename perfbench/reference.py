"""Reference combinatorics for checking spinblocks output.

Independent of the package under test: it imports nothing from
spinblocks and uses different algorithms from the library's hot paths.

* H(lam), the product of all bar lengths, by Schur's product formula
  prod a_i! * prod_{i<j} (a_i + a_j) / (a_i - a_j).
* p-bar-cores by the residue-class abacus (Olsson 1993): drop the parts
  divisible by p, slide every runner down to its lowest slots, and cancel
  min(c_j, c_{p-j}) beads between opposite runners.
* p-bar-cores enumerated directly from residue-class choices.
* q(n), the number of partitions into distinct parts, by a recurrence.
* Spin degrees 2**floor((n-m)/2) * n! / H(lam) with the splitting rule of
  the alternating double cover.

Partitions are plain tuples of strictly decreasing positive ints.
"""

from __future__ import annotations

import math
from functools import lru_cache


def distinct_partitions(n, maxpart=None):
    """All partitions of n into distinct parts, as decreasing tuples."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    out = []
    for a in range(min(n, maxpart), 0, -1):
        if a * (a + 1) // 2 < n:
            break
        out.extend((a,) + rest for rest in distinct_partitions(n - a, a - 1))
    return out


@lru_cache(maxsize=None)
def q(n):
    """Number of partitions of n into distinct parts (0/1 knapsack over parts)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(n, part - 1, -1):
            counts[total] += counts[total - part]
    return counts[n]


def schur_h(lam):
    """Product of all bar lengths of lam by Schur's product formula."""
    num = 1
    den = 1
    for i, a in enumerate(lam):
        num *= math.factorial(a)
        for b in lam[i + 1:]:
            num *= a + b
            den *= a - b
    h, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Schur's formula did not divide exactly for %r" % (lam,))
    return h


def bar_lengths(lam):
    """Bar lengths of lam read off the factors of Schur's product formula.

    Part a contributes {1..a} minus {a - b : b a smaller part}, and the
    mixed lengths a + b for every smaller part b.
    """
    out = []
    for i, a in enumerate(lam):
        gaps = {a - b for b in lam[i + 1:]}
        out.extend(k for k in range(1, a + 1) if k not in gaps)
        out.extend(a + b for b in lam[i + 1:])
    return out


def abacus_core(lam, p):
    """(core, weight) of lam for the odd prime p by the residue-class abacus."""
    beads = [0] * p
    for a in lam:
        if a % p:
            beads[a % p] += 1
    for j in range(1, (p + 1) // 2):
        k = min(beads[j], beads[p - j])
        beads[j] -= k
        beads[p - j] -= k
    core = tuple(sorted((j + t * p for j in range(1, p) for t in range(beads[j])), reverse=True))
    w, rem = divmod(sum(lam) - sum(core), p)
    if rem:
        raise ArithmeticError("abacus core of %r at p=%d has the wrong size" % (lam, p))
    return core, w


def cores_up_to(size, p):
    """All p-bar-cores of size at most `size`, from residue-class choices.

    For each opposite pair {j, p-j} a core occupies at most one runner, with
    a gapless run {r, r+p, ..., r+(k-1)p}; the run contributes k*r + p*k(k-1)/2.
    """
    runs_per_pair = []
    for j in range(1, (p + 1) // 2):
        options = [()]
        for r in (j, p - j):
            k = 1
            while k * r + p * k * (k - 1) // 2 <= size:
                options.append(tuple(r + t * p for t in range(k)))
                k += 1
        runs_per_pair.append(options)
    cores = [()]
    for options in runs_per_pair:
        cores = [c + run for c in cores for run in options if sum(c) + sum(run) <= size]
    return sorted((tuple(sorted(c, reverse=True)) for c in cores), key=lambda c: (sum(c), c))


def occupied_classes(core, p):
    return sorted({a % p for a in core})


def sym_degree(lam):
    """Degree of the spin character of the symmetric double cover for lam."""
    n, m = sum(lam), len(lam)
    d, rem = divmod((1 << ((n - m) // 2)) * math.factorial(n), schur_h(lam))
    if rem:
        raise ArithmeticError("degree of %r is not an integer" % (lam,))
    return d


def alt_characters(lam):
    """(number of characters, common degree) of lam in the alternating double cover.

    sigma = +1 (n - m even): two characters of half the symmetric degree;
    sigma = -1: one character of the full degree.
    """
    n, m = sum(lam), len(lam)
    d = sym_degree(lam)
    if (n - m) % 2 == 0:
        return 2, d // 2
    return 1, d


def valuation(x, p):
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def pprime_residue(lam, p):
    """Product of the bar lengths of lam coprime to p, reduced mod p."""
    r = 1
    for length in bar_lengths(lam):
        if length % p:
            r = r * length % p
    return r


def grow_class_label(core, p, i, w):
    """The core with the top part of residue class i raised by p*w."""
    top = max(a for a in core if a % p == i)
    return tuple(sorted((a + p * w if a == top else a for a in core), reverse=True))


def add_part_label(core, p, w):
    return tuple(sorted(core + (p * w,), reverse=True))


def self_test():
    """Hand values fixed by the package's acceptance suite."""
    checks = {
        "H(6) = 720": schur_h((6,)) == 720,
        "H(5,1) = 180": schur_h((5, 1)) == 180,
        "H(9) = 362880": schur_h((9,)) == 362880,
        "H(8,1) = 51840": schur_h((8, 1)) == 51840,
        "n=9 alternating degrees": sorted(alt_characters(lam)[1] for lam in distinct_partitions(9))
        == [8, 48, 56, 112, 120, 160, 168, 224],
        "n=9 has one 3-block, empty core": {abacus_core(lam, 3) for lam in distinct_partitions(9)}
        == {((), 3)},
        "q(n) matches enumeration": all(q(n) == len(distinct_partitions(n)) for n in range(31)),
        "Schur H matches bar lengths": all(
            schur_h(lam) == math.prod(bar_lengths(lam))
            for n in range(13) for lam in distinct_partitions(n)
        ),
        "cores match abacus": all(
            sorted(cores_up_to(14, p)) == sorted(
                lam for n in range(15) for lam in distinct_partitions(n)
                if abacus_core(lam, p) == (lam, 0)
            )
            for p in (3, 5, 7)
        ),
    }
    return [name for name, ok in checks.items() if not ok]


if __name__ == "__main__":
    failed = self_test()
    print("reference self-test:", "ok" if not failed else "FAILED: %s" % failed)
    raise SystemExit(1 if failed else 0)

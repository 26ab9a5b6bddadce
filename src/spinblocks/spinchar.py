"""Spin character labels: the group check, exact degrees and character counts.

Characters are modelled as labels plus degrees only: a label gives one or
two characters of one degree (character_count).  The double cover of the
symmetric group on n letters is named by the kind "S", the double cover of
the alternating group by "A", and check_group refuses any other kind or n.
Both degrees come from one formula, spin_degree, 2**k n!/H with H the
product of the bar lengths; only k depends on the cover, and
barpart.degree_two_power owns that rule.
"""

from __future__ import annotations

import math

from .barpart import BarPartition, bar_products, check_int, degree_two_power, sigma


def check_group(kind: str, n: int) -> None:
    """Refuse a double cover that is not of kind "S" on n >= 1 or "A" on n >= 2 letters.

    n goes through barpart.check_int (an int >= 1); n >= 2 in "A" is the
    cover's own rule, and its message names the cover."""
    if kind not in ("S", "A"):
        raise ValueError("group kind must be 'S' or 'A', got %r" % (kind,))
    check_int(n, "n", 1)
    if kind == "A" and n < 2:
        raise ValueError("the alternating double cover needs n >= 2, got %d" % n)


def character_count(lam: BarPartition, kind: str) -> int:
    """How many spin characters the label lam gives the double cover of kind "S" or "A".

    "S": one if sigma = +1, an associate pair if sigma = -1.  "A": two if
    sigma = +1, one if sigma = -1.  The characters of one label share its
    degree.  The kind and n are checked as in spin_degree.
    """
    check_group(kind, lam.n)
    return 2 if (sigma(lam) == 1) == (kind == "A") else 1


def spin_degree(lam: BarPartition, kind: str) -> int:
    """Degree of a spin character labelled by lam of the double cover of kind "S" or "A".

    2**k n! divided by the product of all bar lengths, k =
    degree_two_power(lam, kind): in "A" half the "S" degree if sigma = +1,
    the full "S" degree if sigma = -1.  The bar lengths are taken from the
    parts by Schur's formula (bar_products).  check_group refuses the kind
    and n; the division is asserted exact, which in "A" with sigma = +1 is
    the "S" degree being even.
    """
    check_group(kind, lam.n)
    num = math.factorial(lam.n) << degree_two_power(lam, kind)
    deg, rem = divmod(num, math.prod(bar_products(lam)))
    if rem:
        raise RuntimeError("degree formula did not divide exactly for %s" % (lam,))
    return deg

"""Spin character labels: the group tag, exact degrees and character counts.

Characters are modelled as labels plus degrees only: a label gives one or
two characters of one degree (character_count).  The double cover of the
symmetric group on n letters is tagged "S", the double cover of the
alternating group "A".  Both degrees come from one formula, 2**k n!/H with
H the product of the bar lengths; only k depends on the cover, and
barpart.degree_two_power owns that rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .barpart import BarPartition, bar_products, check_int, degree_two_power, sigma


class _GroupTagFields(NamedTuple):
    kind: str  # "S" or "A"
    n: int


class GroupTag(_GroupTagFields):
    """The double cover of kind "S" or "A" on n >= 1 letters (n >= 2 for "A")."""

    __slots__ = ()

    def __new__(cls, kind, n):
        if kind not in ("S", "A"):
            raise ValueError("group kind must be 'S' or 'A', got %r" % (kind,))
        check_int(n, "n")
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        if kind == "A" and n < 2:
            raise ValueError("the alternating double cover needs n >= 2, got %d" % n)
        return tuple.__new__(cls, (kind, n))

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)

    def __str__(self):
        return "2.%s_%d" % (self.kind, self.n)


def character_count(lam: BarPartition, kind: str) -> int:
    """How many spin characters the label lam gives the double cover of kind "S" or "A".

    "S": one if sigma = +1, an associate pair if sigma = -1.  "A": two if
    sigma = +1, one if sigma = -1.  The characters of one label share its degree.
    """
    return 2 if (sigma(lam) == 1) == (kind == "A") else 1


def _degree(lam: BarPartition, kind: str) -> int:
    """2**k n! divided by the product of all bar lengths, k = degree_two_power(lam, kind).

    The bar lengths are taken from the parts by Schur's formula
    (bar_products). GroupTag's rules refuse the kind and n; the division is
    asserted exact, which in "A" with sigma = +1 is the "S" degree being even.
    """
    GroupTag(kind, lam.n)
    num = math.factorial(lam.n) << degree_two_power(lam, kind)
    deg, rem = divmod(num, math.prod(bar_products(lam)))
    if rem:
        raise RuntimeError("degree formula did not divide exactly for %s" % (lam,))
    return deg


def spin_degree_sym(lam: BarPartition) -> int:
    """Degree of a spin character of the "S" double cover labelled by lam (n >= 1)."""
    return _degree(lam, "S")


def alt_degree(lam: BarPartition) -> int:
    """Degree of a spin character of the "A" double cover labelled by lam (n >= 2).

    Half the "S" degree if sigma = +1, the full "S" degree if sigma = -1.
    """
    return _degree(lam, "A")

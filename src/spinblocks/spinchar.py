"""Spin character labels, signs, exact degrees and the restriction rules.

Characters are modelled as labels plus degrees only.  The double cover of
the symmetric group on n letters is tagged "S", the double cover of the
alternating group "A"; degrees for the "A" group always come from the "S"
degree via the splitting rules, never from an independent formula.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .barpart import BarPartition, bar_products, check_int, sigma


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


def sym(n: int) -> GroupTag:
    return GroupTag("S", n)


def alt(n: int) -> GroupTag:
    return GroupTag("A", n)


def as_group(group, n: int) -> GroupTag:
    """Accept a GroupTag or a bare "S"/"A" kind for degree-n groups."""
    if isinstance(group, GroupTag):
        if group.n != n:
            raise ValueError("group %s does not act on %d letters" % (group, n))
        return group
    return GroupTag(group, n)


class SpinCharacter(NamedTuple):
    label: BarPartition
    group: GroupTag
    associate_index: int  # 0, or 1 for the second member of an associate pair
    degree: int
    sigma: int


def spin_degree_sym(lam: BarPartition) -> int:
    """Degree of a spin character of the "S" double cover labelled by lam.

    Equals 2**floor((n-m)/2) * n! divided by the product of all bar
    lengths, taken from the parts by Schur's formula (bar_products); the
    division is asserted exact.
    """
    sym(lam.n)  # the group's rule refuses n < 1
    num = (1 << ((lam.n - lam.m) // 2)) * math.factorial(lam.n)
    deg, rem = divmod(num, math.prod(bar_products(lam)))
    if rem:
        raise RuntimeError("degree formula did not divide exactly for %s" % (lam,))
    return deg


def alt_degree(lam: BarPartition) -> int:
    """Degree of a spin character of the "A" double cover labelled by lam.

    Half the "S" degree if sigma = +1, the full "S" degree if sigma = -1.
    """
    alt(lam.n)  # the group's rule refuses n < 2
    d = spin_degree_sym(lam)
    if sigma(lam) == 1:
        if d % 2:
            raise RuntimeError("odd degree %d with sigma = +1 for %s" % (d, lam))
        return d // 2
    return d


def characters_of_label(lam: BarPartition, group) -> list[SpinCharacter]:
    """The spin characters a label contributes to the given group.

    "S": one character if sigma = +1, an associate pair of equal degree if
    sigma = -1.  "A": two characters of half the "S" degree if sigma = +1,
    one of the full degree if sigma = -1.
    """
    group = as_group(group, lam.n)
    s = sigma(lam)
    if group.kind == "S":
        d, count = spin_degree_sym(lam), 1 if s == 1 else 2
    else:
        d, count = alt_degree(lam), 2 if s == 1 else 1
    return [SpinCharacter(lam, group, k, d, s) for k in range(count)]

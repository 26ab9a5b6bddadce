"""Constructions on bar cores and exact closed forms for bar-length ratios.

Given a p-bar-core gamma, two families of labels with core gamma and
prescribed weight w are built:

* add_part_pw: adjoin the new part p*w (works for the empty core too);
* grow_class: replace the top part e_i of the residue class i by e_i + p*w.

Every built label, and both labels (pw), (pw-1, 1) of the empty core's
witness pair, is certified by barpart.runner_charges (_certify): the same
charges as gamma, |gamma| + p*w boxes, w bar lengths divisible by p and the
expected number of parts, or a RuntimeError. A p-bar-core is determined by
its runner charges (Olsson 1993), so these checks say exactly what
barpart.abacus_core(lam, p) == (gamma, w) says, without building, sorting
and validating a core per label.

For each family the ratio of bar-length products between consecutive
weights has an exact closed form, split into its unmixed and mixed factors.
Privately each is an unreduced (numerator, denominator) pair of integer
products with a positive denominator; the public ratio functions return it
reduced, as a Fraction. Every closed form here is checked (in tests and via
verify_ratio_chain) against the direct quotient of the two labels' bar
products, taken from their parts by Schur's formula (barpart.bar_products),
by cross-multiplying the two pairs: no Fraction, and so no gcd, is built
unless a check fails and its values are read.

Each public construction and ratio function checks its inputs, decomposes
its core and calls a private function of the CoreDecomposition. The two
walks decompose a core once and go up its weights w = 1, 2, ...:
verify_ratio_chain walks each weight chain once, so every label is built,
certified and given its bar products once, and those products are the w-1
side of the next step; compare_chain compares the core's witness pair at
every w. _witness_pair alone picks the witness pair of a block (gamma, w),
for the empty core too; compare_chain (the thm35 and prop36 checks of the
CLI) and witness._build_witness read it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .barpart import (
    BarPartition,
    bar_products,
    is_bar_core,
    make_bar_partition,
    runner_charges,
)


class CoreDecomposition(NamedTuple):
    """Residue-class data of a p-bar-core.

    e[j] = j + (c_j - 1)*p is the top value that class j, holding the c_j
    parts congruent to j mod p, reaches (j - p when it is empty); nonempty
    lists the occupied classes in increasing order, top_order by decreasing
    top value; charges are the runner charges c_j - c_{p-j}, j = 1..(p-1)/2,
    that determine gamma (barpart.runner_charges).
    """

    p: int
    gamma: BarPartition
    e: tuple[int, ...]
    nonempty: tuple[int, ...]
    top_order: tuple[int, ...]
    charges: tuple[int, ...]


def decompose_core(gamma: BarPartition, p: int) -> CoreDecomposition:
    """Split a p-bar-core into residue classes; refuses a non-core.

    Whether gamma is a p-bar-core is decided by barpart.is_bar_core alone.
    A core has no part divisible by p, no two opposite residue classes both
    occupied, and every occupied class j is the gapless run {j, j+p, ...,
    e_j}, so its runner charges are all the data there is: a charge c on
    pair j means |c| parts in class j if c > 0, and in class p - j if c < 0.
    """
    if not is_bar_core(gamma, p):
        raise ValueError("%s is not a %d-bar-core" % (gamma, p))
    charges = runner_charges(gamma, p)[0]
    sizes = [0] * p
    for j, charge in enumerate(charges, start=1):
        sizes[j if charge > 0 else p - j] = abs(charge)
    e = tuple(j + (size - 1) * p for j, size in enumerate(sizes))
    nonempty = tuple(j for j in range(p) if sizes[j])
    top_order = tuple(sorted(nonempty, key=e.__getitem__, reverse=True))
    return CoreDecomposition(p, gamma, e, nonempty, top_order, charges)


def _certify(lam, dec, w, expected_m):
    """Check that lam has p-bar-core dec.gamma, weight w and expected_m parts.

    Removing a p-bar keeps the runner charges, and a p-bar-core is
    determined by its charges (Olsson 1993), so lam has core gamma exactly
    when its charges are dec.charges. Its weight is then (|lam| - |gamma|)/p,
    which must be w, as must the count of its bar lengths divisible by p.
    These are the checks of barpart.abacus_core(lam, p) == (gamma, w), with
    no core rebuilt: the charges and the count come from
    barpart.runner_charges.
    """
    gamma, p = dec.gamma, dec.p
    if (lam.m != expected_m or lam.n != gamma.n + p * w
            or runner_charges(lam, p) != (dec.charges, w)):
        raise RuntimeError("construction for %s, p=%d, w=%d produced %s" % (gamma, p, w, lam))
    return lam


def _check_w(w):
    if w < 1:
        raise ValueError("w must be >= 1, got %d" % w)


def _check_class(dec, i):
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError("i must be an integer, got %r" % (i,))
    if i not in dec.nonempty:
        raise ValueError("class %d of %s is empty" % (i, dec.gamma))


def _check_nonempty(gamma):
    if gamma.m == 0:
        raise ValueError("the core must be nonempty")


def add_part_pw(gamma: BarPartition, p: int, w: int) -> BarPartition:
    """Adjoin the part p*w to the core gamma (core gamma, weight w)."""
    _check_w(w)
    return _add_part_pw(decompose_core(gamma, p), w)


def _add_part_pw(dec, w):
    gamma = dec.gamma
    return _certify(make_bar_partition(gamma.parts + (dec.p * w,)), dec, w, gamma.m + 1)


def grow_class(gamma: BarPartition, p: int, i: int, w: int) -> BarPartition:
    """Replace the top part e_i of class i by e_i + p*w (core gamma, weight w)."""
    _check_w(w)
    dec = decompose_core(gamma, p)
    _check_class(dec, i)
    return _grow_class(dec, i, w)


def _grow_class(dec, i, w):
    gamma, p, ei = dec.gamma, dec.p, dec.e[i]
    parts = tuple(ei + p * w if a == ei else a for a in gamma.parts)
    return _certify(make_bar_partition(parts), dec, w, gamma.m)


EMPTY_CORE = "empty-core"
TWO_CLASSES = "two-classes"
UNIQUE_CLASS = "unique-class"


def _witness_pair(dec, w):
    """(case, larger, smaller) for the block (dec.gamma, w): (pw), (pw-1, 1) for the
    empty core (Prop. 3.6), else the labels grown from the two classes of largest
    top value, or grown and added-part for a unique class (Thm. 3.5)."""
    order = dec.top_order
    if not order:
        pw = dec.p * w
        return (EMPTY_CORE, _certify(BarPartition((pw,)), dec, w, 1),
                _certify(BarPartition((pw - 1, 1)), dec, w, 2))
    if len(order) >= 2:
        return TWO_CLASSES, _grow_class(dec, order[0], w), _grow_class(dec, order[1], w)
    return UNIQUE_CLASS, _grow_class(dec, order[0], w), _add_part_pw(dec, w)


def grow_class_ratio_parts(gamma, p, i, w) -> tuple[Fraction, Fraction]:
    """Closed forms for the unmixed and mixed ratio of the grow_class step.

    Unmixed: p*w times the product over j != i of |p(w-1) + e_i - e_j|.
    Mixed: product over occupied j != i of (e_i + e_j + pw)/(e_i + p(w-1) + j),
    times (2e_i + p(w-1))/(e_i + p(w-1) + i) for the pairs between the moved
    part and the rest of its own class (that factor is 1 when the class is a
    singleton, i.e. e_i = i).
    """
    dec = decompose_core(gamma, p)
    _check_class(dec, i)
    _check_w(w)
    return tuple(Fraction(*pair) for pair in _grow_class_ratio_parts(dec, i, w))


def _grow_class_ratio_parts(dec, i, w):
    p, ei, e = dec.p, dec.e[i], dec.e
    unmixed = p * w * math.prod(abs(p * (w - 1) + ei - e[j]) for j in range(p) if j != i)
    others = [j for j in dec.nonempty if j != i]
    mixed = ((2 * ei + p * (w - 1)) * math.prod(ei + e[j] + p * w for j in others),
             (ei + p * (w - 1) + i) * math.prod(ei + p * (w - 1) + j for j in others))
    return (unmixed, 1), mixed


def grow_class_ratio(gamma, p, i, w) -> Fraction:
    """Total ratio of the grow_class step as a single product.

    Equals pw(p(w-1)+2e_i) times, over occupied j != i,
    |p(w-1)+e_i-e_j| (pw+e_i+e_j), times, over residues k with classes k
    and p-k both empty, (pw + e_i - k).  The leading factor carries the
    intra-class mixed pairs and reduces to p(w-1)+e_i+i for a singleton
    class.
    """
    dec = decompose_core(gamma, p)
    _check_class(dec, i)
    _check_w(w)
    return Fraction(*_grow_class_ratio(dec, i, w))


def _grow_class_ratio(dec, i, w):
    p, ei, e, occupied = dec.p, dec.e[i], dec.e, dec.nonempty
    total = (p * w * (p * (w - 1) + 2 * ei)
             * math.prod(abs(p * (w - 1) + ei - e[j]) * (p * w + ei + e[j])
                         for j in occupied if j != i)
             * math.prod(abs(p * w + ei - k) for k in range(p)
                         if k not in occupied and p - k not in occupied))
    return total, 1


def add_part_ratio_parts(gamma, p, w) -> tuple[Fraction, Fraction]:
    """Closed forms for the unmixed and mixed ratio of the add_part_pw step.

    The w = 1 step leaves the core itself as denominator and is a
    structurally different formula, hence the explicit branch.
    """
    dec = decompose_core(gamma, p)
    _check_nonempty(gamma)
    _check_w(w)
    return tuple(Fraction(*pair) for pair in _add_part_ratio_parts(dec, w))


def _add_part_ratio_parts(dec, w):
    parts, p, e = dec.gamma.parts, dec.p, dec.e
    if w > 1:
        unmixed = p * w * math.prod(abs(p * (w - 1) - e[j]) for j in range(1, p))
        mixed = (math.prod(e[j] + p * w for j in dec.nonempty),
                 math.prod(p * (w - 1) + j for j in dec.nonempty))
        return (unmixed, 1), mixed
    unmixed = (p * math.prod(abs(e[j]) for j in range(1, p)), math.prod(parts))
    return unmixed, (math.prod(a + p for a in parts), 1)


def add_part_ratio(gamma, p, w) -> Fraction:
    """Total ratio of the add_part_pw step as a single product."""
    dec = decompose_core(gamma, p)
    _check_nonempty(gamma)
    _check_w(w)
    return Fraction(*_add_part_ratio(dec, w))


def _add_part_ratio(dec, w):
    parts, p, e = dec.gamma.parts, dec.p, dec.e
    if w > 1:
        # empty classes contribute a factor 1 to the quotient
        return (p * w * math.prod(abs(p * (w - 1) - e[j]) * (p * w + e[j]) for j in range(1, p)),
                math.prod(p * (w - 1) + j for j in range(1, p)))
    return (p * math.prod(abs(e[j]) for j in range(1, p)) * math.prod(a + p for a in parts),
            math.prod(parts))


class RatioCheck(NamedTuple):
    """One closed form of a step against its direct quotient of bar products.

    Both sides are unreduced (numerator, denominator) pairs of integers with
    positive denominators, so ok is the cross-multiplication a*d == b*c.
    closed_form and direct are the reduced Fractions, built only when read.
    """

    identity: str
    residue: int | None  # class index for grow_class chains, None for add_part
    w: int
    closed_pair: tuple[int, int]
    direct_pair: tuple[int, int]

    @property
    def ok(self) -> bool:
        (a, b), (c, d) = self.closed_pair, self.direct_pair
        return a * d == b * c

    @property
    def closed_form(self) -> Fraction:
        return Fraction(*self.closed_pair)

    @property
    def direct(self) -> Fraction:
        return Fraction(*self.direct_pair)


def verify_ratio_chain(gamma: BarPartition, p: int, max_w: int) -> list[RatioCheck]:
    """The RatioChecks of the core at w = 1..max_w, in order of w; [] for the
    empty core, which has neither an occupied class nor an add-part form.

    At each w every applicable closed form of the step w-1 -> w is compared
    with the direct quotient of the bar products (Schur's formula on the
    parts) of the constructed labels at weights w and w-1; equality is
    exact, by cross-multiplying integer pairs (RatioCheck). One walk up each
    weight chain of the core: every label is built, certified and given its
    bar products once, and those products serve both steps it belongs to.
    The w-1 side of the step to w = 1 is the core itself.
    """
    dec = decompose_core(gamma, p)
    # (identity, residue, label, closed-form part pairs, total pair), each a function of w
    chains = [("grow-class", i, partial(_grow_class, dec, i),
               partial(_grow_class_ratio_parts, dec, i), partial(_grow_class_ratio, dec, i))
              for i in dec.nonempty]
    if gamma.m:
        chains.append(("add-part", None, partial(_add_part_pw, dec),
                       partial(_add_part_ratio_parts, dec), partial(_add_part_ratio, dec)))
    prev = [bar_products(gamma)] * len(chains)
    checks = []
    for w in range(1, max_w + 1):
        for k, (identity, residue, label, parts, total) in enumerate(chains):
            cur = bar_products(label(w))
            (ua, ma), (ub, mb) = cur, prev[k]
            prev[k] = cur
            cu, cm = parts(w)
            checks += (RatioCheck(identity + "-unmixed", residue, w, cu, (ua, ub)),
                       RatioCheck(identity + "-mixed", residue, w, cm, (ma, mb)),
                       RatioCheck(identity + "-total", residue, w, total(w), (ua * ma, ub * mb)))
    return checks


class ComparisonResult(NamedTuple):
    """Outcome of the bar-product comparison of a block's witness pair.

    Thm. 3.5 claims h_larger > h_smaller for a nonempty core; Prop. 3.6
    claims the factor-2 gap h_larger > 2*h_smaller for the empty core.
    """

    case: str
    gamma: BarPartition
    p: int
    w: int
    larger: BarPartition   # the label claimed to have the larger product
    smaller: BarPartition
    h_larger: int
    h_smaller: int

    @property
    def verified(self) -> bool:
        return self.h_larger > (2 if self.case == EMPTY_CORE else 1) * self.h_smaller


def compare_chain(gamma: BarPartition, p: int, max_w: int) -> list[ComparisonResult]:
    """The comparisons of the bar-length products of the witness pair of
    (gamma, w), in order of w: w = 1..max_w for a nonempty core, 2..max_w
    for the empty core (at p = 3, w = 1 its pair ties: H(3) = H(2, 1) = 6).

    The pair is _witness_pair's: (pw) against (pw-1, 1) for the empty core;
    the labels grown from the two classes with the largest top values, or the
    grown label against the added-part label for a unique occupied class.
    The core is decomposed once, and each comparison is an exact big-integer
    inequality.
    """
    dec = decompose_core(gamma, p)
    results = []
    for w in range(1 if gamma.m else 2, max_w + 1):
        case, la, lb = _witness_pair(dec, w)
        results.append(ComparisonResult(case, gamma, p, w, la, lb,
                                        math.prod(bar_products(la)), math.prod(bar_products(lb))))
    return results

"""Constructions on bar cores and exact closed forms for bar-length ratios.

Given a p-bar-core gamma, a weight chain builds one label with core gamma
for each weight w >= 1, and is named by a residue: grow_class(gamma, p, i,
w) replaces the top part e_i of the occupied class i by e_i + p*w, and
grow_class(gamma, p, None, w), the add-part chain, adjoins the new part p*w
(the empty core has this chain only). _chain_label(dec, i, w) builds each
label as gamma with one part inserted by barpart.with_part. with_part checks
only the inserted part (a positive int not already a part) and places it by
bisection; the other parts are the validated core's, so they are not checked
again. Every built label, and both labels (pw), (pw-1, 1) of the empty
core's witness pair, is certified by _certify: the expected number of
parts and membership of the block (gamma, w) by barpart.in_block, the one
membership rule, which witness.verify_witness applies too; otherwise a
RuntimeError. No core is rebuilt per label.

For each chain the ratio of bar-length products between consecutive weights,
w-1 -> w, is a product of factors linear in pw. _forms holds its unmixed
factor, its mixed factor and their total, once per chain, as pairs (c, d) of
constant lists; _step reads each at w as the unreduced integer pair (prod
|pw + c|, prod (pw + d)), and corrects the unmixed and mixed pairs of the
add-part step to w = 1 by prod parts(gamma). A total has no denominator.
grow_class_ratio returns the total, reduced, as a Fraction. Every closed
form here is checked (in tests and via verify_ratio_chain) against the
direct quotient of the two labels' bar products, taken from their parts by
Schur's formula (barpart.bar_products), by cross-multiplying the two pairs:
no Fraction, and so no gcd, is built unless a check fails and its values are
read.

grow_class and grow_class_ratio pass their input through one gate,
_chain_input: the prime and the core (decompose_core, which leaves both to
barpart.core_charges), the residue, then w.
So a label and its ratio refuse a bad input alike, and each then reads the
gate's CoreDecomposition in a private function. A chain is named by its
residue throughout: _chain_label builds its labels, _forms and _step read
its steps, RatioCheck.residue records it. The two walks decompose a core
once and go up its weights w = 1, 2, ...: verify_ratio_chain walks each
chain of a nonempty core (residues [*nonempty, None]) once, so every label
is built, certified and given its bar products once, and those products are
the w-1 side of the next step; compare_chain compares the core's witness
pair at every w. _witness_pair alone picks the witness pair of a block
(gamma, w): the labels on the chains of the two classes of largest top
value, or of a unique class and None; for the empty core, its add-part label
(pw) and (pw-1, 1). compare_chain (the thm35 and prop36 checks of the CLI)
and witness._build_witness read it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .barpart import (
    BarPartition,
    bar_products,
    check_int,
    core_charges,
    in_block,
    with_part,
)


class CoreDecomposition(NamedTuple):
    """Residue-class data of a p-bar-core.

    e[j] is the top value of class j, its largest part congruent to j mod p
    (j - p when the class is empty); nonempty lists the occupied classes in
    increasing order, top_order by decreasing top value; charges are the
    core's runner charges (barpart.core_charges), which _certify passes to
    barpart.in_block for each label.
    """

    p: int
    gamma: BarPartition
    e: tuple[int, ...]
    nonempty: tuple[int, ...]
    top_order: tuple[int, ...]
    charges: tuple[int, ...]


def decompose_core(gamma: BarPartition, p: int) -> CoreDecomposition:
    """Split a p-bar-core into residue classes (barpart.core_charges refuses
    a non-core). A core's class j is the gapless run j, j+p, ..., e_j, so its
    top e_j is read straight off the parts.
    """
    charges = core_charges(gamma, p)
    tops = {}
    for a in gamma.parts:  # decreasing, so a class's first part is its top
        tops.setdefault(a % p, a)
    e = tuple(tops.get(j, j - p) for j in range(p))
    return CoreDecomposition(p, gamma, e, tuple(sorted(tops)), tuple(tops), charges)


def _certify(lam, dec, w, expected_m):
    """Check that lam has expected_m parts and lies in the block (dec.gamma,
    w): barpart.in_block with the core's charges and n = |gamma| + p*w.
    """
    gamma, p = dec.gamma, dec.p
    if lam.m != expected_m or not in_block(lam, p, dec.charges, w, gamma.n + p * w):
        raise RuntimeError("construction for %s, p=%d, w=%d produced %s" % (gamma, p, w, lam))
    return lam


def _chain_input(gamma, p, i, w):
    """The decomposed core of a weight chain's input, checked in one order:
    the prime and the core (decompose_core), the residue i (an occupied
    class, or None for the add-part chain), then w (an int >= 1)."""
    dec = decompose_core(gamma, p)
    if i is not None:
        check_int(i, "i")
        if i not in dec.nonempty:
            raise ValueError("class %d of %s is empty" % (i, gamma))
    check_int(w, "w", 1)
    return dec


def grow_class(gamma: BarPartition, p: int, i: int | None, w: int) -> BarPartition:
    """Replace the top part e_i of class i by e_i + p*w, or adjoin the part
    p*w when i is None (core gamma, weight w), via _chain_input."""
    return _chain_label(_chain_input(gamma, p, i, w), i, w)


def _chain_label(dec, i, w):
    """The certified label of weight w on the chain of class i: gamma with e_i
    replaced by e_i + pw, or with the part pw added when i is None."""
    old = None if i is None else dec.e[i]
    new = dec.p * w if old is None else old + dec.p * w
    return _certify(with_part(dec.gamma, new, old), dec, w, dec.gamma.m + (old is None))


EMPTY_CORE = "empty-core"
TWO_CLASSES = "two-classes"
UNIQUE_CLASS = "unique-class"


def _witness_pair(dec, w):
    """(case, larger, smaller) for the block (dec.gamma, w): (pw), (pw-1, 1) for the
    empty core (Prop. 3.6), else the labels on the chains of the two classes of
    largest top value, or of a unique class and the add-part chain (Thm. 3.5)."""
    order = dec.top_order
    if not order:
        return (EMPTY_CORE, _chain_label(dec, None, w),
                _certify(BarPartition((dec.p * w - 1, 1)), dec, w, 2))
    second = order[1] if len(order) >= 2 else None
    return (UNIQUE_CLASS if second is None else TWO_CLASSES,
            _chain_label(dec, order[0], w), _chain_label(dec, second, w))


def _forms(dec, i):
    """The (unmixed, mixed, total) forms of the step w-1 -> w of the chain
    of class i, or of the add-part chain when i is None.

    Each form is a pair (num, den) of constant lists, read at weight w by
    _step as prod |pw + c| / prod (pw + d). A total form has no denominator.
    grow_class: unmixed is pw times, over j != i, |p(w-1) + e_i - e_j|; mixed
    is (2e_i + p(w-1)) times, over occupied j != i, (pw + e_i + e_j), over
    the product of (p(w-1) + e_i + j), occupied j. Add-part: unmixed is pw
    times, over j = 1..p-1, |p(w-1) - e_j|; mixed is the product of (pw +
    e_j) over that of (p(w-1) + j), occupied j.
    """
    p, e, occupied = dec.p, dec.e, dec.nonempty
    if i is None:
        unmixed = [0] + [-p - e[j] for j in range(1, p)]
        mixed = [e[j] for j in occupied], [j - p for j in occupied]
        total = ([0] + [c for j in occupied for c in (-p - e[j], e[j])]
                 + [-j for j in range(1, p) if j not in occupied and p - j not in occupied])
    else:
        ei = e[i]
        others = [j for j in occupied if j != i]
        unmixed = [0] + [ei - e[j] - p for j in range(p) if j != i]
        mixed = [2 * ei - p] + [ei + e[j] for j in others], [ei - p + j for j in occupied]
        total = ([0, 2 * ei - p] + [c for j in others for c in (ei - e[j] - p, ei + e[j])]
                 + [ei - k for k in range(p) if k not in occupied and p - k not in occupied])
    return (unmixed, []), mixed, (total, [])


def _step(dec, i, w, forms=None):
    """The (unmixed, mixed, total) ratios of a chain's step w-1 -> w: the forms
    of _forms(dec, i) at pw, as unreduced (numerator, denominator) int pairs.
    The w-1 side of the add-part step to w = 1 is the core, which has no part
    0, so its unmixed denominator and mixed numerator gain prod parts(gamma).
    """
    pw = dec.p * w
    pairs = []
    for num, den in forms or _forms(dec, i):
        a = b = 1
        for c in num:
            a *= abs(pw + c)
        for d in den:
            b *= pw + d
        pairs.append((a, b))
    unmixed, mixed, total = pairs
    if i is None and w == 1:
        parts = math.prod(dec.gamma.parts)
        unmixed, mixed = (unmixed[0], unmixed[1] * parts), (mixed[0] * parts, mixed[1])
    return unmixed, mixed, total


def grow_class_ratio(gamma, p, i, w) -> Fraction:
    """The total ratio of the grow_class step: pw(p(w-1) + 2e_i) times, over
    occupied j != i, |p(w-1) + e_i - e_j| (pw + e_i + e_j), times, over k
    with classes k and p-k both empty, (pw + e_i - k); via _chain_input.
    For i = None, pw times, over occupied j, |p(w-1) - e_j| (pw + e_j),
    times, over j with j and p-j both empty, (pw - j); for the empty core
    that is H(pw)/H(p(w-1))."""
    return Fraction(*_step(_chain_input(gamma, p, i, w), i, w)[2])


def add_part_ratio(gamma, p, w) -> Fraction:
    """grow_class_ratio(gamma, p, None, w), under the name the benchmark's
    output check (perfbench/child.py) calls."""
    return grow_class_ratio(gamma, p, None, w)


class RatioCheck(NamedTuple):
    """One closed form of a step against its direct quotient of bar products.

    Both sides are unreduced (numerator, denominator) pairs of integers with
    positive denominators, so ok is the cross-multiplication a*d == b*c.
    closed_form and direct are the reduced Fractions, built only when read.
    """

    identity: str
    residue: int | None  # class index, or None for the add-part chain
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
    empty core, as the ratios benchmark (perfbench/workloads.py) counts no
    check for it: walking its add-part chain waits for a benchmark change.

    At each w every applicable closed form of the step w-1 -> w is compared
    with the direct quotient of the bar products (Schur's formula on the
    parts) of the constructed labels at weights w and w-1; equality is
    exact, by cross-multiplying integer pairs (RatioCheck). One walk up each
    weight chain of the core: every label is built, certified and given its
    bar products once, and those products serve both steps it belongs to.
    The w-1 side of the step to w = 1 is the core itself.
    """
    check_int(max_w, "max_w")
    dec = decompose_core(gamma, p)
    residues = [*dec.nonempty, None] if gamma.m else []  # occupied classes, then add-part
    chains = [(i, _forms(dec, i), [("add-part-" if i is None else "grow-class-") + form
                                  for form in ("unmixed", "mixed", "total")]) for i in residues]
    prev = [bar_products(gamma)] * len(chains)
    checks = []
    for w in range(1, max_w + 1):
        for k, (i, forms, (unmixed, mixed, total)) in enumerate(chains):
            cur = bar_products(_chain_label(dec, i, w))
            (ua, ma), (ub, mb) = cur, prev[k]
            prev[k] = cur
            cu, cm, ct = _step(dec, i, w, forms)
            checks += (RatioCheck(unmixed, i, w, cu, (ua, ub)),
                       RatioCheck(mixed, i, w, cm, (ma, mb)),
                       RatioCheck(total, i, w, ct, (ua * ma, ub * mb)))
    return checks


class ComparisonResult(NamedTuple):
    """Outcome of the bar-product comparison of a block's witness pair.

    Thm. 3.5 claims h_larger > h_smaller for a nonempty core; Prop. 3.6
    claims the factor-2 gap h_larger > 2*h_smaller for the empty core.
    verified picks the claim from the core; case is informational.
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
        return self.h_larger > (1 if self.gamma.m else 2) * self.h_smaller


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
    check_int(max_w, "max_w")
    dec = decompose_core(gamma, p)
    results = []
    for w in range(1 if gamma.m else 2, max_w + 1):
        case, la, lb = _witness_pair(dec, w)
        results.append(ComparisonResult(case, gamma, p, w, la, lb,
                                        math.prod(bar_products(la)), math.prod(bar_products(lb))))
    return results

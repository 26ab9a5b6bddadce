"""Command-line surface with deterministic JSON/CSV output.

Exit codes: 0 all checks passed (or informational output), 1 a mathematical
check failed, 2 usage or parse error.  Integers that do not fit in a signed
64-bit word are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

from . import barpart, blocks, constructions, witness
from .barpart import (
    BarPartition,
    _check_odd_prime,
    bar_core_and_weight,
    bar_cores_up_to,
    bars,
    format_partition,
    parse_partition,
    weight_tower,
)

SCHEMA_VERSION = "1"
INT64_MAX = 2**63 - 1

_BAR_KIND_NAMES = {barpart.TYPE1: "type1", barpart.TYPE2: "type2", barpart.TYPE3: "type3"}


def jsonable(obj):
    """Convert to JSON-safe data: big ints and fractions become strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > INT64_MAX else obj
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, BarPartition):
        return format_partition(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    raise TypeError("cannot serialize %r" % (obj,))


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], "%s.%s" % (prefix, k) if prefix else str(k), rows)
    elif isinstance(obj, list):
        for idx, v in enumerate(obj):
            _flatten(v, "%s[%d]" % (prefix, idx), rows)
    else:
        rows.append((prefix, "" if obj is None else obj))


def render(record, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    rows = []
    _flatten(record, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buf.getvalue()


def emit(args, command, inputs, payload, status):
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": jsonable(inputs),
        "payload": jsonable(payload),
        "status": status,
    }
    text = render(record, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bar_entry(bar):
    entry = {"kind": _BAR_KIND_NAMES[bar.kind], "length": bar.length}
    if bar.kind == barpart.TYPE1:
        entry.update(x=bar.x, y=bar.y)
    elif bar.kind == barpart.TYPE2:
        entry.update(y=bar.y)
    else:
        entry.update(i=bar.i, j=bar.j)
    return entry


def cmd_bars(args):
    lam = parse_partition(args.partition)
    table = bars(lam)
    payload = {
        "partition": lam,
        "n": lam.n,
        "m": lam.m,
        "bars": [_bar_entry(b) for b in table.bars],
        "lengths": table.lengths(),
        "h_total": table.h_total,
        "h_unmixed": table.h_unmixed,
        "h_mixed": table.h_mixed,
    }
    if args.p is not None:
        _check_odd_prime(args.p)
        ws, v = weight_tower(lam, args.p)
        payload["p"] = args.p
        payload["weights"] = list(ws)
        payload["valuation"] = v
    emit(args, "bars", {"partition": args.partition, "p": args.p}, payload, "info")
    return 0


def cmd_core(args):
    _check_odd_prime(args.p)
    lam = parse_partition(args.partition)
    core, w = bar_core_and_weight(lam, args.p)
    payload = {"partition": lam, "p": args.p, "core": core, "weight": w}
    emit(args, "core", {"partition": args.partition, "p": args.p}, payload, "info")
    return 0


def cmd_blocks(args):
    _check_odd_prime(args.p)
    if args.n < 1:
        raise ValueError("n must be positive, got %d" % args.n)
    out = []
    for block in blocks.spin_blocks(args.n, args.p, args.group):
        flag, degrees = blocks.equal_degree_test(block)
        labels = []
        for lam, group in groupby(block.characters, key=attrgetter("label")):
            chars = list(group)
            labels.append({
                "label": lam,
                "sigma": chars[0].sigma,
                "num_characters": len(chars),
                "degree": chars[0].degree,
                "height": block.heights[lam],
            })
        out.append({
            "core": block.core,
            "weight": block.w,
            "defect_class": block.defect_class,
            "labels": labels,
            "equal_degree": flag,
            "height_zero_degrees": degrees,
        })
    payload = {"n": args.n, "p": args.p, "group": args.group, "blocks": out}
    emit(args, "blocks", {"n": args.n, "p": args.p, "group": args.group}, payload, "info")
    return 0


def cmd_verify(args):
    _check_odd_prime(args.p)
    failures = []
    checked = 0
    if args.kind == "ratios":
        grid = [
            (gamma, w)
            for gamma in bar_cores_up_to(args.max_core, args.p)
            for w in range(1, args.max_w + 1)
        ]
        for gamma, w in grid:
            report = constructions.verify_ratio_identities(gamma, args.p, w)
            for check in report.checks:
                checked += 1
                if not check.ok:
                    failures.append({
                        "core": report.gamma,
                        "w": check.w,
                        "identity": check.identity,
                        "residue": check.residue,
                        "closed_form": check.closed_form,
                        "direct": check.direct,
                    })
    elif args.kind == "thm35":
        grid = [
            (gamma, w)
            for gamma in bar_cores_up_to(args.max_core, args.p)
            if gamma.m
            for w in range(1, args.max_w + 1)
        ]
        for gamma, w in grid:
            res = constructions.compare_constructions(gamma, args.p, w)
            checked += 1
            if not res.verified:
                failures.append({
                    "core": res.gamma,
                    "w": res.w,
                    "case": res.case,
                    "larger": res.larger,
                    "smaller": res.smaller,
                    "h_larger": res.h_larger,
                    "h_smaller": res.h_smaller,
                })
    else:  # prop36
        values = []
        for w in range(2, args.max_w + 1):
            res = constructions.principal_gap_check(args.p, w)
            checked += 1
            values.append({
                "w": w,
                "h_single": res.h_single,
                "h_split": res.h_split,
                "ok": res.ok,
            })
            if not res.ok:
                failures.append(values[-1])
    inputs = {"kind": args.kind, "p": args.p, "max_w": args.max_w}
    payload = {"kind": args.kind, "p": args.p, "checked": checked, "failures": failures}
    if args.kind == "prop36":
        payload["values"] = values
    else:
        inputs["max_core"] = args.max_core
        payload.update(max_core=args.max_core, max_w=args.max_w)
    if not checked:
        bounds = ("max-w %d" % args.max_w if args.kind == "prop36"
                  else "max-core %d and max-w %d" % (args.max_core, args.max_w))
        raise ValueError("verify %s has nothing to check with %s" % (args.kind, bounds))
    status = "pass" if not failures else "fail"
    emit(args, "verify", inputs, payload, status)
    return 0 if not failures else 1


def _cert_payload(cert):
    return {
        "p": cert.p,
        "core": cert.core,
        "weight": cert.w,
        "n": cert.n,
        "case": cert.case,
        "label_a": cert.label_a,
        "label_b": cert.label_b,
        "degree_a": cert.degree_a,
        "degree_b": cert.degree_b,
        "checks": cert.checks,
        "verified": cert.verified,
        "notes": list(cert.notes),
    }


def _witness_targets(n, p):
    """(core, w) of each block of n with w >= p, or the empty core with w >= 2,
    by decreasing core."""
    return [(core, w) for core, w in blocks.block_targets(n, p)
            if w >= p or (core.m == 0 and w >= 2)]


def cmd_witness(args):
    _check_odd_prime(args.p)
    if args.n is not None:
        if args.core is not None or args.w is not None:
            raise ValueError("give either --n or --core/--w, not both")
        targets = _witness_targets(args.n, args.p)
        if not targets:
            raise ValueError(
                "no spin block of n=%d has w >= %d (or empty core with w >= 2)"
                % (args.n, args.p)
            )
    else:
        if args.core is None or args.w is None:
            raise ValueError("need --n, or both --core and --w")
        core = parse_partition(args.core)
        if not (args.w >= args.p or (core.m == 0 and args.w >= 2)):
            raise ValueError(
                "block (core %s, w=%d) has abelian defect; only the empty core"
                " with w >= 2 is accepted below w = p" % (core, args.w)
            )
        targets = [(core, args.w)]
    certs = [witness.build_witness(core, args.p, w) for core, w in targets]
    all_ok = all(c.verified for c in certs)
    any_non_abelian = any(w >= args.p for _, w in targets)
    payload = {"certificates": [_cert_payload(c) for c in certs]}
    status = ("pass" if any_non_abelian else "info") if all_ok else "fail"
    inputs = {"n": args.n, "core": args.core, "w": args.w, "p": args.p}
    emit(args, "witness", inputs, payload, status)
    return 0 if all_ok else 1


def cmd_check(args):
    if args.max_n < 4:
        raise ValueError("max-n must be >= 4, got %d" % args.max_n)
    primes = _parse_primes(args.primes)
    summary = witness.scan(args.max_n, primes)
    counts = [
        {"p": p, "defect_class": dc, "blocks": cnt}
        for (p, dc), cnt in sorted(summary.block_counts.items())
    ]
    payload = {
        "max_n": summary.max_n,
        "primes": list(summary.primes),
        "block_counts": counts,
        "witnesses_verified": summary.witnesses_verified,
        "equal_degree_non_abelian": summary.equal_degree_non_abelian,
        "notes": list(summary.notes),
    }
    non_abelian = sum(
        cnt for (_p, dc), cnt in summary.block_counts.items() if dc == blocks.NON_ABELIAN
    )
    ok = summary.equal_degree_non_abelian == 0 and summary.witnesses_verified >= non_abelian
    emit(args, "check", {"max_n": args.max_n, "primes": args.primes}, payload,
         "pass" if ok else "fail")
    return 0 if ok else 1


def _parse_primes(text):
    try:
        primes = tuple(int(tok) for tok in str(text).split(","))
    except ValueError:
        raise ValueError("cannot parse prime list %r" % (text,)) from None
    for p in primes:
        _check_odd_prime(p)
    return primes


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinblocks",
        description="Exact bar-partition and spin-block computations for the"
                    " double covers of the symmetric and alternating groups.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p_bars = subs.add_parser("bars", help="bar multiset and length products of a partition")
    p_bars.add_argument("partition", help='partition text, e.g. "8,1" or "-" for empty')
    p_bars.add_argument("--p", type=int, default=None, help="also report weights for this odd prime")
    _add_common(p_bars)
    p_bars.set_defaults(func=cmd_bars)

    p_core = subs.add_parser("core", help="bar core and weight of a partition")
    p_core.add_argument("partition")
    p_core.add_argument("--p", type=int, required=True)
    _add_common(p_core)
    p_core.set_defaults(func=cmd_core)

    p_blocks = subs.add_parser("blocks", help="spin blocks with degrees, heights and defect class")
    p_blocks.add_argument("--n", type=int, required=True)
    p_blocks.add_argument("--p", type=int, required=True)
    p_blocks.add_argument("--group", choices=("S", "A"), default="A")
    _add_common(p_blocks)
    p_blocks.set_defaults(func=cmd_blocks)

    p_verify = subs.add_parser("verify", help="exact-identity and inequality sweeps")
    p_verify.add_argument("kind", choices=("ratios", "thm35", "prop36"))
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--max-core", type=int, default=10)
    p_verify.add_argument("--max-w", type=int, default=4)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_wit = subs.add_parser(
        "witness",
        help="height-zero witness pair for a block; with --n, every block of"
             " weight >= p qualifies, and the empty core already qualifies at"
             " weight >= 2 (reported with status info while the defect is abelian)",
    )
    p_wit.add_argument("--n", type=int, default=None)
    p_wit.add_argument("--core", default=None)
    p_wit.add_argument("--w", type=int, default=None)
    p_wit.add_argument("--p", type=int, required=True)
    _add_common(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_check = subs.add_parser("check", help="scan all blocks up to max-n for witnesses")
    p_check.add_argument("--max-n", type=int, required=True)
    p_check.add_argument("--primes", required=True, help="comma-separated odd primes")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface with deterministic JSON/CSV output.

Each command returns its payload and status; main writes the record once,
with the command's name and inputs: every option but --format and --out
(verify prop36, which has no core bound, echoes no --max-core). The exit code
follows from the status: 1 for "fail" (a mathematical check failed, or an
internal invariant, whose RuntimeError is reported as payload.error), else 0.
Exit 2, with no record, is a usage or parse error or an --out file that
cannot be written.
Inputs are checked by the library calls the commands make, before any work,
never by the CLI itself: bars --p has its prime checked by weight_tower before
the bar table is built, and verify prop36 by compare_chain of the empty core
before its bounds are judged. Each verify kind makes one public library walk
per core (verify_ratio_chain for ratios, compare_chain for thm35 and prop36)
and keeps only a count and the failures (and prop36's rows); the CLI reads no
private name of the library.
One table (COMMANDS) declares each command once: its options by an adder,
which builds the full argparse parser's subcommand and, called with a
recorder of its add_argument calls, also tells the plain parse what to
accept. A well-formed command line (the command, then each option once as
--name value, every required option and positional present, every value
passing its type and choices, no value or positional starting with - but the
empty partition's lone -) is parsed from those records alone, into the
namespace the full parser would give. The full parser, built and imported
only then, parses every other command line: help, --name=value,
abbreviations, repeated options, negative numbers, errors and no command.
Integers whose magnitude exceeds 2**63 - 1 (INT64_MAX) are serialized as
decimal strings, exactly, however many digits they have; so is -2**63, which
a signed 64-bit word would hold.
"""

from __future__ import annotations

import decimal
import functools
import io
import json
import sys
import types
from fractions import Fraction

from . import blocks, constructions, spinchar, witness
from .barpart import (
    EMPTY,
    BarPartition,
    abacus_core,
    bar_cores_up_to,
    format_partition,
    parse_partition,
    sigma,
    weight_tower,
)

SCHEMA_VERSION = "1"
INT64_MAX = 2**63 - 1
# check builds a block whose witness failed, for the equal-degree test, only up to
# this n: q(40) = 1 113 strict partitions of 40 bound the labels of any one block
DIAGNOSE_MAX_N = 40


def _digits(x):
    """Exact decimal text of an int, also past the interpreter's int-to-str
    digit limit: a Decimal built from an int is exact and not subject to it."""
    try:
        return str(x)
    except ValueError:
        return str(decimal.Decimal(x))


def jsonable(obj):
    """Convert to JSON-safe data: big ints and fractions become strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return _digits(obj) if abs(obj) > INT64_MAX else obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return _digits(obj.numerator)
        return "%s/%s" % (_digits(obj.numerator), _digits(obj.denominator))
    if isinstance(obj, BarPartition):
        return format_partition(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
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
    import csv  # only --format csv reads it

    rows = []
    _flatten(record, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buf.getvalue()


def emit(args, payload, status):
    inputs = {k: v for k, v in vars(args).items() if k not in ("cmd", "func", "format", "out")}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.cmd,
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


def cmd_bars(args):
    # the bar table kept bar by bar, and its kinds: loaded for this command only
    from .oracle import TYPE1, TYPE2, bars

    def entry(bar):
        if bar.kind == TYPE1:
            return {"kind": "type1", "length": bar.length, "x": bar.x, "y": bar.y}
        if bar.kind == TYPE2:
            return {"kind": "type2", "length": bar.length, "y": bar.y}
        return {"kind": "type3", "length": bar.length, "i": bar.i, "j": bar.j}

    lam = parse_partition(args.partition)
    payload = {"partition": lam, "n": lam.n, "m": lam.m}
    if args.p is not None:  # weight_tower checks the prime, before the bar table is built
        ws, v = weight_tower(lam, args.p)
        payload.update(p=args.p, weights=list(ws), valuation=v)
    table = bars(lam)
    payload.update(bars=[entry(b) for b in table.bars], lengths=table.lengths(),
                   h_total=table.h_total, h_unmixed=table.h_unmixed, h_mixed=table.h_mixed)
    return payload, "info"


def cmd_core(args):
    lam = parse_partition(args.partition)
    core, w = abacus_core(lam, args.p)
    return {"partition": lam, "p": args.p, "core": core, "weight": w}, "info"


def cmd_blocks(args):
    out = []
    for block in blocks.spin_blocks(args.n, args.p, args.group):
        flag, degrees = blocks.equal_degree_test(block)
        labels = [{
            "label": lam,
            "sigma": sigma(lam),
            "num_characters": count,
            "degree": degree,
            "height": height,
        } for lam, (count, degree, height) in block.labels.items()]
        out.append({
            "core": block.core,
            "weight": block.w,
            "defect_class": block.defect_class,
            "labels": labels,
            "equal_degree": flag,
            "height_zero_degrees": degrees,
        })
    return {"n": args.n, "p": args.p, "group": args.group, "blocks": out}, "info"


def cmd_verify(args):
    if args.kind == "prop36":  # the empty core's pair (pw), (pw-1, 1) at every w >= 2
        del args.max_core  # no core bound: the record echoes none
        # compare_chain checks the prime, by decompose_core, before the bounds
        values = [{
            "w": res.w,
            "h_single": res.h_larger,
            "h_split": res.h_smaller,
            "ok": res.verified,
        } for res in constructions.compare_chain(EMPTY, args.p, args.max_w)]
        if not values:
            raise ValueError("verify prop36 has nothing to check with max-w %d" % args.max_w)
        failures = [row for row in values if not row["ok"]]
        payload = {"kind": args.kind, "p": args.p, "checked": len(values),
                   "failures": failures, "values": values}
        return payload, "fail" if failures else "pass"
    # stream one core's walk at a time: collecting every check first raises peak memory
    failures = []
    checked = 0
    if args.kind == "ratios":
        checks = ((gamma, check) for gamma in bar_cores_up_to(args.max_core, args.p)
                  for check in constructions.verify_ratio_chain(gamma, args.p, args.max_w))
        for gamma, check in checks:
            checked += 1
            if not check.ok:
                failures.append({
                    "core": gamma,
                    "w": check.w,
                    "identity": check.identity,
                    "residue": check.residue,
                    "closed_form": check.closed_form,
                    "direct": check.direct,
                })
    else:  # thm35
        results = (res for gamma in bar_cores_up_to(args.max_core, args.p) if gamma.m
                   for res in constructions.compare_chain(gamma, args.p, args.max_w))
        for res in results:
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
    if not checked:
        raise ValueError("verify %s has nothing to check with max-core %d and max-w %d"
                         % (args.kind, args.max_core, args.max_w))
    payload = {"kind": args.kind, "p": args.p, "checked": checked, "failures": failures,
               "max_core": args.max_core, "max_w": args.max_w}
    return payload, "fail" if failures else "pass"


def _cert_payload(cert):
    return {
        "p": cert.p,
        "core": cert.core,
        "weight": cert.w,
        "n": cert.n,
        "case": cert.case,
        "label_a": cert.label_a,
        "label_b": cert.label_b,
        "degree_a": spinchar.spin_degree(cert.label_a, "A"),
        "degree_b": spinchar.spin_degree(cert.label_b, "A"),
        "checks": cert.checks,
        "verified": cert.verified,
        "notes": list(cert.notes),
    }


def _witness_targets(n, p):
    """(core, w) of each block of n that gets a witness pair, by decreasing core."""
    return [(core, w) for core, w in blocks.block_targets(n, p)
            if witness.witness_eligible(core, p, w)]


def cmd_witness(args):
    if args.n is not None:
        if args.core is not None or args.w is not None:
            raise ValueError("give either --n or --core/--w, not both")
        targets = _witness_targets(args.n, args.p)
        if not targets:
            raise ValueError("no spin block of n=%d gets a witness pair at p=%d"
                             % (args.n, args.p))
    else:
        if args.core is None or args.w is None:
            raise ValueError("need --n, or both --core and --w")
        targets = [(parse_partition(args.core), args.w)]
    certs = [witness.build_witness(core, args.p, w) for core, w in targets]
    all_ok = all(c.verified for c in certs)
    any_non_abelian = any(witness.defect_class(args.p, w) == witness.NON_ABELIAN
                          for _, w in targets)
    payload = {"certificates": [_cert_payload(c) for c in certs]}
    return payload, ("pass" if any_non_abelian else "info") if all_ok else "fail"


def cmd_check(args):
    primes = _parse_primes(args.primes)
    summary = witness.scan(args.max_n, primes)
    equal = 0
    notes = list(summary.notes)
    for cert in summary.failed:  # diagnosed in walk order, after scan's own notes
        verdict = "not built"
        if cert.n <= DIAGNOSE_MAX_N:
            flag, _ = blocks.equal_degree_test(blocks.spin_block(cert.core, cert.p, cert.w, "A"))
            equal += flag
            verdict = "yes" if flag else "no"
        notes.append("non-abelian block p=%d n=%d core %s w=%d: equal degrees %s"
                     % (cert.p, cert.n, cert.core, cert.w, verdict))
    counts = [
        {"p": p, "defect_class": dc, "blocks": cnt}
        for (p, dc), cnt in sorted(summary.block_counts.items())
    ]
    payload = {
        "max_n": summary.max_n,
        "primes": list(summary.primes),
        "block_counts": counts,
        "witnesses_verified": summary.witnesses_verified,
        "equal_degree_non_abelian": equal,
        "notes": notes,
    }
    if summary.failed:
        return payload, "fail"
    return payload, "pass" if summary.witnesses_verified else "info"


def _parse_primes(text):
    try:
        primes = tuple(int(tok) for tok in str(text).split(","))
    except ValueError:
        raise ValueError("cannot parse prime list %r" % (text,)) from None
    return primes


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _bars_options(sub):
    sub.add_argument("partition", help='partition text, e.g. "8,1" or "-" for empty')
    sub.add_argument("--p", type=int, default=None, help="also report weights for this odd prime")


def _core_options(sub):
    sub.add_argument("partition")
    sub.add_argument("--p", type=int, required=True)


def _blocks_options(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--group", choices=("S", "A"), default="A")


def _verify_options(sub):
    sub.add_argument("kind", choices=("ratios", "thm35", "prop36"))
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--max-core", type=int, default=10)
    sub.add_argument("--max-w", type=int, default=4)


def _witness_options(sub):
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--core", default=None)
    sub.add_argument("--w", type=int, default=None)
    sub.add_argument("--p", type=int, required=True)


def _check_options(sub):
    sub.add_argument("--max-n", type=int, required=True)
    sub.add_argument("--primes", required=True, help="comma-separated odd primes")


# name -> (help, command function, adder of the command's own options)
COMMANDS = {
    "bars": ("bar multiset and length products of a partition", cmd_bars, _bars_options),
    "core": ("bar core and weight of a partition", cmd_core, _core_options),
    "blocks": ("spin blocks with degrees, heights and defect class", cmd_blocks,
               _blocks_options),
    "verify": ("exact-identity and inequality sweeps", cmd_verify, _verify_options),
    "witness": ("height-zero witness pair for a block; with --n, every block of"
                " weight >= p qualifies, and the empty core already qualifies at"
                " weight >= 2 (reported with status info while the defect is abelian)",
                cmd_witness, _witness_options),
    "check": ("scan all blocks up to max-n for witnesses", cmd_check, _check_options),
}


class _Recorder:
    """Stands in for a parser while an adder declares its options, keeping
    each add_argument call. It takes one name per call and the keywords the
    plain parse honours alone; any other raises TypeError, so that an option
    the plain parse would read otherwise than argparse cannot be declared."""

    KEYWORDS = frozenset(("type", "default", "required", "choices", "help"))

    def __init__(self):
        self.options = {}  # option string -> (dest, type, choices)
        self.positionals = []  # (dest, type, choices), in order
        self.defaults = {}  # dest -> default
        self.required = set()

    def add_argument(self, name, **kwargs):
        unknown = kwargs.keys() - self.KEYWORDS
        if unknown:
            raise TypeError("the plain parse cannot honour %s" % ", ".join(sorted(unknown)))
        spec = kwargs.get("type"), kwargs.get("choices")
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            self.options[name] = (dest, *spec)
            if kwargs.get("required"):
                self.required.add(dest)
        else:
            dest = name
            self.positionals.append((dest, *spec))
            self.required.add(dest)
        self.defaults[dest] = kwargs.get("default")


@functools.cache
def _declared(command):
    """The recorded options of one command, its own and the common ones."""
    recorder = _Recorder()
    COMMANDS[command][2](recorder)
    _add_common(recorder)
    return recorder


def _plain_parse(argv):
    """The full parser's namespace for a well-formed command line, or None.

    Well-formed is the command, then each option once as --name value and each
    positional once, with no value starting with - but a lone -, every
    required one present and every value passing its type and choices. None
    sends the command line to the full parser, which prints the usage, help
    or error that such a line needs.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    declared = _declared(argv[0])
    positionals = iter(declared.positionals)
    tokens = iter(argv[1:])
    values = {}
    for token in tokens:
        spec = declared.options.get(token)
        if spec is None:
            spec = next(positionals, None)
        else:
            token = next(tokens, None)
        if (spec is None or token is None or spec[0] in values
                or token.startswith("-") and token != "-"):
            return None
        dest, convert, choices = spec
        if convert is not None:
            try:
                token = convert(token)
            except (TypeError, ValueError):
                return None
        if choices is not None and token not in choices:
            return None
        values[dest] = token
    if not declared.required <= values.keys():
        return None
    return types.SimpleNamespace(cmd=argv[0], **{**declared.defaults, **values},
                                 func=COMMANDS[argv[0]][1])


@functools.cache
def build_parser():
    """The full CLI parser, built once per process and only read by main.

    It parses every command line that the plain parse declines, and prints
    the usage, help and errors.
    """
    import argparse  # loaded only for a command line that the plain parse declines

    parser = argparse.ArgumentParser(
        prog="spinblocks",
        description="Exact bar-partition and spin-block computations for the"
                    " double covers of the symmetric and alternating groups.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, func, add_options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        add_options(sub)
        _add_common(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        try:
            payload, status = args.func(args)
        except RuntimeError as exc:
            # an internal invariant failed: a failed check, not a usage error
            payload, status = {"error": str(exc)}, "fail"
        emit(args, payload, status)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 1 if status == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())

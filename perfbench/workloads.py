"""Seeded command lists, work units and output checks of the three workloads.

Every workload is a list of spinblocks CLI commands (one round). The seed
changes which inputs are drawn but keeps the amount of work per round, and
the order of the commands, fixed, so figures from different seeds are
comparable. Expected
outputs come from reference.py, never from saved output or from the
library itself.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import reference as ref

INT64_MAX = 2**63 - 1

# sweep: the certification command at the ROADMAP's baseline size.
SWEEP_MAX_N = 30
SWEEP_PRIMES = (3, 5)

# ratios: closed forms and comparisons over every core up to the mid-20s.
RATIO_MAX_CORE = {5: 25, 7: 20}
RATIO_MAX_W = 10
PROP36_MAX_W = (38, 42)
RATIO_SAMPLE = 24

# large-n: one full block report and cold certificates at distinct n. Each
# certificate slot fixes (n, p, w); a block's size depends only on p and w,
# so the seed's choice of core leaves the work per round unchanged.
BLOCKS_N, BLOCKS_P = 44, 5
WITNESS_SLOTS = ((43, 3, 14), (46, 5, 6))


def _partition_text(lam):
    return ",".join(map(str, lam)) if lam else "-"


def _parse_partition(text):
    return () if text == "-" else tuple(int(tok) for tok in text.split(","))


def _as_int(value, where, errors):
    """Integer from the CLI's JSON convention: big ints are decimal strings."""
    if isinstance(value, bool):
        errors.append("%s: boolean where an integer was expected" % where)
        return None
    if isinstance(value, int):
        if abs(value) > INT64_MAX:
            errors.append("%s: integer %d beyond int64 not serialized as a string" % (where, value))
        return value
    if isinstance(value, str) and value.lstrip("-").isdigit():
        v = int(value)
        if abs(v) <= INT64_MAX:
            errors.append("%s: int64-sized value %s serialized as a string" % (where, value))
        return v
    errors.append("%s: not an integer: %r" % (where, value))
    return None


def _defect_class(p, w):
    if w == 0:
        return "defect-zero"
    return "abelian" if w < p else "non-abelian"


def _parse_record(text, errors):
    try:
        record = json.loads(text)
    except ValueError as exc:
        errors.append("output is not JSON: %s" % exc)
        return None
    if record.get("schema_version") != "1":
        errors.append("schema_version is %r" % record.get("schema_version"))
    return record


class Sweep:
    """`check --max-n 30 --primes 3,5`; the seed picks the order of the primes."""

    def commands(self, seed):
        primes = list(SWEEP_PRIMES)
        random.Random(seed).shuffle(primes)
        return [["check", "--max-n", str(SWEEP_MAX_N), "--primes", ",".join(map(str, primes))]]

    def check_inputs(self, seed):
        return []

    @staticmethod
    def _expected(max_n, primes):
        counts = {}
        for p in primes:
            by_size = {}
            for core in ref.cores_up_to(max_n, p):
                by_size[sum(core)] = by_size.get(sum(core), 0) + 1
            for n in range(4, max_n + 1):
                for w in range(n // p + 1):
                    k = by_size.get(n - p * w, 0)
                    if k:
                        key = (p, _defect_class(p, w))
                        counts[key] = counts.get(key, 0) + k
        return counts

    def units(self, seed):
        """Blocks reported."""
        return [sum(self._expected(SWEEP_MAX_N, SWEEP_PRIMES).values())]

    def check(self, argv, text, extra):
        errors = []
        record = _parse_record(text, errors)
        if record is None:
            return errors
        primes = [int(t) for t in argv[4].split(",")]
        expected = self._expected(SWEEP_MAX_N, primes)
        payload = record["payload"]
        got = {(row["p"], row["defect_class"]): row["blocks"] for row in payload["block_counts"]}
        if got != expected:
            errors.append("block counts %s, expected %s from residue-class cores" % (got, expected))
        non_abelian = sum(v for (p, dc), v in expected.items() if dc == "non-abelian")
        if payload["witnesses_verified"] != non_abelian:
            errors.append("witnesses_verified %r, expected %d non-abelian blocks"
                          % (payload["witnesses_verified"], non_abelian))
        if payload["equal_degree_non_abelian"] != 0:
            errors.append("equal_degree_non_abelian is %r" % payload["equal_degree_non_abelian"])
        if payload["primes"] != primes or payload["max_n"] != SWEEP_MAX_N:
            errors.append("payload echoes primes %r, max_n %r" % (payload["primes"], payload["max_n"]))
        if record["status"] != "pass":
            errors.append("status %r" % record["status"])
        return errors


class Ratios:
    """verify ratios / thm35 / prop36 at p = 5 and 7; the seed picks prop36's max-w."""

    def commands(self, seed):
        rng = random.Random(seed)
        cmds = []
        for p in sorted(RATIO_MAX_CORE):
            grid = ["--p", str(p), "--max-core", str(RATIO_MAX_CORE[p]), "--max-w", str(RATIO_MAX_W)]
            cmds.append(["verify", "ratios"] + grid)
            cmds.append(["verify", "thm35"] + grid)
            cmds.append(["verify", "prop36", "--p", str(p), "--max-w", str(rng.randint(*PROP36_MAX_W))])
        return cmds

    def check_inputs(self, seed):
        """Seeded (kind, core, p, i, w) sample whose library closed forms get checked."""
        rng = random.Random(seed * 7919 + 1)
        out = []
        for p in sorted(RATIO_MAX_CORE):
            cores = [c for c in ref.cores_up_to(RATIO_MAX_CORE[p], p) if c]
            for _ in range(RATIO_SAMPLE // len(RATIO_MAX_CORE)):
                core = rng.choice(cores)
                w = rng.randint(1, RATIO_MAX_W)
                if rng.random() < 0.5:
                    out.append(("grow", core, p, rng.choice(ref.occupied_classes(core, p)), w))
                else:
                    out.append(("add", core, p, 0, w))
        return out

    @staticmethod
    def _counts(p, kind, max_w):
        cores = ref.cores_up_to(RATIO_MAX_CORE[p], p)
        if kind == "ratios":
            per_w = sum(3 * len(ref.occupied_classes(c, p)) + (3 if c else 0) for c in cores)
            return per_w * RATIO_MAX_W
        if kind == "thm35":
            return sum(1 for c in cores if c) * RATIO_MAX_W
        return max_w - 1

    def units(self, seed):
        """Identities, comparisons and gaps checked."""
        return [self._counts(int(argv[3]), argv[1], int(argv[-1])) for argv in self.commands(seed)]

    def check(self, argv, text, extra):
        errors = []
        record = _parse_record(text, errors)
        if record is None:
            return errors
        kind, p, max_w = argv[1], int(argv[3]), int(argv[-1])
        payload = record["payload"]
        if record["status"] != "pass" or payload["failures"]:
            errors.append("status %r with failures %r" % (record["status"], payload["failures"][:3]))
        want = self._counts(p, kind, max_w)
        if payload["checked"] != want:
            errors.append("checked %r, expected %d from the enumerated cores" % (payload["checked"], want))
        if kind == "prop36":
            ws = [row["w"] for row in payload["values"]]
            if ws != list(range(2, max_w + 1)):
                errors.append("prop36 weights %r" % ws)
            for row in payload["values"]:
                pw = p * row["w"]
                single = _as_int(row["h_single"], "h_single", errors)
                split = _as_int(row["h_split"], "h_split", errors)
                if single != math.factorial(pw):
                    errors.append("h_single at w=%d is not (pw)!" % row["w"])
                if split != math.factorial(pw - 1) * pw // (pw - 2):
                    errors.append("h_split at w=%d is not (pw-1)!*pw/(pw-2)" % row["w"])
                if row["ok"] is not True:
                    errors.append("prop36 gap not ok at w=%d" % row["w"])
        if kind == "ratios":
            errors.extend(self.check_closed_forms(p, extra))
        return errors

    @staticmethod
    def check_closed_forms(p, extra):
        """The library's total ratios against quotients of Schur-formula H values."""
        errors = []
        for (kind, core, sp, i, w), value in extra:
            if sp != p:
                continue
            core = tuple(core)
            if kind == "grow":
                new = ref.grow_class_label(core, p, i, w)
                old = core if w == 1 else ref.grow_class_label(core, p, i, w - 1)
            else:
                new = ref.add_part_label(core, p, w)
                old = core if w == 1 else ref.add_part_label(core, p, w - 1)
            want = Fraction(ref.schur_h(new), ref.schur_h(old))
            if value != str(want):
                errors.append("%s ratio for core %r, p=%d, i=%d, w=%d: library %s, Schur %s"
                              % (kind, core, p, i, w, value, want))
        return errors


class LargeN:
    """`blocks --n 44 --p 5` plus cold certificates at distinct n; the seed picks their cores."""

    def commands(self, seed):
        rng = random.Random(seed)
        cmds = [["blocks", "--n", str(BLOCKS_N), "--p", str(BLOCKS_P)]]
        for n, p, w in WITNESS_SLOTS:
            cores = [c for c in ref.cores_up_to(n - p * w, p) if sum(c) == n - p * w]
            core = rng.choice(cores)
            cmds.append(["witness", "--core", _partition_text(core), "--w", str(w), "--p", str(p)])
        return cmds

    def check_inputs(self, seed):
        return []

    def units(self, seed):
        """Labels in the reported and in the certified blocks."""
        out = []
        for argv in self.commands(seed):
            if argv[0] == "blocks":
                out.append(ref.q(int(argv[2])))
                continue
            core, w, p = _parse_partition(argv[2]), int(argv[4]), int(argv[6])
            n = sum(core) + p * w
            out.append(sum(1 for lam in ref.distinct_partitions(n) if ref.abacus_core(lam, p) == (core, w)))
        return out

    def check(self, argv, text, extra):
        errors = []
        record = _parse_record(text, errors)
        if record is None:
            return errors
        if argv[0] == "blocks":
            self._check_blocks(int(argv[2]), int(argv[4]), record, errors)
        else:
            self._check_witness(_parse_partition(argv[2]), int(argv[4]), int(argv[6]), record, errors)
        return errors

    @staticmethod
    def _check_blocks(n, p, record, errors):
        payload = record["payload"]
        seen = []
        total_sq = 0
        for block in payload["blocks"]:
            core = _parse_partition(block["core"])
            w = block["weight"]
            if block["defect_class"] != _defect_class(p, w):
                errors.append("block %r: defect class %r" % (core, block["defect_class"]))
            vals = {}
            hz = []
            for entry in block["labels"]:
                lam = _parse_partition(entry["label"])
                seen.append(lam)
                if ref.abacus_core(lam, p) != (core, w):
                    errors.append("label %r: abacus core %r, block (%r, %d)"
                                  % (lam, ref.abacus_core(lam, p), core, w))
                count, degree = ref.alt_characters(lam)
                got = _as_int(entry["degree"], "degree", errors)
                sigma = 1 if (sum(lam) - len(lam)) % 2 == 0 else -1
                if got != degree or entry["num_characters"] != count or entry["sigma"] != sigma:
                    errors.append("label %r: degree %r x%r sigma %r, expected %d x%d sigma %d"
                                  % (lam, got, entry["num_characters"], entry["sigma"],
                                     degree, count, sigma))
                total_sq += count * degree * degree
                vals[lam] = (ref.valuation(degree, p), entry["height"], count, degree)
            low = min(v for v, _, _, _ in vals.values())
            for lam, (v, height, count, degree) in vals.items():
                if height != v - low:
                    errors.append("label %r: height %r, expected %d" % (lam, height, v - low))
                if v == low:
                    hz.extend([degree] * count)
            got_hz = [_as_int(d, "height_zero_degrees", errors) for d in block["height_zero_degrees"]]
            if got_hz != sorted(hz) or block["equal_degree"] != (len(set(hz)) <= 1):
                errors.append("block %r: height-zero degrees or equal_degree flag differ" % (core,))
        if sorted(seen) != sorted(ref.distinct_partitions(n)) or len(seen) != ref.q(n):
            errors.append("labels do not partition the %d strict partitions of %d" % (ref.q(n), n))
        if total_sq != math.factorial(n) // 2:
            errors.append("sum of squared degrees is not n!/2")
        cores = [_parse_partition(b["core"]) for b in payload["blocks"]]
        if cores != sorted(cores, reverse=True):
            errors.append("blocks are not ordered by core")

    @staticmethod
    def _check_witness(core, w, p, record, errors):
        if record["status"] != "pass":
            errors.append("status %r" % record["status"])
        (cert,) = record["payload"]["certificates"]
        n = sum(core) + p * w
        block = [lam for lam in ref.distinct_partitions(n) if ref.abacus_core(lam, p) == (core, w)]
        degrees = {lam: ref.alt_characters(lam)[1] for lam in block}
        low = min(ref.valuation(d, p) for d in degrees.values())
        a, b = _parse_partition(cert["label_a"]), _parse_partition(cert["label_b"])
        if a not in degrees or b not in degrees or a == b:
            errors.append("labels %r, %r are not two labels of the block" % (a, b))
            return
        da = _as_int(cert["degree_a"], "degree_a", errors)
        db = _as_int(cert["degree_b"], "degree_b", errors)
        if (da, db) != (degrees[a], degrees[b]) or da == db:
            errors.append("degrees %r, %r; Schur gives %d, %d" % (da, db, degrees[a], degrees[b]))
        if ref.valuation(degrees[a], p) != low or ref.valuation(degrees[b], p) != low:
            errors.append("a witness label is not of minimum valuation %d" % low)
        if core:
            target = ref.schur_h(core) % p
            for lam in (a, b):
                if ref.pprime_residue(lam, p) not in (target, (-target) % p):
                    errors.append("p'-residue of %r not congruent to +-H(core) mod %d" % (lam, p))
        checks = cert["checks"]
        want = {"same_block": True, "both_height_zero": True, "degrees_distinct": True,
                "congruence_ok": True if core else None}
        if checks != want or cert["verified"] is not True:
            errors.append("certificate checks %r, verified %r" % (checks, cert["verified"]))
        if (_parse_partition(cert["core"]), cert["weight"], cert["n"], cert["p"]) != (core, w, n, p):
            errors.append("certificate echoes the wrong block")


WORKLOADS = {"sweep": Sweep(), "ratios": Ratios(), "large-n": LargeN()}

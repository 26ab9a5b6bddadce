"""spinblocks benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep|ratios|large-n --seed N --seconds S --trace 0|1

Each round is a fresh Python process (child.py) that imports spinblocks
from ./src and runs the workload's CLI commands in-process, one after the
other. Rounds repeat until S seconds have passed; every round attempts the
same commands. Outputs are checked against reference.py after the timed
region. The last line of stdout is the result JSON; a fuller record,
with the environment and every sample, goes to perfbench/out/.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(one untraced round first, then traced rounds; see tracing.py).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 165  # a run must end within 180 s
SETUP_SAMPLES = 5  # set-up-only processes per run, on top of each round's own set-up
HASH_SEED = "0"


def child_env():
    env = dict(os.environ)
    env.pop("SPINBLOCKS_JOBS", None)  # keep the thread-pool paths unused
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode, as an installed package does
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(workload, seed, mode, deadline):
    """Run one child process; returns its record, or None and its stderr."""
    spans = os.path.join(OUT, "spans-%s.tsv.gz" % workload)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), mode, spans]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return None, "round timed out"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, proc.stderr.strip()[-2000:]
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - started
    record["round_s"] = time.monotonic() - started
    return record, proc.stderr


def git_commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        path = os.path.join(ROOT, ".git", ref_name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def check_rounds(wl, seed, rounds):
    """Count attempted and failed operations; every command of every round is one."""
    commands = wl.commands(seed)
    n_commands = len(commands)
    units = wl.units(seed)
    attempted = failed = 0
    wrong = False
    notes = []
    cache = {}
    per_round_units = []
    for rec, err in rounds:
        attempted += n_commands
        if rec is None:
            failed += n_commands
            notes.append("round failed: %s" % err)
            per_round_units.append(0)
            continue
        decided = 0
        for i, res in enumerate(rec["results"]):
            if res["rc"] != 0 or res["exception"]:
                failed += 1
                notes.append("%s: exit %r %s%s" % (" ".join(commands[i]), res["rc"],
                                                   res["stderr"][-300:], res["exception"] or ""))
                continue
            key = (i, res["stdout"], json.dumps(rec["extra"]))
            if key not in cache:
                try:
                    cache[key] = wl.check(commands[i], res["stdout"], rec["extra"])
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    cache[key] = ["output has an unexpected shape: %r" % (exc,)]
            errors = cache[key]
            if errors:
                failed += 1
                wrong = True
                notes.append("%s: %s" % (" ".join(commands[i]), "; ".join(errors[:5])))
            else:
                decided += units[i]
        per_round_units.append(decided)
    return attempted, failed, wrong, notes, per_round_units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "spinblocks", "__init__.py")):
        print("error: no spinblocks package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    self_test_failures = reference.self_test()

    # The first process compiles bytecode and warms the file cache; it is not a sample.
    warm, err = spawn(args.workload, args.seed, "setup", deadline)
    if warm is None:
        print("error: spinblocks could not be set up: %s" % err, file=sys.stderr)
        return 1
    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        rec, err = spawn(args.workload, args.seed, "setup", deadline)
        if rec is None:
            print("error: set-up failed: %s" % err, file=sys.stderr)
            return 1
        setup_samples.append(rec["setup_s"])

    start = time.monotonic()
    untraced = None
    if args.trace:
        untraced = spawn(args.workload, args.seed, "run", deadline)
    mode = "trace" if args.trace else "run"
    rounds = []
    while True:
        rounds.append(spawn(args.workload, args.seed, mode, deadline))
        now = time.monotonic()
        last = rounds[-1][0]["round_s"] if rounds[-1][0] else now - start
        if now - start + last / 2 >= args.seconds or now + 1.5 * last > deadline:
            break

    attempted, failed, wrong, notes, units = check_rounds(
        wl, args.seed, rounds + ([untraced] if untraced else []))
    ok_rounds = [rec for rec, _ in rounds if rec is not None]
    correct = not self_test_failures and not wrong
    metrics = {}
    if ok_rounds:
        verdicts = [rec["verdict_s"] for rec in ok_rounds]
        if args.trace:
            layers = {name: statistics.median(rec["layers"][name] for rec in ok_rounds)
                      for name in ok_rounds[0]["layers"]}
            unit_of = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
            if untraced[0] is not None:
                layers["trace.overhead_s"] = statistics.median(verdicts) - untraced[0]["verdict_s"]
            metrics = {name: {"value": value, "unit": unit_of[name]}
                       for name, value in sorted(layers.items()) if name in unit_of}
        else:
            rates = [u / rec["verdict_s"] for u, (rec, _) in zip(units, rounds) if rec is not None]
            metrics = {
                "setup_s": {"value": statistics.median(
                    setup_samples + [rec["setup_s"] for rec in ok_rounds]), "unit": "s"},
                "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
                "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "peak_rss_mib": {"value": statistics.median(
                    rec["peak_rss_kib"] / 1024 for rec in ok_rounds), "unit": "MiB"},
            }

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "spinblocks": warm["version"],
        "commit": git_commit(),
        "PYTHONHASHSEED": HASH_SEED,
    }
    full = {
        "args": vars(args), "env": env, "commands": wl.commands(args.seed),
        "units": wl.units(args.seed), "metrics": metrics, "notes": notes,
        "setup_samples": setup_samples,
        "rounds": [None if rec is None else dict(
            {k: v for k, v in rec.items() if k not in ("results", "extra")},
            command_s=[res["seconds"] for res in rec["results"]]) for rec, _ in rounds],
        "reference_self_test_failures": self_test_failures,
        "elapsed_s": time.monotonic() - begin,
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    for note in notes[:10]:
        print("failed: %s" % note, file=sys.stderr)
    print("env: %s" % json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())

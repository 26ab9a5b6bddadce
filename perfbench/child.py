"""One workload process: import spinblocks, build the command list, run one round.

Usage: python3 child.py ROOT WORKLOAD SEED MODE SPANS_PATH
MODE is "setup" (stop once the command list is built), "run" or "trace".

Each command is called in-process through spinblocks.cli.main with its
output captured. The process prints one JSON line: the time the command
list was ready (time.monotonic, comparable with the parent's clock), the
verdict time of the round, each command's exit code and output, the peak
resident memory, and in trace mode the per-layer summary of the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(root, workload, seed, mode, spans_path):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spinblocks
    import spinblocks.cli

    if not os.path.abspath(spinblocks.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("spinblocks imported from %s, not from %s" % (spinblocks.__file__, src))
    import workloads

    wl = workloads.WORKLOADS[workload]
    commands = wl.commands(seed)
    ready = time.monotonic()
    out = {"ready": ready, "version": spinblocks.__version__}
    if mode == "setup":
        return out

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for argv in commands:
        buf, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = spinblocks.cli.main(list(argv))
        except Exception:
            rc, exc = None, traceback.format_exc()
        results.append({"rc": rc, "seconds": time.perf_counter() - t0,
                        "stdout": buf.getvalue(), "stderr": err.getvalue(), "exception": exc})
    out["verdict_s"] = time.perf_counter() - start
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["results"] = results
    out["output_bytes"] = sum(len(r["stdout"].encode()) for r in results)
    if tracer is not None:
        tracer.uninstall()
        out["layers"], out["functions"] = tracer.summary()
        out["layers"]["cli.output_bytes"] = out["output_bytes"]
        tracer.write(spans_path)
    out["extra"] = [(item, _closed_form(spinblocks, *item)) for item in wl.check_inputs(seed)]
    return out


def _closed_form(spinblocks, kind, core, p, i, w):
    """The library's total closed-form ratio for one sampled construction step."""
    gamma = spinblocks.BarPartition(tuple(core))
    if kind == "grow":
        return str(spinblocks.grow_class_ratio(gamma, p, i, w))
    return str(spinblocks.add_part_ratio(gamma, p, w))


if __name__ == "__main__":
    root, workload, seed, mode, spans_path = sys.argv[1:6]
    record = main(root, workload, int(seed), mode, spans_path)
    sys.stdout.write(json.dumps(record) + "\n")

"""Span tracing of spinblocks' public functions, installed from outside.

Every public function of each layer module is replaced, in every
spinblocks namespace that bound it by name, by a wrapper that records one
span (id, parent id, function, start, end, result length). Spans stay in
memory; `summary` derives calls, self and inclusive times from them after
the timed region, and `write` dumps them at the end of the process.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time

LAYERS = ("barpart", "spinchar", "blocks", "constructions", "witness", "cli")

# Inclusive times of function groups: only the outermost span of a group counts.
GROUPS = {
    "constructions.closed_form": (
        "constructions.grow_class_ratio_parts",
        "constructions.grow_class_ratio",
        "constructions.add_part_ratio_parts",
        "constructions.add_part_ratio",
    ),
    "constructions.build": (
        "constructions.grow_class",
        "constructions.add_part_pw",
        "constructions.principal_pair",
    ),
    "barpart.labels_with_core_and_weight": ("barpart.labels_with_core_and_weight",),
    "blocks.heights": ("blocks.heights",),
    "constructions.compare_constructions": ("constructions.compare_constructions",),
    "witness.verify_witness": ("witness.verify_witness",),
    "cli.render": ("cli.render",),
}

# Functions whose calls are also counted per distinct argument tuple.
KEYED = ("barpart.bar_core_and_weight", "spinchar.spin_degree_sym")

CALLS = (
    "barpart.bars", "barpart.bar_core_and_weight", "barpart.remove_bar",
    "spinchar.spin_degree_sym", "spinchar.characters_of_label",
    "blocks.spin_blocks", "constructions.decompose_core", "witness.build_witness", "cli.main",
)
SELF = (
    "barpart.bars", "barpart.bar_core_and_weight", "barpart.enumerate_bar_partitions",
    "spinchar.spin_degree_sym", "blocks.spin_blocks",
    "constructions.verify_ratio_identities", "witness.check_conjecture", "cli.main",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (id, parent id, function index, start, end, result length)
        self.keys = {}  # function index -> set of distinct argument tuples
        self._stack = []
        self._ids = itertools.count()
        self._saved = []  # (namespace, attribute, original)

    def install(self, package="spinblocks"):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == package or name.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package, layer)]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._saved.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        stack, record, ids, perf = self._stack, self.spans.append, self._ids, time.perf_counter
        seen = self.keys.setdefault(idx, set()) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if seen is not None:
                seen.add((args, tuple(kwargs.items())))
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                record((sid, parent, idx, t0, t1,
                        len(result) if isinstance(result, (list, tuple)) else -1))

        return traced

    def summary(self):
        """Per-layer metrics of the recorded spans (see BENCHMARK.json per_layer)."""
        fn_of = {}
        parent_of = {}
        child_time = {}
        for sid, parent, idx, t0, t1, _ in self.spans:
            fn_of[sid] = idx
            parent_of[sid] = parent
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, _, idx, t0, t1, _ in self.spans:
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - child_time.get(sid, 0.0)
        by_name = {name: i for i, name in enumerate(self.names)}

        def ancestors(sid):
            sid = parent_of[sid]
            while sid != -1:
                yield fn_of[sid]
                sid = parent_of[sid]

        group_of = {}
        for group, members in GROUPS.items():
            for name in members:
                if name in by_name:
                    group_of[by_name[name]] = group
        inclusive = dict.fromkeys(GROUPS, 0.0)
        kept = scanned = 0
        lwcw = by_name.get("barpart.labels_with_core_and_weight")
        enum = by_name.get("barpart.enumerate_bar_partitions")
        for sid, _, idx, t0, t1, size in self.spans:
            group = group_of.get(idx)
            if group is not None and all(group_of.get(a) != group for a in ancestors(sid)):
                inclusive[group] += t1 - t0
                if idx == lwcw:
                    kept += max(size, 0)
            if idx == enum and lwcw is not None and lwcw in ancestors(sid):
                scanned += max(size, 0)

        def get(seq, name, default):
            return seq[by_name[name]] if name in by_name else default

        out = {}
        for name in CALLS:
            out[name + ".calls"] = get(calls, name, 0)
        for name in SELF:
            out[name + ".self_s"] = get(self_s, name, 0.0)
        for name in KEYED:
            distinct = len(self.keys.get(by_name.get(name), ()))
            out[name + ".repeat"] = get(calls, name, 0) / distinct if distinct else 0.0
        for group, seconds in inclusive.items():
            out[group + ".s"] = seconds
        out["barpart.labels_with_core_and_weight.scanned"] = scanned
        out["barpart.labels_with_core_and_weight.kept_ratio"] = (
            kept / scanned if scanned else (1.0 if kept else 0.0))
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                s for name, s in zip(self.names, self_s) if name.startswith(layer + "."))
        functions = {name: {"calls": calls[i], "self_s": self_s[i]}
                     for i, name in enumerate(self.names) if calls[i]}
        return out, functions

    def write(self, path):
        """Dump the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tfunction\tstart\tend\tlength\n")
            for sid, parent, idx, t0, t1, size in sorted(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % (sid, parent, self.names[idx], t0, t1, size))

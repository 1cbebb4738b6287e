"""Spans around radiuskit's public functions, recorded from outside.

``Tracer.patched()`` wraps every public function of each layer module and
installs the wrapper on every binding of it: the module attribute and each
by-name import elsewhere in the package (``hardness.verify_cover``,
``exact.bounds``, ``radius.complete_bipartite``, ...).  Spans are kept in
memory as ``[name, start, end, parent, job]`` and written out by the caller;
counts are input sizes read at the call boundary.
"""

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "radiuskit"
LAYERS = ("cli", "debruijn", "binseq", "radius", "exact", "hardness",
          "graphs")


def _unknown(args, result):
    return {"exact.unknown_count": int(not result.is_optimal)}


# Counts per function, from its bound arguments and its result.  Those
# marked "computed" are derived from arguments, not counted in the program.
COUNTERS = {
    "debruijn.min_normalized_cycle": lambda a, r: {
        "debruijn.min_normalized_cycle.vertices":
            a["g"].alphabet ** a["g"].k},
    "binseq.wk_walk": lambda a, r: {            # computed: t^k starts x s
        "binseq.wk_walk.walk_steps": a["alphabet"] ** a["k"] * a["s"]},
    "binseq.wk_brute": lambda a, r: {           # computed: t^s strings
        "binseq.wk_brute.strings": a["alphabet"] ** a["s"]},
    "radius.construct_bipartite": lambda a, r: {
        "radius.construct_bipartite.slots": r.length},
    "radius.verify_radius": lambda a, r: {
        "radius.verify_radius.items": len(a["seq"].items)},
    "radius.verify_cover": lambda a, r: {
        "radius.verify_cover.sets": len(a["cov"].sets),
        "radius.verify_cover.edges": a["cov"].graph.num_edges},
    "graphs.parse_graph": lambda a, r: {
        "graphs.parse_graph.edges": r.num_edges},
    "exact.exact_fk": _unknown,
    "exact.exact_ck": _unknown,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers on every binding; restore the originals after."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj,
                                         self._wrap(f"{layer}.{attr}", obj))
        restore = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    restore.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in restore:
                setattr(module, attr, obj)

    def self_times(self):
        """Self time per function: span time minus its children's time."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def root_time(self):
        """Time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")

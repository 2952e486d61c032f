"""Spans and counters recorded from outside the program.

The tracer wraps the module attributes that rtlmorph's callers resolve at
call time (`rtlmorph.equiv.elaborate`, `rtlmorph.harness.evaluate.
check_equivalence`, ...). Every binding of a target function in a loaded
`rtlmorph.*` module is replaced, so an import site added later is covered
without a change here, and `uninstall()` restores the originals.

`SimInstance.eval` is deliberately not wrapped: at about 9 us per call a
wrapper would distort it. Simulator speed comes from `simdrive` instead.
"""

import sys
from time import perf_counter

# (defining module, attribute, layer). Layers are named after the modules.
TARGETS = (
    ("rtlmorph.parser", "parse", "parser"),
    ("rtlmorph.elaborate", "elaborate", "elaborate"),
    ("rtlmorph.elaborate", "lint_synthesizable", "elaborate"),
    ("rtlmorph.sim", "SimInstance", "sim"),
    ("rtlmorph.equiv", "check_equivalence", "equiv"),
    ("rtlmorph.equiv", "negative_control", "equiv"),
    ("rtlmorph.morph", "mutate", "morph"),
    ("rtlmorph.emitter", "emit", "emitter"),
    ("rtlmorph.metrics", "structural_stats", "metrics"),
    ("rtlmorph.metrics", "normalize", "metrics"),
    ("rtlmorph.metrics", "aggregate", "metrics"),
    ("rtlmorph.metrics", "render_report", "metrics"),
    ("rtlmorph.metrics", "ratios_to_jsonl", "metrics"),
    ("rtlmorph.harness.manifest", "load_manifest", "harness"),
    ("rtlmorph.harness.evaluate", "evaluate", "harness"),
)

# Calls whose arguments and result the workloads read back afterwards.
KEEP_CALLS = {"check_equivalence", "negative_control", "mutate"}

OP = "op"  # the benchmark's own span around one op; not a layer


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "op")

    def __init__(self, layer, name, start, parent, op):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op

    @property
    def seconds(self):
        return self.end - self.start

    def to_json(self):
        return {"layer": self.layer, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op}


class Tracer:
    """Keeps spans in memory; `calls` holds (span index, args, kwargs,
    result) for the functions named in KEEP_CALLS."""

    def __init__(self):
        self.spans = []
        self.calls = []
        self._stack = []
        self._patched = []
        self.op = None

    def open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, perf_counter(), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        return self.open(OP, "op")

    def end_op(self, index):
        self.close(index)
        self.op = None

    def _wrapper(self, layer, name, original):
        keep = name in KEEP_CALLS

        def traced(*args, **kwargs):
            index = self.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if keep:
                self.calls.append((index, args, kwargs, result))
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        for module_name, attr, layer in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # a layer function that no longer exists
            wrapper = self._wrapper(layer, attr, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "rtlmorph" or
                                          name.startswith("rtlmorph.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def child_seconds(spans, first=0):
    """Seconds covered by each span's direct children, indexed like spans;
    only spans[first:] are counted."""
    child = [0.0] * len(spans)
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            child[s.parent] += s.seconds
    return child


def self_times(spans, first=0):
    """Per-layer self time over spans[first:]: each span's duration minus
    the part its direct children cover."""
    child = child_seconds(spans, first)
    out = {}
    for i in range(first, len(spans)):
        s = spans[i]
        if s.layer != OP:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child[i]
    return out

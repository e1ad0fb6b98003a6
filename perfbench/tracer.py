"""Span tracer that wraps weylcoh's public functions from outside.

The program is not modified.  install() replaces every public function of
the layer modules in every weylcoh.* namespace that binds it (a
`from .posetmod import ic_module` binding would bypass a patch on the
defining module alone), and every public method of the classes those
modules define, except the constant-time helpers in SKIP.  Each call
records a span (name, start, end, parent) in a flat in-memory array;
write() saves them when the pass ends.

A span's exclusive time is its duration minus that of its child spans; a
layer's self time is the sum of the exclusive times of its spans, so time
spent in another layer's functions is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = (
    "roots",
    "kostant",
    "threads",
    "posetmod",
    "snf",
    "microsupport",
    "satake",
    "suites",
    "cli",
)
LAYER_MODULES = {f"weylcoh.{layer}": layer for layer in LAYERS}

# Constant-time helpers and accessors, left unwrapped: they made up over four
# fifths of all spans (8.6M in one verify-rest pass) and carry no layer time
# worth attributing.
SKIP = frozenset({
    "posetmod.face_key",
    "posetmod.PosetModule.rank",
    "posetmod.PosetModule.degrees",
    "posetmod.PosetModule.faces",
    "posetmod.PosetModule.map_matrix",
    "posetmod.ChainComplex.rank",
    "posetmod.ChainComplex.diff",
    "posetmod.GradedAbelian.free_rank",
    "posetmod.GradedAbelian.torsion",
    "posetmod.GradedAbelian.degrees",
    "snf.shape",
    "snf.zero_matrix",
    "snf.is_zero_matrix",
    "roots.Parabolic.levi_positive_indices",
    "roots.RootSystem.identity_element",
    "roots.RootSystem.simple_reflection",
    "roots.RootSystem.simple_coords",
    "roots.RootSystem.from_simple_coords",
    "roots.WeylElement.apply_coords",
    "roots.WeylElement.is_identity",
    "roots.WeylElement.descends_right",
})


def _face_text(a):
    return tuple(sorted(a))


def _ic_module_key(index_set, cutoffs, order=None):
    return (
        tuple(sorted(index_set)),
        tuple(sorted((_face_text(a), v) for a, v in cutoffs.items())),
        None if order is None else tuple(_face_text(a) for a in order),
    )


def _kostant_key(lam_coords, P):
    return (P.system.cartan_type, P.system.rank, tuple(lam_coords), tuple(sorted(P.levi)))


def _shape_key(mat):
    return (len(mat), len(mat[0]) if mat else 0)


def _suite_key(name, *args, **kwargs):
    return name


# Argument keys recorded at the boundary, for the waste ratios and sizes.
ARG_KEYS = {
    "posetmod.ic_module": _ic_module_key,
    "kostant.kostant_decomposition": _kostant_key,
    "snf.snf_divisors": _shape_key,
    "suites.run_suite": _suite_key,
}


def _is_function(obj):
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """The spans of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # flat records: name id, start, end, parent
        self.stack = [-1]
        self.keys: dict[str, list] = defaultdict(list)  # name -> (span, key)
        self._wrapped: dict[int, object] = {}

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        key_of = ARG_KEYS.get(name)
        keys = self.keys[name]

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not counted as the generator's
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    pos = len(spans)
                    spans.extend((nid, clock(), 0, stack[-1]))
                    stack.append(pos)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[pos + 2] = clock()
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                pos = len(spans)
                spans.extend((nid, clock(), 0, stack[-1]))
                stack.append(pos)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[pos + 2] = clock()
                    if key_of is not None:
                        keys.append((pos, key_of(*args, **kwargs)))

        self._wrapped[id(fn)] = wrapper
        return wrapper

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(member.__func__, name)))
            elif isinstance(member, types.FunctionType):
                setattr(cls, attr, self._wrap(member, name))

    def install(self):
        """Wrap the public functions and methods of every loaded layer."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "weylcoh" or n.startswith("weylcoh.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                layer = LAYER_MODULES.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(obj, layer)
                elif _is_function(obj):
                    name = f"{layer}.{obj.__name__}"
                    if name not in SKIP:
                        setattr(mod, attr, self._wrap(obj, name))
        return self

    # -- analysis ------------------------------------------------------------

    def span_count(self):
        return len(self.spans) // 4

    def durations(self, name):
        """Durations in seconds of the spans of one name, by span position."""
        nids = {i for i, n in enumerate(self.names) if n == name}
        sp = self.spans
        return {
            pos: (sp[pos + 2] - sp[pos + 1]) / 1e9
            for pos in range(0, len(sp), 4)
            if sp[pos] in nids
        }

    def summary(self):
        """Calls per span name and self seconds per layer."""
        sp = self.spans
        n = len(sp) // 4
        child = [0] * n
        for i in range(n):
            parent = sp[4 * i + 3]
            if parent >= 0:
                child[parent // 4] += sp[4 * i + 2] - sp[4 * i + 1]
        calls = defaultdict(int)
        self_ns = {layer: 0 for layer in LAYERS}
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            nid = sp[4 * i]
            calls[self.names[nid]] += 1
            self_ns[layer_of[nid]] += sp[4 * i + 2] - sp[4 * i + 1] - child[i]
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        }

    def write(self, path):
        """Save the spans as raw int64 records plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        header = {
            "fields": ["name", "start_ns", "end_ns", "parent_offset"],
            "names": self.names,
            "spans": self.span_count(),
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")

"""Layer tracer for the benchmark's traced runs.

It changes nothing under ``src/``: ``install`` replaces the public
functions of each layer module with timing wrappers, in every
``chowfan.*`` namespace that binds them (``from .cones import ...``
copies a reference into the importing module, so each copy is rebound).

A span opens only when the calling layer changes.  A layer's self time is
the sum of its spans' durations minus the time covered by their child
spans.  Spans that open no child span (the hot leaves: hundreds of
thousands of ``hermite_normal_form`` calls on the rank-4 input) are not
stored one by one; they are folded into a ``(request, parent span,
function)`` counter and time accumulator.  Every wrapped function also
keeps a call count and its outermost inclusive time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import types

LAYERS = (
    "intlinalg", "cones", "monoids", "stacks", "chow",
    "family", "verify", "serialize", "cli",
)

# Vector and matrix primitives with sub-microsecond bodies, called millions
# of times: a wrapper would cost more than the call, so their time is
# charged to the calling layer.
UNWRAPPED = frozenset({
    "dot", "identity_matrix", "is_zero", "mat", "mat_mul", "mat_vec",
    "primitive", "transpose", "vadd", "vec", "vec_gcd", "vscale", "vsub",
})

# Constructors whose results count as canonical cones for dd_per_new_cone.
CONE_CONSTRUCTORS = ("cones.cone_from_generators", "cones.cone_from_halfspaces")


class Tracer:
    def __init__(self) -> None:
        self.request = ""
        self.functions: dict[str, list] = {}  # name -> [calls, seconds, depth]
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counters = {
            "monoids.hilbert_basis_elems": 0,
            "chow.quotient_cones": 0,
            "family.family_cones": 0,
            "serialize.output_bytes": 0,
        }
        self.cone_keys: set = set()
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = {}
        self._ids = itertools.count(1)
        # frame: [layer, span id, seconds covered by child spans, has child spans]
        self.stack: list[list] = [["bench", 0, 0.0, False]]

    # -- result hooks -----------------------------------------------------

    def _hooks(self):
        c = self.counters

        def hilbert(m):
            c["monoids.hilbert_basis_elems"] += len(m.hilbert_basis)

        def quotient(cq):
            c["chow.quotient_cones"] += len(cq.quotient_fan.cones)

        def family(fam):
            c["family.family_cones"] += len(fam.fan.cones)

        def output(text):
            c["serialize.output_bytes"] += len(text)

        def cone(k):
            self.cone_keys.add(k.key())

        hooks = {
            "monoids.saturated_monoid": hilbert,
            "chow.chow_quotient": quotient,
            "family.universal_family": family,
            "serialize.dumps": output,
        }
        hooks.update(dict.fromkeys(CONE_CONSTRUCTORS, cone))
        return hooks

    def wrap(self, layer: str, name: str, fn, hook=None):
        stat = self.functions[name] = [0, 0.0, 0]
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            outer = not stat[2]
            parent = stack[-1]
            frame = None
            if parent[0] != layer:
                frame = [layer, next(self._ids), 0.0, False]
                stack.append(frame)
            stat[2] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat[2] -= 1
                if outer:
                    stat[1] += t1 - t0
                if frame is not None:
                    stack.pop()
                    close(frame, parent, name, t0, t1)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _close(self, frame, parent, name, t0, t1) -> None:
        layer, span_id, covered, has_children = frame
        d = t1 - t0
        self.layer_calls[layer] += 1
        self.layer_self[layer] += d - covered
        parent[2] += d
        parent[3] = True
        if has_children:
            self.spans.append((self.request, span_id, parent[1], layer, name, t0, t1))
        else:
            key = (self.request, parent[1], name)
            acc = self.leaves.get(key)
            if acc is None:
                self.leaves[key] = [1, d]
            else:
                acc[0] += 1
                acc[1] += d

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "layers": {
                layer: [self.layer_calls[layer], self.layer_self[layer]] for layer in LAYERS
            },
            "functions": {name: stat[:2] for name, stat in self.functions.items()},
            "counters": dict(self.counters),
            "distinct_cones": len(self.cone_keys),
        }

    def write(self, path: str) -> None:
        """Write spans and folded leaves as JSON lines."""
        with open(path, "w") as fh:
            for request, span_id, parent, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "request": request, "span": span_id, "parent": parent,
                    "layer": layer, "function": name, "start": t0, "end": t1,
                }) + "\n")
            for (request, parent, name), (count, seconds) in self.leaves.items():
                fh.write(json.dumps({
                    "request": request, "parent": parent, "function": name,
                    "layer": name.split(".", 1)[0], "leaf_calls": count,
                    "leaf_seconds": seconds,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, wherever it is bound."""
    hooks = tracer._hooks()
    replacement = {}
    for layer in LAYERS:
        module = sys.modules[f"chowfan.{layer}"]
        for attr, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in UNWRAPPED
            ):
                name = f"{layer}.{attr}"
                replacement[id(obj)] = (obj, tracer.wrap(layer, name, obj, hooks.get(name)))
    for modname, module in list(sys.modules.items()):
        if modname != "chowfan" and not modname.startswith("chowfan."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replacement.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])

"""Spans around every call into a kdqflux layer, set from outside the package.

Each public function of a layer module (and the ``__post_init__`` validation
of its dataclasses) is replaced by a wrapper that records a span: name,
start, end, parent span and op id. The wrapper is bound in every kdqflux
namespace that holds the same function object, because a name imported with
``from .linalg import trace_norm`` would otherwise bypass it. Spans are kept
in memory and only while an op runs.
"""

import functools
import gzip
import inspect
import sys
import time

import numpy as np

LAYERS = ("model", "linalg", "engine", "tomography", "witnesses", "analysis",
          "cli")

SPAN_DTYPE = np.dtype([("name", np.int32), ("start", np.float64),
                       ("end", np.float64), ("parent", np.int32),
                       ("op", np.int32)])


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kdqflux" or name.startswith("kdqflux."))]


def _targets(module):
    """(owner, attribute, function) of everything traced in one layer module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj
        elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("__post_init__")):
            yield obj, "__post_init__", vars(obj)["__post_init__"]


class Tracer:
    """Span-recording wrappers for one ``kdqflux`` package, and their spans.

    The wrappers are built once; :meth:`install` binds them and
    :meth:`uninstall` puts the original functions back.
    """

    def __init__(self, kdqflux):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = None
        self.counters = dict.fromkeys(
            ("engine.collisions", "engine.history_bytes",
             "tomography.maps_inverted", "tomography.singular_errors",
             "analysis.records"), 0)
        self._seen_errors: set[int] = set()
        self._singular = kdqflux.tomography.SingularMapError
        self._bindings = self._bind(kdqflux)

    # ---------------------------------------------------------- counters

    def _observe(self, name, args, result, exc):
        c = self.counters
        if exc is not None:
            if isinstance(exc, self._singular) and id(exc) not in self._seen_errors:
                self._seen_errors.add(id(exc))
                c["tomography.singular_errors"] += 1
            partial = getattr(exc, "partial_result", None)
            if name == "analysis.analyze" and partial is not None:
                c["analysis.records"] += len(partial.records)
            return
        if name == "engine.evolve_batch":
            config, initial = args[0], np.asarray(args[1])
            k = initial.shape[0]
            c["engine.collisions"] += k * config.n_max
            # size of the (n_max + 1, k, 4, 4) complex128 joint history
            history = (config.n_max + 1) * k * 16 * 16
            c["engine.history_bytes"] = max(c["engine.history_bytes"], history)
        elif name == "tomography.invert_affine":
            c["tomography.maps_inverted"] += 1
        elif name == "analysis.analyze":
            c["analysis.records"] += len(result.records)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name, layer):
        index = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock, observe = self.spans, self.stack, time.perf_counter, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op_id
            if op is None:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                observe(name, args, None, exc)
                raise
            else:
                end = clock()
                observe(name, args, result, None)
                return result
            finally:
                stack.pop()
                spans[slot] = (index, start, end, parent, op)

        return traced

    def _bind(self, kdqflux) -> list:
        """(owner, attribute, original, wrapper) for every traced name."""
        bindings, wrapper_of = [], {}
        for layer, layer_name in enumerate(LAYERS):
            module = getattr(kdqflux, layer_name)
            for owner, attr, fn in _targets(module):
                label = (f"{layer_name}.{attr}" if owner is module
                         else f"{layer_name}.{owner.__name__}.{attr}")
                wrapper = self._wrap(fn, label, layer)
                if owner is module:
                    wrapper_of[id(fn)] = (fn, wrapper)
                else:
                    bindings.append((owner, attr, fn, wrapper))
        for ns in _namespaces():
            for attr, obj in vars(ns).items():
                hit = wrapper_of.get(id(obj))
                if hit is not None and hit[0] is obj:
                    bindings.append((ns, attr, obj, hit[1]))
        return bindings

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def span_array(self) -> np.ndarray:
        return np.array(self.spans, dtype=SPAN_DTYPE)

    def layer_summary(self, spans: np.ndarray) -> dict:
        """Self time and call count per layer; self = span minus child spans."""
        duration = spans["end"] - spans["start"]
        child = np.zeros(len(spans))
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        layer = np.array(self.layer_of, dtype=np.int64)[spans["name"]]
        self_time = np.bincount(layer, weights=duration - child,
                                minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        return {name: (float(self_time[i]), int(calls[i]))
                for i, name in enumerate(LAYERS)}

    def write_spans(self, path, spans: np.ndarray) -> None:
        """Spans as gzip CSV: name, start and end in seconds, parent row, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in spans.tolist():
                fh.write(f"{self.names[name]},{start:.9f},{end:.9f},{parent},{op}\n")

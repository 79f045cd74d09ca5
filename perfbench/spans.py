"""Per-layer tracing by wrapping the public functions of ``groupsample``.

A :class:`Tracer` replaces every public function and method of the layer
modules, including the copies other modules imported by name, with a wrapper
that records a span.  Spans nest on one stack, so the parent of a span is the
span below it.  A span's self time is its duration minus the time of its
child spans; a layer's inclusive time is the time during which at least one
of its spans is open.  Spans are folded into per-name totals as they close;
nothing is written until the benchmark asks for :meth:`Tracer.metrics`.

The library itself is not changed: the wrappers live only in the traced
process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "groups", "grids", "pointsets", "analysis", "kernels", "frames")

# span names reported under another name
_RENAME = {
    "frames.__init__": "frames.frame_setup",  # FrameSystem construction
    "groups.estimate_triangle_constant": "groups.triangle_constant",
}
_GAUGE = ("groups.gauge", "groups.norm")
# timed by the benchmark itself as cli.<experiment>.s; as a span it would
# cover the whole pass
_SKIP = ("cli.run_experiment",)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child_seconds, reached_eigsh]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.open_spans = defaultdict(int)  # layer -> spans open now
        self.inclusive_s = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's public callables, then the two scipy routines
        the eigensolver spends its time in."""
        import groupsample

        modules = {m: importlib.import_module(f"groupsample.{m}") for m in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{name}" not in _SKIP:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind the copies imported by name (``from .pointsets import ...``)
        for mod in [groupsample, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

        import scipy.sparse.linalg as spla

        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        spla.eigsh = self._wrap(spla.eigsh, "analysis.eigsh")
        arpack.splu = self._wrap(arpack.splu, "analysis.splu")

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if name == "__init__" and cls.__name__ != "FrameSystem":
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, f"{layer}.{name}")))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, f"{layer}.{name}"))

    def _wrap(self, fn, name):
        name = _RENAME.get(name, name)
        layer = name.split(".", 1)[0]
        stack = self.stack
        open_spans = self.open_spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0, False]
            stack.append(frame)
            open_spans[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                open_spans[layer] -= 1
                if not open_spans[layer]:
                    self.inclusive_s[layer] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            self._count(name, frame, args, out)
            return out

        return span

    # -- counters ----------------------------------------------------------

    def _count(self, name, frame, args, out):
        parent = self.stack[-1][0] if self.stack else None
        if name == "groups.mul":
            self.counts["groups.mul.elements"] += np.asarray(out).size // args[0].dim
        elif name in _GAUGE and parent not in _GAUGE:
            n = np.asarray(out).size
            self.counts["groups.gauge.elements"] += n
            if any(f[0].startswith("pointsets.") for f in self.stack):
                self.counts["pointsets.gauge_evals"] += n
        elif name == "grids.interpolate":
            self.counts["grids.interpolate.points"] += np.asarray(args[2]).size // args[1].dim
        elif name == "kernels.basis_at":
            self.counts["kernels.basis_at.elements"] += np.asarray(out).size
        elif name == "frames.reconstruct":
            self.counts["frames.reconstruct.iterations"] += out.iterations
        elif name == "analysis.eigsh":
            for f in reversed(self.stack):
                if f[0] == "analysis.sublaplacian_spectrum":
                    f[2] = True
                    break
        elif name == "analysis.sublaplacian_spectrum" and frame[2]:
            self.counts["analysis.sublaplacian_spectrum.misses"] += 1

    # -- results -----------------------------------------------------------

    def cache_work(self):
        """Cache lookups seen so far: ``sublaplacian_spectrum`` calls, those
        that reached ``eigsh`` and ``estimate_constants`` calls (the misses
        of the C_G cache)."""
        return {
            "spectrum_calls": self.calls.get("analysis.sublaplacian_spectrum", 0),
            "spectrum_misses": self.counts.get("analysis.sublaplacian_spectrum.misses", 0),
            "constants_misses": self.calls.get("analysis.estimate_constants", 0),
        }

    def covered_s(self):
        """Wall time inside any span (self times of nested spans add up)."""
        return sum(self.self_s.values())

    def layer_self_s(self):
        """Self time summed over the spans of each layer."""
        out = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def metrics(self):
        """``<layer>.<fn>.calls`` / ``.self_s`` for every span name seen,
        ``<layer>.inclusive_s``, the extra counters, and the norm + gauge
        total under ``groups.gauge``."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer, secs in self.inclusive_s.items():
            out[f"{layer}.inclusive_s"] = secs
        out.update(self.counts)
        out["groups.gauge.self_s"] = sum(self.self_s.get(n, 0.0) for n in _GAUGE)
        return out

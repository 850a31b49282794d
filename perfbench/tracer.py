"""Span tracer for holderforms, installed from outside the package.

``install`` rebinds, in every ``holderforms.*`` namespace, each public
function the package defines to a wrapper that records a span: calls,
inclusive time and self time (inclusive time minus the time covered by
child spans).  Because every namespace is rebound, callers that did
``from .chains import measure_disk`` reach the wrapper too.

Two things are counted rather than spanned, so that their time stays in
the measure or integral that asked for them:

* the quadrature drivers of ``chains`` (module-level names ending in
  ``quadrature``, public or private);
* ``numpy.polynomial.legendre.leggauss``, counted as ``<module>.gl_rules``
  against the module of the innermost open span.

The work counts in ``HOOKS`` are read from a span's arguments or result
when it ends.

One method is spanned: ``GridField.evaluate``, the read path of every
grid-sampled form.  Other methods are not wrapped; their time stays in
their caller.  Classes are never wrapped, so ``isinstance`` keeps working.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np
from numpy.polynomial import legendre

PACKAGE = "holderforms"
# Outermost calls of these spans are summed into mollify.kernel_constants_s.
KERNEL_CONSTANTS = {"mollify.normalization_constant", "mollify.deta_l1"}
HOOK_ERRORS = (AttributeError, TypeError, ValueError, KeyError, IndexError,
               OSError)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.stack = []          # [key, time covered by child spans]
        self.spans = {}          # key -> [calls, inclusive_s, self_s]
        self.counts = Counter()  # work counts, and summed seconds
        self.top_s = 0.0         # time covered by outermost spans

    def span(self, key, fn, hook=None):
        stack, spans = self.stack, self.spans
        spans.setdefault(key, [0, 0.0, 0.0])
        kernel = key in KERNEL_CONSTANTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                st = spans[key]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
                if kernel and not any(f[0] in KERNEL_CONSTANTS
                                      for f in stack):
                    self.counts["mollify.kernel_constants_s"] += dur
            if hook is not None:
                try:
                    hook(self.counts, fn, args, kwargs, result)
                except HOOK_ERRORS:
                    self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_by_layer(self, suffix, fn):
        """Count calls against the module of the innermost open span."""
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = stack[-1][0].split(".", 1)[0] if stack else "untraced"
            counts[f"{layer}.{suffix}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "top_s": self.top_s}


# --- work counts taken at the span boundary ---------------------------------

def _seminorm_pairs(counts, fn, args, kwargs, result):
    """Distinct node pairs whose quotient the estimate takes into account."""
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    pairs = a.get("pairs")
    if pairs is not None:
        counts["grids.holder_seminorm.pairs"] += int(len(pairs))
        return
    field = next(iter(a.values()))
    nodes = int(np.prod(field.resolution))
    grids = sys.modules[f"{PACKAGE}.grids"]
    cap = a.get("max_nodes", getattr(grids, "MAX_ALL_PAIR_NODES", None))
    n = nodes if cap is None else min(nodes, int(cap))
    counts["grids.holder_seminorm.pairs"] += n * (n - 1) // 2


def _evaluate_points(counts, fn, args, kwargs, result):
    field = args[0]
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    size = int(np.size(pts))
    counts["grids.evaluate.points"] += size // 2 if field.dim == 2 else size


def _disks(counts, fn, args, kwargs, result):
    counts["inequality.disks"] += len(result)


def _strips(counts, fn, args, kwargs, result):
    counts["decay.strips"] += sum(int(step.n) for step in result.steps)


def _csv_bytes(counts, fn, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["cli.csv_bytes"] += os.path.getsize(path)


HOOKS = {
    "grids.holder_seminorm": _seminorm_pairs,
    "grids.evaluate": _evaluate_points,
    "inequality.verify_main_inequality": _disks,
    "decay.decay_bound_series": _strips,
    "cli.write_csv": _csv_bytes,
}


def _is_package_function(obj, module_name):
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module_name)


def install(tracer: Tracer) -> None:
    """Wrap every loaded holderforms module; call after importing the CLI."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")}
    wrappers = {}  # id(original) -> (original kept alive, wrapper)
    for name, mod in modules.items():
        layer = name[len(PACKAGE) + 1:]
        if not layer:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("__") or not _is_package_function(obj, name):
                continue
            if layer == "chains" and attr.endswith("quadrature"):
                wrap = tracer.counted(f"chains.{attr.lstrip('_')}.calls", obj)
            elif attr.startswith("_"):
                continue
            else:
                key = f"{layer}.{attr}"
                wrap = tracer.span(key, obj, HOOKS.get(key))
            wrappers[id(obj)] = (obj, wrap)

    gl = legendre.leggauss
    wrappers[id(gl)] = (gl, tracer.counted_by_layer("gl_rules", gl))
    legendre.leggauss = wrappers[id(gl)][1]

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None:
                setattr(mod, attr, hit[1])

    grid_field = modules[f"{PACKAGE}.grids"].GridField
    grid_field.evaluate = tracer.span("grids.evaluate", grid_field.evaluate,
                                      HOOKS["grids.evaluate"])

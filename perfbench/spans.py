"""Span tracing for the traced run, built from the benchmark's side only.

``install`` swaps wrappers in for the library's public functions and
methods, at every place the library looks them up: ``laurent``, ``bivar``
and ``cli`` import kernels and builders by name, so a kernel is replaced
in ``knotpoly.laurent`` and ``knotpoly.bivar`` as well as in
``knotpoly._kernels``.  ``uninstall`` puts every original back; the
untraced runs never see a wrapper.

Each wrapped call records a span (name, start, end, parent) in flat
arrays, kept in memory and written out when the run ends.  A span's self
time is its duration minus the part its child spans cover; the process is
single-threaded, so children never overlap and that part is the sum of
their durations.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from collections import defaultdict

# Span names, by owner.  Per-layer metrics group invariants.*, chebyshev.*
# and qnumbers.* spans by module; every other span name is its own layer.
KERNEL_SPANS = {
    "mul_terms": "kernels.mul_terms",
    "bi_mul_terms": "kernels.bi_mul_terms",
    "add_terms": "kernels.addsub",
    "sub_terms": "kernels.addsub",
    "neg_terms": "kernels.addsub",
    "scale_terms": "kernels.addsub",
}
RING_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__pow__", "__neg__")
COERCING = ("__add__", "__radd__", "__sub__", "__rsub__")   # the _coerce -> constant path
CLASS_SPANS = {
    "LaurentPoly": {"render": "laurent.render", "to_json_dict": "laurent.render",
                    "compose": "laurent.compose", "eval_complex": "laurent.eval_complex",
                    "sqrt_perfect": "laurent.sqrt_perfect"},
    "BiPoly": {"render": "bivar.render", "to_json_dict": "bivar.render",
               "substitute": "bivar.substitute", "eval_complex": "bivar.eval_complex",
               "sqrt": "bivar.sqrt"},
    "RadicalExpr": {"render": "bivar.render", "to_json_dict": "bivar.render",
                    "eval_complex": "bivar.eval_complex"},
}
RING_SPANS = {"LaurentPoly": "laurent.ring", "BiPoly": "bivar.ring"}
BUILDER_MODULES = ("invariants", "chebyshev", "qnumbers")


class Tracer:
    """Records nested spans and the counters kept at the same boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(self.clock())
        self.end.append(0)
        self._open.append(idx)
        return idx

    def leave(self, idx):
        self.end[idx] = self.clock()
        self._open.pop()

    def wrap(self, name, fn, count_int=None):
        """``fn`` recording a span named ``name``; with ``count_int`` set,
        calls whose second argument is an int also bump that counter."""
        nid = self.name_id(name)
        enter, leave, counters = self.enter, self.leave, self.counters

        def traced(*args, **kwargs):
            if count_int and isinstance(args[1], int):
                counters[count_int] += 1
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_product(self, name, fn):
        """A multiplication kernel, with its operation count and sizes."""
        nid = self.name_id(name)
        enter, leave, counters = self.enter, self.leave, self.counters

        def traced(a, b):
            idx = enter(nid)
            try:
                out = fn(a, b)
            finally:
                leave(idx)
            bits = [c.bit_length() for c in a.values()]
            bits += [c.bit_length() for c in b.values()]
            counters[name + ".term_products"] += len(a) * len(b)
            counters[name + ".out_terms"] += len(out)
            counters[name + ".operand_bits"] += sum(bits)
            if bits and max(bits) > counters[name + ".max_coeff_bits"]:
                counters[name + ".max_coeff_bits"] = max(bits)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        return self_times(self.names, self.name, self.start, self.end, self.parent)

    def write(self, path):
        """Write the spans as JSON: the name table, then one row of
        (name id, start, end, parent index) per span."""
        with open(path, "w") as fh:
            json.dump({"clock": "ns", "names": self.names,
                       "fields": ["name", "start", "end", "parent"]}, fh)
            fh.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write("%d %d %d %d\n" % row)


def self_times(names, name_ids, starts, ends, parents):
    """Per span name: [calls, total self time], from spans given as
    parallel columns.  A span's self time is its duration minus the
    durations of the spans whose parent it is."""
    covered = array("q", [0]) * len(starts)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            covered[parent] += end - start
    totals = [[0, 0] for _ in names]
    for nid, start, end, cover in zip(name_ids, starts, ends, covered):
        totals[nid][0] += 1
        totals[nid][1] += end - start - cover
    return {name: total for name, total in zip(names, totals) if total[0]}


def layer_of(span_name):
    head = span_name.split(".", 1)[0]
    return head if head in BUILDER_MODULES else span_name


# -- patching ----------------------------------------------------------------


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "knotpoly" or name.startswith("knotpoly."))]


def install(tracer):
    """Patch the library; returns the record ``uninstall`` needs."""
    import knotpoly
    from knotpoly import _kernels, cli

    replacements = {}   # id(original) -> (original, wrapper)
    for attr, name in KERNEL_SPANS.items():
        fn = getattr(_kernels, attr)
        wrapper = (tracer.wrap_product(name, fn) if "mul_terms" in name
                   else tracer.wrap(name, fn))
        replacements[id(fn)] = (fn, wrapper)
    for modname in BUILDER_MODULES:
        module = sys.modules[f"knotpoly.{modname}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType):
                replacements[id(fn)] = (fn, tracer.wrap(f"{modname}.{attr}", fn))
    replacements[id(cli.run)] = (cli.run, tracer.wrap("cli", cli.run))

    patches = []
    for module in _library_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, replacements[id(value)][1])
    for clsname, methods in CLASS_SPANS.items():
        cls = getattr(knotpoly, clsname)
        targets = dict(methods)
        if clsname in RING_SPANS:
            targets.update({m: RING_SPANS[clsname] for m in RING_METHODS})
        for attr, name in targets.items():
            fn = cls.__dict__[attr]
            count = name + ".int_operand_calls" if attr in COERCING else None
            patches.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(name, fn, count_int=count))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

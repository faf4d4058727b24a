"""Spans around the calls into amoh's layers, installed from outside.

A span records (name, start, end, parent span, op id).  Spans are kept in
memory in flat arrays and written out when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.

Wrappers replace each public module-level function in every amoh module
that holds it by name (amoh.line.common_parameter is the same function as
amoh.decompose.common_parameter, and both are wrapped), and a few methods
on their classes.  uninstall() puts the originals back.
"""

import functools
import json
import sys
import time
from array import array
from fractions import Fraction

# Methods wrapped on their classes, with their span names.
METHODS = (
    ("amoh.field_poly", "Poly", "__mul__", "field_poly.mul"),
    ("amoh.field_poly", "Poly", "__divmod__", "field_poly.divmod"),
    ("amoh.field_poly", "Poly", "compose", "field_poly.compose"),
    ("amoh.field_poly", "BivarExpr", "eval", "field_poly.eval"),
    ("amoh.field_poly", "BivarExpr", "__mul__", "field_poly.bivar_mul"),
)
# Modules whose public functions (their __all__) are wrapped.
MODULES = ("field_poly", "subalgebra", "decompose", "line", "cli")
# cli functions that turn results into output text, outside cli.__all__.
RENDER = ("render_poly", "render_expr", "_member_obj")


def _bits(coeffs):
    top = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > top:
                top = b
    return top


class Tracer:
    """The spans and counts of one traced run.  Set `op` to the id of the
    op about to run; spans record it."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = [-1]
        self.op = -1
        self.counts = {}
        self._saved = []

    def _id(self, name):
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, before=None, after=None):
        """fn wrapped in a span.  before(args) and after(result) record
        counts; an exception leaving fn is counted as `<name>.rejected`."""
        nid = self._id(name)
        rejected = name + ".rejected"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1])
            self.op_of.append(self.op)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(rejected, 1)
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def _hooks(self, name):
        if name == "field_poly.mul":
            def before(args):
                a, b = args
                if hasattr(b, "coeffs"):
                    self.count(name + ".coeff_products", len(a.coeffs) * len(b.coeffs))
                    bits = max(_bits(a.coeffs), _bits(b.coeffs))
                    if bits > self.counts.get(name + ".max_bits", 0):
                        self.counts[name + ".max_bits"] = bits
            return before, None
        if name == "field_poly.eval":
            return (lambda args: self.count(name + ".terms", len(args[0].terms))), None
        if name == "cli.parse_poly":
            return (lambda args: self.count(name + ".chars", len(args[0]))), None
        if name == "subalgebra.sagbi_basis":
            return None, (lambda basis: self.count(name + ".basis_size", len(basis.elements)))
        return None, None

    def _replace(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "amoh" and not modname.startswith("amoh."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self):
        import amoh  # noqa: F401  (loads every submodule)

        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name, *self._hooks(name)))
        for short in MODULES:
            mod = sys.modules["amoh." + short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                name = f"{short}.{attr}"
                self._replace(fn, self.wrap(fn, name, *self._hooks(name)))
        cli = sys.modules["amoh.cli"]
        for attr in RENDER:
            fn = getattr(cli, attr)
            self._replace(fn, self.wrap(fn, "cli.render"))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: calls and self time in ns."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = {name: 0 for name in self.names}
        self_ns = {name: 0 for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - covered[i]
        return calls, self_ns

    def write(self, path):
        """All spans as JSON: names, then one [name, start_ns, end_ns,
        parent, op] row per span, parents given as row indexes."""
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"names": ' + json.dumps(self.names) + ', "spans": [\n')
            n = len(self.start)
            for i in range(n):
                row = [self.name_of[i], self.start[i], self.end[i], self.parent[i], self.op_of[i]]
                out.write(json.dumps(row) + (",\n" if i + 1 < n else "\n"))
            out.write("]}\n")

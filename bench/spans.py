"""Traced mode: spans around the package's public functions.

The wrappers are installed from the benchmark process only; nothing under
``src/`` changes.  Each wrapped callable is replaced under every name a
module of the package binds it to (``cubiquity.cli.det_gate`` as well as
``cubiquity.obstructions.det_gate``), so calls are caught whichever name
the caller imported.  Spans (group, parent, op, start, end) are kept in
flat arrays and written out by ``dump``.

Helpers that serve a single named layer (``gram``, ``hnf_box``, the
membership closure) are not wrapped, so their time is their caller's self
time.  ``classify.det4_formula`` is wrapped where the CLI binds it but not
inside ``classify``, because the zero table calls it once per candidate.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (span group, module, attribute) for every public callable the CLI can
# reach; "Class.attr" names a method
TARGETS = (
    ("cli.run", "cubiquity.cli", "run"),
    ("formats.parse", "cubiquity.formats", "parse_matrix"),
    ("formats.parse", "cubiquity.formats", "parse_inline"),
    ("formats.format", "cubiquity.formats", "format_matrix"),
    ("lattice.basis", "cubiquity.lattice", "BasisMatrix.__init__"),
    ("lattice.hnf", "cubiquity.lattice", "BasisMatrix.hnf"),
    ("subsets.stats", "cubiquity.subsets", "stats"),
    ("subsets.identity", "cubiquity.subsets", "check_identity"),
    ("subsets.predicates", "cubiquity.subsets", "is_orthogonal"),
    ("subsets.predicates", "cubiquity.subsets", "is_non_acute"),
    ("obstructions.det_gate", "cubiquity.obstructions", "det_gate"),
    ("obstructions.hajos", "cubiquity.obstructions", "hajos_basis"),
    ("obstructions.bruteforce", "cubiquity.obstructions",
     "is_cubiquitous_bruteforce"),
    ("obstructions.wu", "cubiquity.obstructions", "wu_element"),
    ("obstructions.wu", "cubiquity.obstructions", "wu_obstruction"),
    ("obstructions.wu", "cubiquity.obstructions",
     "wu_obstruction_orthogonal"),
    ("transforms.reduce", "cubiquity.transforms", "trace_reduce"),
    ("transforms.reduce", "cubiquity.transforms", "project"),
    ("transforms.reduce", "cubiquity.transforms", "double_project"),
    ("transforms.contract", "cubiquity.transforms", "contract"),
    ("classify.classify", "cubiquity.classify", "classify_orthogonal"),
    ("classify.decompose", "cubiquity.classify", "decompose"),
    ("classify.det4", "cubiquity.classify", "det4_zero_solutions"),
    ("classify.det4", "cubiquity.classify", "det4_formula"),
    ("classify.catalog", "cubiquity.classify", "catalog_blocks"),
    ("classify.torus", "cubiquity.classify", "torus_sum_bounds_qball"),
)
UNWRAPPED = {("cubiquity.classify", "det4_formula")}


class Tracer:
    """Records spans while installed; ``observed`` keeps the inputs and
    outputs of the Hajos search and the brute-force oracle, from which
    their work counts are derived."""

    def __init__(self):
        self.groups = sorted({g for g, _, _ in TARGETS})
        self.group = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.observed = {"obstructions.hajos": [],
                         "obstructions.bruteforce": []}
        self._stack = []
        self._undo = []

    def begin_op(self) -> None:
        self.current_op += 1

    def _wrap(self, group, fn):
        gid = self.groups.index(group)
        seen = self.observed.get(group)
        stack, clock = self._stack, time.perf_counter
        g, p, op, t0, t1 = (self.group, self.parent, self.op,
                            self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(g)
            g.append(gid)
            p.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1[idx] = clock()
                stack.pop()
                if seen is not None:
                    seen.append((args, kwargs, None, exc))
                raise
            t1[idx] = clock()
            stack.pop()
            if seen is not None:
                seen.append((args, kwargs, result, None))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cubiquity" or name.startswith("cubiquity.")]
        for group, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, functools.cached_property):
                    new = functools.cached_property(
                        self._wrap(group, orig.func))
                    new.__set_name__(cls, meth)
                else:
                    new = self._wrap(group, orig)
                self._set(cls, meth, new)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(group, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if (value is orig
                            and (mod.__name__, name) not in UNWRAPPED):
                        self._set(mod, name, wrapper)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def layer_totals(self) -> dict:
        """Per group: calls (spans not nested in a span of the same group)
        and self time in seconds (duration minus child spans)."""
        n = len(self.group)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        totals = {g: {"calls": 0, "self_s": 0.0} for g in self.groups}
        for i in range(n):
            entry = totals[self.groups[self.group[i]]]
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
            par = self.parent[i]
            if par < 0 or self.group[par] != self.group[i]:
                entry["calls"] += 1
        return totals

    def dump(self, prefix) -> None:
        """Write the spans: ``prefix.json`` describes ``prefix.bin``, which
        holds the five arrays back to back in native byte order."""
        fields = [("group", self.group), ("parent", self.parent),
                  ("op", self.op), ("start", self.start), ("end", self.end)]
        header = {"groups": self.groups, "count": len(self.group),
                  "byteorder": sys.byteorder, "clock": "time.perf_counter",
                  "fields": [[name, a.typecode, a.itemsize]
                             for name, a in fields]}
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{prefix}.bin", "wb") as fh:
            for _, a in fields:
                a.tofile(fh)

"""Spans and counters around the calls into each `srw` layer.

The traced run wraps public functions of the seven modules from outside
the package: every global in an `srw` module that is bound to a wrapped
function is rebound to the wrapper, so calls between modules are seen as
well as calls from the benchmark.  `src/srw` is not edited.

A span is (name, parent span, start, end); spans live in flat arrays
while the pass runs and are written out once, at the end.  A layer's self
time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs that get a span, under the name "<module>.<function>".
SPANNED = (
    ("words", "find_redexes"),
    ("order", "is_decreasing_ed"),
    ("critical", "enumerate_critical_pairs"),
    ("critical", "join_pair"),
    ("diagrams", "complete_tiling"),
    ("diagrams", "paths_equivalent_mod_cells"),
    ("seminormal", "attractor"),
    ("hecke", "hecke_canon"),
    ("hecke", "chosen_critical_ed_tagged"),
    ("cli", "main"),
)
# The five items `verify_suite` looks up by name; spanned as hecke.verify.<item>.
VERIFY_ITEMS = {
    "_verify_naturals": "naturals",
    "_verify_criticals": "criticals",
    "_verify_c_subsystem": "c_subsystem",
    "_verify_attractor_loops": "attractor_loops",
    "_verify_coherence": "coherence",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def spanned(self, name: str, fn, on_result=None):
        """`fn` wrapped in a span; `on_result(result)` may record counts."""
        nid = self._id(name)
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start, self.end, self._open
        )

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.name)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        """A JSON header line, then the name, parent, start and end arrays."""
        header = {
            "spans": len(self.name),
            "names": self.names,
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _rebind(orig, wrapper) -> None:
    """Point every srw module global bound to `orig` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "srw" or modname.startswith("srw."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an already imported `srw` package."""
    from srw import cli, critical, diagrams, hecke, order, seminormal, words  # noqa: F401

    mods = sys.modules
    results = {
        "words.find_redexes": lambda r: tracer.count("words.find_redexes.instances", len(r)),
        "critical.enumerate_critical_pairs": lambda r: tracer.count(
            "critical.enumerate_critical_pairs.pairs", len(r)
        ),
        "critical.join_pair": lambda r: tracer.count("critical.join_pair.joined", r is not None),
        "diagrams.paths_equivalent_mod_cells": lambda r: tracer.count(
            "diagrams.paths_equivalent_mod_cells.equivalent", r.name == "EQUIVALENT"
        ),
        "seminormal.attractor": lambda r: tracer.count("seminormal.attractor.members", len(r.members)),
    }
    for mod, fn in SPANNED:
        name = f"{mod}.{fn}"
        orig = getattr(mods[f"srw.{mod}"], fn)
        _rebind(orig, tracer.spanned(name, orig, results.get(name)))
    for fn, item in VERIFY_ITEMS.items():
        orig = getattr(hecke, fn)
        _rebind(orig, tracer.spanned(f"hecke.verify.{item}", orig))

    make_provider = hecke.hecke_provider

    def traced_hecke_provider(*args, **kwargs):
        return tracer.spanned("diagrams.provider", make_provider(*args, **kwargs))

    _rebind(make_provider, traced_hecke_provider)

    def counted(cls, method: str, key: str) -> None:
        orig = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            tracer.count(key)
            return orig(self, *args, **kwargs)

        setattr(cls, method, wrapper)

    counted(order.InstanceOrder, "greater", "order.compare.calls")
    counted(order.InstanceOrder, "equivalent", "order.compare.calls")
    counted(diagrams.Tiling, "adjoin_at_corner", "diagrams.cells_adjoined")

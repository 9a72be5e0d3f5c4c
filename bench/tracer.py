"""Span tracing of hmsums from outside the library.

``Tracer.install`` replaces every public function of the hmsums modules,
and every binding of it that another module imported (``lfunctions``'s
``weighted_lattice``, ``dedekind_sums``'s ``phi`` and ``divmod_near``, ...),
with a wrapper that records one span per call: name, start, end, parent and
a work count read from the call (points returned, terms summed,
representatives listed).  The library's source is untouched and
``uninstall`` restores every binding.

Spans stay in memory in flat arrays; ``save`` writes them once, at the end
of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("cli", "field_arith", "unit_domain", "eta_engine",
           "dedekind_sums", "quasi_elliptic", "lfunctions")

# Private bindings traced as layers of their own, by module.
EXTRA = {"lfunctions": {"_kv": "lfunctions.kv"}}

# Work done by one call, read from its positional arguments and result.
WORK = {
    "unit_domain.weighted_lattice": lambda args, out: len(out[0]),
    "unit_domain.tp_orbit_arrays": lambda args, out: len(out[0]),
    "unit_domain.enumerate_module_orbits": lambda args, out: len(out),
    "unit_domain.enumerate_unit_orbits": lambda args, out: len(out),
    "eta_engine.omega": lambda args, out: out.n_terms,
    "dedekind_sums.reduce_to_fundamental": lambda args, out: len(out.terms),
    "lfunctions.kv": lambda args, out: np.size(args[1]),
}

GCD = ("field_arith.ext_gcd", "field_arith.of_gcd", "field_arith.gcd_chain")

# Per-layer metrics: (name, unit, span names, statistic).  Statistics:
# calls, s (inclusive time), self_s (time outside child spans), max_s
# (longest single span) and work (the WORK count summed).
PER_LAYER = [
    ("cli.run.self_s", "s", ("cli.run",), "self_s"),
    ("field_arith.make_field.s", "s", ("field_arith.make_field",), "s"),
    ("field_arith.gcd.calls", "count", ("field_arith.gcd_chain",), "calls"),
    ("field_arith.gcd.self_s", "s", GCD, "self_s"),
    ("field_arith.divmod_near.calls", "count", ("field_arith.divmod_near",),
     "calls"),
    ("unit_domain.weighted_lattice.calls", "count",
     ("unit_domain.weighted_lattice",), "calls"),
    ("unit_domain.weighted_lattice.self_s", "s",
     ("unit_domain.weighted_lattice",), "self_s"),
    ("unit_domain.weighted_lattice.points", "count",
     ("unit_domain.weighted_lattice",), "work"),
    ("unit_domain.tp_orbit_arrays.calls", "count",
     ("unit_domain.tp_orbit_arrays",), "calls"),
    ("unit_domain.tp_orbit_arrays.self_s", "s",
     ("unit_domain.tp_orbit_arrays",), "self_s"),
    ("unit_domain.tp_orbit_arrays.points", "count",
     ("unit_domain.tp_orbit_arrays",), "work"),
    ("unit_domain.module_orbits.self_s", "s",
     ("unit_domain.enumerate_module_orbits",), "self_s"),
    ("unit_domain.module_orbits.reps", "count",
     ("unit_domain.enumerate_module_orbits",), "work"),
    ("unit_domain.unit_orbits.s", "s",
     ("unit_domain.enumerate_unit_orbits",), "s"),
    ("unit_domain.unit_orbits.reps", "count",
     ("unit_domain.enumerate_unit_orbits",), "work"),
    ("eta_engine.omega.calls", "count", ("eta_engine.omega",), "calls"),
    ("eta_engine.omega.self_s", "s", ("eta_engine.omega",), "self_s"),
    ("eta_engine.omega.terms", "count", ("eta_engine.omega",), "work"),
    ("eta_engine.omega.max_s", "s", ("eta_engine.omega",), "max_s"),
    ("eta_engine.phi.calls", "count", ("eta_engine.phi",), "calls"),
    ("dedekind_sums.sum_s.calls", "count", ("dedekind_sums.sum_s",), "calls"),
    ("dedekind_sums.sum_s.self_s", "s", ("dedekind_sums.sum_s",), "self_s"),
    ("dedekind_sums.reduce.self_s", "s",
     ("dedekind_sums.reduce_to_fundamental",), "self_s"),
    ("dedekind_sums.reduce.terms", "count",
     ("dedekind_sums.reduce_to_fundamental",), "work"),
    ("dedekind_sums.fundamental_s.calls", "count",
     ("dedekind_sums.fundamental_s",), "calls"),
    ("quasi_elliptic.quasi_data.calls", "count",
     ("quasi_elliptic.quasi_data",), "calls"),
    ("quasi_elliptic.quasi_data.self_s", "s",
     ("quasi_elliptic.quasi_data",), "self_s"),
    ("quasi_elliptic.psi.self_s", "s", ("quasi_elliptic.psi",), "self_s"),
    ("lfunctions.eis_dz1.calls", "count", ("lfunctions.eis_dz1",), "calls"),
    ("lfunctions.eis_dz1.self_s", "s", ("lfunctions.eis_dz1",), "self_s"),
    ("lfunctions.eis_dz1.max_s", "s", ("lfunctions.eis_dz1",), "max_s"),
    ("lfunctions.kv.calls", "count", ("lfunctions.kv",), "calls"),
    ("lfunctions.kv.points", "count", ("lfunctions.kv",), "work"),
    ("lfunctions.kv.s", "s", ("lfunctions.kv",), "s"),
    ("lfunctions.geodesic_period.self_s", "s",
     ("lfunctions.geodesic_period",), "self_s"),
    ("lfunctions.l_a.calls", "count", ("lfunctions.l_a",), "calls"),
    ("lfunctions.l_a.self_s", "s", ("lfunctions.l_a",), "self_s"),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._undo: list = []
        self._wrappers: dict = {}     # id(original) -> (original, wrapper)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        names, parent, start, end, counts = (self.name, self.parent,
                                             self.start, self.end, self.work)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            counts.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if work is not None:
                counts[sid] = work(args, out)
            return out
        return traced

    def install(self) -> None:
        """Bind the wrappers; installing again after ``uninstall`` reuses
        them, so the spans of both periods share names."""
        mods = [importlib.import_module("hmsums")] + [
            importlib.import_module(f"hmsums.{m}") for m in MODULES]
        if not self._wrappers:
            for m, mod in zip(MODULES, mods[1:]):
                for attr, obj in vars(mod).items():
                    if not attr.startswith("_") and callable(obj) \
                            and not isinstance(obj, type) \
                            and getattr(obj, "__module__", None) == mod.__name__:
                        self._wrappers[id(obj)] = (obj, f"{m}.{attr}")
                for attr, span in EXTRA.get(m, {}).items():
                    obj = getattr(mod, attr)
                    self._wrappers[id(obj)] = (obj, span)
            self._wrappers = {key: (obj, self._wrap(span, obj))
                              for key, (obj, span) in self._wrappers.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "work": np.array(self.work, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def stats(self) -> dict:
        """Per span name: calls, s, self_s, max_s and work."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        longest = np.zeros(k)
        np.maximum.at(longest, a["name"], dur)
        cols = {"calls": np.bincount(a["name"], minlength=k),
                "s": np.bincount(a["name"], dur, minlength=k),
                "self_s": np.bincount(a["name"], dur - child, minlength=k),
                "max_s": longest,
                "work": np.bincount(a["name"], a["work"], minlength=k)}
        return {n: {c: v[i].item() for c, v in cols.items()}
                for i, n in enumerate(self.names)}


def per_layer(stats: dict) -> dict:
    """The PER_LAYER metrics from ``Tracer.stats``; a layer the workload
    never called reads 0."""
    out = {}
    for metric, unit, spans, stat in PER_LAYER:
        vals = [stats[s][stat] for s in spans if s in stats]
        v = max(vals, default=0.0) if stat == "max_s" else sum(vals)
        out[metric] = (int(v) if unit == "count" else float(v), unit)
    # Omega's own time per summed term: a kernel gain moves it, a change in
    # the number of terms does not.
    terms = out["eta_engine.omega.terms"][0]
    out["eta_engine.omega.ns_per_term"] = (
        1e9 * out["eta_engine.omega.self_s"][0] / terms if terms else 0.0, "ns")
    return out

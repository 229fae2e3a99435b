"""Spans at the boundaries between kkt_spectra modules, recorded from outside.

`Tracer.install()` finds the boundaries by introspection: every function
that one kkt_spectra module binds from another (private names such as
`_jacobi` included) is replaced, in the importing module's namespace
only, by a wrapper that records one span per call, and `SymMat.__init__`
is wrapped in place. Calls inside a module therefore stay unwrapped, and
renaming a function in the library needs no edit here.

Spans live in flat arrays (name id, start, end, parent index) while the
run lasts and are written out once at the end. A span's self time is its
duration minus the time its child spans cover; calls are strictly nested
on one thread, so that is the duration minus the sum of the children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("symmat", "problem", "cones", "lpkernel", "criticality", "sosc", "perturb", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records a span called name."""
        nid = self._intern(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every cross-module binding inside the kkt_spectra package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"kkt_spectra.{layer}")
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val):
                    continue
                home = getattr(val, "__module__", "") or ""
                if not home.startswith("kkt_spectra.") or home == mod.__name__:
                    continue
                short = home.rsplit(".", 1)[1]
                self._patch(mod, attr, self.wrap(val, f"{short}.{val.__qualname__}"))
        symmat = importlib.import_module("kkt_spectra.symmat")
        init = symmat.SymMat.__init__
        self._patch(symmat.SymMat, "__init__", self.wrap(init, "symmat.SymMat"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        t0 = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        t1 = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        return nid, par, t0, t1

    def self_times(self) -> np.ndarray:
        nid, par, t0, t1 = self.arrays()
        dur = t1 - t0
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - covered[: dur.size]

    def roots(self) -> np.ndarray:
        """Index of the outermost span above each span (itself if top-level)."""
        _, par, _, _ = self.arrays()
        root = np.arange(par.size)
        up = par.copy()
        while True:
            move = up >= 0
            if not move.any():
                return root
            root[move] = up[move]
            up[move] = par[up[move]]

    def save(self, path):
        nid, par, t0, t1 = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, parent=par, start=t0, end=t1)

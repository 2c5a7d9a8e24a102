"""Span tracing of contactflow's public functions, installed from outside.

The package itself records nothing.  `Tracer.install()` wraps each function
in `TARGETS` and rebinds the wrapper at every place the original is
reachable by name: the defining module, every `contactflow.*` module that
imported it with `from .x import name`, the package namespace, and any
extra module the caller passes (the benchmark's own workloads).  A call
that goes through a stale binding would be invisible, so `missed_sites()`
scans for any binding of an original that survived the rebinding.

Each span records (name, start, end, parent).  Spans stay in memory until
the run ends; self time is a span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

import numpy as np

# (module, attribute path, span name or None for "<module>.<path>")
TARGETS = (
    ("harmonics", "legendre_tables", None),
    ("harmonics", "SphereGrid.__init__", "harmonics.grid_build"),
    ("harmonics", "synthesize", None),
    ("harmonics", "analyze", None),
    ("harmonics", "adjoint_analyze", None),
    ("harmonics", "SpectralFunction.evaluate_base", "harmonics.evaluate_base"),
    ("bracket", "lagrange_bracket", None),
    ("bracket", "structure_constants", None),
    ("flow", "rhs", None),
    ("flow", "casimirs", None),
    ("flow", "kinetic_energy", None),
    ("metrics", "inner", None),
    ("curvature", "k_biinvariant", None),
    ("curvature", "k_right_invariant", None),
    ("curvature", "k_eigen", None),
    ("curvature", "k_structural", None),
    ("curvature", "quad_inner_M", None),
    ("fields", "contact_field_at", None),
    ("fields", "FrameField.components", None),
    ("geometry", "qmul", None),
    ("geometry", "QuadratureS3.build", None),
    ("geometry", "frame_derivative", None),
    ("rot3d", "curl", None),
    ("rot3d", "dmu_inner", None),
    ("rot3d", "divergence_fd", None),
)


def _k_right_invariant_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "direct")
    return "curvature.k_right_invariant." + method


class Tracer:
    def __init__(self):
        self.names = []          # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self.grid_keys = set()   # distinct (nlat, nlon) of grid builds
        self.table_bytes = 0     # bytes of P, dP, Q computed by legendre_tables
        self.points = 0          # scattered points passed to evaluate_base
        self._originals = {}     # original function -> wrapper
        self._restore = []       # (owner, attribute, original value)

    # -- recording ------------------------------------------------------------

    def _count(self, span, args, kwargs):
        if span == "harmonics.legendre_tables":
            n = np.atleast_1d(args[0]).shape[0]
            L = args[1]
            self.table_bytes += 3 * (L + 1) ** 2 * n * 8
        elif span == "harmonics.grid_build":
            self.grid_keys.add(tuple(args[1:]) + tuple(sorted(kwargs.items())))
        elif span == "harmonics.evaluate_base":
            self.points += np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size

    def _wrap(self, fn, span):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)
        clock = time.perf_counter
        dynamic = _k_right_invariant_name if span == "curvature.k_right_invariant" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(span, args, kwargs)
            idx = len(names)
            names.append(dynamic(args, kwargs) if dynamic else span)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- installation -----------------------------------------------------------

    @staticmethod
    def _scope(extra_modules):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "contactflow"
                                      or name.startswith("contactflow."))]
        mods += list(extra_modules)
        owners = list(mods)
        for m in mods:
            for val in list(vars(m).values()):
                if isinstance(val, type) and val.__module__.startswith("contactflow"):
                    if val not in owners:
                        owners.append(val)
        return owners

    def install(self, extra_modules=()):
        for mod_name, path, span in TARGETS:
            owner = importlib.import_module("contactflow." + mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            self._originals[fn] = self._wrap(fn, span or "%s.%s" % (mod_name, path))
        for owner in self._scope(extra_modules):
            for attr, val in list(vars(owner).items()):
                fn = val.__func__ if isinstance(val, classmethod) else val
                if not callable(fn) or fn not in self._originals:
                    continue
                wrapper = self._originals[fn]
                new = classmethod(wrapper) if isinstance(val, classmethod) else wrapper
                self._restore.append((owner, attr, val))
                setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def missed_sites(self, extra_modules=()):
        """Module or class attributes that still hold an unwrapped original
        after install()."""
        missed = []
        for owner in self._scope(extra_modules):
            for attr, val in vars(owner).items():
                fn = val.__func__ if isinstance(val, classmethod) else val
                if callable(fn) and fn in self._originals:
                    missed.append("%s.%s" % (owner.__name__, attr))
        return missed

    # -- results -------------------------------------------------------------------

    def summary(self):
        """{span name: [calls, inclusive seconds, self seconds]}."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        par = np.asarray(self.parent, dtype=int)
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        out = {}
        for name, d, s in zip(self.names, dur, dur - child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += s
        return out

    def write(self, path):
        """All spans as gzipped CSV: name, start_s, end_s, parent index."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for n, a, b, p in zip(self.names, self.start, self.end, self.parent):
                fh.write("%s,%.9f,%.9f,%d\n" % (n, a - t0, b - t0, p))

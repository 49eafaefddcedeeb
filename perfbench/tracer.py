"""Span tracer for the library's layer boundaries.

``Tracer.install()`` replaces each function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent) per call.  A module
that bound the function with ``from ... import`` holds its own reference, so
every ``aslattice`` module is scanned and each binding of the original
function object is replaced: ``check_condition_ii`` is wrapped in
``straightening``, in ``genposets`` and in the ``aslattice`` package alike.
A generator function records one span per resumption.

Spans stay in memory; ``self_times()`` derives each span's self time (its
duration minus the part covered by its child spans) once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# Layer (module of src/aslattice) -> public functions timed at its boundary.
LAYERS = {
    "posets": ["build_poset", "poset_from_json", "is_direct_sum_of_chains"],
    "_kernels": ["canonical_key", "enumerate_ideal_masks", "transitive_closure"],
    "ideals": ["enumerate_ideals"],
    "genposets": ["corpus_verify", "generate_posets"],
    "straightening": ["check_condition_ii", "relations_equal", "straightening_relations",
                      "multichains"],
    "uniqueness": ["check_unique", "uniqueness_certificate", "validate_certificate",
                   "certificate_to_json", "certificate_from_json", "search_compatible_asls"],
    "cli": ["main"],
}
# (module, function, span name); span and metric names drop the leading
# underscore of _kernels, as a metric name must start with a letter or digit.
TRACED = [(layer, fname, f"{layer.lstrip('_')}.{fname}")
          for layer, names in LAYERS.items() for fname in names]
ROOT = "bench.root"
# Work counts taken from the results at the same boundaries.
COUNTS = ["ideals.ideals", "ideals.incomparable_pairs", "kernels.ideal_masks",
          "uniqueness.uniqueness_certificate.steps",
          "uniqueness.uniqueness_certificate.refutations", "search.systems"]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.lattices: list = []
        self._stack = [-1]
        self._installed: list = []  # (module, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block; used for the root spans."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def wrap(self, name, fn):
        on_result = {
            "ideals.enumerate_ideals": self._count_lattice,
            "kernels.enumerate_ideal_masks": self._count_masks,
            "uniqueness.uniqueness_certificate": self._count_certificate,
            "uniqueness.search_compatible_asls": self._count_systems,
        }.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._resume_each(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                idx, parent = self._open()
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name, idx, parent, start)
                if on_result is not None:
                    on_result(result)
                return result
        return wrapper

    def _resume_each(self, name, gen):
        while True:
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(name, idx, parent, start)
            yield item

    def _count_lattice(self, lat):
        self.counts["ideals.ideals"] += len(lat)
        self.lattices.append(lat)

    def _count_masks(self, masks):
        self.counts["kernels.ideal_masks"] += len(masks)

    def _count_certificate(self, cert):
        self.counts["uniqueness.uniqueness_certificate.steps"] += len(cert.steps)
        self.counts["uniqueness.uniqueness_certificate.refutations"] += sum(
            len(s.refutations) for s in cert.steps)

    def _count_systems(self, systems):
        self.counts["search.systems"] += len(systems)

    def install(self):
        """Wrap every binding of every function in ``LAYERS``."""
        import aslattice.cli  # noqa: F401  (loaded so its bindings are wrapped)

        wrappers = {}
        for layer, fname, name in TRACED:
            fn = getattr(importlib.import_module("aslattice." + layer), fname)
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "aslattice" and not modname.startswith("aslattice."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def finish_counts(self):
        """Incomparable pairs of every lattice whose pairs the run computed
        (read from the lattice's cache, so no work is added)."""
        self.counts["ideals.incomparable_pairs"] += sum(
            len(lat.__dict__.get("incomparable_pairs", ())) for lat in self.lattices)
        self.lattices.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path):
        """Write the spans as tab-separated name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.writelines(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n"
                          for name, start, end, parent in self.spans)

    def root_wall(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


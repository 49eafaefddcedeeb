"""One workload in one fresh process; prints its result as one JSON line.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --workdir DIR [--passes K] [--setup-only]

``perfbench/run.py`` starts this with ``src`` on ``PYTHONPATH``, so that
peak RSS and import time belong to this workload alone.  The worker first
imports the library and builds the workload's inputs, timed as
``setup_s``; with ``--setup-only`` it stops there.  Without ``--passes`` it
then runs whole passes while another pass would fit in ``--seconds`` at
the reference speed (see ``REF_PER_S``), and always at least one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from tracer import COUNTS, ROOT, TRACED, Tracer

# Functions each workload must call; a traced run in which one records no
# call has missed a lookup site and fails.
EXPECTED_CALLS = {
    "corpus": ["genposets.corpus_verify", "genposets.generate_posets",
               "kernels.canonical_key", "posets.build_poset", "ideals.enumerate_ideals",
               "kernels.enumerate_ideal_masks", "posets.is_direct_sum_of_chains",
               "straightening.check_condition_ii", "straightening.relations_equal",
               "straightening.straightening_relations",
               "uniqueness.check_unique", "uniqueness.uniqueness_certificate",
               "uniqueness.validate_certificate"],
    "certify": ["cli.main", "posets.poset_from_json", "posets.build_poset",
                "ideals.enumerate_ideals", "uniqueness.check_unique",
                "uniqueness.uniqueness_certificate", "uniqueness.certificate_to_json",
                "uniqueness.certificate_from_json", "uniqueness.validate_certificate"],
    "search": ["posets.build_poset", "ideals.enumerate_ideals",
               "uniqueness.search_compatible_asls", "straightening.multichains"],
    "generate": ["genposets.generate_posets", "kernels.canonical_key", "posets.build_poset",
                 "kernels.transitive_closure", "ideals.enumerate_ideals",
                 "kernels.enumerate_ideal_masks"],
}
REFERENCE_COMMIT = "4fef69b"  # commit at which the gate's expected counts were recorded


# The reference: a fixed loop that shares no code with the library, run in
# slices of REF_ROUNDS rounds every REF_INTERVAL_S of measured time.  On a
# shared VM the speed of the machine drifts over seconds: corpus work of a
# fixed size took 12.0 to 19.7 s within one four-minute process (IQR 18% of
# the median), while the same work divided by the mean reference slice
# timed beside it moved by 3.9%.  The end-to-end times are therefore
# reported in reference slices (unit ``ref``); the raw seconds are kept as
# per-layer metrics.
REF_ROUNDS = 4000
REF_INTERVAL_S = 0.1
# Reference slices per second on a quiet 2 GHz x86-64 core; converts
# --seconds into a budget of slices, so that the number of passes a run
# makes depends on the program's speed and not on the machine's drift.
REF_PER_S = 485.0
SETUP_SLICES = 10  # reference slices on each side of the set-up
_REF_TABLE = list(range(256))


def reference(rounds: int = REF_ROUNDS) -> int:
    """Integer arithmetic and list indexing.  It allocates nothing the
    collector tracks, so a slice neither starts nor pays for a collection
    of the workload's heap."""
    t = _REF_TABLE
    acc = 0
    for i in range(rounds):
        k = (i * 2654435761) & 0xFFFFF
        j = k & 255
        t[j] = (t[j] + (k ^ (k >> 3))) & 0xFFFF
        acc += (k | t[(j * 7) & 255]).bit_count()
    return acc


def cpu_time() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Clock:
    """Accumulates the wall and CPU time of the measured sections of a pass
    and the wall time of each item, net of the reference slices run inside
    them.  Untraced, a timer runs a slice every ``REF_INTERVAL_S`` of a
    section.  Traced, no slices run and each section is a root span, so the
    root spans cover exactly the measured time.  The collector runs as it
    would in a user's process: its cost lands in the sections.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.items: list[float] = []
        self.wall = self.cpu = 0.0
        self.ref_wall = self.ref_cpu = 0.0
        self.slices = 0
        self._active = False

    def slice(self, *_):
        """Run and time one reference slice."""
        c0 = cpu_time()
        w0 = time.perf_counter()
        reference()
        self.ref_wall += time.perf_counter() - w0
        self.ref_cpu += cpu_time() - c0
        self.slices += 1

    def _on_timer(self, *_):
        # A signal handled after the section ended must not count as
        # inside it.
        if self._active:
            self.slice()

    @contextlib.contextmanager
    def measure(self, item: bool = True):
        span = self.tracer.span(ROOT) if self.tracer else contextlib.nullcontext()
        ref_wall, ref_cpu = self.ref_wall, self.ref_cpu
        c0 = cpu_time()
        w0 = time.perf_counter()
        if not self.tracer:
            self._active = True
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            with span:
                yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - w0 - (self.ref_wall - ref_wall)
        self.cpu += cpu_time() - c0 - (self.ref_cpu - ref_cpu)
        self.wall += wall
        if item:
            self.items.append(wall)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are fewer than eleven."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def item_latency(items: list[float]) -> dict | None:
    """p50 and tail of the per-item wall times, or None for a workload
    without items (corpus, generate).  Reported, not gated: a percentile of
    15 items (certify) or 64 (search) is one item's time, which moved by up
    to 47% between identical runs on a shared 2-CPU machine."""
    if not items:
        return None
    tail_ms, tail_pct = tail(items)
    return {"count": len(items), "p50_ms": statistics.median(items) * 1e3,
            "tail_ms": tail_ms * 1e3, "tail_percentile": tail_pct}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "aslattice").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_workload(name: str, workdir: str, seed: int):
    """Import the library and build the workload's inputs."""
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup(workdir, random.Random(seed))
    return wl


def measure(wl, seconds: float, passes: int = 0, tracer: Tracer | None = None,
            workload: str = "") -> dict:
    """Run whole passes of a set-up workload: ``passes`` of them, or while
    another pass would still fit in a budget of ``seconds * REF_PER_S``
    reference slices (at least one).  Each pass starts with one reference
    slice outside its sections, so every pass has a slice to divide by.

    The set-up heap is frozen out of the collector once, and the garbage of
    a pass is collected before the next one, outside the measured time, so
    every pass starts from the heap the first one had.
    """
    import aslattice

    if tracer and not passes:
        raise ValueError("a traced run needs a number of passes")
    if tracer:
        tracer.install()
    clocks, items = [], []
    attempted, failures, cert_bytes = 0, [], []
    gc.collect()
    gc.freeze()
    try:
        while True:
            gc.collect()
            clock = Clock(tracer)
            if not tracer:
                clock.slice()
            a, f = wl.run_pass(clock)
            attempted += a
            failures += f
            clocks.append(clock)
            items += clock.items
            cert_bytes.append(getattr(wl, "cert_bytes", 0))
            if passes:
                if len(clocks) >= passes:
                    break
            else:
                in_ref = [c.wall / (c.ref_wall / c.slices) for c in clocks]
                if sum(in_ref) + max(in_ref) > seconds * REF_PER_S:
                    break
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(clocks),
        "items": item_latency(items),
        "meta": {
            "backend": aslattice.BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "source_sha256": source_digest(Path(aslattice.__file__).parents[1]),
            "expected_counts_from": REFERENCE_COMMIT,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.mean(c.wall for c in clocks),
        "cpu_s": statistics.mean(c.cpu for c in clocks),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload, len(clocks),
                                         statistics.median(cert_bytes))
    else:
        result["wall_ref"] = statistics.median(c.wall / (c.ref_wall / c.slices)
                                               for c in clocks)
        result["cpu_ref"] = statistics.median(c.cpu / (c.ref_cpu / c.slices) for c in clocks)
        result["ref_slice_ms"] = 1e3 * sum(c.ref_wall for c in clocks) / sum(
            c.slices for c in clocks)
    return result


def run(args) -> dict:
    # Set-up takes tens of milliseconds, so it is scaled by reference
    # slices timed right before and after it, as the workload is.
    ref = Clock()
    for _ in range(SETUP_SLICES):
        ref.slice()
    t0 = time.perf_counter()
    wl = load_workload(args.workload, args.workdir, args.seed)
    setup = {"setup_raw_s": time.perf_counter() - t0}
    for _ in range(SETUP_SLICES):
        ref.slice()
    setup["setup_s"] = setup["setup_raw_s"] / (ref.ref_wall / ref.slices) / REF_PER_S
    if args.setup_only:
        return setup
    tracer = Tracer() if args.trace else None
    result = measure(wl, args.seconds, args.passes, tracer, args.workload)
    result.update(setup)
    if tracer:
        tracer.write(Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.tsv")
    return result


def layer_metrics(tracer: Tracer, workload: str, passes: int, cert_bytes: float) -> dict:
    tracer.finish_counts()
    self_times = tracer.self_times()
    wall = tracer.root_wall()
    covered = sum(self_times.values())
    if abs(covered - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"self times add up to {covered} s, root spans to {wall} s")
    missing = [f for f in EXPECTED_CALLS[workload] if tracer.calls[f] == 0]
    if missing:
        raise RuntimeError(f"traced functions never called on {workload}: {missing}")
    out = {"bench.root.s": (self_times.get(ROOT, 0.0) / passes, "s"),
           "trace.wall_s": (wall / passes, "s")}
    for _, _, name in TRACED:
        out[name + ".s"] = (self_times.get(name, 0.0) / passes, "s")
        out[name + ".calls"] = (tracer.calls[name] / passes, "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / passes, "count")
    out["cert_mb"] = (cert_bytes / 1e6, "MB")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(EXPECTED_CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the aslattice package: four user workloads, one at a time.

    python3 perfbench/run.py --workload corpus|certify|search|generate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs single-threaded in a
fresh process (``perfbench/worker.py``) against the package under ``src``,
as a closed loop: the next item starts when the previous one is done.
``setup_s`` is the median, over nine fresh processes, of the time taken to
import the library and build the workload's inputs, scaled to the
reference speed like the workload's times (raw: ``setup.raw_s``).

``--trace 0`` prints the end-to-end metrics: wall and CPU time of the
workload in units of a fixed reference loop timed beside it (``wall_ref``,
``cpu_ref``; see ``worker.py``), peak RSS and ``setup_s``.
``--trace 1`` runs the workload twice, untraced and then traced for the
same number of passes, and prints the raw wall and CPU seconds of the
untraced run, the per-layer self times and work counts of the traced run,
and the tracing overhead (traced minus untraced wall time).  Every output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each result is also appended, with the run's backend, Python version, CPU
count and source digest, to ``perfbench/out/results.jsonl``; a run whose
backend differs from an earlier run there is flagged on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("corpus", "certify", "search", "generate")
DEADLINE_S = 170  # every run must end within 180 s
SETUP_RUNS = 9  # setup_s is the median of this many fresh processes


def run_worker(args, trace: int, passes: int, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--passes", str(passes), "--workdir", str(OUT / f"work-{os.getpid()}-{trace}"),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def flag_backend_change(record: dict, log: Path) -> None:
    if not log.exists():
        return
    with open(log) as fh:
        seen = {json.loads(line)["meta"]["backend"] for line in fh if line.strip()}
    other = seen - {record["meta"]["backend"]}
    if other:
        print(f"warning: backend {record['meta']['backend']!r} differs from earlier runs "
              f"in {log} ({', '.join(sorted(other))}); compiled and pure kernels differ "
              "about 6x on generate, so do not compare these runs", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "aslattice" / "__init__.py").is_file():
        print(f"error: no aslattice package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [run_worker(args, 0, 0, deadline, "--setup-only")
                 for _ in range(SETUP_RUNS - 1)]
        plain = run_worker(args, 0, 0, deadline)
        setup.append(plain)
        runs = [plain]
        if args.trace:
            traced = run_worker(args, 1, plain["passes"], deadline)
            runs.append(traced)
            metrics = {"wall_s": (plain["wall_s"], "s"), "cpu_s": (plain["cpu_s"], "s"),
                       "ref.slice_ms": (plain["ref_slice_ms"], "ms"),
                       "setup.raw_s": (statistics.median(r["setup_raw_s"] for r in setup), "s"),
                       **traced["layers"]}
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - plain["wall_s"], "s")
        else:
            metrics = {"wall_ref": (plain["wall_ref"], "ref"),
                       "cpu_ref": (plain["cpu_ref"], "ref"),
                       "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
                       "setup_s": (statistics.median(r["setup_s"] for r in setup), "s")}
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    items = plain["items"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "meta": plain["meta"], "passes": plain["passes"], "items": items,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    log = OUT / "results.jsonl"
    flag_backend_change(record, log)
    with open(log, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"{args.workload}: seed {args.seed}, {plain['passes']} pass(es); "
          f"{json.dumps(plain['meta'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<55} {value:>14.6g} {unit}")
    if items:
        print(f"  item latency (not gated): p50 {items['p50_ms']:.6g} ms, "
              f"p{items['tail_percentile']:.2f} {items['tail_ms']:.6g} ms, "
              f"{items['count']} items")
    if not args.trace:
        print(f"  raw (not gated): wall {plain['wall_s']:.6g} s, cpu {plain['cpu_s']:.6g} s, "
              f"reference slice {plain['ref_slice_ms']:.6g} ms")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

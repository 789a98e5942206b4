#!/usr/bin/env python
"""Benchmark the fast sweep engine on the Figure 9 sweep.

Times the full F9 V-sweep (16×16×16384, both schedules, the benchmark
height grid) three ways:

* ``serial``       — the plain in-process ``sweep()`` path,
* ``engine_cold``  — the fast engine with a fresh cache: parallel
  fan-out across all cores, every run fully simulated,
* ``engine_warm``  — the same engine again, now served from the
  persistent result cache.

Writes ``BENCH_sweep.json`` at the repository root with the raw timings,
the speedups, and the worst relative deviation of the fast-engine
completion times from the serial reference (the engine is exact, so
anything but 0.0 is a bug).

Usage:  PYTHONPATH=src python scripts/bench_sweep.py [--quick]

``--quick`` thins the height grid (for smoke-testing the script itself);
the published numbers in BENCH_sweep.json should come from a full run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

from repro.experiments.cache import SimCache
from repro.experiments.engine import Engine
from repro.experiments.figures import sweep
from repro.kernels.workloads import paper_experiment_i
from repro.model.machine import pentium_cluster

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# The benchmark suite's F9 height grid (benchmarks/conftest.py), extended
# down to V=8 to resolve the steep left branch of the U-curve.
HEIGHTS = [8, 12, 16, 32, 64, 128, 192, 256, 350, 444, 600, 1024, 2048, 4096]


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="thin height grid (script smoke-test only)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)

    heights = HEIGHTS[1::3] if args.quick else HEIGHTS
    workload = paper_experiment_i()
    machine = pentium_cluster()
    jobs = os.cpu_count() or 1

    print(f"F9 sweep: {len(heights)} heights x 2 schedules, jobs={jobs}",
          file=sys.stderr)

    print("serial sweep ...", file=sys.stderr)
    serial, t_serial = _timed(lambda: sweep(workload, machine, list(heights)))

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        engine = Engine(jobs=jobs, cache=SimCache(cache_dir))
        print("engine sweep (cold cache) ...", file=sys.stderr)
        cold, t_cold = _timed(
            lambda: sweep(workload, machine, list(heights), engine=engine)
        )
        print("engine sweep (warm cache) ...", file=sys.stderr)
        warm, t_warm = _timed(
            lambda: sweep(workload, machine, list(heights), engine=engine)
        )
        stats = engine.cache.stats
        cache_desc = stats.describe()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    def max_rel_dev(a, b):
        dev = 0.0
        for pa, pb in zip(a.points, b.points):
            for xa, xb in ((pa.t_nonoverlap_sim, pb.t_nonoverlap_sim),
                           (pa.t_overlap_sim, pb.t_overlap_sim)):
                dev = max(dev, abs(xa - xb) / xa)
        return dev

    report = {
        "workload": workload.name,
        "machine": "pentium_cluster",
        "heights": list(heights),
        "jobs": jobs,
        "serial_seconds": round(t_serial, 4),
        "engine_cold_seconds": round(t_cold, 4),
        "engine_warm_seconds": round(t_warm, 4),
        "cold_speedup_vs_serial": round(t_serial / t_cold, 2),
        "warm_speedup_vs_cold": round(t_cold / t_warm, 2),
        "cache": cache_desc,
        "max_rel_deviation_cold_vs_serial": max_rel_dev(serial, cold),
        "max_rel_deviation_warm_vs_cold": max_rel_dev(cold, warm),
        "quick": args.quick,
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    # Pass gate: the cold engine (fan-out plus cache stores) must clearly
    # beat the serial sweep, and the warm cache must beat the cold run
    # by an order of magnitude.
    ok = (report["cold_speedup_vs_serial"] >= 1.3
          and report["warm_speedup_vs_cold"] >= 10.0)
    print("PASS" if ok else "below target speedups", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

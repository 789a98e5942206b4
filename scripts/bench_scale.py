#!/usr/bin/env python
"""Cluster-scale simulator benchmark: events/sec and peak RSS.

Runs the ``scale_workload`` family (grid² ranks, one owned point per
rank per step — event-loop bound) at 64/256/1024 ranks through the
rebuilt core and writes ``BENCH_scale.json`` next to the repo root:

* ``trace=off``,
* ``trace="streaming"`` (O(ranks) accumulators) and ``trace="full"``
  (per-interval records),
* one rank-sharded run (in-process shards) as a protocol smoke check.

Each configuration runs in its own subprocess so peak RSS
(``ru_maxrss``) is per-run, not cumulative; the "before" numbers come
from ``benchmarks/results/scale_seed_baseline.json``, measured at the
seed commit with the same workload and method.

``--smoke`` shrinks everything to a seconds-long CI check (16 ranks,
shallow depth, no baseline comparison).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_RUN_ONE = r'''
import json, resource, sys, time
from repro.ir.loopnest import IterationSpace
from repro.kernels.workloads import scale_workload
from repro.model.machine import pentium_cluster
from repro.runtime.program import TiledProgram
from repro.sim.mpi import World
from repro.sim.sharding import ShardedSimulation

cfg = json.loads(sys.argv[1])
w = scale_workload(cfg["grid"], cfg["depth"])
m = pentium_cluster()
v = cfg["v"]

if cfg["nshards"] > 1:
    prog = TiledProgram(w, v, m, blocking=False)
    sharded = ShardedSimulation(
        m, prog.num_ranks, cfg["nshards"], trace=cfg["trace"],
    )
    t0 = time.perf_counter()
    res = sharded.run(prog.programs())
    wall = time.perf_counter() - t0
    out = {
        "ranks": prog.num_ranks, "events": res.event_count, "wall_s": wall,
        "completion_time": res.completion_time,
        "messages": res.messages_sent, "trace_records": 0,
        "windows": res.windows,
    }
else:
    prog = TiledProgram(w, v, m, blocking=False)
    world = World(m, prog.num_ranks, trace=cfg["trace"])
    programs = prog.programs()
    t0 = time.perf_counter()
    end = world.run(programs)
    wall = time.perf_counter() - t0
    out = {
        "ranks": prog.num_ranks, "events": world.sim.event_count,
        "wall_s": wall, "completion_time": end,
        "messages": world.messages_sent,
        "trace_records": len(world.trace.records),
    }
out["events_per_sec"] = out["events"] / out["wall_s"]
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
'''

_SLOTS_NOTE = r'''
import json, sys, tracemalloc
from repro.sim.tracing import TraceRecord

class DictRecord:
    """TraceRecord without __slots__, for the allocation comparison."""
    def __init__(self, rank, kind, start, end, label, resource, term):
        self.rank = rank; self.kind = kind; self.start = start
        self.end = end; self.label = label
        self.resource = resource; self.term = term

def measure(cls, n=100_000):
    tracemalloc.start()
    rows = [cls(1, "compute", 0.0, 1.0, "", "cpu", "A2") for _ in range(n)]
    size, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del rows
    return size / n

print(json.dumps({
    "slotted_bytes_per_record": measure(TraceRecord),
    "dict_bytes_per_record": measure(DictRecord),
}))
'''


def _run_subprocess(code: str, arg: str | None = None) -> dict:
    cmd = [sys.executable, "-c", code] + ([arg] if arg is not None else [])
    out = subprocess.run(
        cmd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    if out.returncode != 0:
        raise RuntimeError(f"bench subprocess failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _measure(grid: int, depth: int, v: int, *, trace,
             nshards: int = 1) -> dict:
    cfg = {"grid": grid, "depth": depth, "v": v, "trace": trace,
           "nshards": nshards}
    return _run_subprocess(_RUN_ONE, json.dumps(cfg))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI variant: 16 ranks, shallow depth")
    ap.add_argument("--out", default=str(REPO / "BENCH_scale.json"))
    ap.add_argument("--depth", type=int, default=128)
    ap.add_argument("--v", type=int, default=8)
    args = ap.parse_args(argv)

    grids = (4,) if args.smoke else (8, 16, 32)
    depth = 16 if args.smoke else args.depth

    baseline = {}
    base_path = REPO / "benchmarks" / "results" / "scale_seed_baseline.json"
    if not args.smoke and base_path.exists():
        baseline = json.loads(base_path.read_text())["configs"]

    configs = {}
    for grid in grids:
        ranks = grid * grid
        runs = {
            f"ranks{ranks}_traceoff": dict(trace=False),
            f"ranks{ranks}_streaming": dict(trace="streaming"),
            f"ranks{ranks}_tracefull": dict(trace="full"),
        }
        if grid == grids[-1]:
            runs[f"ranks{ranks}_sharded4"] = dict(trace=False, nshards=4)
        for key, kw in runs.items():
            r = _measure(grid, depth, args.v, **kw)
            before_key = key.replace("_streaming", "_tracefull") \
                            .replace("_sharded4", "_traceoff")
            before = baseline.get(before_key)
            if before is not None:
                r["seed_events_per_sec"] = before["events_per_sec"]
                r["seed_peak_rss_mb"] = before["peak_rss_mb"]
                r["speedup_vs_seed"] = (
                    r["events_per_sec"] / before["events_per_sec"]
                )
            configs[key] = r
            print(f"{key}: {r['events_per_sec']:.0f} ev/s, "
                  f"{r['wall_s']:.2f}s, rss {r['peak_rss_mb']:.0f}MB, "
                  f"records {r['trace_records']}"
                  + (f", {r['speedup_vs_seed']:.2f}x vs seed"
                     if "speedup_vs_seed" in r else ""))

    slots = _run_subprocess(_SLOTS_NOTE)
    notes = {
        "workload": "grid x grid x depth sqrt stencil, V=%d, overlapping "
                    "schedule; one owned point per rank per step" % args.v,
        "method": "one subprocess per configuration; peak RSS is the "
                  "child's ru_maxrss; events/sec counts only World.run "
                  "(program construction excluded)",
        "allocation": {
            **slots,
            "comment": "TraceRecord is a frozen slots dataclass and "
                       "Process uses __slots__; the per-record numbers "
                       "above compare a slotted TraceRecord against an "
                       "identical dict-based class (tracemalloc, 100k "
                       "instances).",
        },
        "seed_baseline": "benchmarks/results/scale_seed_baseline.json "
                         "(commit 3a37c7b, same workload/method); "
                         "'_streaming' rows compare against the seed's "
                         "full-record trace (the only trace mode it had), "
                         "'_sharded4' rows against the seed's untraced "
                         "loop",
        "machine_drift": "shared-host throughput drifts +/-15-30% over "
                         "minutes, so speedup_vs_seed (this run divided "
                         "by a months-old committed number) conflates "
                         "code and machine; the trustworthy cross-commit "
                         "ratio is an interleaved A/B of both checkouts "
                         "in one loop (see docs/performance.md). "
                         "Interleaved A/B of the zero-allocation hot "
                         "path vs the PR-6 core on ranks1024_traceoff "
                         "measured 1.44x median events/s (paired ratios "
                         "1.23-1.62), peak RSS unchanged; "
                         "benchmarks/results/scale_pr6_baseline.json "
                         "holds the PR-6 same-session absolute numbers",
    }
    result = {"smoke": args.smoke, "configs": configs, "notes": notes}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

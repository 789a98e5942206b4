#!/usr/bin/env python
"""One benchmark runner over one registry of lanes.

    python scripts/bench.py [GROUP ...] [--quick] [--ab REV] [--out PATH]

The groups are ``core scale collectives resilience sweep trace tune
chaos`` (all of them by default); a dotted lane name such as
``core.dispatch`` runs that lane alone.  Every lane runs in its own child
process (``--lane NAME``) with ``PYTHONPATH=<checkout>/src`` and a clean
environment, and reports its metrics, its gates and its own peak RSS.
The runner writes one JSON file (``BENCH.json`` by default) keyed by
group; a run rewrites only the sections of the groups it ran, each with
the provenance of that run.

``--quick`` shrinks every lane to a CI-sized smoke run.  The gates stay
the same, except where ``GATES`` names a separate quick bound.

``--ab REV`` checks REV out into a temporary ``git worktree`` and runs
every lane ``PAIRS`` times against each checkout, flipping which side
goes first in each pair; a lane whose timed run is shorter than
``SHORT_S`` gets ``SHORT_PAIRS`` pairs, since host noise moves short runs
the most.  The same lane code (this file) drives both
sides; only the ``repro`` on the path differs.  Each lane reports the
median and range of its paired speed ratios, change over base.  The
speed is events/s where the lane counts events, otherwise the inverse
of the lane's wall time.  A core lane fails when its median ratio is
below the ``core.speed_ratio_vs_base`` bound.  The reference is the base
revision on the same host, never a number committed from another host.
Next to each side's run of a lane, every pair also runs a null lane
(``NULL_LANE``): the pure-Python heap loop of ``perfbench/hostspeed.py``,
which imports nothing from ``repro``.  Its paired ratios measure the
host's drift alone and print beside the lane's own; they gate nothing.

Exit status is 1 when any gate fails or any lane crashes.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GROUPS = ("core", "scale", "collectives", "resilience", "sweep", "trace",
          "tune", "chaos")
PAIRS = 5
SHORT_S, SHORT_PAIRS = 1.0, 11
NULL_LANE = "null.heap_loop"
TUNE_BUDGET = 0.10

#: Every gate, as ``group.name -> (comparison, bound)``.  Lanes look their
#: bounds up here, so a moved bound is a one-line, reviewable change.
GATES = {
    "core.speed_ratio_vs_base": (">=", 0.80),
    # The claim: at >= 8 ranks the pipelined multicast wins at some
    # segment count.
    "collectives.pipelined_speedup_vs_sequential": (">", 1.0),
    # A sharded run prints what one simulator prints at the same grid.
    "scale.sharded_completion_time_delta": ("==", 0.0),
    "scale.sharded_messages_delta": ("==", 0),
    "resilience.supervision_overhead": ("<", 0.05),
    # Tiny batches are dominated by pool start-up, which both modes pay
    # but noisily.
    "resilience.supervision_overhead_quick": ("<", 0.30),
    "resilience.crashes_recovered": (">", 0),
    "resilience.resume_served_fraction": ("==", 0.5),
    # The cold speed-up is fan-out alone, so it needs two cores.
    "sweep.cold_speedup_vs_serial": (">=", 1.3),
    "sweep.warm_speedup_vs_cold": (">=", 10.0),
    # The engine is exact: any deviation from the serial sweep is a bug.
    "sweep.max_rel_deviation_cold_vs_serial": ("==", 0.0),
    "sweep.max_rel_deviation_warm_vs_cold": ("==", 0.0),
    "trace.eq4_max_abs_rel_err": ("<=", 0.05),
    "trace.eq3_max_abs_rel_err": ("<=", 0.05),
    "tune.steps_ratio": ("<=", TUNE_BUDGET + 1e-12),
    "tune.completion_delta_vs_sweep": ("<=", 1e-12),
    "tune.warm_identical": ("==", True),
    "tune.warm_served": ("==", True),
    "tune.shape_delta_vs_rect_sweep": ("<", 0.0),
    "chaos.all_bit_identical": ("==", True),
    "chaos.deadlocked_runs": ("==", 0),
}
_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
        ">=": operator.ge, ">": operator.gt}


def gate(key: str, value, reason: str | None = None) -> dict:
    """Evaluate ``value`` against the bound ``GATES[key]`` names."""
    op, bound = GATES[key]
    result = {"name": key.split(".", 1)[1], "op": op, "value": value,
              "bound": bound, "ok": bool(_OPS[op](value, bound))}
    if reason:
        result["reason"] = reason
    return result


# -- measurement helpers ------------------------------------------------------

def _clock(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _interleaved_best(reps: int, *fns) -> list[float]:
    """Best-of-``reps`` wall time per function, the functions interleaved
    inside each rep so that load drift between phases cannot pose as a
    difference between them."""
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _clock(fn)[1])
    return best


# The benchmark suite's F9 height grid (benchmarks/conftest.py), extended
# down to V=8 to resolve the steep left branch of the U-curve.
HEIGHTS = [8, 12, 16, 32, 64, 128, 192, 256, 350, 444, 600, 1024, 2048, 4096]

#: Paper experiment -> measured V_opt (EXPERIMENTS.md).
EXPERIMENTS = {"i": 192, "ii": 256, "iii": 64}


def _heights(quick: bool) -> list[int]:
    return HEIGHTS[1::3] if quick else HEIGHTS


def _reduced(w):
    """``w`` with its mapped extent shrunk 8x."""
    from repro.ir.loopnest import IterationSpace
    from repro.kernels.workloads import StencilWorkload
    extents = list(w.space.extents)
    extents[w.mapped_dim] //= 8
    return StencilWorkload(
        f"{w.name} (reduced)", IterationSpace.from_extents(extents),
        w.kernel, w.procs_per_dim, w.mapped_dim,
    )


def _experiment(key: str, quick: bool):
    from repro.kernels import workloads
    w = getattr(workloads, f"paper_experiment_{key}")()
    return _reduced(w) if quick else w


# -- core: per-lane event costs -----------------------------------------------
# Each returns (events, seconds in the run loop alone).  Lanes are
# comparable across commits, not across lanes.

def _dispatch(n):
    """Bare scheduler hops: self-rescheduling timer chains."""
    from repro.sim.core import Simulator
    sim = Simulator()
    chains = 512
    # Deterministic, irregular delays keep many interleaved timers
    # pending, as a cluster does: no single period.
    delays = [1e-6 * (1 + i % 37) for i in range(chains)]
    remaining = [n // chains] * chains

    def hop(i):
        if remaining[i]:
            remaining[i] -= 1
            sim.schedule_call(delays[i], hop, i)

    for i in range(chains):
        sim.schedule_call(delays[i], hop, i)
    wall = _clock(sim.run)[1]
    return sim.event_count, wall


def _trigger(n):
    """``Event`` trigger/waiter hand-off chains."""
    from repro.sim.core import Event, Simulator
    sim = Simulator()
    left = [n]

    def fire(_value):
        if left[0]:
            left[0] -= 1
            ev = Event(sim)
            ev.add_callback(fire)
            ev.trigger(None)

    sim.schedule_call(0.0, fire, None)
    wall = _clock(sim.run)[1]
    return sim.event_count, wall


def _resource(n):
    """``FifoResource.submit_call`` completion pipelines."""
    from repro.sim.core import Simulator
    from repro.sim.resources import FifoResource
    sim = Simulator()
    res = [FifoResource(sim, f"r{k}") for k in range(8)]
    left = [n]

    def done(_interval):
        if left[0]:
            left[0] -= 1
            res[left[0] & 7].submit_call(1e-6, done)

    res[0].submit_call(1e-6, done)
    wall = _clock(sim.run)[1]
    return sim.event_count, wall


def _sendrecv(n):
    """Two-rank isend/irecv/waitall ping-pong: the full message pipeline."""
    from repro.model.machine import pentium_cluster
    from repro.sim.mpi import World
    world = World(pentium_cluster(), 2)
    rounds = max(1, n // 30)  # ~30 events per round

    def prog(ctx):
        peer = 1 - ctx.rank
        for _ in range(rounds):
            s = yield ctx.isend(peer, 1024.0)
            r = yield ctx.irecv(peer, 1024.0)
            yield ctx.waitall([s, r])

    wall = _clock(partial(world.run, [prog, prog]))[1]
    return world.sim.event_count, wall


def _overlap(n):
    """A small overlapping-schedule tiled program: the composite lane."""
    m = _scale(4, max(16, n // 44), False)[0]  # ~44 events per step
    return m["events"], m["wall_s"]


def _collective(n):
    """Tree allreduce steps on a 16-rank world."""
    from repro.model.machine import pentium_cluster
    from repro.sim.mpi import World
    world = World(pentium_cluster(), 16)
    rounds = max(1, n // 1100)  # ~1.1k events per allreduce

    def prog(ctx):
        for _ in range(rounds):
            yield ctx.allreduce(512.0)

    wall = _clock(partial(world.run, [prog] * 16))[1]
    return world.sim.event_count, wall


def _shard_window(n):
    """A run over two in-process shards: the conservative windows."""
    m = _scale(4, max(16, n // 28), False, nshards=2)[0]  # ~28 per step
    return m["events"], m["wall_s"]


#: Lane -> (function, target event count); ``--quick`` divides by 16.
CORE = {
    "dispatch": (_dispatch, 400_000),
    "trigger": (_trigger, 150_000),
    "resource": (_resource, 200_000),
    "sendrecv": (_sendrecv, 150_000),
    "overlap": (_overlap, 200_000),
    "collective": (_collective, 150_000),
    "shard_window": (_shard_window, 120_000),
}


def _core(run, n):
    # Best of five: noise only ever slows a run down, and the first run
    # in a fresh interpreter is the coldest.
    events, wall = min((run(n) for _ in range(5)),
                       key=lambda r: r[1] / r[0])
    return {"events": events, "wall_s": wall,
            "events_per_sec": events / wall,
            "ns_per_event": 1e9 * wall / events}, []


def _null(steps):
    """The A/B null lane: the host-speed probe's heap loop, timed like a
    core lane.  Nothing from ``repro`` is imported, so no change to the
    program can move it."""
    sys.path.insert(0, str(REPO))
    from perfbench.hostspeed import _loop

    metrics = _core(lambda n: (n, _loop(n)), steps)
    if any(m == "repro" or m.startswith("repro.") for m in sys.modules):
        raise RuntimeError("the null lane imported repro")
    return metrics


# -- scale: cluster-scale runs --------------------------------------------------

def _scale(grid, depth, trace, nshards=1):
    """``scale_workload``: grid**2 ranks, one owned point per rank per
    step (event-loop bound), V=8, overlapping schedule."""
    from repro.kernels.workloads import scale_workload
    from repro.model.machine import pentium_cluster
    from repro.runtime.program import TiledProgram
    from repro.sim.mpi import World
    m = pentium_cluster()
    prog = TiledProgram(scale_workload(grid, depth), 8, m, blocking=False)
    world = World(m, prog.num_ranks, trace=trace)
    gates = []
    if nshards > 1:
        from repro.sim.sharding import ShardedSimulation
        sim = ShardedSimulation(m, prog.num_ranks, nshards, trace=trace)
        res, wall = _clock(partial(sim.run, prog.programs()))
        out = {"events": res.event_count,
               "completion_time": res.completion_time,
               "messages": res.messages_sent, "windows": res.windows}
        end = world.run(prog.programs())  # the untimed reference
        gates = [gate("scale.sharded_completion_time_delta",
                      res.completion_time - end),
                 gate("scale.sharded_messages_delta",
                      res.messages_sent - world.messages_sent)]
    else:
        end, wall = _clock(partial(world.run, prog.programs()))
        out = {"events": world.sim.event_count, "completion_time": end,
               "messages": world.messages_sent,
               "trace_records": len(world.trace.records)}
    return {"ranks": prog.num_ranks, **out, "wall_s": wall,
            "events_per_sec": out["events"] / wall}, gates


def _trace_record_bytes():
    """tracemalloc bytes per slotted ``TraceRecord`` vs the same class
    without ``__slots__``."""
    import tracemalloc
    from repro.sim.tracing import TraceRecord

    class DictRecord:
        def __init__(self, rank, kind, start, end, label, resource, term):
            self.rank, self.kind, self.start, self.end = rank, kind, start, end
            self.label, self.resource, self.term = label, resource, term

    def per_record(cls, n=100_000):
        tracemalloc.start()
        rows = [cls(1, "compute", 0.0, 1.0, "", "cpu", "A2") for _ in range(n)]
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del rows
        return size / n

    return {"slotted_bytes_per_record": per_record(TraceRecord),
            "dict_bytes_per_record": per_record(DictRecord)}, []


# -- collectives: SUMMA broadcast methods and routing cost ---------------------

def _collectives(grid, panels, tile, segments):
    """SUMMA GEMM on a 2-D mesh, sequential vs pipelined multicast, plus
    the last pipelined job on the crossbar to price per-link routing."""
    from repro.kernels.gemm import SummaConfig, run_summa
    from repro.model.machine import example1_machine
    from repro.sim.topology import make_topology
    m = example1_machine()

    def run(method, s=1, topology="mesh2d"):
        cfg = SummaConfig(grid=grid, tile_m=tile, tile_n=tile, tile_k=tile,
                          panels=panels, segments=s, method=method)
        topo = (make_topology(topology, cfg.num_ranks)
                if topology != "crossbar" else None)
        res, wall = _clock(partial(run_summa, cfg, m, topology=topo))
        return {"completion_time": res.completion_time,
                "messages": res.messages_sent, "events": res.event_count,
                "wall_s": wall, "events_per_sec": res.event_count / wall,
                "hops": res.network_stats.get("hops", 0)}

    seq = run("sequential")
    out = {"ranks": grid * grid, "mesh_sequential": seq}
    for s in segments:
        r = out[f"mesh_pipelined{s}"] = run("pipelined", s)
        r["speedup_vs_sequential"] = seq["completion_time"] / r["completion_time"]
    last = segments[-1]
    xbar = out[f"crossbar_pipelined{last}"] = run("pipelined", last, "crossbar")
    xbar["event_inflation_mesh_vs_crossbar"] = (
        out[f"mesh_pipelined{last}"]["events"] / xbar["events"])
    best = max(out[f"mesh_pipelined{s}"]["speedup_vs_sequential"]
               for s in segments)
    gates = ([gate("collectives.pipelined_speedup_vs_sequential", best)]
             if grid * grid >= 8 else [])
    return out, gates


# -- resilience: supervision overhead, recovery, resume ------------------------

def _resilience(quick):
    """The F9 sweep batch through the pool: unsupervised vs supervised
    (the overhead), supervised under seeded worker kills (the recovery
    cost), then a journaled batch killed halfway and resumed."""
    from repro.experiments.cache import key_digest, run_key
    from repro.experiments.engine import Engine
    from repro.experiments.journal import RunJournal
    from repro.experiments.supervisor import HarnessChaosPlan
    from repro.kernels.workloads import paper_experiment_i
    from repro.model.machine import pentium_cluster
    workload, machine = paper_experiment_i(), pentium_cluster()
    # With one job the engine bypasses the pool: nothing to measure.
    jobs = max(2, os.cpu_count() or 1)
    pairs = [(h, b) for h in _heights(quick) for b in (True, False)]

    def batch(todo=pairs, **kw):
        return Engine(jobs=jobs, cache=None, **kw).run_batch(
            workload, machine, todo)

    # The unsupervised ProcessPoolExecutor fan-out is the reference.
    t_plain, t_sup = _interleaved_best(
        1 if quick else 3, partial(batch, supervised=False), batch)
    overhead = t_sup / t_plain - 1.0
    out = {"runs": len(pairs), "jobs": jobs, "plain_pool_seconds": t_plain,
           "supervised_seconds": t_sup, "supervision_overhead": overhead}
    gates = [gate("resilience.supervision_overhead"
                  + ("_quick" if quick else ""), overhead)]

    # Probe for a seed that fells a worker, so the number is never vacuous.
    digests = [key_digest(run_key(workload, h, machine, blocking=b,
                                  method="sim")) for h, b in pairs]
    plans = (HarnessChaosPlan(seed=s, kill_prob=0.25) for s in range(64))
    plan = next((p for p in plans
                 if any(p.worker_fate(d, 0) for d in digests)), None)
    if plan is None:
        gates.append(gate("resilience.crashes_recovered", 0,
                          reason="no seed in 0-63 kills a worker"))
    else:
        engine = Engine(jobs=jobs, cache=None, harness_chaos=plan)
        t_chaos = _clock(partial(engine.run_batch, workload, machine,
                                 pairs))[1]
        stats = engine.supervisor_stats
        out.update(chaos_seed=plan.seed, chaos_seconds=t_chaos,
                   chaos_recovery_cost=t_chaos / t_sup - 1.0,
                   chaos_crashes_recovered=stats.crashed,
                   chaos_worker_respawns=stats.respawns)
        gates.append(gate("resilience.crashes_recovered", stats.crashed))

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "campaign.jsonl")
        with RunJournal(path) as journal:
            batch(pairs[: len(pairs) // 2], journal=journal)
        with RunJournal(path) as journal:
            t_resume = _clock(partial(batch, journal=journal))[1]
            served = journal.stats.served
    out.update(resume_seconds=t_resume, resume_served_from_journal=served,
               resume_resimulated=len(pairs) - served)
    gates.append(gate("resilience.resume_served_fraction", served / len(pairs)))
    return out, gates


# -- sweep: fan-out and cache on the F9 sweep ----------------------------------

def _sweep(quick):
    """The F9 V-sweep serial, then through the engine cold (fan-out over
    every core, fresh cache) and warm (served from that cache)."""
    from repro.experiments.cache import SimCache
    from repro.experiments.engine import Engine
    from repro.experiments.figures import sweep
    from repro.kernels.workloads import paper_experiment_i
    from repro.model.machine import pentium_cluster
    run = partial(sweep, paper_experiment_i(), pentium_cluster(),
                  _heights(quick))
    jobs = os.cpu_count() or 1
    serial, t_serial = _clock(run)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-",
                                     ignore_cleanup_errors=True) as cache_dir:
        engine = Engine(jobs=jobs, cache=SimCache(cache_dir))
        cold, t_cold = _clock(partial(run, engine=engine))
        warm, t_warm = _clock(partial(run, engine=engine))

    def max_rel_dev(a, b):
        return max((abs(xa - xb) / xa
                    for pa, pb in zip(a.points, b.points)
                    for xa, xb in ((pa.t_nonoverlap_sim, pb.t_nonoverlap_sim),
                                   (pa.t_overlap_sim, pb.t_overlap_sim))),
                   default=0.0)

    out = {"jobs": jobs, "serial_seconds": t_serial,
           "engine_cold_seconds": t_cold, "engine_warm_seconds": t_warm,
           "cold_speedup_vs_serial": round(t_serial / t_cold, 2),
           "warm_speedup_vs_cold": round(t_cold / t_warm, 2),
           "cache": engine.cache.stats.describe(),
           "max_rel_deviation_cold_vs_serial": max_rel_dev(serial, cold),
           "max_rel_deviation_warm_vs_cold": max_rel_dev(cold, warm)}
    return out, [gate(f"sweep.{k}", out[k]) for k in (
        "cold_speedup_vs_serial", "warm_speedup_vs_cold",
        "max_rel_deviation_cold_vs_serial", "max_rel_deviation_warm_vs_cold")]


# -- trace: tracing overhead and measured eq. (3)/(4) terms --------------------

def _trace_overhead(quick):
    """Wall time of experiment (i)'s overlap run at V_opt, full
    resource-lane tracing vs none."""
    from repro.model.machine import pentium_cluster
    from repro.runtime.executor import run_tiled
    w, v, m = _experiment("i", quick), EXPERIMENTS["i"], pentium_cluster()
    off, on = _interleaved_best(
        3, lambda: run_tiled(w, v, m, blocking=False),
        lambda: run_tiled(w, v, m, blocking=False, trace=True))
    return {"workload": w.name, "v": v, "untraced_seconds": off,
            "traced_seconds": on, "overhead_factor": on / off}, []


def _trace_point(key, quick):
    """Per-step measured ΣA/ΣB and the eq. (3) serialized step of an
    interior rank at V_opt, under both schedules, against the analytic
    eq. (3)/(4) values."""
    from repro.experiments.figures import analytic_step
    from repro.model.machine import pentium_cluster
    from repro.runtime.executor import run_tiled
    from repro.sim.steady import steady_period
    w, v, m = _experiment(key, quick), EXPERIMENTS[key], pentium_cluster()
    sc = analytic_step(w, m, v)
    # An interior rank has the full neighbour set (middle for 1-wide dims).
    rank = 0
    for p in w.procs_per_dim:
        rank = rank * p + (1 if p > 2 else 0)
    out = {"workload": w.name, "v_opt": v, "interior_rank": rank,
           "analytic": {"cpu_side_A": sc.cpu_side, "comm_side_B": sc.comm_side,
                        "serialized_step_eq3": sc.serialized_step,
                        "warm_serialized_step": sc.warm_serialized_step}}
    for blocking in (False, True):
        run = run_tiled(w, v, m, blocking=blocking, trace=True)
        steps = sum(1 for r in run.trace.for_rank(rank, "cpu")
                    if r.kind == "compute")
        a, b = run.trace.side_seconds(rank)
        terms = run.trace.term_seconds(rank)
        serialized = sum(terms.get(t, 0.0) for t in
                         ("A1", "A2", "A3", "B2", "B3", "B4")) / steps
        cp = run.critical_path()
        out["nonoverlap" if blocking else "overlap"] = {
            "completion_time": run.completion_time, "steps": steps,
            "sumA_per_step": a / steps, "sumB_per_step": b / steps,
            "eq4_max_side_rel_err":
                max(a, b) / steps / max(sc.cpu_side, sc.comm_side) - 1.0,
            "eq3_serialized_per_step": serialized,
            "eq3_rel_err": serialized / sc.serialized_step - 1.0,
            "steady_period": steady_period(run.trace, rank=rank),
            "critical_path_bound": cp.bound,
            "overlap_efficiency": cp.overlap_efficiency,
            "trace_records": len(run.trace.records),
        }
    sides = (out["overlap"], out["nonoverlap"])
    return out, [
        gate("trace.eq4_max_abs_rel_err",
             max(abs(s["eq4_max_side_rel_err"]) for s in sides)),
        gate("trace.eq3_max_abs_rel_err",
             max(abs(s["eq3_rel_err"]) for s in sides))]


# -- tune: the autotuner against the exhaustive sweep --------------------------

def _sweep_baseline(workload, machine, engine):
    """Exhaustive 32-point overlap sweep: (tile-steps, best V, best time)."""
    from repro.tuning import exhaustive_heights, simulated_tile_steps
    heights = exhaustive_heights(workload, max_points=32)
    runs = engine.run_batch(workload, machine, [(v, False) for v in heights])
    v, run = min(zip(heights, runs), key=lambda p: (p[1].completion_time, p[0]))
    return (sum(simulated_tile_steps(workload, h) for h in heights), v,
            run.completion_time)


def _tune_lane(workload, shape=False):
    """Sweep and tuner in separate fresh caches, so no work leaks
    between them; for the paper experiments, a warm re-tune as well."""
    from repro.experiments.cache import SimCache
    from repro.experiments.engine import Engine
    from repro.model.machine import pentium_cluster
    from repro.tuning import tune
    m = pentium_cluster()
    with tempfile.TemporaryDirectory(prefix="bench-tune-",
                                     ignore_cleanup_errors=True) as tmp:
        (steps, sweep_v, sweep_t), sweep_wall = _clock(partial(
            _sweep_baseline, workload, m, Engine(cache=SimCache(f"{tmp}/s"))))
        run = partial(tune, workload, m, overlap=True, budget=TUNE_BUDGET,
                      shape=shape, engine=Engine(cache=SimCache(f"{tmp}/t")),
                      baseline_points=32)
        result, tune_wall = _clock(run)
        warm, warm_wall = _clock(run)
    delta = (result.best.completion_time - sweep_t) / sweep_t
    out = {"workload": workload.name,
           "sweep": {"tile_steps": steps, "v_opt": sweep_v, "t_opt": sweep_t,
                     "wall_seconds": sweep_wall},
           "tune": {"grid_best": list(result.best.grid),
                    "v_best": result.best.v,
                    "t_best": result.best.completion_time,
                    "candidates": len(result.candidates),
                    "tile_steps": result.steps_spent,
                    "probe_steps": result.probe_steps,
                    "steps_ratio": result.steps_ratio,
                    "model_gap": result.best.model_gap,
                    "shape_fraction_bound": result.shape_fraction_bound,
                    "wall_seconds": tune_wall,
                    "warm_wall_seconds": warm_wall,
                    "warm_identical": warm.to_json() == result.to_json(),
                    "warm_served": warm.sources.get("sim", 0) == 0},
           "completion_delta": delta}
    if shape:
        return out, [gate("tune.shape_delta_vs_rect_sweep", delta)]
    return out, [gate("tune.steps_ratio", result.steps_ratio),
                 gate("tune.completion_delta_vs_sweep", delta),
                 gate("tune.warm_identical", out["tune"]["warm_identical"]),
                 gate("tune.warm_served", out["tune"]["warm_served"])]


def _tune_shape(quick):
    """An anisotropic 8x64 space on 16 processors, where the default 4x4
    grid is not communication-minimal: ``tune(shape=True)`` must beat
    the best the rectangular V-only sweep reaches on that grid."""
    from repro.ir.loopnest import IterationSpace
    from repro.kernels.stencil import sqrt_kernel_3d
    from repro.kernels.workloads import StencilWorkload
    w = StencilWorkload(
        "aniso-8x64", IterationSpace.from_extents([8, 64, 256 if quick else 2048]),
        sqrt_kernel_3d(), (4, 4, 1), 2)
    return _tune_lane(w, shape=True)


# -- chaos: completion-time inflation under dropped messages -------------------

def _chaos(quick):
    """Both schedules at a grid of drop rates, reliable delivery
    recovering every loss; each completed run checked bit-identical to
    the fault-free golden."""
    from repro.experiments.chaos import chaos_sweep
    from repro.ir.loopnest import IterationSpace
    from repro.kernels.stencil import sqrt_kernel_3d
    from repro.kernels.workloads import StencilWorkload
    from repro.model.machine import pentium_cluster
    rates = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)
    w = StencilWorkload(
        "chaos-bench", IterationSpace.from_extents([16, 16, 64 if quick else 1024]),
        sqrt_kernel_3d(), (2, 2, 1), 2)
    report = chaos_sweep(w, 8, pentium_cluster(), seed=1,
                         drop_rates=rates[::3] if quick else rates)
    points = [{"drop_rate": p.drop_rate, "schedule": p.schedule_name,
               "status": p.status, "completion_time": p.completion_time,
               "inflation_vs_golden": report.inflation(p),
               "messages_dropped": p.messages_dropped,
               "retransmits": p.retransmits,
               "duplicates_suppressed": p.duplicates_suppressed,
               "bit_identical": p.bit_identical} for p in report.points]
    completed = [(a, b) for a, b in zip(points[1::2], points[0::2])
                 if "deadlocked" not in (a["status"], b["status"])]
    deadlocked = sum(p["status"] == "deadlocked" for p in points)
    out = {"workload": w.name, "v": 8, "seed": 1,
           "golden_time_blocking": report.golden_time_blocking,
           "golden_time_overlapping": report.golden_time_overlapping,
           "overlap_faster_at_every_rate": all(
               a["completion_time"] < b["completion_time"]
               for a, b in completed),
           "points": points}
    return out, [gate("chaos.all_bit_identical", report.all_safe),
                 gate("chaos.deadlocked_runs", deadlocked)]


# -- the registry ---------------------------------------------------------------

def registry(quick: bool) -> dict:
    """Lane name ``group.lane`` -> callable returning (metrics, gates)."""
    lanes = {f"core.{k}": partial(_core, run, n // 16 if quick else n)
             for k, (run, n) in CORE.items()}
    grids, depth = ((4,), 16) if quick else ((8, 16, 32), 128)
    for g in grids:
        for tag, trace in (("traceoff", False), ("streaming", "streaming"),
                           ("tracefull", "full")):
            lanes[f"scale.ranks{g * g}_{tag}"] = partial(_scale, g, depth, trace)
    lanes[f"scale.ranks{g * g}_sharded4"] = partial(_scale, g, depth, False, 4)
    lanes["scale.trace_record_bytes"] = _trace_record_bytes
    if quick:
        lanes["collectives.ranks9"] = partial(_collectives, 3, 2, 16, (2,))
    else:
        for g in (4, 8):
            lanes[f"collectives.ranks{g * g}"] = partial(
                _collectives, g, 8, 64, (2, 4, 8))
    lanes["resilience.f9_batch"] = partial(_resilience, quick)
    lanes["sweep.f9"] = partial(_sweep, quick)
    lanes["trace.overhead"] = partial(_trace_overhead, quick)
    for key in EXPERIMENTS:
        lanes[f"trace.{key}"] = partial(_trace_point, key, quick)
    for key in EXPERIMENTS:
        lanes[f"tune.{key}"] = lambda key=key: _tune_lane(
            _experiment(key, quick))
    lanes["tune.shape"] = partial(_tune_shape, quick)
    lanes["chaos.campaign"] = partial(_chaos, quick)
    return lanes


# -- the runner -----------------------------------------------------------------

def _child(name: str, quick: bool) -> None:
    """Run one lane in this process and print its record as JSON."""
    where = {}
    if name == NULL_LANE:
        lane = partial(_null, 20_000 if quick else 100_000)
    else:
        import repro
        lane = registry(quick)[name]
        where["repro"] = str(Path(repro.__file__).resolve().parent)
    (metrics, gates), wall = _clock(lane)
    print(json.dumps({
        "metrics": metrics, "gates": gates, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **where,
    }))


def _spawn(name: str, quick: bool, checkout: Path) -> dict:
    """Run lane ``name`` in a child process against ``checkout``'s src."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--lane", name]
    out = subprocess.run(
        cmd + (["--quick"] if quick else []), capture_output=True, text=True,
        env={"PYTHONPATH": str(checkout / "src"), "PATH": "/usr/bin:/bin"},
    )
    if out.returncode != 0:
        return {"error": f"[{checkout}]\n{out.stderr[-4000:]}"}
    rec = json.loads(out.stdout.splitlines()[-1])
    expected = (checkout / "src" / "repro").resolve()
    if name != NULL_LANE and Path(rec.pop("repro")) != expected:
        raise RuntimeError(f"lane {name} did not import repro from {expected}")
    return rec


def _speed(rec: dict) -> float:
    return rec["metrics"].get("events_per_sec") or 1.0 / rec["wall_s"]


def _pairs(rec: dict) -> int:
    """How many A/B pairs a lane gets, from one record of it."""
    run_s = rec["metrics"].get("wall_s", rec["wall_s"])
    return SHORT_PAIRS if run_s < SHORT_S else PAIRS


def _ab(name: str, quick: bool, base: Path) -> dict:
    """Alternating base/change runs of one lane, each followed by a run
    of the null lane on the same side; the change's last record plus the
    paired speed ratios of the lane and of the null lane.  The first
    pair decides how many pairs run (:func:`_pairs`)."""
    ratios, null_ratios = [], []
    pairs, i = PAIRS, 0
    while i < pairs:
        sides = (base, REPO) if i % 2 == 0 else (REPO, base)
        runs, nulls = {}, {}
        for side in sides:
            runs[side] = _spawn(name, quick, side)
            nulls[side] = _spawn(NULL_LANE, quick, side)
        failed = next((r for r in (*runs.values(), *nulls.values())
                       if "error" in r), None)
        if failed:
            return failed
        ratios.append(_speed(runs[REPO]) / _speed(runs[base]))
        null_ratios.append(_speed(nulls[REPO]) / _speed(nulls[base]))
        if i == 0:
            pairs = max(map(_pairs, runs.values()))
        i += 1
    rec = runs[REPO]
    median = statistics.median(ratios)
    rec["ab"] = {"metric": ("events_per_sec" if "events_per_sec" in rec["metrics"]
                            else "1/wall_s"),
                 "ratios": ratios, "median_ratio": median,
                 "range": [min(ratios), max(ratios)],
                 "null_ratios": null_ratios,
                 "null_median": statistics.median(null_ratios)}
    if name.startswith("core."):
        rec["gates"].append(gate("core.speed_ratio_vs_base", median))
    return rec


@contextmanager
def _worktree(rev: str):
    """A detached ``git worktree`` of ``rev``, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    base = tmp / "base"
    try:
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach",
                        "--quiet", str(base), rev], check=True)
        yield base
    finally:
        subprocess.run(["git", "-C", str(REPO), "worktree", "remove",
                        "--force", str(base)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(REPO), "worktree", "prune"],
                       capture_output=True)


def _git_sha(checkout: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _summary(name: str, rec: dict) -> str:
    if "error" in rec:
        return f"{name}: CRASHED\n{rec['error']}"
    m = rec["metrics"]
    head = (f"{m['events_per_sec']:,.0f} ev/s" if "events_per_sec" in m
            else f"{rec['wall_s']:.2f} s")
    if "ab" in rec:
        ab = rec["ab"]
        lo, hi = ab["range"]
        head += (f", {ab['median_ratio']:.2f}x vs base ({lo:.2f}-{hi:.2f}), "
                 f"null {ab['null_median']:.2f}x "
                 f"({min(ab['null_ratios']):.2f}-{max(ab['null_ratios']):.2f})")
    lines = [f"{name}: {head}, rss {rec['peak_rss_mb']:.0f} MB"]
    lines += [f"  {'ok  ' if g['ok'] else 'FAIL'} {g['name']} = {g['value']} "
              f"({g['op']} {g['bound']}){' - ' + g['reason'] if 'reason' in g else ''}"
              for g in rec["gates"]]
    return "\n".join(lines)


def _ok(rec: dict) -> bool:
    return "error" not in rec and all(g["ok"] for g in rec["gates"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    ap.add_argument("names", nargs="*", metavar="GROUP",
                    help="groups or group.lane names (default: all groups)")
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized lanes, same gates")
    ap.add_argument("--ab", metavar="REV",
                    help="interleaved A/B against REV in a git worktree")
    ap.add_argument("--out", default=str(REPO / "BENCH.json"),
                    help="JSON file whose groups' sections this run rewrites")
    ap.add_argument("--lane", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.lane:
        _child(args.lane, args.quick)
        return 0

    lanes = registry(args.quick)
    wanted = args.names or GROUPS
    unknown = set(wanted) - set(GROUPS) - set(lanes)
    if unknown:
        ap.error(f"unknown group or lane: {', '.join(sorted(unknown))}")
    selected = [n for n in lanes if n in wanted or n.split(".")[0] in wanted]

    prov = {"git_sha": _git_sha(REPO), "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    records = {}
    with _worktree(args.ab) if args.ab else nullcontext() as base:
        if base:
            prov["ab_base_sha"] = _git_sha(base)
        for name in selected:
            records[name] = (_ab(name, args.quick, base) if base
                             else _spawn(name, args.quick, REPO))
            print(_summary(name, records[name]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    for group in GROUPS:
        recs = {n.split(".", 1)[1]: r for n, r in records.items()
                if n.split(".")[0] == group}
        if recs:
            doc[group] = {"provenance": prov, "quick": args.quick,
                          "ok": all(map(_ok, recs.values())), "lanes": recs}
    out.write_text(json.dumps({g: doc[g] for g in GROUPS if g in doc},
                              indent=2) + "\n")
    failed = [n for n, r in records.items() if not _ok(r)]
    print(f"wrote {out}; " + (f"FAILED: {', '.join(failed)}" if failed
                              else "all gates passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

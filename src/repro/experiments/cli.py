"""Command-line interface: regenerate any paper artefact from a shell.

    python -m repro figure i            # Figure 9 sweep (reduced depth)
    python -m repro figure ii --full    # Figure 10 at paper scale
    python -m repro table12             # the Fig. 12 summary table
    python -m repro examples            # Examples 1 & 3 worked numbers
    python -m repro verify              # distributed-vs-sequential check
    python -m repro chaos --seed 1 --drop-rate 0.0,0.05   # fault sweep
    python -m repro gantt               # both schedules as Gantt charts
    python -m repro codegen mpi --schedule overlap
    python -m repro codegen loops

Reduced variants shrink the mapped dimension 8× (same cross-section and
per-step costs, fewer steps) so every command finishes in seconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.examples_paper import example1, example3
from repro.experiments.figures import default_heights, sweep
from repro.experiments.report import render_sweep, render_sweep_summary
from repro.experiments.table12 import render_table12, table12
from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d, sum_kernel_2d
from repro.kernels.workloads import (
    StencilWorkload,
    paper_experiment_i,
    paper_experiment_ii,
    paper_experiment_iii,
)
from repro.model.machine import pentium_cluster, sci_cluster
from repro.runtime.executor import run_tiled, run_tiled_sharded
from repro.runtime.verify import verify_workload
from repro.util.tables import format_kv
from repro.viz.ascii_plots import plot_sweep
from repro.viz.gantt import render_gantt, render_utilization

__all__ = ["main", "build_parser"]

_FULL = {
    "i": paper_experiment_i,
    "ii": paper_experiment_ii,
    "iii": paper_experiment_iii,
}


def _workload(key: str, full: bool) -> StencilWorkload:
    w = _FULL[key]()
    if full:
        return w
    extents = list(w.space.extents)
    extents[w.mapped_dim] //= 8
    return StencilWorkload(
        f"{w.name} (reduced)", IterationSpace.from_extents(extents),
        w.kernel, w.procs_per_dim, w.mapped_dim,
    )


def _machine(name: str):
    if name == "pentium":
        return pentium_cluster()
    if name == "sci":
        return sci_cluster()
    raise SystemExit(f"unknown machine {name!r} (choose pentium or sci)")


def _add_topology_arg(p: argparse.ArgumentParser) -> None:
    from repro.sim.topology import TOPOLOGIES

    p.add_argument(
        "--topology", default="crossbar", choices=TOPOLOGIES,
        help="network fabric; crossbar (default) is the historical "
             "contention-free model, others route per-link hops",
    )


def _topology(args: argparse.Namespace, num_ranks: int):
    """The fabric selected by ``--topology`` (``None`` for the default
    crossbar: bit-identical to the pre-topology model)."""
    name = getattr(args, "topology", None)
    if not name or name == "crossbar":
        return None
    from repro.sim.topology import make_topology

    return make_topology(name, num_ranks)


def _engine(args: argparse.Namespace):
    """The sweep engine configured by the global CLI flags."""
    from repro.experiments.cache import SimCache, default_cache_dir
    from repro.experiments.engine import Engine
    from repro.experiments.journal import RunJournal

    cache = None if args.no_cache else SimCache(default_cache_dir())
    journal = None
    if getattr(args, "resume", None):
        journal = RunJournal(args.resume)
        if len(journal):
            print(
                f"resuming from {args.resume}: "
                f"{len(journal)} completed runs on record",
                file=sys.stderr,
            )
    return Engine(jobs=args.jobs, cache=cache, journal=journal)


def _tuned_heights(workload, machine, engine,
                   args: argparse.Namespace) -> list[int]:
    """The candidate heights the autotuner visited (``--tune``): they
    replace the dense sweep grid, and their simulations are already in
    the cache, so the subsequent sweep re-simulates nothing."""
    from repro.tuning import tune

    result = tune(workload, machine, overlap=True,
                  budget=args.tune_budget, engine=engine)
    print(result.render(), file=sys.stderr)
    return sorted({c.v for c in result.candidates})


def _cmd_figure(args: argparse.Namespace) -> int:
    w = _workload(args.experiment, args.full)
    m = _machine(args.machine)
    engine = _engine(args)
    if args.heights:
        heights = [int(h) for h in args.heights.split(",")]
    elif args.tune:
        heights = _tuned_heights(w, m, engine, args)
    else:
        heights = default_heights(w, max_points=args.points)
    print(f"sweeping V over {heights} for {w.name} ...", file=sys.stderr)
    result = sweep(w, m, heights=heights, engine=engine)
    print(render_sweep(result))
    print()
    print(plot_sweep(result))
    print()
    print(render_sweep_summary(result))
    if args.svg:
        from repro.viz.svg import sweep_svg

        with open(args.svg, "w") as fh:
            fh.write(sweep_svg(result, include_model=True))
        print(f"\nSVG figure written to {args.svg}", file=sys.stderr)
    return 0


def _cmd_table12(args: argparse.Namespace) -> int:
    m = _machine(args.machine)
    engine = _engine(args)
    workloads = [_workload(k, args.full) for k in ("i", "ii", "iii")]
    sweeps = []
    for w in workloads:
        print(f"sweeping {w.name} ...", file=sys.stderr)
        if args.tune:
            heights = _tuned_heights(w, m, engine, args)
        else:
            heights = default_heights(w, max_points=args.points)
        sweeps.append(sweep(w, m, heights=heights, engine=engine))
    print(render_table12(table12(workloads, m, sweeps)))
    return 0


def _cmd_examples(_args: argparse.Namespace) -> int:
    e1 = example1()
    print("Example 1 (non-overlapping schedule):")
    print(format_kv([
        ("g", e1.grain), ("V_comm", e1.v_comm), ("P", e1.schedule_length),
        ("total (t_c)", e1.total_tc), ("total (s)", e1.total_seconds),
    ]))
    e3 = example3()
    print("\nExample 3 (overlapping schedule):")
    print(format_kv([
        ("Π", e3.pi), ("P", e3.schedule_length),
        ("total (t_c)", e3.total_tc_paper_style),
        ("total (s)", e3.total_seconds_paper_style),
    ]))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    w3 = StencilWorkload(
        "verify-3d", IterationSpace.from_extents([8, 8, 32]),
        sqrt_kernel_3d(), (4, 2, 1), 2,
    )
    w2 = StencilWorkload(
        "verify-2d", IterationSpace.from_extents([32, 16]),
        sum_kernel_2d(), (1, 4), 0,
    )
    m = _machine(args.machine)
    failed = 0
    for w in (w3, w2):
        for report in verify_workload(w, args.v, m):
            print(report.describe())
            failed += 0 if report.passed else 1
    return 1 if failed else 0


def _cmd_scale(args: argparse.Namespace) -> int:
    import time

    from repro.kernels.workloads import scale_workload

    w = scale_workload(args.grid, args.depth)
    m = _machine(args.machine)
    blocking = args.schedule == "nonoverlap"
    print(
        f"scale run: {w.num_processors} ranks ({args.grid}x{args.grid} grid), "
        f"depth {args.depth}, V={args.v}, "
        f"{'non-overlapping' if blocking else 'overlapping'} schedule",
        file=sys.stderr,
    )
    topology = _topology(args, w.num_processors)
    if topology is not None and args.shards > 1:
        raise SystemExit(
            "routed topologies are single-simulator only; drop --shards "
            "or use --topology crossbar"
        )
    # Direct runs (no engine cache): this command reports throughput,
    # so a cache-served result would be meaningless.
    t0 = time.perf_counter()
    if args.shards == 1:
        res = run_tiled(w, args.v, m, blocking=blocking,
                        trace=args.trace, topology=topology)
        rows = [
            ("completion time (s)", res.completion_time),
            ("messages", res.messages_sent),
            ("events", res.event_count),
        ]
    else:
        res = run_tiled_sharded(
            w, args.v, m, blocking=blocking, nshards=args.shards,
            processes=not args.in_process, trace=args.trace,
            shard_timeout=args.shard_timeout,
        )
        rows = [
            ("completion time (s)", res.completion_time),
            ("messages", res.messages_sent),
            ("events", res.event_count),
            ("shards", res.nshards),
            ("lookahead windows", res.windows),
        ]
        if res.shard_restarts:
            rows.append(("shard restarts", res.shard_restarts))
    wall = time.perf_counter() - t0
    if res.event_count:
        rows.append(("wall time (s)", round(wall, 3)))
        rows.append(("events/sec", round(res.event_count / wall)))
    print(format_kv(rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import chaos_sweep, render_chaos

    w = StencilWorkload(
        "chaos-3d", IterationSpace.from_extents([8, 8, args.depth]),
        sqrt_kernel_3d(), (2, 2, 1), 2,
    )
    if args.harness:
        from repro.experiments.chaos import (
            harness_chaos_report,
            render_harness_chaos,
        )

        print(
            f"harness chaos: killing/hanging workers and shards "
            f"(seed {args.seed}) ...", file=sys.stderr,
        )
        report = harness_chaos_report(
            w, args.v, _machine(args.machine),
            seed=args.seed, jobs=args.jobs or 2,
        )
        print(render_harness_chaos(report))
        return 0 if report.all_identical else 1
    drop_rates = tuple(float(r) for r in args.drop_rate.split(","))
    print(
        f"chaos sweep over drop rates {list(drop_rates)} "
        f"(seed {args.seed}) ...", file=sys.stderr,
    )
    report = chaos_sweep(
        w, args.v, _machine(args.machine),
        seed=args.seed,
        drop_rates=drop_rates,
        duplicate_rate=args.duplicate_rate,
        corrupt_rate=args.corrupt_rate,
        jitter=args.jitter,
        max_retries=args.max_retries,
        retransmit=not args.no_retransmit,
        engine=_engine(args),
    )
    print(render_chaos(report))
    return 0 if report.all_safe else 1


def _cmd_gantt(args: argparse.Namespace) -> int:
    w = StencilWorkload(
        "gantt", IterationSpace.from_extents([8, 8, 2048]),
        sqrt_kernel_3d(), (2, 2, 1), 2,
    )
    m = _machine(args.machine)
    for blocking in (True, False):
        run = run_tiled(w, args.v, m, blocking=blocking, trace=True)
        print(f"== {run.schedule_name}: {run.completion_time:.4f} s ==")
        print(render_gantt(run.trace, width=args.width))
        print(render_utilization(run.trace))
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import KERNELS
    from repro.runtime.planner import plan_distribution

    if args.kernel not in KERNELS:
        raise SystemExit(
            f"unknown kernel {args.kernel!r}; choose from {sorted(KERNELS)}"
        )
    extents = [int(x) for x in args.extents.split(",")]
    kernel = KERNELS[args.kernel]()
    plan = plan_distribution(
        IterationSpace.from_extents(extents), kernel,
        _machine(args.machine), args.processors,
        overlap=args.schedule == "overlap",
    )
    print(plan.describe())
    if args.run:
        run = run_tiled(plan.workload, plan.v, _machine(args.machine),
                        blocking=not plan.overlap)
        print(f"simulated: {run.completion_time:.6f} s "
              f"(prediction was {plan.predicted_time:.6f} s)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.profiling import profile_scale_run, render_report

    print(
        f"profiling: {args.grid}x{args.grid} grid, depth {args.depth}, "
        f"V={args.v}, {args.schedule} schedule, "
        f"trace={'on' if args.trace else 'off'} ...",
        file=sys.stderr,
    )
    report = profile_scale_run(
        args.grid, args.depth, args.v,
        machine=_machine(args.machine),
        blocking=args.schedule == "nonoverlap",
        trace=args.trace,
        top=args.top,
        sampling=not args.no_sampling,
    )
    print(render_report(report))
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen import generate_spmd_program, generate_tiled_loops
    from repro.tiling.transform import rectangular_tiling

    if args.kind == "mpi":
        w = _workload("i", full=False)
        print(generate_spmd_program(w, args.v, blocking=args.schedule == "nonoverlap"))
    elif args.kind == "mpi4py":
        from repro.codegen import generate_mpi4py_program

        w = _workload("i", full=False)
        print(generate_mpi4py_program(w, args.v,
                                      blocking=args.schedule == "nonoverlap"))
    else:
        kernel = sum_kernel_2d()
        print(
            generate_tiled_loops(
                kernel,
                IterationSpace.from_extents([64, 32]),
                rectangular_tiling([8, 8]),
                order=args.order,
            )
        )
    return 0


def _default_campaign(machine: str) -> list:
    from repro.experiments.campaign import ExperimentConfig

    return [
        ExperimentConfig(
            name="exp-i-reduced",
            extents=(16, 16, 2048),
            procs_per_dim=(4, 4, 1),
            mapped_dim=2,
            kernel="sqrt3d",
            machine=machine,
            heights=(32, 64, 128, 192, 256),
        ),
        ExperimentConfig(
            name="exp-iii-reduced",
            extents=(32, 32, 512),
            procs_per_dim=(4, 4, 1),
            mapped_dim=2,
            kernel="sqrt3d",
            machine=machine,
            heights=(16, 32, 64, 100, 128),
        ),
    ]


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import (
        diff_records,
        load_records,
        render_deltas,
        run_campaign,
        save_records,
    )

    if args.action == "run":
        print("running default campaign ...", file=sys.stderr)
        records = run_campaign(_default_campaign(args.machine),
                               engine=_engine(args))
        save_records(records, args.out)
        for r in records:
            print(
                f"{r.config.name}: overlap {r.t_opt_overlap:.5f}s "
                f"(V={r.v_opt_overlap}), non-overlap "
                f"{r.t_opt_nonoverlap:.5f}s, improvement {r.improvement:.1%}"
            )
        print(f"saved to {args.out}")
        return 0

    baseline = load_records(args.baseline)
    current = load_records(args.out)
    deltas = diff_records(baseline, current, tolerance=args.tolerance)
    print(render_deltas(deltas))
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import KERNELS

    if args.kernel not in KERNELS:
        raise SystemExit(
            f"unknown kernel {args.kernel!r}; choose from {sorted(KERNELS)}"
        )
    extents = [int(x) for x in args.extents.split(",")]
    procs = tuple(int(x) for x in args.procs.split(","))
    if len(procs) != len(extents):
        raise SystemExit("--procs must have one entry per extent")
    w = StencilWorkload(
        "trace", IterationSpace.from_extents(extents),
        KERNELS[args.kernel](), procs, len(extents) - 1,
    )
    m = _machine(args.machine)
    blocking = args.schedule == "nonoverlap"
    topology = _topology(args, w.num_processors)
    if args.drop_rate > 0.0 or args.jitter > 0.0:
        from repro.runtime.executor import run_tiled_robust
        from repro.sim.faults import FaultPlan
        from repro.sim.reliable import ReliableConfig

        run = run_tiled_robust(
            w, args.v, m, blocking=blocking, trace=True,
            faults=FaultPlan(seed=args.seed, drop_prob=args.drop_rate,
                             jitter=args.jitter),
            reliable=ReliableConfig(),
            topology=topology,
        )
        status = run.status
    else:
        run = run_tiled(w, args.v, m, blocking=blocking, trace=True,
                        topology=topology)
        status = "completed"
    run.trace.dump_chrome_trace(args.out)
    lanes = ",".join(run.trace.resources())
    print(
        f"{run.schedule_name} run ({status}): {run.completion_time:.4f} s; "
        f"{len(run.trace.records)} events on lanes [{lanes}] -> {args.out} "
        "(open in chrome://tracing or Perfetto)"
    )
    if args.report:
        cp = run.critical_path()
        if cp is None:
            print("no critical path (empty or deadlocked trace)")
        else:
            print()
            print(cp.describe())
            print("binding chain (latest intervals last):")
            print(cp.summarize_chain())
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import KERNELS
    from repro.tuning import tune

    if args.kernel not in KERNELS:
        raise SystemExit(
            f"unknown kernel {args.kernel!r}; choose from {sorted(KERNELS)}"
        )
    extents = [int(x) for x in args.extents.split(",")]
    procs = tuple(int(x) for x in args.procs.split(","))
    if len(procs) != len(extents):
        raise SystemExit("--procs must have one entry per extent")
    w = StencilWorkload(
        "tune", IterationSpace.from_extents(extents),
        KERNELS[args.kernel](), procs, len(extents) - 1,
    )
    m = _machine(args.machine)
    result = tune(
        w, m,
        overlap=args.schedule == "overlap",
        budget=args.budget,
        shape=args.shape,
        engine=_engine(args),
        baseline_points=args.points,
    )
    print(result.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json(canonical=False))
        print(f"TuneResult JSON written to {args.json}", file=sys.stderr)
    return 0


def _cmd_summa(args: argparse.Namespace) -> int:
    from repro.kernels.gemm import SummaConfig, run_summa

    m = _machine(args.machine)
    methods = (
        ("sequential", "pipelined") if args.method == "both"
        else (args.method,)
    )
    faults = reliable = None
    if args.drop_rate > 0.0 or args.jitter > 0.0:
        from repro.sim.faults import FaultPlan
        from repro.sim.reliable import ReliableConfig

        faults = FaultPlan(seed=args.seed, drop_prob=args.drop_rate,
                           jitter=args.jitter)
        reliable = ReliableConfig()
    want_trace = bool(args.trace_out) or args.report
    last = None
    by_method = {}
    for method in methods:
        cfg = SummaConfig(
            grid=args.grid, tile_m=args.tile, tile_n=args.tile,
            tile_k=args.tile, panels=args.panels,
            segments=args.segments, method=method,
        )
        topology = _topology(args, cfg.num_ranks)
        res = run_summa(cfg, m, topology=topology, trace=want_trace,
                        faults=faults, reliable=reliable)
        s = res.network_stats
        extra = f"; {s['hops']} routed hops" if "hops" in s else ""
        retx = s.get("retransmits", 0)
        if retx:
            extra += f"; {retx} retransmits"
        print(
            f"{cfg.describe()} on {args.topology}: "
            f"{res.completion_time * 1e3:.3f} ms ({res.status}), "
            f"{res.messages_sent} messages{extra}"
        )
        last = res
        by_method[method] = res
    if len(by_method) == 2 and by_method["pipelined"].completion_time > 0:
        speedup = (by_method["sequential"].completion_time
                   / by_method["pipelined"].completion_time)
        print(f"pipelined speedup over sequential: {speedup:.3f}x")
    if args.trace_out and last is not None:
        last.trace.dump_chrome_trace(args.trace_out)
        print(f"trace of {last.config.method} run -> {args.trace_out}")
    if args.report and last is not None:
        cp = last.critical_path()
        if cp is None:
            print("no critical path (empty or deadlocked trace)")
        else:
            print()
            print(cp.describe())
            print("binding chain (latest intervals last):")
            print(cp.summarize_chain())
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures, tables and listings.",
    )
    parser.add_argument(
        "--machine", default="pentium", choices=("pentium", "sci"),
        help="calibrated machine preset (default: pentium)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for sweep fan-out (default: all cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent simulation result cache",
    )
    parser.add_argument(
        "--resume", metavar="JOURNAL",
        help="journal completed runs to this JSONL file and, on restart, "
             "serve them back instead of re-simulating (crash-safe resume)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="Figure 9/10/11 V-sweep")
    fig.add_argument("experiment", choices=("i", "ii", "iii"))
    fig.add_argument("--full", action="store_true", help="paper-scale depth")
    fig.add_argument("--points", type=int, default=10)
    fig.add_argument("--heights", help="comma-separated explicit V values")
    fig.add_argument("--tune", action="store_true",
                     help="pick heights with the model-guided autotuner "
                          "instead of the dense default grid")
    fig.add_argument("--tune-budget", type=float, default=0.1,
                     help="autotuner budget (fraction of the exhaustive "
                          "sweep's tile-steps, or absolute steps if > 1)")
    fig.add_argument("--svg", help="also write an SVG figure to this path")
    fig.set_defaults(func=_cmd_figure)

    t12 = sub.add_parser("table12", help="the Fig. 12 summary table")
    t12.add_argument("--full", action="store_true")
    t12.add_argument("--points", type=int, default=8)
    t12.add_argument("--tune", action="store_true",
                     help="pick heights with the model-guided autotuner")
    t12.add_argument("--tune-budget", type=float, default=0.1,
                     help="autotuner budget (fraction of the exhaustive "
                          "sweep's tile-steps, or absolute steps if > 1)")
    t12.set_defaults(func=_cmd_table12)

    ex = sub.add_parser("examples", help="Examples 1 and 3 worked numbers")
    ex.set_defaults(func=_cmd_examples)

    ver = sub.add_parser("verify", help="distributed-vs-sequential check")
    ver.add_argument("--v", type=int, default=8, help="tile height")
    ver.set_defaults(func=_cmd_verify)

    chaos = sub.add_parser(
        "chaos", help="fault-rate sweep with bit-exactness verification"
    )
    chaos.add_argument("--harness", action="store_true",
                       help="fault-inject the harness itself (worker "
                            "kills/hangs, shard death, killed+resumed "
                            "sweep) and verify bit-identical recovery")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (fixes the fault stream)")
    chaos.add_argument("--drop-rate", default="0.0,0.01,0.05,0.1",
                       help="comma-separated drop probabilities to sweep")
    chaos.add_argument("--duplicate-rate", type=float, default=0.0)
    chaos.add_argument("--corrupt-rate", type=float, default=0.0)
    chaos.add_argument("--jitter", type=float, default=0.0,
                       help="max extra switch latency per message (s)")
    chaos.add_argument("--max-retries", type=int, default=8)
    chaos.add_argument("--no-retransmit", action="store_true",
                       help="disable the reliability layer (drops deadlock)")
    chaos.add_argument("--v", type=int, default=8, help="tile height")
    chaos.add_argument("--depth", type=int, default=64,
                       help="mapped-dimension extent of the test workload")
    chaos.set_defaults(func=_cmd_chaos)

    scale = sub.add_parser(
        "scale", help="one cluster-scale run, optionally rank-sharded"
    )
    scale.add_argument("--grid", type=_positive_int, default=16,
                       help="processor mesh side (grid² ranks, default 16)")
    scale.add_argument("--depth", type=_positive_int, default=128,
                       help="mapped-dimension extent (default 128)")
    scale.add_argument("--v", type=_positive_int, default=8, help="tile height")
    scale.add_argument("--schedule", default="overlap",
                       choices=("overlap", "nonoverlap"))
    scale.add_argument("--shards", type=_positive_int, default=1,
                       help="rank shards; >1 partitions the run over "
                            "conservative-lookahead shard simulators")
    scale.add_argument("--in-process", action="store_true",
                       help="keep all shards in this interpreter "
                            "(default: one OS process per shard)")
    scale.add_argument("--shard-timeout", type=float, default=None,
                       metavar="S",
                       help="declare a silent shard process frozen after "
                            "this many seconds and respawn+replay it "
                            "(default: no timeout)")
    scale.add_argument("--trace", nargs="?", const="streaming",
                       default=False, choices=("streaming", "full"),
                       help="trace mode (default off; bare flag = streaming)")
    _add_topology_arg(scale)
    scale.set_defaults(func=_cmd_scale)

    gantt = sub.add_parser("gantt", help="Gantt charts of both schedules")
    gantt.add_argument("--v", type=int, default=256)
    gantt.add_argument("--width", type=int, default=100)
    gantt.set_defaults(func=_cmd_gantt)

    plan = sub.add_parser(
        "plan", help="choose grid/mapping/V for a loop on a machine"
    )
    plan.add_argument("--extents", default="16,16,16384",
                      help="comma-separated iteration-space extents")
    plan.add_argument("--kernel", default="sqrt3d")
    plan.add_argument("--processors", type=int, default=16)
    plan.add_argument("--schedule", default="overlap",
                      choices=("overlap", "nonoverlap"))
    plan.add_argument("--run", action="store_true",
                      help="also simulate the planned configuration")
    plan.set_defaults(func=_cmd_plan)

    camp = sub.add_parser("campaign", help="run/compare regression campaigns")
    camp.add_argument("action", choices=("run", "compare"))
    camp.add_argument("--out", default="campaign.json",
                      help="records file to write (run) or compare")
    camp.add_argument("--baseline", default="campaign-baseline.json",
                      help="baseline records file (compare)")
    camp.add_argument("--tolerance", type=float, default=0.02)
    camp.set_defaults(func=_cmd_campaign)

    tr = sub.add_parser(
        "trace",
        help="dump a Perfetto/Chrome-tracing JSON plus critical-path "
             "report for any kernel/schedule/V point",
    )
    tr.add_argument("--v", type=int, default=128)
    tr.add_argument("--schedule", default="overlap",
                    choices=("overlap", "nonoverlap"))
    tr.add_argument("--out", default="trace.json")
    tr.add_argument("--kernel", default="sqrt3d",
                    help="stencil kernel from the campaign registry")
    tr.add_argument("--extents", default="8,8,1024",
                    help="comma-separated iteration-space extents")
    tr.add_argument("--procs", default="2,2,1",
                    help="processor grid, one entry per extent")
    tr.add_argument("--report", action="store_true",
                    help="print the critical-path / term-attribution report")
    tr.add_argument("--drop-rate", type=float, default=0.0, metavar="P",
                    help="inject seeded message drops (ARQ recovers them; "
                         "retransmits land in the NIC lanes)")
    tr.add_argument("--jitter", type=float, default=0.0, metavar="S",
                    help="max per-message latency jitter in seconds")
    tr.add_argument("--seed", type=int, default=0,
                    help="fault-plan seed (with --drop-rate/--jitter)")
    _add_topology_arg(tr)
    tr.set_defaults(func=_cmd_trace)

    tn = sub.add_parser(
        "tune",
        help="model-guided autotuner: find the optimal tile height (and "
             "optionally processor-grid shape) with a fraction of the "
             "exhaustive sweep's simulated work",
    )
    tn.add_argument("--kernel", default="sqrt3d",
                    help="stencil kernel from the campaign registry")
    tn.add_argument("--extents", default="16,16,2048",
                    help="comma-separated iteration-space extents")
    tn.add_argument("--procs", default="4,4,1",
                    help="processor grid, one entry per extent")
    tn.add_argument("--schedule", default="overlap",
                    choices=("overlap", "nonoverlap"))
    tn.add_argument("--budget", type=float, default=0.1,
                    help="fraction of the exhaustive sweep's simulated "
                         "tile-steps (<= 1), or an absolute tile-step "
                         "cap (> 1); default 0.1")
    tn.add_argument("--shape", action="store_true",
                    help="also search processor-grid factorisations "
                         "(coordinate descent on tile shape H)")
    tn.add_argument("--points", type=int, default=32,
                    help="exhaustive-sweep grid size the budget is "
                         "measured against (default 32)")
    tn.add_argument("--json", metavar="PATH",
                    help="write the full TuneResult JSON to this path")
    tn.set_defaults(func=_cmd_tune)

    summa = sub.add_parser(
        "summa",
        help="SUMMA GEMM on a 2-D grid: pipelined multicast vs the "
             "naive sequential broadcast",
    )
    summa.add_argument("--grid", type=_positive_int, default=4,
                       help="process grid side (grid² ranks, default 4)")
    summa.add_argument("--panels", type=_positive_int, default=8,
                       help="k-panel steps (default 8)")
    summa.add_argument("--tile", type=_positive_int, default=64,
                       help="cubic tile edge: tile_m = tile_n = tile_k")
    summa.add_argument("--segments", type=_positive_int, default=4,
                       help="pipeline segments per panel multicast")
    summa.add_argument("--method", default="both",
                       choices=("pipelined", "sequential", "both"),
                       help="broadcast implementation(s) to run")
    summa.add_argument("--trace-out", metavar="PATH",
                       help="dump a Perfetto/Chrome trace of the (last) run")
    summa.add_argument("--report", action="store_true",
                       help="print the critical-path report (collective "
                            "legs show up as labelled NIC/link intervals)")
    summa.add_argument("--drop-rate", type=float, default=0.0, metavar="P",
                       help="inject seeded message drops on collective legs "
                            "(ARQ recovers them)")
    summa.add_argument("--jitter", type=float, default=0.0, metavar="S",
                       help="max per-message latency jitter in seconds")
    summa.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (with --drop-rate/--jitter)")
    _add_topology_arg(summa)
    summa.set_defaults(func=_cmd_summa)

    prof = sub.add_parser(
        "profile",
        help="cProfile one cluster-scale run and attribute the time to "
             "simulator lanes (plus pyinstrument when installed)",
    )
    prof.add_argument("--grid", type=_positive_int, default=16,
                      help="processor mesh side (grid² ranks, default 16)")
    prof.add_argument("--depth", type=_positive_int, default=64,
                      help="mapped-dimension extent (default 64)")
    prof.add_argument("--v", type=_positive_int, default=8,
                      help="tile height")
    prof.add_argument("--schedule", default="overlap",
                      choices=("overlap", "nonoverlap"))
    prof.add_argument("--trace", action="store_true",
                      help="profile with tracing enabled (shows the "
                           "tracing lane's cost)")
    prof.add_argument("--top", type=_positive_int, default=15,
                      help="rows in the per-function table (default 15)")
    prof.add_argument("--no-sampling", action="store_true",
                      help="skip the pyinstrument pass even if installed")
    prof.set_defaults(func=_cmd_profile)

    cg = sub.add_parser("codegen", help="emit tiled-loop / SPMD source")
    cg.add_argument("kind", choices=("loops", "mpi", "mpi4py"))
    cg.add_argument("--schedule", default="overlap",
                    choices=("overlap", "nonoverlap"))
    cg.add_argument("--order", default="lexicographic",
                    choices=("lexicographic", "wavefront"))
    cg.add_argument("--v", type=int, default=128)
    cg.set_defaults(func=_cmd_codegen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)

"""Profile-guided view of the simulator hot path.

``python -m repro profile`` runs one cluster-scale simulation under
``cProfile`` and reports where the interpreter actually spent its time,
twice over:

* **per lane** — every profiled function is attributed to the simulator
  layer it belongs to (event loop, event queue, resources, message
  layer, collectives, tracing, …), so the report answers "which
  subsystem is hot" directly instead of via a 200-row pstats dump;
* **per function** — the conventional top-N by total time, for drilling
  into a lane.

If ``pyinstrument`` happens to be importable a wall-clock sampling
profile is appended (it shows time heap operations spend *inside* C
code, which cProfile folds into the caller); the dependency is purely
optional and never required.

The lane table is the companion to the ``core`` group of
``scripts/bench.py``: the bench measures each lane in isolation, the
profile shows the mix a real run produces.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from io import StringIO

__all__ = [
    "LANES",
    "LaneCost",
    "ProfileReport",
    "attribute_stats",
    "profile_scale_run",
    "render_report",
]

#: Lane name -> module-path fragments that belong to it.  Attribution
#: takes the FIRST matching lane, so order matters.
LANES = (
    ("event queue", ("heapq",)),
    ("event loop", ("repro/sim/core.py",)),
    ("resources", ("repro/sim/resources.py",)),
    ("message layer", ("repro/sim/mpi.py",)),
    ("collectives", ("repro/sim/collectives.py",)),
    ("network/faults", ("repro/sim/network.py", "repro/sim/faults.py",
                        "repro/sim/reliable.py", "repro/sim/topology.py")),
    ("tracing", ("repro/sim/tracing.py",)),
    ("sharding", ("repro/sim/sharding.py",)),
    ("program/runtime", ("repro/runtime/", "repro/kernels/", "repro/ir/",
                         "repro/model/", "repro/tiling/")),
)


@dataclass(frozen=True, slots=True)
class LaneCost:
    lane: str
    tottime: float      # seconds spent in the lane's own frames
    calls: int
    share: float        # fraction of the whole profile's tottime


@dataclass(frozen=True, slots=True)
class ProfileReport:
    lanes: tuple[LaneCost, ...]
    top_functions: str          # preformatted pstats table
    total_time: float
    event_count: int
    events_per_sec: float
    sampling: str | None        # pyinstrument text output, if available


def _lane_of(filename: str, funcname: str) -> str:
    # C builtins report filename "~"; the heap primitives among them
    # belong to the event-queue lane (e.g. "_heapq.heappush").
    if filename == "~" and "_heapq" in funcname:
        return "event queue"
    path = filename.replace("\\", "/")
    for lane, fragments in LANES:
        if any(f in path for f in fragments):
            return lane
    return "other"


def attribute_stats(stats: pstats.Stats) -> list[LaneCost]:
    """Fold a pstats table into per-lane own-time totals.

    ``tottime`` (time in the frame itself, callees excluded) is the
    right measure here: summing it over disjoint lanes partitions the
    run's CPU time exactly, whereas cumtime would double-count every
    caller/callee pair that spans a lane boundary.
    """
    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    grand = 0.0
    for (filename, _lineno, name), (cc, _nc, tt, _ct, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        lane = _lane_of(filename, name)
        tot[lane] = tot.get(lane, 0.0) + tt
        calls[lane] = calls.get(lane, 0) + cc
        grand += tt
    if grand <= 0.0:
        grand = 1.0
    return sorted(
        (LaneCost(lane, t, calls[lane], t / grand)
         for lane, t in tot.items()),
        key=lambda c: c.tottime,
        reverse=True,
    )


def profile_scale_run(
    grid: int = 16,
    depth: int = 64,
    v: int = 8,
    *,
    machine=None,
    blocking: bool = False,
    trace: bool = False,
    top: int = 15,
    sampling: bool = True,
) -> ProfileReport:
    """Run one ``scale_workload`` simulation under cProfile."""
    from repro.kernels.workloads import scale_workload
    from repro.model.machine import pentium_cluster
    from repro.runtime.executor import run_tiled

    if machine is None:
        machine = pentium_cluster()
    w = scale_workload(grid, depth)

    prof = cProfile.Profile()
    prof.enable()
    res = run_tiled(w, v, machine, blocking=blocking, trace=trace)
    prof.disable()

    stats = pstats.Stats(prof)
    lanes = attribute_stats(stats)
    total = sum(c.tottime for c in lanes)

    buf = StringIO()
    table = pstats.Stats(prof, stream=buf)
    table.sort_stats("tottime").print_stats(top)
    top_functions = buf.getvalue()

    sampling_text = None
    if sampling:
        sampling_text = _pyinstrument_run(w, v, machine, blocking=blocking,
                                          trace=trace)

    return ProfileReport(
        lanes=tuple(lanes),
        top_functions=top_functions,
        total_time=total,
        event_count=res.event_count,
        events_per_sec=res.event_count / total if total > 0 else 0.0,
        sampling=sampling_text,
    )


def _pyinstrument_run(w, v, machine, *, blocking, trace):
    """A second, sampled run under pyinstrument — or ``None`` when the
    (optional) dependency is absent."""
    try:
        from pyinstrument import Profiler  # type: ignore[import-not-found]
    except ImportError:
        return None
    from repro.runtime.executor import run_tiled

    profiler = Profiler()
    profiler.start()
    run_tiled(w, v, machine, blocking=blocking, trace=trace)
    profiler.stop()
    return profiler.output_text(unicode=False, color=False)


def render_report(report: ProfileReport) -> str:
    lines = [
        f"profiled run: {report.event_count} events, "
        f"{report.total_time:.3f} s in profiled frames "
        f"({report.events_per_sec:,.0f} ev/s under instrumentation; "
        "cProfile overhead makes this slower than an uninstrumented run)",
        "",
        "per-lane attribution (own time, callees excluded):",
        f"  {'lane':<18} {'time (s)':>9} {'share':>7} {'calls':>12}",
    ]
    for c in report.lanes:
        lines.append(
            f"  {c.lane:<18} {c.tottime:>9.3f} {c.share:>6.1%} "
            f"{c.calls:>12,}"
        )
    lines.append("")
    lines.append(f"top functions by own time:")
    lines.append(report.top_functions.rstrip())
    if report.sampling:
        lines.append("")
        lines.append("pyinstrument (sampled wall clock):")
        lines.append(report.sampling.rstrip())
    else:
        lines.append("")
        lines.append("(pyinstrument not installed; skipping the sampled "
                     "wall-clock view)")
    return "\n".join(lines)

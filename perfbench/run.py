"""The repository benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  ``--trace 0`` runs the workload's
command again and again in fresh processes, tracing off, for ``S``
seconds and reports the end-to-end metrics (medians over the runs).
``--trace 1`` runs it once in-process with every layer wrapped
(``perfbench/traced.py``) and reports the per-layer metrics, plus
untraced runs for the rest of the ``S`` seconds to price the tracing.

Every command's output is checked against values recorded at the seed
commit (``perfbench/golden.json``).  The last line of stdout is the
result ``{"correct", "attempted", "failed", "metrics"}``; the line
before it, and ``--out FILE``, hold the full report with the per-run
samples and provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.checks import (  # noqa: E402
    cache_results,
    cache_state,
    import_cumulative,
    result_failures,
    scale_problems,
)
from perfbench.hostspeed import PROBE_REF_S, probe  # noqa: E402
from perfbench.spans import merge  # noqa: E402

TABLE12 = ("--jobs", "2", "table12")
SCALE = ("--no-cache", "scale", "--grid", "32", "--depth", "64", "--v", "4")


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    #: "table12" or the golden key of a scale run
    check: str
    #: run against a cache filled during set-up instead of an empty one
    warm: bool = False


WORKLOADS = {
    "table12_cold": Workload(TABLE12, "table12"),
    "table12_warm": Workload(TABLE12, "table12", warm=True),
    "scale_1024": Workload(SCALE, "scale"),
    "scale_1024_shards2": Workload(SCALE + ("--shards", "2"), "scale_shards2"),
}

MIN_RUNS = 3          # per measurement, even past --seconds
COMMAND_TIMEOUT = 120.0  # seconds; a hung command is killed and fails


@dataclass
class CommandRun:
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """One invocation: a private work directory, the recorded values,
    and the operation tally."""

    def __init__(self, workload: str, seed: int, *,
                 golden: dict | None = None, work_root: str | None = None):
        self.workload = WORKLOADS[workload]
        if golden is None:
            with open(os.path.join(HERE, "golden.json")) as fh:
                golden = json.load(fh)
        self.golden = golden
        self.work = os.path.join(
            work_root or os.path.join(ROOT, ".perfbench-work"),
            f"{workload}-{seed}-{os.getpid()}",
        )
        os.makedirs(self.work)
        self._dirs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- operations -----------------------------------------------------------

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def new_dir(self, kind: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{kind}{self._dirs}")
        os.makedirs(path)
        return path

    def env(self, cache_dir: str) -> dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_CACHE_DIR"] = cache_dir
        return env

    def run(self, cmd: list[str], cache_dir: str) -> CommandRun:
        """Run one command in its own session; wall time spawn to exit,
        set-up time spawn to handler entry, peak RSS over the whole
        process tree (the kernel folds reaped children into it)."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        mark_r, mark_w = os.pipe()
        env = self.env(cache_dir)
        env["PERFBENCH_MARK_FD"] = str(mark_w)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                pass_fds=(mark_w,), start_new_session=True,
            )
        os.close(mark_w)
        timer = threading.Timer(COMMAND_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the command left behind
        os.set_blocking(mark_r, False)
        try:
            mark = os.read(mark_r, 64)
        except BlockingIOError:
            mark = b""
        os.close(mark_r)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return CommandRun(
            rc=proc.returncode,
            wall_s=(t1 - t0) / 1e9,
            setup_s=(int(mark) - t0) / 1e9 if mark else None,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=stdout,
            stderr=stderr,
        )

    # -- checks ---------------------------------------------------------------

    def command_problems(self, run: CommandRun) -> list[str]:
        problems = []
        if run.rc != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {run.rc}: {tail[0]}")
        if (self.workload.check == "table12"
                and run.stdout != self.golden["table12_stdout"]):
            problems.append("stdout differs from the recorded table")
        return problems

    def check_results(self, run: CommandRun, cache_dir: str) -> None:
        """The simulated results, one operation each: table12's from the
        run's cache, a scale run's from its stdout."""
        if self.workload.check != "table12":
            self.op(scale_problems(run.stdout, self.golden[self.workload.check]),
                    "scale result")
            return
        found = cache_results(cache_dir)
        for row in self.golden["table12_results"]:
            self.op(result_failures(found, [row]), "table12 result")

    # -- measurements ---------------------------------------------------------

    def set_up(self) -> str | None:
        """Untimed: compile bytecode, and fill the warm workload's cache
        (checked like any cold run).  Returns that cache directory."""
        self.run([sys.executable, "-c", "import repro.experiments.cli, "
                  "repro.experiments.engine, repro.sim.sharding"],
                 self.new_dir("cache"))
        if not self.workload.warm:
            return None
        cache_dir = self.new_dir("cache")
        self.untraced(cache_dir, filling=True)
        return cache_dir

    def untraced(self, warm_cache: str | None = None, *,
                 filling: bool = False) -> CommandRun:
        """One untraced command, checked; a fresh cache unless warm."""
        cache_dir = warm_cache or self.new_dir("cache")
        before = cache_state(cache_dir)
        run = self.run(
            [sys.executable, os.path.join(HERE, "entry.py"),
             *self.workload.argv],
            cache_dir,
        )
        problems = self.command_problems(run)
        if run.setup_s is None:
            problems.append("never entered the subcommand handler")
        if warm_cache and not filling and cache_state(cache_dir) != before:
            problems.append("a warm run stored results again")
        self.op(problems, "command")
        if not warm_cache or filling:
            self.check_results(run, cache_dir)
        if not warm_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return run

    def repeat(self, seconds: float,
               warm_cache: str | None) -> tuple[list[CommandRun], list[float]]:
        """Untraced commands for ``seconds``, each bracketed by host speed
        probes; returns the runs and the probe times."""
        runs: list[CommandRun] = []
        probes = [probe()]
        deadline = time.monotonic() + seconds
        # Start another run while it is expected to end by the deadline
        # (half a typical run of overshoot at most, on average none).
        while len(runs) < MIN_RUNS or (
            time.monotonic() + statistics.median(r.wall_s for r in runs) / 2
            < deadline
        ):
            runs.append(self.untraced(warm_cache))
            probes.append(probe())
        return runs, probes

    def traced(self, warm_cache: str | None) -> tuple[CommandRun, dict]:
        cache_dir = warm_cache or self.new_dir("cache")
        report_path = os.path.join(self.work, "traced.json")
        run = self.run(
            [sys.executable, os.path.join(HERE, "traced.py"), report_path,
             *self.workload.argv],
            cache_dir,
        )
        problems = self.command_problems(run)
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"no traced report: {exc}")
            report = {"parent": {"spans": {}, "counters": {}}, "children": []}
        self.op(problems, "traced command")
        if not warm_cache:
            self.check_results(run, cache_dir)
        return run, report

    def import_times(self) -> dict[str, float]:
        run = self.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.experiments.cli"],
            self.new_dir("cache"),
        )
        self.op([f"exit code {run.rc}"] if run.rc else [], "import")
        return import_cumulative(run.stderr, ("scipy", "numpy"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- metrics -------------------------------------------------------------------


def end_to_end(runs: list[CommandRun], probes: list[float],
               bench: Bench) -> dict:
    """Medians over the runs; times in reference-host seconds (see
    ``perfbench/hostspeed.py``)."""
    scale = PROBE_REF_S / statistics.median(probes)
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    return {
        "wall_s": (statistics.median(r.wall_s for r in runs) * scale, "s"),
        "setup_s": (statistics.median(setups or [r.wall_s for r in runs])
                    * scale, "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "ok_frac": (1 - bench.failed / bench.attempted, "ratio"),
    }


def per_layer(report: dict, traced_wall: float, untraced_wall: float,
              imports: dict[str, float]) -> dict:
    parent = merge([report["parent"]])
    children = merge(report["children"])
    both = merge([report["parent"], *report["children"]])

    def secs(agg: dict, name: str) -> float:
        return agg["spans"].get(name, [0, 0, 0])[0] / 1e9

    def count(name: str) -> float:
        return both["counters"].get(name, 0)

    sim_s, events = secs(both, "sim.run"), count("sim.events")
    busy, lifetime = (secs(children, "supervisor.task"),
                      secs(children, "supervisor.worker"))
    lookups = count("cache.hits") + count("cache.misses")
    shard_busy = (secs(children, "sharding.shard")
                  - secs(children, "sharding.shard_recv"))
    sharded = secs(parent, "sharding.run")
    attributed = sum(
        self_ns for name, (_, self_ns, _) in parent["spans"].items()
        if not name.startswith("bench.")
    ) / 1e9
    m = {
        "cli.import_s": (secs(parent, "cli.import"), "s"),
        "cli.parse_s": (secs(parent, "cli.parse"), "s"),
        "cli.import.scipy_s": (imports["scipy"], "s"),
        "cli.import.numpy_s": (imports["numpy"], "s"),
        "program.build_s": (secs(both, "program.build"), "s"),
        "program.builds": (count("program.builds"), "count"),
        "model.analytic_s": (secs(both, "model.analytic"), "s"),
        "model.calls": (count("model.calls"), "count"),
        "sim.run_s": (sim_s, "s"),
        "sim.runs": (count("sim.runs"), "count"),
        "sim.events": (events, "count"),
        "sim.messages": (count("sim.messages"), "count"),
        "sim.ns_per_event": (sim_s * 1e9 / events if events else 0.0, "ns"),
        "engine.batch_s": (secs(parent, "engine.batch"), "s"),
        "engine.tasks": (count("engine.tasks"), "count"),
        "supervisor.spawn_s": (secs(parent, "supervisor.spawn"), "s"),
        "supervisor.worker_busy_s": (busy, "s"),
        "supervisor.worker_idle_frac": (
            1 - busy / lifetime if lifetime else 0.0, "ratio"),
        "supervisor.result_wait_s": (
            secs(parent, "supervisor.result_wait"), "s"),
        "supervisor.respawns": (count("supervisor.respawns"), "count"),
        "supervisor.retries": (count("supervisor.retries"), "count"),
        "cache.get_s": (secs(parent, "cache.get"), "s"),
        "cache.put_s": (secs(parent, "cache.put"), "s"),
        "cache.hits": (count("cache.hits"), "count"),
        "cache.misses": (count("cache.misses"), "count"),
        "cache.stores": (count("cache.stores"), "count"),
        "cache.hit_ratio": (
            count("cache.hits") / lookups if lookups else 0.0, "ratio"),
        "cache.errors": (count("cache.errors"), "count"),
        "sharding.windows": (count("sharding.windows"), "count"),
        "sharding.advance_wait_s": (
            secs(parent, "sharding.advance_wait"), "s"),
        "sharding.shard_busy_s": (shard_busy, "s"),
        "sharding.concurrency": (
            shard_busy / sharded if sharded else 0.0, "ratio"),
        "sharding.restarts": (count("sharding.restarts"), "count"),
        "report.render_s": (secs(parent, "report.render"), "s"),
        "unattributed_s": (traced_wall - attributed, "s"),
        "trace_overhead": (traced_wall / untraced_wall, "ratio"),
    }
    return m


def traced_expectations(bench: Bench) -> dict[str, int]:
    """Counts the traced run must reproduce exactly."""
    if bench.workload.check == "table12":
        sims = bench.golden["table12_trace"]
        if bench.workload.warm:
            return {"sim.events": 0, "sim.messages": 0,
                    "cache.hits": len(bench.golden["table12_results"])}
        return {"sim.events": sims["sim.events"],
                "sim.messages": sims["sim.messages"], "cache.hits": 0}
    recorded = bench.golden[bench.workload.check]
    return {"sim.events": int(recorded["events"]),
            "sim.messages": int(recorded["messages"]), "cache.hits": 0}


def provenance(seed: int) -> dict:
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    # Only this checkout's own repository, not one it happens to sit in.
    top = git("rev-parse", "--show-toplevel")
    sha = git("rev-parse", "HEAD") if top and os.path.samefile(top, ROOT) else None
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": socket.gethostname(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "seed": seed,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    warm_cache = bench.set_up()
    samples: dict = {}
    if not trace:
        runs, probes = bench.repeat(seconds, warm_cache)
        metrics = end_to_end(runs, probes, bench)
    else:
        traced_run, report = bench.traced(warm_cache)
        imports = bench.import_times()
        left = seconds - (time.monotonic() - start)
        runs, probes = bench.repeat(left, warm_cache)
        untraced_wall = statistics.median(r.wall_s for r in runs)
        metrics = per_layer(report, traced_run.wall_s, untraced_wall, imports)
        for name, want in traced_expectations(bench).items():
            got = metrics[name][0]
            bench.op([] if got == want else [f"got {got}, recorded {want}"],
                     f"traced {name}")
        samples["traced_wall_s"] = traced_run.wall_s
        samples["traced_report"] = report
    samples["probe_s"] = probes
    samples["runs"] = [
        {"wall_s": r.wall_s, "setup_s": r.setup_s, "rss_mb": r.rss_mb,
         "rc": r.rc}
        for r in runs
    ]
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full report here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "experiments",
                                       "cli.py")):
        print("perfbench: no repro sources under src/; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        metrics, samples = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "problems": bench.problems,
        "samples": samples,
        **result,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

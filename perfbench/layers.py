"""Layer wrappers for the traced run.

:func:`install` wraps the public calls into each layer of ``repro`` so
that a :class:`~perfbench.spans.Recorder` sees one span per call and the
layer's own counters.  Nothing inside ``repro`` is edited: functions and
methods are replaced on their modules and classes, in the one process
that runs the traced command.

Child processes are covered two ways:

* pool workers are forked (``SupervisedPool`` defaults to ``fork``), so
  the wrapped classes carry over; the wrapped worker entry resets the
  inherited recorder and dumps the child's spans when the worker exits;
* shard processes are started with ``spawn``, so the shard entry is
  replaced by :func:`shard_main`, a module-level function the child
  imports by name, which wraps the shard's own simulator and pipe.

Children write their spans into the directory named by
``$PERFBENCH_SPAN_DIR``; the traced runner merges them afterwards.
"""

from __future__ import annotations

import os
import time

from perfbench.spans import Recorder

__all__ = ["SPAN_DIR_ENV", "import_layer_modules", "install", "shard_main"]

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


def import_layer_modules() -> None:
    """Import the layer modules the CLI otherwise loads lazily, so they
    can be wrapped before the command runs."""
    import repro.experiments.cache  # noqa: F401
    import repro.experiments.engine  # noqa: F401
    import repro.experiments.supervisor  # noqa: F401
    import repro.sim.sharding  # noqa: F401


def _timed(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end()

    return wrapper


class _TimedWaitModule:
    """Stands in for ``multiprocessing.connection`` inside the supervisor
    module: ``wait`` is timed as the coordinator's result wait."""

    def __init__(self, module, rec: Recorder):
        self._module = module
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._module, name)

    def wait(self, *args, **kwargs):
        with self._rec.span("supervisor.result_wait"):
            return self._module.wait(*args, **kwargs)


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points to record into ``rec``."""
    from repro.experiments import cache, cli, engine, figures, supervisor
    from repro.runtime.program import TiledProgram
    from repro.sim import mpi, sharding

    # cli: parse is main() entry to handler entry; the handler is the command.
    main = cli.main
    main_start = [0]

    def traced_main(argv=None):
        main_start[0] = time.perf_counter_ns()
        return main(argv)

    def handler(fn):
        def wrapper(args):
            rec.add("cli.parse", main_start[0], time.perf_counter_ns())
            with rec.span("cli.command"):
                return fn(args)

        return wrapper

    cli.main = traced_main
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        setattr(cli, name, handler(getattr(cli, name)))

    # report
    for name in ("table12", "render_table12", "render_sweep",
                 "render_sweep_summary"):
        setattr(cli, name, _timed(rec, "report.render", getattr(cli, name)))

    # program build: construction plus the per-rank generator factories
    init = TiledProgram.__init__

    def program_init(self, *args, **kwargs):
        rec.count("program.builds")
        with rec.span("program.build"):
            init(self, *args, **kwargs)

    TiledProgram.__init__ = program_init
    TiledProgram.programs = _timed(rec, "program.build", TiledProgram.programs)

    # model (eq. 3/4)
    analytic_times = figures.analytic_times

    def traced_analytic_times(*args, **kwargs):
        rec.count("model.calls")
        with rec.span("model.analytic"):
            return analytic_times(*args, **kwargs)

    figures.analytic_times = traced_analytic_times

    # sim
    world_run = mpi.World.run

    def traced_world_run(self, *args, **kwargs):
        with rec.span("sim.run"):
            end = world_run(self, *args, **kwargs)
        rec.count("sim.runs")
        rec.count("sim.events", self.sim.event_count)
        rec.count("sim.messages", self.messages_sent)
        return end

    mpi.World.run = traced_world_run

    # engine
    run_batch = engine.Engine.run_batch_outcomes

    def traced_run_batch(self, workload, machine, pairs, **kwargs):
        rec.count("engine.tasks", len(pairs))
        with rec.span("engine.batch"):
            return run_batch(self, workload, machine, pairs, **kwargs)

    engine.Engine.run_batch_outcomes = traced_run_batch
    engine._pool_worker = _timed(rec, "supervisor.task", engine._pool_worker)

    # supervisor
    worker_main = supervisor._worker_main

    def traced_worker_main(*args, **kwargs):  # runs in the forked worker
        rec.reset()
        try:
            with rec.span("supervisor.worker"):
                worker_main(*args, **kwargs)
        finally:
            rec.dump(os.environ[SPAN_DIR_ENV])

    supervisor._worker_main = traced_worker_main
    pool = supervisor.SupervisedPool
    pool._spawn = _timed(rec, "supervisor.spawn", pool._spawn)
    pool_run = pool.run

    def traced_pool_run(self, *args, **kwargs):
        respawns, retried = self.stats.respawns, self.stats.retried
        with rec.span("supervisor.run"):
            out = pool_run(self, *args, **kwargs)
        rec.count("supervisor.respawns", self.stats.respawns - respawns)
        rec.count("supervisor.retries", self.stats.retried - retried)
        return out

    pool.run = traced_pool_run
    supervisor.mp_connection = _TimedWaitModule(supervisor.mp_connection, rec)

    # cache
    def cache_op(span: str, fn):
        def wrapper(self, *args, **kwargs):
            st = self.stats
            before = (st.hits, st.misses, st.stores, st.errors)
            with rec.span(span):
                out = fn(self, *args, **kwargs)
            after = (st.hits, st.misses, st.stores, st.errors)
            for key, b, a in zip(("hits", "misses", "stores", "errors"),
                                 before, after):
                rec.count(f"cache.{key}", a - b)
            return out

        return wrapper

    cache.SimCache.get = cache_op("cache.get", cache.SimCache.get)
    cache.SimCache.put = cache_op("cache.put", cache.SimCache.put)

    # sharding
    sharded_run = sharding.ShardedSimulation.run

    def traced_sharded_run(self, *args, **kwargs):
        with rec.span("sharding.run"):
            res = sharded_run(self, *args, **kwargs)
        rec.count("sharding.windows", res.windows)
        rec.count("sharding.restarts", res.shard_restarts)
        rec.count("sim.runs")
        rec.count("sim.events", res.event_count)
        rec.count("sim.messages", res.messages_sent)
        return res

    sharding.ShardedSimulation.run = traced_sharded_run
    remote = sharding._RemoteShard
    remote._reply = _timed(rec, "sharding.advance_wait", remote._reply)
    sharding._shard_main = shard_main


class _TimedConn:
    """A shard's pipe end that times how long the shard waits in recv."""

    def __init__(self, conn, rec: Recorder):
        self._conn = conn
        self._rec = rec

    def recv(self):
        with self._rec.span("sharding.shard_recv"):
            return self._conn.recv()

    def send(self, obj) -> None:
        self._conn.send(obj)


def shard_main(conn) -> None:  # runs in the spawned shard process
    """Shard process entry: the original one, with its simulator runs
    and pipe waits recorded and dumped on exit."""
    from repro.sim import sharding
    from repro.sim.core import Simulator

    rec = Recorder()
    Simulator.run = _timed(rec, "sim.run", Simulator.run)
    try:
        with rec.span("sharding.shard"):
            sharding._shard_main(_TimedConn(conn, rec))
    finally:
        rec.dump(os.environ[SPAN_DIR_ENV])

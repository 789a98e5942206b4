"""The shape of the sharded window protocol, seen through a recording
stand-in for the shard child processes.

The stand-in replaces the ``spawn`` context: its "child" is a pipe end
that runs each command on an in-process :class:`ShardWorld` and logs
every message the coordinator sends and every reply it takes.  The real
:class:`~repro.sim.sharding._RemoteShard` and coordinator drive it, so
the log shows the real protocol: per window, one ``step`` per shard, all
posted before the first reply is collected.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing

import pytest

from repro.kernels.workloads import scale_workload
from repro.model.machine import pentium_cluster
from repro.runtime.executor import _TiledPrograms
from repro.sim import sharding
from repro.sim.sharding import ShardedSimulation, ShardWorld

V = 8


class _Child:
    """The coordinator's pipe end to one in-process stand-in shard."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.world = None
        self.replies = []
        self.steps = 0

    def send(self, message):
        cmd, payload = message
        self.ctx.log.append(("send", self.shard, cmd))
        if cmd == "init":
            self.world = ShardWorld(
                payload["machine"], payload["num_ranks"], payload["owned"],
                payload["shard_of"], trace=payload["trace"],
                faults=payload["faults"],
            )
            self.world.spawn_owned(payload["factory"]())
            self.incarnation = payload["incarnation"]
            return
        self.ctx.posted.append((self.shard, message))
        if cmd == "step":
            self.replies.append(sharding._step(self.world, *payload))
        elif cmd == "next":
            self.replies.append(self.world.sim.next_time())
        else:
            self.replies.append(sharding._shard_summary(self.world))

    @property
    def shard(self):
        return self.world.shard_id if self.world is not None else None

    def poll(self, _timeout):
        return True

    def recv(self):
        reply = self.replies.pop(0)
        if isinstance(reply, tuple):
            self.steps += 1
            if (self.incarnation == 0
                    and (self.shard, self.steps) == self.ctx.crash_at):
                raise EOFError("stand-in shard died")
        self.ctx.log.append(("recv", self.shard))
        return ("reply", reply)

    def close(self):
        pass


class _Proc:
    pid = 0
    exitcode = None

    def __init__(self, target, args, daemon):
        pass

    def start(self):
        pass

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def kill(self):
        pass


class _Ctx:
    """Stand-in ``spawn`` context: a pipe to an in-process shard."""

    Process = _Proc

    def __init__(self, crash_at=None):
        self.log = []
        self.posted = []
        self.crash_at = crash_at

    def Pipe(self):
        conn = _Child(self)
        return conn, conn  # the child end is only closed, never used


def _run(monkeypatch, ctx, nshards=3):
    w, m = scale_workload(4, 16), pentium_cluster()
    monkeypatch.setattr(multiprocessing, "get_context", lambda _method: ctx)
    sim = ShardedSimulation(m, w.num_processors, nshards, processes=True)
    return sim.run(factory=_TiledPrograms(w, V, m, False))


def _windows(log, nshards):
    """Split the logged step traffic into per-window event lists."""
    steps = [e for e in log if e[0] == "recv" or e[2:] == ("step",)]
    size = 2 * nshards
    return [steps[i:i + size] for i in range(0, len(steps), size)]


def test_one_step_per_shard_per_window_posted_before_any_collect(
        monkeypatch):
    ctx = _Ctx()
    res = _run(monkeypatch, ctx, nshards=3)
    commands = [e[2] for e in ctx.log if e[0] == "send"]
    assert commands.count("init") == 3
    assert commands.count("next") == 3  # once, before the first window
    assert commands.count("finish") == 3
    assert commands.count("step") == 3 * res.windows
    # Between the start-up "next" queries and the final "finish".
    body = ctx.log[ctx.log.index(("send", 0, "step")):
                   ctx.log.index(("send", 0, "finish"))]
    windows = _windows(body, 3)
    assert len(windows) == res.windows
    for window in windows:
        assert window == [("send", 0, "step"), ("send", 1, "step"),
                          ("send", 2, "step"),
                          ("recv", 0), ("recv", 1), ("recv", 2)]


def test_bound_is_the_largest_float_below_tmin_plus_lookahead(monkeypatch):
    ctx = _Ctx()
    _run(monkeypatch, ctx, nshards=2)
    latency = pentium_cluster().network_latency
    bounds = [payload[1] for _k, (cmd, payload) in ctx.posted
              if cmd == "step"]
    # The first window starts at t = 0.
    assert bounds[0] < latency
    assert math.nextafter(bounds[0], math.inf) == latency


@pytest.mark.parametrize("crash_at", [(1, 1), (0, 5), (2, 9)])
def test_crash_at_collect_replays_history_and_reposts(monkeypatch,
                                                       crash_at):
    ref = _run(monkeypatch, _Ctx(), nshards=3)
    ctx = _Ctx(crash_at=crash_at)
    res = _run(monkeypatch, ctx, nshards=3)
    assert res.shard_restarts == 1
    assert dataclasses.replace(res, shard_restarts=0) == ref
    shard, nth = crash_at
    posts = [msg for k, msg in ctx.posted if k == shard and msg[0] == "step"]
    # The lost step is re-posted once after the nth - 1 completed steps
    # are replayed, so the first nth posts come round again in order.
    assert posts[nth:2 * nth] == posts[:nth]
    assert len(posts) == ref.windows + nth

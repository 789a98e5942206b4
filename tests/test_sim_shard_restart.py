"""Shard checkpoint/restart: killed and hung shard processes respawn,
replay their window history, and finish bit-identical."""

from __future__ import annotations

import signal
import time

import pytest

from repro.experiments.supervisor import HarnessChaosPlan
from repro.kernels.workloads import scale_workload
from repro.model.machine import pentium_cluster
from repro.runtime.executor import run_tiled, run_tiled_sharded
from repro.sim.sharding import ShardedSimulation


@pytest.fixture(scope="module")
def reference():
    w = scale_workload(4, 32)
    m = pentium_cluster()
    ref = run_tiled(w, 8, m, blocking=False)
    return w, m, ref


@pytest.mark.resilience
def test_shard_kill_mid_window_bit_identical(reference):
    w, m, ref = reference
    plan = HarnessChaosPlan(seed=3, shard_kill_prob=0.2, max_faults=1)
    res = run_tiled_sharded(
        w, 8, m, blocking=False, nshards=3, processes=True,
        harness_chaos=plan, max_shard_restarts=3,
    )
    assert res.shard_restarts > 0, "chaos plan never fired"
    assert res.completion_time == ref.completion_time
    assert res.messages_sent == ref.messages_sent


@pytest.mark.resilience
def test_shard_hang_detected_and_replayed(reference):
    w, m, ref = reference
    plan = HarnessChaosPlan(seed=5, shard_hang_prob=0.15, max_faults=1)
    res = run_tiled_sharded(
        w, 8, m, blocking=False, nshards=3, processes=True,
        harness_chaos=plan, shard_timeout=2.0, max_shard_restarts=3,
    )
    assert res.shard_restarts > 0, "chaos plan never fired"
    assert res.completion_time == ref.completion_time
    assert res.messages_sent == ref.messages_sent


@pytest.mark.resilience
def test_restart_budget_exhaustion_raises(reference):
    from repro.sim.sharding import ShardCrash

    w, m, _ = reference
    # Infinite fault budget: every incarnation of shard 0 dies again, so
    # the restart budget must eventually surface the crash.
    plan = HarnessChaosPlan(seed=3, shard_kill_prob=0.2, max_faults=10**9)
    with pytest.raises(ShardCrash):
        run_tiled_sharded(
            w, 8, m, blocking=False, nshards=3, processes=True,
            harness_chaos=plan, max_shard_restarts=1,
        )


def test_restarts_zero_without_chaos(reference):
    w, m, ref = reference
    res = run_tiled_sharded(w, 8, m, blocking=False, nshards=2,
                            processes=True)
    assert res.shard_restarts == 0
    assert res.completion_time == ref.completion_time


@pytest.mark.resilience
def test_remote_shard_close_never_hangs_on_frozen_child():
    """A SIGSTOP'd shard child must not hang the parent's close()."""
    import multiprocessing as mp

    from repro.sim.sharding import _RemoteShard, shard_bounds
    from repro.kernels.workloads import scale_workload
    from repro.runtime.executor import _TiledPrograms

    w = scale_workload(2, 16)
    m = pentium_cluster()
    bounds = shard_bounds(w.num_processors, 2)
    shard_of = [0] * w.num_processors
    for k, b in enumerate(bounds):
        for r in b:
            shard_of[r] = k
    ctx = mp.get_context("spawn")
    shard = _RemoteShard(ctx, {
        "machine": m,
        "num_ranks": w.num_processors,
        "owned": bounds[0],
        "shard_of": shard_of,
        "trace": False,
        "faults": None,
        "factory": _TiledPrograms(w, 8, m, False),
        "chaos": None,
    })
    assert shard.next_time() is not None  # child is up and serving
    import os

    os.kill(shard.proc.pid, signal.SIGSTOP)  # freeze it mid-protocol
    t0 = time.monotonic()
    shard.close()
    assert time.monotonic() - t0 < 10.0
    assert not shard.proc.is_alive()


def test_supervision_parameter_validation():
    m = pentium_cluster()
    with pytest.raises(ValueError):
        ShardedSimulation(m, 4, 2, shard_timeout=0.0)
    with pytest.raises(ValueError):
        ShardedSimulation(m, 4, 2, max_shard_restarts=-1)

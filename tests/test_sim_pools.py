"""Satellite regression: pooled records survive fault injection.

Message records and wait frames are recycled through per-world free
lists.  Recycling bugs are silent — a leaked record just grows the pool,
a double release corrupts a *later* message — so these tests assert the
counter invariants that make leaks and double frees loud:

* every acquired message is either released back or still legitimately
  parked (out-of-order hold-back, unmatched-arrival buffer) when the
  world quiesces, even across a chaos campaign of drops, duplicates and
  jitter;
* wait frames balance exactly against the processes still blocked in a
  wait at quiescence;
* double release raises immediately;
* a reliability transport bypasses pooling entirely (it holds message
  references across retransmits — recycling would corrupt them), and
  forcing one world onto the unpooled path produces a bit-identical run.
"""

from __future__ import annotations

import pytest

from repro.kernels.workloads import scale_workload
from repro.model.machine import pentium_cluster
from repro.runtime.program import TiledProgram
from repro.sim.faults import FaultPlan
from repro.sim.mpi import World
from repro.sim.reliable import ReliableConfig


def _chaos_world(faults=None, reliable=None):
    m = pentium_cluster()
    prog = TiledProgram(scale_workload(4, 64), 8, m, blocking=False)
    world = World(m, prog.num_ranks, faults=faults, reliable=reliable)
    return world, prog


def _parked_messages(world: World) -> int:
    """Messages legitimately still alive at quiescence: held back by the
    non-overtaking rule (their predecessor was dropped) or sitting in the
    unmatched-arrival buffer."""
    held = sum(len(d) for d in world._stream_held.values())
    arrived = sum(len(a) for a in world._arrived)
    return held + arrived


def _frames_in_flight(world: World) -> int:
    """Blocked waits hold their frame; everything else released it."""
    return sum(
        1
        for p in world.sim.unfinished_processes()
        if p.waiting_on and p.waiting_on.startswith("wait")
    )


def test_clean_run_pool_balances_exactly():
    world, prog = _chaos_world()
    world.run(prog.programs())
    assert world.pool_acquired > 0
    assert world.pool_released == world.pool_acquired
    assert world.pool_created == len(world._msg_pool)
    assert world.frames_acquired > 0
    assert world.frames_released == world.frames_acquired
    # Steady state really recycled: far fewer records than messages.
    assert world.pool_created < world.pool_acquired


def test_chaos_without_arq_neither_leaks_nor_double_frees():
    # Drops orphan their stream successors (held back forever) and leave
    # unmatched receivers blocked; duplicates are discarded at the NIC.
    # Every path must still balance the counters.
    world, prog = _chaos_world(
        faults=FaultPlan(seed=11, drop_prob=0.04, duplicate_prob=0.02,
                         jitter=1e-5),
    )
    outcome = world.run_outcome(prog.programs())
    assert outcome.status in ("deadlocked", "degraded")
    assert outcome.messages_dropped > 0
    assert world.pool_acquired > 0
    assert world.pool_acquired == world.pool_released + _parked_messages(world)
    assert world.frames_acquired - world.frames_released == \
        _frames_in_flight(world)
    # The free list never grows beyond what was created.
    assert len(world._msg_pool) <= world.pool_created


def test_duplicate_and_jitter_only_chaos_completes_and_balances():
    world, prog = _chaos_world(
        faults=FaultPlan(seed=5, duplicate_prob=0.05, jitter=2e-5),
    )
    outcome = world.run_outcome(prog.programs())
    assert outcome.status == "completed"
    assert world.pool_acquired == world.pool_released
    assert world.frames_acquired == world.frames_released


def test_double_release_raises():
    world, _ = _chaos_world()
    msg = world._make_message(0, 1, 0, None, 64.0)
    world._release_msg(msg)
    with pytest.raises(RuntimeError, match="double release"):
        world._release_msg(msg)


def test_arq_transport_bypasses_pooling():
    # The reliability layer holds message references across retransmits
    # and dedup checks; pooling must disable itself, counters stay zero.
    world, prog = _chaos_world(
        faults=FaultPlan(seed=7, drop_prob=0.03, duplicate_prob=0.01,
                         jitter=1e-5),
        reliable=ReliableConfig(),
    )
    assert not world._pooling
    outcome = world.run_outcome(prog.programs())
    assert outcome.status in ("completed", "degraded")
    assert world.pool_acquired == 0
    assert world.pool_released == 0
    assert world.pool_created == 0
    # Wait frames are always pooled — they are never referenced by the
    # transport — and still balance.
    assert world.frames_acquired == world.frames_released


def test_pooling_escape_hatch_is_bit_identical():
    def fingerprint(pooling):
        world, prog = _chaos_world(
            faults=FaultPlan(seed=3, drop_prob=0.02),
        )
        world._pooling = pooling
        outcome = world.run_outcome(prog.programs())
        return (outcome.status, outcome.completion_time,
                world.sim.event_count, world.messages_sent,
                outcome.messages_dropped, world.pool_acquired)

    pooled = fingerprint(True)
    unpooled = fingerprint(False)
    assert pooled[:-1] == unpooled[:-1]
    # The unpooled world really took the allocate-per-message path.
    assert pooled[-1] > 0 and unpooled[-1] == 0

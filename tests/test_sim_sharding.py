"""Bit-identity and protocol tests for rank-sharded simulation.

The load-bearing property: for every shard count, a sharded run must be
*bit-identical* to the single-process :class:`~repro.sim.mpi.World` run
— completion time, message count, per-rank term attribution and busy
time — because receiver-side FIFO submission order is reconstructed
exactly (deferred injection + sender-lineage tie-break, see
:mod:`repro.sim.sharding`).  These tests pin that equivalence for both
schedules, under fault injection, and through the multiprocessing
driver.
"""

import dataclasses

import pytest

from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import pentium_cluster
from repro.runtime.executor import run_tiled, run_tiled_robust, run_tiled_sharded
from repro.sim import sharding
from repro.sim.faults import FaultPlan
from repro.sim.network import Network
from repro.sim.sharding import (
    ShardedSimulation,
    ShardWorld,
    shard_bounds,
)


def _workload(depth=64):
    return StencilWorkload(
        "shard-test", IterationSpace.from_extents([8, 8, depth]),
        sqrt_kernel_3d(), (4, 4, 1), 2,
    )


V = 8


def _reference(w, m, *, blocking, faults=None):
    """Single-process run plus its per-rank trace aggregates."""
    if faults is None:
        res = run_tiled(w, V, m, blocking=blocking, trace="streaming")
        trace = res.trace
        completion, messages = res.completion_time, res.messages_sent
    else:
        res = run_tiled_robust(w, V, m, blocking=blocking, faults=faults,
                               trace="streaming")
        assert res.status == "completed"
        trace = res.trace
        completion, messages = res.completion_time, res.outcome.messages_sent
    terms = {r: trace.term_seconds(r) for r in range(w.num_processors)}
    busy = {r: trace.busy_time(r) for r in range(w.num_processors)}
    return completion, messages, terms, busy


def _assert_identical(sharded, completion, messages, terms, busy):
    assert repr(sharded.completion_time) == repr(completion)
    assert sharded.messages_sent == messages
    for rank, ref_terms in terms.items():
        got = sharded.rank_terms[rank]
        assert set(got) == set(ref_terms)
        for term, val in ref_terms.items():
            assert repr(got[term]) == repr(val), (rank, term)
    for rank, val in busy.items():
        assert repr(sharded.rank_busy[rank]) == repr(val), rank


def _record_key(rec):
    return (rec.rank, rec.resource, repr(rec.start), repr(rec.end),
            rec.kind, rec.label, rec.term)


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [range(0, 2), range(2, 4),
                                      range(4, 6), range(6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 3) == [range(0, 4), range(4, 7),
                                       range(7, 10)]

    def test_single_shard(self):
        assert shard_bounds(5, 1) == [range(0, 5)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
        with pytest.raises(ValueError):
            shard_bounds(4, 5)


@pytest.mark.parametrize("blocking", [False, True])
class TestBitIdentity:
    def test_matches_single_process(self, blocking):
        w, m = _workload(), pentium_cluster()
        completion, messages, terms, busy = _reference(w, m,
                                                       blocking=blocking)
        for nshards in (1, 2, 3, 5, 16):
            res = run_tiled_sharded(w, V, m, blocking=blocking,
                                    nshards=nshards, trace="streaming")
            _assert_identical(res, completion, messages, terms, busy)
            assert res.nshards == nshards
            assert res.windows > 0
        # Untraced: no rank aggregates, same totals.
        res = run_tiled_sharded(w, V, m, blocking=blocking, nshards=2)
        assert repr(res.completion_time) == repr(completion)
        assert res.messages_sent == messages

    def test_full_record_union_matches(self, blocking):
        """Strongest form of bit-identity: the union of the shards' full
        trace records — every interval, with labels — equals the
        single-process record set exactly."""
        from repro.runtime.executor import _TiledPrograms

        w, m = _workload(depth=32), pentium_cluster()
        ref = run_tiled(w, V, m, blocking=blocking, trace=True)

        programs = _TiledPrograms(w, V, m, blocking)()
        sharded = ShardedSimulation(m, w.num_processors, 3, trace="full")
        shards = sharded._make_shards(None)
        try:
            for s in shards:
                s.spawn(programs)
            sharded._drive(shards, 50_000_000)
            got = sorted(
                _record_key(r) for s in shards for r in s.world.trace.records
            )
        finally:
            for s in shards:
                s.close()
        assert got == sorted(_record_key(r) for r in ref.trace.records)


@pytest.mark.parametrize("nshards", [2, 3, 4])
def test_full_record_union_matches_with_jitter(nshards):
    """Under fault jitter the shards' full trace records, unioned, equal
    the single-process record set: the window bound never lets a shard
    run past a cross-shard handoff."""
    from repro.runtime.executor import _TiledPrograms

    w, m = _workload(depth=32), pentium_cluster()
    faults = FaultPlan(seed=11, jitter=2e-5)
    ref = run_tiled_robust(w, V, m, blocking=False, faults=faults,
                           trace=True)
    assert ref.status == "completed"
    programs = _TiledPrograms(w, V, m, False)()
    sharded = ShardedSimulation(m, w.num_processors, nshards, trace="full",
                                faults=faults)
    shards = sharded._make_shards(None)
    try:
        for s in shards:
            s.spawn(programs)
        sharded._drive(shards, 50_000_000)
        got = sorted(_record_key(r) for s in shards
                     for r in s.world.trace.records)
    finally:
        for s in shards:
            s.close()
    assert got == sorted(_record_key(r) for r in ref.trace.records)


class TestInjectBatch:
    def _entry(self, instant):
        # (inject_time, tx_submit, launch_time, src, stream_seq, dst, tag,
        #  seq, payload, nbytes, wire, not_before, tx_start, label)
        return (instant, 0.0, 0.0, 2, 1, 0, 0, 1, None, 8.0, 1e-6,
                instant, 0.0, "")

    def _world_at(self, now):
        world = ShardWorld(pentium_cluster(), 4, range(0, 2), [0, 0, 1, 1])
        world.sim.schedule_call_at(now, lambda _: None, None)
        world.sim.run()
        assert world.sim.now == now
        return world

    def test_entry_at_the_shard_clock_raises(self):
        world = self._world_at(1e-3)
        with pytest.raises(RuntimeError, match="arrived at shard 0"):
            world.inject_batch([self._entry(1e-3)])

    def test_entry_before_the_shard_clock_raises(self):
        world = self._world_at(1e-3)
        with pytest.raises(RuntimeError, match="arrived at shard 0"):
            world.inject_batch([self._entry(5e-4)])

    def test_entry_after_the_shard_clock_is_scheduled_at_its_instant(self):
        world = self._world_at(1e-3)
        world.inject_batch([self._entry(2e-3)])
        assert world.sim.next_time() == 2e-3


class TestFaultInjection:
    def test_seeded_faults_match_single_process(self):
        # Degradation windows + latency jitter perturb timing but keep
        # the run completing; fates are keyed by message identity, so
        # the sharded run must still be bit-identical.
        w, m = _workload(depth=32), pentium_cluster()
        faults = FaultPlan(seed=11, jitter=2e-5)
        completion, messages, terms, busy = _reference(
            w, m, blocking=False, faults=faults
        )
        res = run_tiled_sharded(w, V, m, blocking=False, nshards=4,
                                trace="streaming", faults=faults)
        _assert_identical(res, completion, messages, terms, busy)

    def test_drop_every_nth_rejected(self):
        w, m = _workload(), pentium_cluster()
        with pytest.raises(ValueError, match="drop_every_nth"):
            run_tiled_sharded(w, V, m, blocking=False, nshards=2,
                              faults=FaultPlan(drop_every_nth=5))


class TestMultiprocessing:
    def test_processes_match_in_process(self):
        w, m = _workload(depth=32), pentium_cluster()
        completion, messages, terms, busy = _reference(w, m, blocking=False)
        res = run_tiled_sharded(w, V, m, blocking=False, nshards=2,
                                trace="streaming", processes=True)
        _assert_identical(res, completion, messages, terms, busy)

    def test_processes_need_factory(self):
        m = pentium_cluster()
        sharded = ShardedSimulation(m, 4, 2, processes=True)
        with pytest.raises(ValueError, match="factory"):
            sharded.run([lambda ctx: iter(())] * 4)


class TestRestrictions:
    def test_zero_latency_machine_rejected(self):
        m = dataclasses.replace(pentium_cluster(), network_latency=0.0)
        with pytest.raises(ValueError, match="network_latency"):
            ShardedSimulation(m, 4, 2)

    def test_shard_world_cannot_run_directly(self):
        m = pentium_cluster()
        world = ShardWorld(m, 4, range(0, 2), [0, 0, 1, 1])
        with pytest.raises(RuntimeError, match="ShardedSimulation"):
            world.run([])

    def test_barrier_raises_in_shard(self):
        m = pentium_cluster()
        sharded = ShardedSimulation(m, 2, 2)

        def prog(ctx):
            yield ctx.barrier()

        with pytest.raises(RuntimeError, match="barrier"):
            sharded.run([prog, prog])

    def test_programs_xor_factory(self):
        sharded = ShardedSimulation(pentium_cluster(), 2, 1)
        with pytest.raises(ValueError, match="exactly one"):
            sharded.run()
        with pytest.raises(ValueError, match="exactly one"):
            sharded.run([lambda ctx: iter(())] * 2,
                        factory=lambda: [])


class TestMergedResult:
    def test_term_totals_and_utilization(self):
        w, m = _workload(depth=32), pentium_cluster()
        res = run_tiled_sharded(w, V, m, blocking=False, nshards=2,
                                trace="streaming")
        totals = res.term_seconds()
        assert totals  # non-empty term attribution
        assert all(v >= 0.0 for v in totals.values())
        util = res.mean_utilization()
        assert 0.0 < util <= 1.0

    def test_network_stats_quantiles_shard_invariant(self):
        w, m = _workload(depth=32), pentium_cluster()
        stats = [
            run_tiled_sharded(w, V, m, blocking=False,
                              nshards=n).network_stats
            for n in (1, 4)
        ]
        assert stats[0] == stats[1]

    def test_network_stats_equal_single_simulator(self):
        w, m = _workload(depth=32), pentium_cluster()
        single = run_tiled(w, V, m, blocking=False).network_stats
        sharded = run_tiled_sharded(w, V, m, blocking=False,
                                    nshards=2).network_stats
        assert sharded == single

    def test_latency_extremes_exact_when_sample_decimates(self, monkeypatch):
        """The merged min/max come from each shard's exact running
        extremes, not from its stride-decimated latency sample."""
        w, m = _workload(), pentium_cluster()
        single = run_tiled(w, V, m, blocking=False).network_stats
        cap = Network.cap_latency_samples
        monkeypatch.setattr(Network, "cap_latency_samples",
                            lambda self, _cap: cap(self, 4))
        summaries = []
        summary = sharding._shard_summary

        def recorded_summary(world):
            summaries.append(summary(world))
            return summaries[-1]

        monkeypatch.setattr(sharding, "_shard_summary", recorded_summary)
        merged = run_tiled_sharded(w, V, m, blocking=False, nshards=2,
                                   trace="streaming").network_stats
        sample = [x for s in summaries for x in s["latencies"]]
        # Not vacuous: decimation dropped the true maximum.
        assert max(sample) < single["latency_max"]
        assert merged["latency_min"] == single["latency_min"]
        assert merged["latency_max"] == single["latency_max"]

    def test_decimated_quantiles_are_labelled_approximate(self, monkeypatch):
        """With the latency sample capped at 16 the single-simulator and
        sharded quantiles differ, so both carry ``latency_stride``."""
        w, m = _workload(), pentium_cluster()
        exact_single = run_tiled(w, V, m, blocking=False).network_stats
        exact_sharded = run_tiled_sharded(w, V, m, blocking=False,
                                          nshards=2).network_stats
        cap = Network.cap_latency_samples
        monkeypatch.setattr(Network, "cap_latency_samples",
                            lambda self, _cap: cap(self, 16))
        single = run_tiled(w, V, m, blocking=False,
                           trace="streaming").network_stats
        sharded = run_tiled_sharded(w, V, m, blocking=False, nshards=2,
                                    trace="streaming").network_stats
        assert single["latency_p95"] != sharded["latency_p95"]
        assert single["latency_stride"] > 1
        assert sharded["latency_stride"] > 1
        # Exact runs keep their dict as it was: no stride key.
        assert "latency_stride" not in exact_single
        assert exact_sharded == exact_single
        assert list(exact_single) == [
            "messages", "bytes", "tx_bytes", "rx_bytes",
            "loopback_messages", "loopback_bytes", "latency_min",
            "latency_median", "latency_p95", "latency_p99", "latency_max",
            "retransmits", "duplicates",
        ]

    def test_untraced_run_has_no_rank_aggregates(self):
        w, m = _workload(depth=32), pentium_cluster()
        res = run_tiled_sharded(w, V, m, blocking=False, nshards=2)
        assert res.rank_terms == {}
        assert res.mean_utilization() == 0.0


class TestCliIntegration:
    def test_scale_shards_always_simulates(self, capsys, monkeypatch,
                                           tmp_path):
        """``repro scale`` reports throughput, so a repeated sharded run
        must simulate again instead of being served from the result
        cache."""
        from repro.experiments.cli import main

        runs = []
        real_run = ShardedSimulation.run

        def spy(self, *args, **kwargs):
            runs.append(self.nshards)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(ShardedSimulation, "run", spy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["scale", "--grid", "4", "--depth", "16", "--v", "4",
                "--shards", "2", "--in-process"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert runs == [2, 2]
        for out in outputs:
            assert "wall time (s)" in out and "events/sec" in out

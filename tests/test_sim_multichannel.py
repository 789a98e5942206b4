"""Multichannel DMA (the §6 SCI future work) and the sci_cluster preset."""

import pytest

from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import Machine, pentium_cluster, sci_cluster
from repro.runtime.executor import run_tiled
from repro.sim.core import Simulator
from repro.sim.mpi import World
from repro.sim.resources import FifoResource


def _noop(_interval):
    pass


class TestMultiServerResource:
    def test_two_servers_run_in_parallel(self):
        sim = Simulator()
        r = FifoResource(sim, "dma", servers=2)
        done = []
        r.submit_call(3.0, done.append)
        r.submit_call(3.0, done.append)
        r.submit_call(3.0, done.append)
        sim.run()
        assert done[0] == (0.0, 3.0)
        assert done[1] == (0.0, 3.0)
        assert done[2] == (3.0, 6.0)

    def test_earliest_free_server_chosen(self):
        sim = Simulator()
        r = FifoResource(sim, "dma", servers=2)
        ends = []
        r.submit_call(5.0, lambda i: ends.append(i[1]))
        r.submit_call(1.0, lambda i: ends.append(i[1]))
        r.submit_call(1.0, lambda i: ends.append(i[1]))
        sim.run()
        # Third job lands on server 2 (free at 1.0), not server 1 (5.0).
        assert sorted(ends) == [1.0, 2.0, 5.0]

    def test_utilization_is_per_aggregate_capacity(self):
        sim = Simulator()
        r = FifoResource(sim, "dma", servers=2)
        r.submit_call(4.0, _noop)
        r.submit_call(4.0, _noop)
        sim.run()
        assert r.utilization(4.0) == pytest.approx(1.0)
        assert r.utilization(8.0) == pytest.approx(0.5)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FifoResource(sim, "x", servers=0)


class TestMachineChannels:
    def test_machine_validates_channels(self):
        with pytest.raises(ValueError):
            Machine(t_c=1e-6, t_s=0, t_t=0, dma_channels=0)

    def test_sci_preset(self):
        m = sci_cluster()
        assert m.dma_channels == 2
        assert m.t_s < pentium_cluster().t_s
        assert m.t_t < pentium_cluster().t_t


class TestMultichannelSpeedup:
    def _run(self, machine):
        w = StencilWorkload(
            "mc", IterationSpace.from_extents([12, 12, 1024]),
            sqrt_kernel_3d(), (3, 3, 1), 2,
        )
        return run_tiled(w, 64, machine, blocking=False).completion_time

    def test_second_dma_channel_never_hurts(self):
        base = pentium_cluster()
        one = self._run(base.with_(dma_channels=1))
        two = self._run(base.with_(dma_channels=2))
        assert two <= one + 1e-12

    def test_second_channel_helps_when_dma_bound(self):
        """Make kernel copies expensive so the DMA engine is the
        bottleneck; a second channel then shortens the run."""
        heavy = pentium_cluster().with_(fill_kernel_per_byte=2e-6)
        one = self._run(heavy.with_(dma_channels=1))
        two = self._run(heavy.with_(dma_channels=2))
        assert two < one * 0.95

    def test_sci_is_much_faster_than_fastethernet(self):
        """The §6 projection: user-level SCI messaging with 2-channel DMA
        removes most of the communication overhead."""
        t_pentium = self._run(pentium_cluster())
        t_sci = self._run(sci_cluster())
        assert t_sci < t_pentium * 0.8


class TestNonOvertaking:
    def test_small_message_cannot_overtake_large_on_multichannel_dma(self):
        """Regression: with 2 DMA channels a small message's kernel copy
        finishes long before a preceding huge one's; FIFO matching must
        still deliver them in send order (MPI non-overtaking)."""
        m = Machine(
            t_c=1.0, t_s=0.0, t_t=1e-6,
            fill_kernel_per_byte=1e-3,  # 10 s copy for the big message
            fill_mpi_per_byte=0.0,
            dma=True, dma_channels=2,
        )
        w = World(m, 2)
        got = []

        def sender(ctx):
            yield ctx.isend(1, 10_000, payload="big-first")
            yield ctx.isend(1, 10, payload="small-second")

        def receiver(ctx):
            got.append((yield ctx.recv(0, 10_000)))
            got.append((yield ctx.recv(0, 10)))

        w.run([sender, receiver])
        assert got == ["big-first", "small-second"]

    def test_different_tags_may_pass_each_other(self):
        """Ordering is per (src, dst, tag): a small message on another tag
        is free to arrive first."""
        m = Machine(
            t_c=1.0, t_s=0.0, t_t=1e-6,
            fill_kernel_per_byte=1e-3,
            dma=True, dma_channels=2,
        )
        w = World(m, 2)
        arrival_times = {}

        def sender(ctx):
            yield ctx.isend(1, 10_000, payload="big", tag=0)
            yield ctx.isend(1, 10, payload="small", tag=1)

        def receiver(ctx):
            yield ctx.recv(0, 10, tag=1)
            arrival_times["small"] = ctx.world.sim.now
            yield ctx.recv(0, 10_000, tag=0)
            arrival_times["big"] = ctx.world.sim.now

        w.run([sender, receiver])
        assert arrival_times["small"] < arrival_times["big"]

"""FIFO hardware resources (DMA engines, NIC transmit/receive units).

A :class:`FifoResource` serves jobs one at a time in submission order.
Each job has a duration and an optional earliest-start time (used for
cut-through network modelling).  Submitting names the callback that
receives the job's ``(start, end)`` interval at completion, so pipelines
are built by chaining callbacks.  Busy time is tracked for utilisation
reports.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.sim.core import Simulator

__all__ = ["FifoResource"]


class FifoResource:
    """Non-preemptive FIFO queue with one or more identical servers.

    Jobs start at ``max(earliest free server, not_before, submission
    time)`` and complete ``duration`` later.  Because jobs are assigned
    to servers eagerly at submission in FIFO order, the implementation
    needs no explicit queue — just the per-server end-time frontiers.

    ``servers > 1`` models multichannel hardware — e.g. the paper's §6
    "DMA enabled driver with SCI to concurrently send and receive", where
    a node's send-side and receive-side kernel copies proceed in
    parallel.
    """

    __slots__ = ("sim", "name", "_free_at", "busy_time", "jobs_served",
                 "servers", "_fire_cb")

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        if servers < 1:
            raise ValueError("servers must be at least 1")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._free_at = [0.0] * servers
        self.busy_time = 0.0
        self.jobs_served = 0
        # Bound once: scheduled as the completion callback of every job.
        self._fire_cb = self._fire

    def submit_call(self, duration: float,
                    callback: "Callable[[tuple[float, float]], None]",
                    not_before: float = 0.0) -> None:
        """Enqueue a job; ``callback((start, end))`` runs at completion.

        The callback fires through two scheduler hops (the completion
        entry, then a zero-delay entry), the hops an :class:`Event`
        trigger would take, without allocating one.  The job starts at
        ``max(earliest free server, not_before, now)``.

        This is the one copy of job placement.  It runs four times per
        simulated message (both DMA legs and both NIC legs), so placement
        and both scheduler pushes are written out here and in
        :meth:`_fire` instead of calling ``Simulator.schedule_call``:
        folding those pushes into calls measured 1.06-1.09x the
        ``Simulator.run`` time of the 1024-rank scale run (2-vCPU host).
        """
        if duration < 0:
            raise ValueError(f"negative job duration: {duration}")
        # Assign the earliest-free server in FIFO order.
        sim = self.sim
        free = self._free_at
        if self.servers == 1:
            k = 0
            start = free[0]
        else:
            k = min(range(self.servers), key=free.__getitem__)
            start = free[k]
        if not_before > start:
            start = not_before
        now = sim.now
        if now > start:
            start = now
        end = start + duration
        free[k] = end
        self.busy_time += duration
        self.jobs_served += 1
        # schedule_call(end - now, self._fire, ...) written out: the
        # delay arithmetic (now + (end - now), not end) is bit-exact.
        delay = end - now
        packed = (callback, start, end)
        if delay == 0.0:
            sim._dq.append((sim._seq, self._fire_cb, packed))
        else:
            t = now + delay
            if t == now:
                sim._dq.append((sim._seq, self._fire_cb, packed))
            else:
                heappush(sim._heap, (t, sim._seq, self._fire_cb, packed))
        sim._seq += 1

    def _fire(self, packed: tuple) -> None:
        callback, start, end = packed
        # schedule_call(0.0, callback, (start, end)) written out.
        sim = self.sim
        sim._dq.append((sim._seq, callback, (start, end)))
        sim._seq += 1

    @property
    def free_at(self) -> float:
        """Earliest time a new zero-length job could start."""
        return max(min(self._free_at), self.sim.now)

    def utilization(self, horizon: float) -> float:
        """Fraction of aggregate server time over ``[0, horizon]`` spent
        serving jobs."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return min(1.0, self.busy_time / (horizon * self.servers))

"""FIFO hardware resources (DMA engines, NIC transmit/receive units).

A :class:`FifoResource` serves jobs one at a time in submission order.
Each job has a duration and an optional earliest-start time (used for
cut-through network modelling).  Submitting returns the completion
:class:`~repro.sim.core.Event`, so pipelines are built by chaining
callbacks.  Busy time is tracked for utilisation reports.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.sim.core import Event, Simulator

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

    def _place(self, duration: float, not_before: float) -> tuple[float, float]:
        """Assign the job to the earliest-free server; returns (start, end)."""
        free = self._free_at
        # FIFO across servers: the job takes the earliest-free server.
        if self.servers == 1:
            k = 0
            start = free[0]
        else:
            k = min(range(self.servers), key=free.__getitem__)
            start = free[k]
        if not_before > start:
            start = not_before
        now = self.sim.now
        if now > start:
            start = now
        end = start + duration
        free[k] = end
        self.busy_time += duration
        self.jobs_served += 1
        return start, end

    def submit(self, duration: float, not_before: float = 0.0) -> Event:
        """Enqueue a job; returns the event triggered at completion.

        The completion event's value is the job's (start, end) interval,
        which tracers use for Gantt rendering.
        """
        if duration < 0:
            raise ValueError(f"negative job duration: {duration}")
        start, end = self._place(duration, not_before)
        done = Event(self.sim, name=self.name)
        self.sim.schedule_call(end - self.sim.now, done.trigger, (start, end))
        return done

    def submit_call(self, duration: float,
                    callback: "Callable[[tuple[float, float]], None]",
                    not_before: float = 0.0) -> None:
        """Like :meth:`submit`, but invokes ``callback((start, end))`` at
        completion without allocating an :class:`Event`.

        The callback fires through the same two scheduler hops as an
        event trigger would (completion entry, then a zero-delay entry),
        so runs are bit-identical whichever form a caller uses — this is
        the allocation-free fast path for single-waiter pipelines.  Both
        hops are inlined here and in :meth:`_fire`: this method runs four
        times per simulated message (both DMA legs and both NIC legs), so
        the ``_place`` + ``schedule_call`` call overhead it used to pay
        was the single largest constant factor in the event loop.
        """
        if duration < 0:
            raise ValueError(f"negative job duration: {duration}")
        # Inlined _place(): assign the earliest-free server in FIFO order.
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
        # Inlined schedule_call(end - now, self._fire, ...): the delay
        # arithmetic (now + (end - now), not end) is kept bit-exact.
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
        # Inlined schedule_call(0.0, callback, (start, end)).
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

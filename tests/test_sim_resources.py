"""Tests for FIFO hardware resources."""

import pytest

from repro.sim.core import Simulator
from repro.sim.resources import FifoResource


def _noop(_interval):
    pass


def _completions(sim, r, *jobs):
    """Submit ``(duration, not_before)`` jobs to ``r``, run, and return
    the completion intervals in the order the callbacks fired."""
    done = []
    for duration, not_before in jobs:
        r.submit_call(duration, done.append, not_before)
    sim.run()
    return done


class TestFifoResource:
    def test_serialises_jobs(self):
        sim = Simulator()
        r = FifoResource(sim, "dma")
        intervals = _completions(sim, r, (2.0, 0.0), (3.0, 0.0))
        assert intervals == [(0.0, 2.0), (2.0, 5.0)]

    def test_not_before(self):
        sim = Simulator()
        r = FifoResource(sim, "nic")
        intervals = _completions(sim, r, (1.0, 5.0))
        assert intervals == [(5.0, 6.0)]

    def test_not_before_after_queue(self):
        sim = Simulator()
        r = FifoResource(sim, "nic")
        # The second job must still wait for the first.
        intervals = _completions(sim, r, (4.0, 0.0), (1.0, 2.0))
        assert intervals == [(0.0, 4.0), (4.0, 5.0)]

    def test_submission_respects_current_time(self):
        sim = Simulator()
        r = FifoResource(sim, "x")
        done = []
        sim.schedule(10.0, lambda: r.submit_call(1.0, done.append))
        sim.run()
        assert done == [(10.0, 11.0)]

    def test_zero_duration_job(self):
        sim = Simulator()
        r = FifoResource(sim, "x")
        assert _completions(sim, r, (0.0, 0.0)) == [(0.0, 0.0)]

    def test_negative_duration_rejected(self):
        sim = Simulator()
        r = FifoResource(sim, "x")
        with pytest.raises(ValueError):
            r.submit_call(-1.0, _noop)
        assert r.jobs_served == 0 and sim.pending == 0

    def test_busy_time_and_utilization(self):
        sim = Simulator()
        r = FifoResource(sim, "x")
        r.submit_call(2.0, _noop)
        r.submit_call(3.0, _noop)
        sim.run()
        assert r.busy_time == 5.0
        assert r.jobs_served == 2
        assert r.utilization(10.0) == 0.5
        assert r.utilization(2.0) == 1.0  # clipped
        with pytest.raises(ValueError):
            r.utilization(0.0)

    def test_free_at(self):
        sim = Simulator()
        r = FifoResource(sim, "x")
        assert r.free_at == 0.0
        r.submit_call(7.0, _noop)
        assert r.free_at == 7.0

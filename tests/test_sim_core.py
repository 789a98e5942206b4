"""Tests for the discrete-event engine."""

import random

import pytest

from repro.sim.core import AllOf, Event, Simulator, Timeout, WaitEvent


class _ReferenceSimulator:
    """The ``(time, seq)`` contract in its plainest form: one unsorted
    list, the minimum popped by a linear scan, no zero-delay lane."""

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._seq = 0

    def schedule(self, delay, fn):
        self._pending.append((self.now + delay, self._seq, fn))
        self._seq += 1

    def next_time(self):
        return min(self._pending)[0] if self._pending else None

    def run(self, until=None):
        while self._pending:
            entry = min(self._pending)
            if until is not None and entry[0] > until:
                self.now = until
                break
            self._pending.remove(entry)
            self.now = entry[0]
            entry[2]()
        return self.now


#: Delay distributions for the randomized schedules: simultaneous and
#: zero-delay ties, tight bursts, far-future outliers, and delays below
#: one ulp of ``now`` (they land on the current timestamp).
_DELAYS = {
    "uniform": lambda rng: rng.uniform(0.0, 10.0),
    "bursty": lambda rng: 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1e-3),
    "farfuture": lambda rng: (rng.uniform(0.0, 1.0) if rng.random() < 0.8
                              else rng.uniform(1e3, 1e6)),
    "ties": lambda rng: rng.choice([0.0, 0.0, 0.5, 0.5, 1.0]),
    "underflow": lambda rng: rng.choice([0.0, 1e-300, 0.25, 1.0]),
}


def _random_log(sim, mode, seed, stops=()):
    """Run a self-rescheduling random workload on ``sim`` (optionally
    stopping at each ``until`` in ``stops`` first); return the firing
    log and the ``next_time()`` seen at each stop."""
    rng = random.Random(seed)
    draw = _DELAYS[mode]
    log = []

    def proc(name):
        def body():
            log.append((sim.now, name))
            if len(log) < 500:
                for _ in range(rng.choice([1, 1, 2])):
                    sim.schedule(draw(rng), body)
        return body

    for k in range(6):
        sim.schedule(draw(rng), proc(k))
    peeks = []
    for until in stops:
        sim.run(until=until)
        peeks.append(sim.next_time())
    sim.run()
    return log, peeks


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        assert sim.run() == 3.0
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        sim = Simulator()
        order = []
        for k in range(5):
            sim.schedule(1.0, lambda k=k: order.append(k))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        assert sim.run(until=2.0) == 2.0
        assert not fired
        sim.run()
        assert fired

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=100)

    def test_max_events_exact_cutoff(self):
        # Exactly max_events callbacks execute; the next one raises
        # *before* running, and event_count counts only executed ones.
        sim = Simulator()
        ran = []

        def reschedule():
            ran.append(sim.now)
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=7)
        assert len(ran) == 7
        assert sim.event_count == 7

    def test_max_events_boundary_completes(self):
        # A run needing exactly max_events callbacks must NOT raise.
        sim = Simulator()
        ran = []
        for k in range(7):
            sim.schedule(float(k), lambda k=k: ran.append(k))
        assert sim.run(max_events=7) == 6.0
        assert ran == list(range(7))
        assert sim.event_count == 7

    def test_schedule_call_at_fires_at_exact_instant(self):
        # schedule_call_at(t, ...) must land at *exactly* t — the
        # relative form now + (t - now) can round one ulp past t.
        sim = Simulator()
        hits = []
        sim.schedule_call_at(1.5, hits.append, "outer")
        sim.schedule(
            1.0, lambda: sim.schedule_call_at(1.5, hits.append, "inner")
        )
        t = 0.1 + 0.7  # 0.7999999999999999: now + (t - now) != t
        sim2 = Simulator()
        at = []
        sim2.schedule(
            0.1, lambda: sim2.schedule_call_at(t, lambda _: at.append(sim2.now),
                                               None)
        )
        assert sim.run() == 1.5
        assert hits == ["outer", "inner"]
        sim2.run()
        assert at == [t]

    def test_schedule_call_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_call_at(0.5, lambda _: None, None)

    def test_schedule_call_at_current_instant_is_fifo(self):
        # At the current instant the call joins the zero-delay lane,
        # after anything already queued there.
        sim = Simulator()
        order = []

        def at_t1():
            sim.schedule_call(0.0, order.append, "queued-first")
            sim.schedule_call_at(sim.now, order.append, "then-at")

        sim.schedule(1.0, at_t1)
        sim.run()
        assert order == ["queued-first", "then-at"]

    def test_next_time_and_pending(self):
        sim = Simulator()
        assert sim.next_time() is None and sim.pending == 0
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.next_time() == 1.0 and sim.pending == 2

        def at_one():
            # A non-empty zero-delay lane answers ``now``, ahead of the
            # queued 2.0 entry.
            sim.schedule(0.0, lambda: None)
            seen.append((sim.next_time(), sim.pending))

        seen = []
        sim.schedule(1.0, at_one)
        sim.run()
        assert seen == [(1.0, 2)]
        assert sim.next_time() is None and sim.pending == 0

    @pytest.mark.parametrize("mode", sorted(_DELAYS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedule_matches_reference(self, mode, seed):
        # Heap + zero-delay lane pop in exactly the reference (time, seq)
        # order, also when the run is cut at ``until`` instants that
        # coincide with pending entries (ties at ``until`` still fire).
        stops = (0.5, 1.0, 1.0, 3.25, 10.0)
        got = _random_log(Simulator(), mode, seed, stops)
        want = _random_log(_ReferenceSimulator(), mode, seed, stops)
        assert got == want
        assert len(got[0]) >= 500

    def test_nested_scheduling_advances_time(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(2.0, lambda: times.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 3.0]


class TestEvents:
    def test_trigger_resumes_waiters(self):
        sim = Simulator()
        ev = Event(sim, "e")
        got = []
        ev.add_callback(got.append)
        sim.schedule(1.0, lambda: ev.trigger(42))
        sim.run()
        assert got == [42]

    def test_late_waiter_fires_immediately(self):
        sim = Simulator()
        ev = Event(sim, "e")
        ev.trigger("v")
        got = []
        ev.add_callback(got.append)
        sim.run()
        assert got == ["v"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.trigger()
        with pytest.raises(RuntimeError):
            ev.trigger()


class TestProcesses:
    def test_timeout_sequence(self):
        sim = Simulator()
        ticks = []

        def proc():
            yield Timeout(1.0)
            ticks.append(sim.now)
            yield Timeout(2.5)
            ticks.append(sim.now)
            return "done"

        p = sim.spawn("p", proc())
        sim.run()
        assert ticks == [1.0, 3.5]
        assert p.finished and p.result == "done"
        assert p.finish_time == 3.5

    def test_timeout_result_passthrough(self):
        sim = Simulator()
        seen = []

        def proc():
            value = yield Timeout(1.0, result="payload")
            seen.append(value)

        sim.spawn("p", proc())
        sim.run()
        assert seen == ["payload"]

    def test_wait_event(self):
        sim = Simulator()
        ev = Event(sim)
        seen = []

        def waiter():
            v = yield WaitEvent(ev)
            seen.append((sim.now, v))

        sim.spawn("w", waiter())
        sim.schedule(4.0, lambda: ev.trigger("x"))
        sim.run()
        assert seen == [(4.0, "x")]

    def test_all_of(self):
        sim = Simulator()
        evs = [Event(sim) for _ in range(3)]
        seen = []

        def waiter():
            vals = yield AllOf(evs)
            seen.append((sim.now, vals))

        sim.spawn("w", waiter())
        for k, ev in enumerate(evs):
            sim.schedule(float(k + 1), lambda ev=ev, k=k: ev.trigger(k))
        sim.run()
        assert seen == [(3.0, [0, 1, 2])]

    def test_all_of_annotation_reported(self):
        """Regression: AllOf accepted an annotation but dropped it, so
        deadlock diagnostics showed the generic all_of(n) label."""
        sim = Simulator()
        evs = [Event(sim) for _ in range(2)]

        def stuck():
            yield AllOf(evs, annotation="gathering both halves")

        p = sim.spawn("s", stuck())
        sim.run()
        assert p.waiting_on == "gathering both halves"
        with pytest.raises(RuntimeError, match="gathering both halves"):
            sim.check_all_finished()

    def test_all_of_default_annotation(self):
        sim = Simulator()
        evs = [Event(sim) for _ in range(3)]

        def stuck():
            yield AllOf(evs)

        p = sim.spawn("s", stuck())
        sim.run()
        assert p.waiting_on == "all_of(3)"

    def test_all_of_empty(self):
        sim = Simulator()
        seen = []

        def waiter():
            vals = yield AllOf([])
            seen.append(vals)

        sim.spawn("w", waiter())
        sim.run()
        assert seen == [[]]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_non_effect_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield "not an effect"

        sim.spawn("p", proc())
        with pytest.raises(TypeError, match="expected an Effect"):
            sim.run()

    def test_deadlock_detection(self):
        sim = Simulator()
        ev = Event(sim, "never")

        def stuck():
            yield WaitEvent(ev, annotation="waiting forever")

        sim.spawn("s", stuck())
        sim.run()
        with pytest.raises(RuntimeError, match="deadlock.*waiting forever"):
            sim.check_all_finished()

    def test_determinism(self):
        """Two identical runs produce identical event interleavings."""

        def build():
            sim = Simulator()
            log = []

            def proc(name, delay):
                yield Timeout(delay)
                log.append((name, sim.now))
                yield Timeout(delay)
                log.append((name, sim.now))

            for k in range(4):
                sim.spawn(f"p{k}", proc(f"p{k}", 1.0 + k * 0.5))
            sim.run()
            return log

        assert build() == build()

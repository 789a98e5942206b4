"""Deterministic discrete-event simulation engine.

The engine is deliberately small: a time-ordered queue of callbacks, plus
generator-coroutine *processes*.  A process yields :class:`Effect`
objects; each effect knows how to arrange the process's resumption (after
a virtual-time delay, when an event fires, when an MPI request completes,
…).  Determinism comes from the (time, sequence) ordering — equal
timestamps resolve in submission order, so repeated runs are bit-identical.

The pending set is one binary heap drained with ``heapq``'s C functions;
zero-delay callbacks — the dominant event class, every :class:`Event`
trigger is one — bypass the heap entirely through a same-timestamp FIFO
lane.  The lane preserves the
exact ``(time, seq)`` total order: entries scheduled with ``delay == 0.0``
execute at the current timestamp, and any queued entry that shares that
timestamp necessarily carries a smaller sequence number unless it was
submitted later (the merge in :meth:`Simulator.run` compares sequence
numbers for exactly this case).

Every simulated cluster node's CPU *is* its process coroutine: charging
CPU time is yielding a :class:`Timeout`, blocking on communication is
yielding a wait on an :class:`Event`.  Hardware that runs concurrently
with the CPU (DMA engines, NICs) is modelled as FIFO resources
(:mod:`repro.sim.resources`) that schedule their own completions.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable

__all__ = ["Simulator", "Process", "Effect", "Timeout", "WaitEvent", "AllOf", "Event"]

# Queue entries are (time, seq, fn, arg); argless callbacks carry this
# sentinel so the event loop can skip building a closure per callback.
_NO_ARG = object()


class Effect:
    """Base class for things a process generator may yield.

    ``__slots__ = ()`` matters: without it every subclass instance would
    carry a ``__dict__`` no matter what its own ``__slots__`` says, and
    effects are allocated several times per simulated message.
    """

    __slots__ = ()

    def start(self, process: "Process") -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Event:
    """A one-shot level-triggered event carrying a value.

    Waiters registered after the trigger resume immediately (at the
    current simulation time).

    The overwhelmingly common case is exactly one waiter (a request
    completion resuming one process), so the first waiter lives in a
    dedicated slot and the overflow list is only allocated for the
    second registration onward.  Trigger resumes go straight onto the
    simulator's zero-delay lane — the same ``(seq, fn, arg)`` entries
    ``schedule_call(0.0, ...)`` would append, without the call.
    """

    __slots__ = ("sim", "triggered", "value", "_waiter1", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.triggered = False
        self.value: object = None
        self._waiter1: Callable[[object], None] | None = None
        self._waiters: list[Callable[[object], None]] | None = None
        self.name = name

    def trigger(self, value: object = None) -> None:
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        sim = self.sim
        dq = sim._dq
        seq = sim._seq
        # Resume via the scheduler so ordering stays deterministic: the
        # first waiter was registered first, so it takes the smaller seq.
        w1 = self._waiter1
        if w1 is not None:
            self._waiter1 = None
            dq.append((seq, w1, value))
            seq += 1
        rest = self._waiters
        if rest is not None:
            self._waiters = None
            for w in rest:
                dq.append((seq, w, value))
                seq += 1
        sim._seq = seq

    def add_callback(self, fn: Callable[[object], None]) -> None:
        if self.triggered:
            sim = self.sim
            sim._dq.append((sim._seq, fn, self.value))
            sim._seq += 1
        elif self._waiter1 is None and self._waiters is None:
            self._waiter1 = fn
        else:
            rest = self._waiters
            if rest is None:
                self._waiters = [fn]
            else:
                rest.append(fn)


class Timeout(Effect):
    """Resume the process after ``duration`` of virtual time.

    Used both for pure waiting and for charging CPU time; the
    ``annotation`` lets tracers distinguish the two.
    """

    __slots__ = ("duration", "annotation", "result")

    def __init__(self, duration: float, annotation: str = "", result: object = None):
        if duration < 0:
            raise ValueError(f"negative timeout: {duration}")
        self.duration = duration
        self.annotation = annotation
        self.result = result

    def start(self, process: "Process") -> None:
        process.waiting_on = self.annotation or f"timeout({self.duration:g})"
        # Inlined ``sim.schedule_call(duration, process.resume, result)``
        # minus the negative-delay check (validated in __init__) and the
        # per-call bound-method allocation (``process._resume`` is cached).
        sim = process.sim
        d = self.duration
        if d == 0.0:
            sim._dq.append((sim._seq, process._resume, self.result))
        else:
            t = sim.now + d
            if t == sim.now:
                sim._dq.append((sim._seq, process._resume, self.result))
            else:
                heappush(sim._heap, (t, sim._seq, process._resume, self.result))
        sim._seq += 1


class WaitEvent(Effect):
    """Resume the process when ``event`` triggers, with the event value."""

    __slots__ = ("event", "annotation")

    def __init__(self, event: Event, annotation: str = ""):
        self.event = event
        self.annotation = annotation

    def start(self, process: "Process") -> None:
        process.waiting_on = self.annotation or f"event({self.event.name})"
        self.event.add_callback(process.resume)


class AllOf(Effect):
    """Resume when all events have triggered; value is the list of event
    values in the given order."""

    __slots__ = ("events", "annotation")

    def __init__(self, events: Iterable[Event], annotation: str = ""):
        self.events = list(events)
        self.annotation = annotation

    def start(self, process: "Process") -> None:
        process.waiting_on = self.annotation or f"all_of({len(self.events)})"
        remaining = len(self.events)
        if remaining == 0:
            process.sim.schedule_call(0.0, process.resume, [])
            return
        state = {"remaining": remaining}

        def on_one(_value: object) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                process.resume([e.value for e in self.events])

        for e in self.events:
            e.add_callback(on_one)


class Process:
    """A generator-coroutine process driven by the simulator."""

    __slots__ = ("sim", "name", "gen", "finished", "finish_time", "result",
                 "waiting_on", "done_event", "_resume", "_send")

    def __init__(self, sim: "Simulator", name: str,
                 gen: Generator[Effect, object, object]):
        self.sim = sim
        self.name = name
        self.gen = gen
        self.finished = False
        self.finish_time: float | None = None
        self.result: object = None
        self.waiting_on: str = "start"
        self.done_event = Event(sim, name=f"{name}.done")
        # Bound-method caches: ``resume`` is scheduled once per process
        # step and ``gen.send`` called inside it; binding them per call
        # would allocate a method object each time.
        self._resume = self.resume
        self._send = gen.send

    def resume(self, value: object = None) -> None:
        if self.finished:
            raise RuntimeError(f"resuming finished process {self.name}")
        # Any resume is forward progress of some rank: the signal the
        # watchdog uses to tell retry churn from a wedged pipeline.
        sim = self.sim
        sim.last_progress = sim.now
        try:
            effect = self._send(value)
        except StopIteration as stop:
            self.finished = True
            self.finish_time = sim.now
            self.result = stop.value
            self.done_event.trigger(stop.value)
            return
        if not isinstance(effect, Effect):
            raise TypeError(
                f"process {self.name} yielded {effect!r}, expected an Effect"
            )
        effect.start(self)


class Simulator:
    """The event loop: ``(time, seq, callback, arg)`` entries in one
    binary heap, plus a same-timestamp FIFO lane for zero-delay callbacks.
    """

    __slots__ = ("now", "_heap", "_dq", "_seq", "processes", "event_count",
                 "last_progress")

    def __init__(self) -> None:
        self.now: float = 0.0
        # Simulator.run drains the bare list inline with heapq.
        self._heap: list[tuple] = []
        # Zero-delay lane: (seq, fn, arg) entries at the current time.
        self._dq: deque[tuple] = deque()
        self._seq = 0
        self.processes: list[Process] = []
        self.event_count = 0
        # Virtual time of the most recent process resume — watchdogs
        # compare this against ``now`` to detect no-progress intervals.
        self.last_progress: float = 0.0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            self._dq.append((self._seq, fn, _NO_ARG))
        else:
            t = self.now + delay
            if t == self.now:
                # Float underflow (delay below one ulp of now): the entry
                # fires at the current timestamp, so it belongs on the
                # zero-delay lane — the run loop relies on the queue never
                # holding an entry at ``now`` that was pushed at ``now``.
                self._dq.append((self._seq, fn, _NO_ARG))
            else:
                heappush(self._heap, (t, self._seq, fn, _NO_ARG))
        self._seq += 1

    def schedule_call(self, delay: float, fn: Callable[[object], None],
                      arg: object) -> None:
        """Run ``fn(arg)`` after ``delay`` simulated seconds.

        Equivalent to ``schedule(delay, lambda: fn(arg))`` without the
        closure allocation — the hot path for event triggers and timeouts.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            self._dq.append((self._seq, fn, arg))
        else:
            t = self.now + delay
            if t == self.now:
                self._dq.append((self._seq, fn, arg))
            else:
                heappush(self._heap, (t, self._seq, fn, arg))
        self._seq += 1

    def schedule_call_at(self, when: float, fn: Callable[[object], None],
                         arg: object) -> None:
        """Run ``fn(arg)`` at the *absolute* simulated time ``when``.

        ``schedule_call(when - now, ...)`` is not always exact:
        ``now + (when - now)`` can round one ulp past ``when``.  Callers
        that must fire at a precomputed instant (the sharded worlds'
        deferred receiver injections) use this instead.
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule in the past (when={when}, now={self.now})"
            )
        if when == self.now:
            self._dq.append((self._seq, fn, arg))
        else:
            heappush(self._heap, (when, self._seq, fn, arg))
        self._seq += 1

    def spawn(self, name: str, gen: Generator[Effect, object, object]) -> Process:
        """Register and start a process at the current time."""
        p = Process(self, name, gen)
        self.processes.append(p)
        self.schedule_call(0.0, p._resume, None)
        return p

    # -- queue introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unexecuted callbacks."""
        return len(self._dq) + len(self._heap)

    def next_time(self) -> float | None:
        """Timestamp of the earliest pending callback, or ``None``.

        Zero-delay entries execute at the current time, so a non-empty
        zero-delay lane answers ``now``.
        """
        if self._dq:
            return self.now
        return self._heap[0][0] if self._heap else None

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue; returns the final simulation time.

        Stops early at ``until`` if given.  ``max_events`` is a runaway
        guard: exactly ``max_events`` callbacks may execute; scheduling
        pressure beyond that raises ``RuntimeError`` *before* running the
        offending callback.
        """
        # Local bindings: this loop executes once per simulated event and
        # dominates every experiment's wall-clock time.
        dq = self._dq
        popleft = dq.popleft
        no_arg = _NO_ARG
        count = 0
        now = self.now
        if until is not None and until < now and (dq or self.pending):
            self.now = until
            return until
        heap = self._heap
        pop = heappop
        # ``merge`` caches "the heap head shares the current
        # timestamp".  Pushes can never make it stale: zero-delay and
        # underflow entries go to the zero-delay lane (see
        # ``schedule``), so a same-timestamp heap head only appears
        # when time advances onto simultaneous queued entries — and
        # the flag is recomputed at every heap pop and time advance.
        merge = bool(heap) and heap[0][0] == now
        while True:
            if dq:
                if not merge:
                    # Fast drain: no heap entry shares the current
                    # timestamp, and pushes during the drain cannot
                    # create one (zero-delay and underflow entries go
                    # to the zero-delay lane), so the whole lane runs
                    # without consulting the heap.
                    while dq:
                        _s, fn, arg = popleft()
                        count += 1
                        if count > max_events:
                            self.event_count += count - 1
                            raise RuntimeError(
                                f"exceeded {max_events} events; likely a livelock"
                            )
                        if arg is no_arg:
                            fn()
                        else:
                            fn(arg)
                    continue
                # Exact-order merge: a queued entry at the current
                # timestamp runs first iff it was submitted first.
                if heap[0][1] < dq[0][0]:
                    _t, _s, fn, arg = pop(heap)
                    merge = bool(heap) and heap[0][0] == now
                else:
                    _s, fn, arg = popleft()
            elif heap:
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    break
                _t, _s, fn, arg = pop(heap)
                now = t
                self.now = t
                merge = bool(heap) and heap[0][0] == t
            else:
                break
            count += 1
            if count > max_events:
                self.event_count += count - 1
                raise RuntimeError(
                    f"exceeded {max_events} events; likely a livelock"
                )
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        self.event_count += count
        return self.now

    def unfinished_processes(self) -> list[Process]:
        return [p for p in self.processes if not p.finished]

    def check_all_finished(self) -> None:
        """Raise with a blocked-process report if any process is stuck.

        An empty queue with unfinished processes is a deadlock: every
        stuck process is blocked on an event nobody will trigger.
        """
        stuck = self.unfinished_processes()
        if stuck:
            detail = "; ".join(f"{p.name} waiting on {p.waiting_on}" for p in stuck)
            raise RuntimeError(f"deadlock: {len(stuck)} process(es) blocked: {detail}")

"""Rank-sharded simulation: one giant world split over per-shard simulators.

A :class:`ShardedSimulation` partitions the ranks of one logical world
into contiguous shards, each backed by its own
:class:`~repro.sim.mpi.World` (own :class:`~repro.sim.core.Simulator`,
own network endpoints, own trace).  The shards advance in *conservative
lookahead windows*: every message needs at least the machine's switch
latency ``L`` between leaving the sender's NIC and touching any receiver
state, so after all shards have simulated up to ``T`` and exchanged their
cross-shard sends, each may safely run to ``T + L`` without ever
receiving an event from the past.  The window bound is recomputed each
round from the global minimum pending-event time, so idle stretches are
skipped at full speed.

Exactness.  Receiver-side FIFO placement (NIC RX, DMA) depends on
submission *order*, and :class:`~repro.sim.mpi.World` defines that order
canonically: every receiver NIC submission is deferred to ``tx_end + L``
and all legs landing at one instant are flushed together, stable-sorted
by the sender-side lineage ``(TX submission instant, pipeline launch
instant, source rank)`` — values carried by the message itself, never by
the global event cascade.  A shard world therefore reproduces the
single-process order *by construction*: local legs join the same
per-instant groups directly, cross-shard legs join them after a window
exchange, and the flush sorts both identically.  Since the deferred
submission happens exactly at the receive leg's earliest-start bound,
the FIFO's now-clamp never binds and every job start/end time is
bit-identical to the single-process run; the experiments' completion
times, message counts and per-rank trace aggregates follow.

Two drivers share the window protocol:

* in-process (``processes=False``): every shard lives in this
  interpreter — deterministic, no pickling, the validation reference;
* multiprocessing (``processes=True``): one OS process per shard,
  coordinated over pipes — cross-shard sends are forwarded between
  processes at each window boundary.

Not supported in sharded mode: the reliable-delivery layer (its ack
conversations would need their own lookahead bookkeeping), barriers, and
the legacy ``drop_every_nth`` fault knob (its counter is global across
ranks).  Seeded :class:`~repro.sim.faults.FaultPlan` injection *is*
supported — fates are keyed by message identity, not by arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

from repro.model.machine import Machine
from repro.sim.core import Effect
from repro.sim.faults import FaultPlan
from repro.sim.mpi import Rank, World

__all__ = [
    "ShardCrash",
    "ShardTimeout",
    "ShardWorld",
    "ShardedResult",
    "ShardedSimulation",
    "shard_bounds",
]


class ShardCrash(RuntimeError):
    """A shard child process died (pipe EOF / nonzero exit) mid-run."""


class ShardTimeout(RuntimeError):
    """A shard child process went silent past ``shard_timeout`` —
    presumed frozen (``SIGSTOP``, swap death, kernel stall)."""

#: Cross-shard handoff entries — the deferred receiver legs built by
#: ``World._unreliable_transmit``, plain tuples so they pickle fast:
#: ``(inject_time, tx_submit, launch_time, src, stream_seq, dst, tag,
#: seq, payload, nbytes, wire, not_before, tx_start)``.  ``tx_submit``
#: (when the sender queued the TX wire job) and ``launch_time`` (when the
#: send pipeline's B3 copy was queued) are the canonical ordering lineage
#: (``repro.sim.mpi._LINEAGE``) every world flushes by.
Handoff = tuple


def shard_bounds(num_ranks: int, nshards: int) -> list[range]:
    """Contiguous near-even rank ranges, one per shard."""
    if not 1 <= nshards <= num_ranks:
        raise ValueError(
            f"nshards must be in [1, {num_ranks}], got {nshards}"
        )
    base, extra = divmod(num_ranks, nshards)
    bounds = []
    lo = 0
    for k in range(nshards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append(range(lo, hi))
        lo = hi
    return bounds


class _NoBarrier:
    """Stand-in for ``World._barrier_waiting`` in sharded worlds."""

    __slots__ = ()

    def append(self, _process) -> None:
        raise RuntimeError(
            "barrier() is not supported in sharded runs: a shard only "
            "hosts a subset of the world's ranks"
        )


class ShardWorld(World):
    """One shard of a partitioned world.

    Hosts the full world's resource arrays (indexed by global rank) but
    runs programs only for ``owned`` ranks.  The sender half of every
    message (A1/B3/B4, fault fate, blocking-send completion) executes
    here; the deferred receiver half (see
    ``World._unreliable_transmit``) is routed by destination — local
    ranks join this shard's injection groups, other ranks' legs are
    forwarded through :attr:`outbox` by the coordinating
    :class:`ShardedSimulation`.
    """

    def __init__(
        self,
        machine: Machine,
        num_ranks: int,
        owned: range,
        shard_of: Sequence[int],
        *,
        trace: bool | str = False,
        faults: FaultPlan | None = None,
    ):
        if faults is not None and faults.drop_every_nth:
            raise ValueError(
                "drop_every_nth counts messages globally and cannot be "
                "sharded; use FaultPlan(drop_prob=...) instead"
            )
        super().__init__(machine, num_ranks, trace=trace, faults=faults)
        if machine.network_latency <= 0.0:
            raise ValueError(
                "sharded simulation needs machine.network_latency > 0 "
                "for its conservative lookahead window"
            )
        if not machine.duplex:
            raise ValueError(
                "sharded simulation needs a full-duplex machine: on a "
                "shared half-duplex port the deferred receiver legs "
                "would contend differently with the sender's own TX"
            )
        self.owned = owned
        self.shard_id = shard_of[owned.start] if len(owned) else -1
        self._shard_of = shard_of
        self._lookahead = machine.network_latency
        #: Handoffs generated this window for ranks on other shards.
        self.outbox: list[Handoff] = []
        self._barrier_waiting = _NoBarrier()  # type: ignore[assignment]

    def run(self, programs, *, max_events: int = 50_000_000) -> float:
        raise RuntimeError(
            "a ShardWorld is driven by ShardedSimulation.run(), not "
            "directly"
        )

    def spawn_owned(
        self,
        programs: Sequence[Callable[[Rank], Generator[Effect, object, object]]],
    ) -> None:
        """Spawn this shard's slice of the world's per-rank programs."""
        if len(programs) != self.num_ranks:
            raise ValueError(
                f"need {self.num_ranks} programs, got {len(programs)}"
            )
        for rank in self.owned:
            ctx = self.context(rank)
            self.sim.spawn(f"rank{rank}", programs[rank](ctx))

    # -- message routing (receiver half) -------------------------------------

    def _route(self, entry: Handoff) -> None:
        """Local destinations join this shard's injection groups;
        cross-shard legs go to the coordinator via :attr:`outbox`."""
        if self._shard_of[entry[5]] == self.shard_id:
            self._enqueue_rx(entry)
        else:
            self.outbox.append(entry)

    def inject_batch(self, batch: list[Handoff]) -> None:
        """Merge a window's incoming cross-shard handoffs.

        Entries join the same per-instant groups as local deferrals and
        the flush sorts each group canonically, so receiver-side FIFO
        placement is independent of how the coordinator gathered the
        entries.  The window bound stays strictly below every in-flight
        injection instant, so no group's flush can have fired before its
        cross-shard entries arrive."""
        for entry in batch:
            self._enqueue_rx(entry)


@dataclass
class ShardedResult:
    """Merged outcome of a sharded run.

    Scalar counters are exact sums; ``completion_time`` is the latest
    rank finish time.  ``term_seconds``/``busy_time`` are folded per rank
    on the owning shard (bit-equal to the single-process per-rank values)
    and merged in rank order, so the totals are deterministic for every
    shard count.
    """

    completion_time: float
    messages_sent: int
    event_count: int
    windows: int
    nshards: int
    shard_restarts: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    messages_dropped: int = 0
    messages_corrupted: int = 0
    network_stats: dict = field(default_factory=dict)
    rank_terms: dict[int, dict[str, float]] = field(default_factory=dict)
    rank_busy: dict[int, float] = field(default_factory=dict)

    def term_seconds(self) -> dict[str, float]:
        """World term totals, folded in rank order."""
        totals: dict[str, float] = {}
        for rank in sorted(self.rank_terms):
            for term, v in self.rank_terms[rank].items():
                totals[term] = totals.get(term, 0.0) + v
        return totals

    def mean_utilization(self, horizon: float | None = None) -> float:
        """Mean CPU busy fraction over all ranks (0 when untraced)."""
        if not self.rank_busy:
            return 0.0
        horizon = horizon if horizon is not None else self.completion_time
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return sum(
            min(busy, horizon) / horizon for busy in self.rank_busy.values()
        ) / len(self.rank_busy)


class _LocalShard:
    """In-process driver handle around one :class:`ShardWorld`."""

    def __init__(self, world: ShardWorld):
        self.world = world

    def spawn(self, programs) -> None:
        self.world.spawn_owned(programs)

    def inject(self, batch: list[Handoff]) -> None:
        if batch:
            self.world.inject_batch(batch)

    def advance(self, bound: float) -> tuple[float | None, list[Handoff], int]:
        """Run to ``bound``; returns (next event time, outbox, events)."""
        w = self.world
        w.sim.run(until=bound)
        out, w.outbox = w.outbox, []
        return w.sim.next_time(), out, w.sim.event_count

    def next_time(self) -> float | None:
        return self.world.sim.next_time()

    def finish(self) -> dict:
        return _shard_summary(self.world)

    def close(self) -> None:
        pass


def _shard_summary(world: ShardWorld) -> dict:
    """Everything the coordinator needs from a finished shard —
    picklable, O(owned ranks) sized."""
    trace = world.trace
    rank_terms: dict[int, dict[str, float]] = {}
    rank_busy: dict[int, float] = {}
    if trace.enabled:
        for rank in world.owned:
            rank_terms[rank] = trace.term_seconds(rank)
            rank_busy[rank] = trace.busy_time(rank)
    stuck = [
        f"{p.name} waiting on {p.waiting_on}"
        for p in world.sim.unfinished_processes()
    ]
    return {
        "finish_times": [
            p.finish_time for p in world.sim.processes
            if p.finish_time is not None
        ],
        "stuck": stuck,
        "event_count": world.sim.event_count,
        "messages_sent": world.messages_sent,
        "messages_dropped": world.messages_dropped,
        "messages_corrupted": world.messages_corrupted,
        "counters": dict(world.trace.counters),
        "net_messages": world.network.messages_carried,
        "net_bytes": world.network.bytes_carried,
        "tx_bytes": list(world.network.tx_bytes),
        "rx_bytes": list(world.network.rx_bytes),
        "latencies": list(world.network._latencies),
        "retransmits": world.network.retransmits,
        "duplicates": world.network.duplicates,
        "rank_terms": rank_terms,
        "rank_busy": rank_busy,
    }


# -- multiprocessing driver ---------------------------------------------------


def _shard_main(conn) -> None:  # pragma: no cover - child process body
    """Child-process entry: build the shard from the init message, then
    serve ``inject``/``advance``/``finish`` commands over the pipe.

    When the init spec carries a harness-chaos plan, the child consults
    it at every window barrier (each ``advance`` command) and may kill
    or freeze itself — deterministically in ``(shard, window)``, and
    only while its ``incarnation`` is below the plan's fault budget, so
    a respawned shard always completes its replay.
    """
    try:
        cmd, spec = conn.recv()
        assert cmd == "init"
        world = ShardWorld(
            spec["machine"], spec["num_ranks"], spec["owned"],
            spec["shard_of"], trace=spec["trace"], faults=spec["faults"],
        )
        programs = spec["factory"]()
        world.spawn_owned(programs)
        plan = None
        if spec.get("chaos"):
            # Lazy import: the supervisor is stdlib-only, but keeping it
            # out of the module top level avoids a cycle with the engine.
            from repro.experiments.supervisor import HarnessChaosPlan

            plan = HarnessChaosPlan.from_dict(spec["chaos"])
        incarnation = spec.get("incarnation", 0)
        window = 0
        while True:
            cmd, payload = conn.recv()
            if cmd == "inject":
                if payload:
                    world.inject_batch(payload)
                conn.send(("ok", None))
            elif cmd == "advance":
                if plan is not None:
                    from repro.experiments.supervisor import apply_worker_fate

                    apply_worker_fate(
                        plan.shard_fate(world.shard_id, window, incarnation)
                    )
                window += 1
                world.sim.run(until=payload)
                out, world.outbox = world.outbox, []
                conn.send(
                    ("state", (world.sim.next_time(), out,
                               world.sim.event_count))
                )
            elif cmd == "next":
                conn.send(("time", world.sim.next_time()))
            elif cmd == "finish":
                conn.send(("summary", _shard_summary(world)))
                return
            else:
                raise RuntimeError(f"unknown shard command {cmd!r}")
    except EOFError:
        return
    except Exception as exc:  # surface the traceback to the coordinator
        import traceback

        conn.send(("error", f"{exc}\n{traceback.format_exc()}"))


class _RemoteShard:
    """Pipe-connected driver handle around a shard child process.

    The handle is *restartable*: when ``record_history`` is on it keeps
    the window-barrier command log (every ``inject`` batch and
    ``advance`` bound, in order) so :meth:`respawn` can kill a dead or
    frozen child, start a fresh one (``incarnation + 1``) and replay it
    back to the exact pre-failure state — the simulator's determinism
    makes the replayed shard bit-identical to the lost one.  Replayed
    outboxes are discarded: the coordinator already routed them when the
    original window ran.
    """

    def __init__(self, ctx, spec: dict, *,
                 timeout: float | None = None,
                 record_history: bool = False):
        self._ctx = ctx
        self._spec = spec
        self.timeout = timeout
        self.record_history = record_history
        self._history: list[tuple[str, object]] = []
        self.incarnation = 0
        self.restarts = 0
        self._start()

    def _start(self) -> None:
        self.conn, child = self._ctx.Pipe()
        self.proc = self._ctx.Process(
            target=_shard_main, args=(child,), daemon=True
        )
        self.proc.start()
        child.close()
        spec = dict(self._spec)
        spec["incarnation"] = self.incarnation
        self.conn.send(("init", spec))

    def _reply(self, timeout: float | None = None):
        timeout = timeout if timeout is not None else self.timeout
        if timeout is not None and not self.conn.poll(timeout):
            if self.proc.is_alive():
                raise ShardTimeout(
                    f"shard pid {self.proc.pid} silent for {timeout}s; "
                    "presumed frozen"
                )
            raise ShardCrash(
                f"shard pid {self.proc.pid} died "
                f"(exitcode {self.proc.exitcode})"
            )
        try:
            kind, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardCrash(
                f"shard pid {self.proc.pid} died mid-reply "
                f"(exitcode {self.proc.exitcode})"
            ) from exc
        if kind == "error":
            raise RuntimeError(f"shard process failed:\n{payload}")
        return payload

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError) as exc:
            raise ShardCrash(
                f"shard pid {self.proc.pid} pipe closed at send"
            ) from exc

    def respawn(self) -> None:
        """Kill the child, start a fresh incarnation, replay history."""
        self._kill()
        self.incarnation += 1
        self.restarts += 1
        self._start()
        for cmd, payload in self._history:
            self._send((cmd, payload))
            self._reply()  # replayed outboxes were already routed

    def spawn(self, programs) -> None:
        pass  # the child spawned from its factory at init

    def inject(self, batch: list[Handoff]) -> None:
        self._send(("inject", batch))
        self._reply()
        if self.record_history:
            self._history.append(("inject", batch))

    def advance(self, bound: float) -> tuple[float | None, list[Handoff], int]:
        self._send(("advance", bound))
        state = self._reply()
        if self.record_history:
            self._history.append(("advance", bound))
        return state

    def next_time(self) -> float | None:
        self._send(("next", None))
        return self._reply()

    def finish(self) -> dict:
        self._send(("finish", None))
        summary = self._reply()
        self.proc.join(timeout=30)
        return summary

    def _kill(self) -> None:
        """Hard-stop the child: close the pipe FD, then SIGKILL (the
        only signal a SIGSTOP-frozen process cannot ignore) and reap."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5)

    def close(self) -> None:
        """Shut down without ever hanging the parent: polite terminate
        with a bounded join, then escalate to :meth:`_kill`."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)
        self._kill()


class ShardedSimulation:
    """Coordinator: partitions ranks, drives the lookahead windows, and
    merges per-shard outcomes into one :class:`ShardedResult`.

    ``processes=True`` puts each shard in its own OS process (programs
    must then come from a picklable zero-argument ``factory``); the
    default runs all shards in this interpreter — same protocol, same
    results, no pickling requirements.

    Process-backed runs are *supervised*: a shard child that dies
    (``ShardCrash``) or — with ``shard_timeout`` set — goes silent
    (``ShardTimeout``) is respawned and deterministically replayed from
    its recorded window history, up to ``max_shard_restarts`` times per
    shard, with the merged result bit-identical to an undisturbed run.
    ``harness_chaos`` injects exactly those failures at seeded
    ``(shard, window)`` points (tests/CI only).
    """

    def __init__(
        self,
        machine: Machine,
        num_ranks: int,
        nshards: int,
        *,
        trace: bool | str = False,
        faults: FaultPlan | None = None,
        processes: bool = False,
        shard_timeout: float | None = None,
        max_shard_restarts: int = 2,
        harness_chaos=None,
    ):
        self.machine = machine
        self.num_ranks = num_ranks
        self.bounds = shard_bounds(num_ranks, nshards)
        self.nshards = len(self.bounds)
        self.trace = trace
        self.faults = faults
        self.processes = processes
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if max_shard_restarts < 0:
            raise ValueError("max_shard_restarts must be non-negative")
        self.shard_timeout = shard_timeout
        self.max_shard_restarts = max_shard_restarts
        self.harness_chaos = harness_chaos
        #: Shard respawn+replay recoveries performed by the last run.
        self.shard_restarts = 0
        self._shard_of = [0] * num_ranks
        for k, b in enumerate(self.bounds):
            for r in b:
                self._shard_of[r] = k
        if machine.network_latency <= 0.0:
            raise ValueError(
                "sharded simulation needs machine.network_latency > 0 "
                "for its conservative lookahead window"
            )
        if not machine.duplex:
            raise ValueError(
                "sharded simulation needs a full-duplex machine: on a "
                "shared half-duplex port the deferred receiver legs "
                "would contend differently with the sender's own TX"
            )
        if faults is not None and faults.drop_every_nth:
            raise ValueError(
                "drop_every_nth counts messages globally and cannot be "
                "sharded; use FaultPlan(drop_prob=...) instead"
            )

    def run(
        self,
        programs: Sequence[Callable[[Rank], Generator[Effect, object, object]]]
        | None = None,
        *,
        factory: Callable[[], Sequence] | None = None,
        max_events: int = 50_000_000,
    ) -> ShardedResult:
        """Run the partitioned world to completion.

        Pass per-rank ``programs`` directly (in-process mode) or a
        picklable zero-argument ``factory`` returning them (required for
        ``processes=True``).  Raises ``RuntimeError`` with a blocked-rank
        report on deadlock and the usual livelock error when the summed
        event count exceeds ``max_events`` (checked per window)."""
        if (programs is None) == (factory is None):
            raise ValueError("pass exactly one of programs or factory")
        if self.processes and factory is None:
            raise ValueError("processes=True needs a picklable factory")
        shards = self._make_shards(factory)
        try:
            if programs is None and not self.processes:
                programs = factory()
            if programs is not None:
                if len(programs) != self.num_ranks:
                    raise ValueError(
                        f"need {self.num_ranks} programs, got {len(programs)}"
                    )
                for s in shards:
                    s.spawn(programs)
            return self._drive(shards, max_events)
        finally:
            for s in shards:
                s.close()

    def _make_shards(self, factory) -> list:
        if not self.processes:
            return [
                _LocalShard(ShardWorld(
                    self.machine, self.num_ranks, b, self._shard_of,
                    trace=self.trace, faults=self.faults,
                ))
                for b in self.bounds
            ]
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        chaos = (
            self.harness_chaos.to_dict()
            if self.harness_chaos is not None
            else None
        )
        return [
            _RemoteShard(ctx, {
                "machine": self.machine,
                "num_ranks": self.num_ranks,
                "owned": b,
                "shard_of": self._shard_of,
                "trace": self.trace,
                "faults": self.faults,
                "factory": factory,
                "chaos": chaos,
            }, timeout=self.shard_timeout,
               record_history=self.max_shard_restarts > 0)
            for b in self.bounds
        ]

    def _call(self, shard, op: str, *args):
        """One shard command with crash/hang recovery: on
        :class:`ShardCrash`/:class:`ShardTimeout`, respawn + replay the
        shard (bounded by ``max_shard_restarts``) and retry the command.
        In-process shards never raise these, so the fast path is a plain
        method call."""
        while True:
            try:
                return getattr(shard, op)(*args)
            except (ShardCrash, ShardTimeout):
                if (
                    not isinstance(shard, _RemoteShard)
                    or not shard.record_history
                    or shard.restarts >= self.max_shard_restarts
                ):
                    raise
                shard.respawn()
                self.shard_restarts += 1

    def _drive(self, shards: list, max_events: int) -> ShardedResult:
        lookahead = self.machine.network_latency
        self.shard_restarts = 0
        next_times: list[float | None] = [
            self._call(s, "next_time") for s in shards
        ]
        inboxes: list[list[Handoff]] = [[] for _ in shards]
        windows = 0
        total_events = 0
        while True:
            for k, s in enumerate(shards):
                if inboxes[k]:
                    self._call(s, "inject", inboxes[k])
                    inboxes[k] = []
                    next_times[k] = self._call(s, "next_time")
            pending = [t for t in next_times if t is not None]
            if not pending:
                break
            # Strictly less than tmin + lookahead: every injection
            # instant in flight is > bound, so no flush can fire before
            # this window's cross-shard handoffs are exchanged.
            bound = min(pending) + 0.5 * lookahead
            windows += 1
            total_events = 0
            for k, s in enumerate(shards):
                t, outbox, events = self._call(s, "advance", bound)
                next_times[k] = t
                total_events += events
                for entry in outbox:
                    inboxes[self._shard_of[entry[5]]].append(entry)
            if total_events > max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events; likely a livelock"
                )
        summaries = [self._call(s, "finish") for s in shards]
        stuck = [line for s in summaries for line in s["stuck"]]
        if stuck:
            raise RuntimeError(
                f"deadlock: {len(stuck)} process(es) blocked: "
                + "; ".join(stuck)
            )
        return self._merge(summaries, windows)

    def _merge(self, summaries: list[dict], windows: int) -> ShardedResult:
        from repro.sim.network import _quantile

        completion = max(
            (t for s in summaries for t in s["finish_times"]), default=0.0
        )
        counters: dict[str, int] = {}
        for s in summaries:
            for name, v in s["counters"].items():
                counters[name] = counters.get(name, 0) + v
        tx = [0.0] * self.num_ranks
        rx = [0.0] * self.num_ranks
        lat: list[float] = []
        for s in summaries:
            for i, v in enumerate(s["tx_bytes"]):
                tx[i] += v
            for i, v in enumerate(s["rx_bytes"]):
                rx[i] += v
            lat.extend(s["latencies"])
        lat.sort()
        n = len(lat)
        network_stats = {
            "messages": sum(s["net_messages"] for s in summaries),
            "bytes": sum(s["net_bytes"] for s in summaries),
            "tx_bytes": tuple(tx),
            "rx_bytes": tuple(rx),
            "latency_min": lat[0] if n else 0.0,
            "latency_median": _quantile(lat, 0.5),
            "latency_p95": _quantile(lat, 0.95),
            "latency_p99": _quantile(lat, 0.99),
            "latency_max": lat[-1] if n else 0.0,
            "retransmits": sum(s["retransmits"] for s in summaries),
            "duplicates": sum(s["duplicates"] for s in summaries),
        }
        rank_terms: dict[int, dict[str, float]] = {}
        rank_busy: dict[int, float] = {}
        for s in summaries:
            rank_terms.update(s["rank_terms"])
            rank_busy.update(s["rank_busy"])
        return ShardedResult(
            completion_time=completion,
            messages_sent=sum(s["messages_sent"] for s in summaries),
            event_count=sum(s["event_count"] for s in summaries),
            windows=windows,
            nshards=self.nshards,
            shard_restarts=self.shard_restarts,
            counters=counters,
            messages_dropped=sum(s["messages_dropped"] for s in summaries),
            messages_corrupted=sum(s["messages_corrupted"] for s in summaries),
            network_stats=network_stats,
            rank_terms=rank_terms,
            rank_busy=rank_busy,
        )

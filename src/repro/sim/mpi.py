"""MPI-like message passing on the simulated cluster (paper §4.1, Figs. 4–8).

Implements the primitives the paper's pseudocode uses — ``MPI_Send`` /
``MPI_Recv`` (blocking, Fig. 7) and ``MPI_Isend`` / ``MPI_Irecv`` /
``MPI_Wait`` (non-blocking, Fig. 8) — with the paper's cost decomposition
charged to the right hardware:

========  =============================================  ==============
term      meaning                                        charged to
========  =============================================  ==============
A1        fill MPI system buffer (send side)             sender CPU
A3        prepare MPI receive buffer                     receiver CPU
B3        kernel-buffer copy, send side                  sender DMA [*]
B4        wire time, send side                           sender NIC TX
B1        wire time, receive side                        receiver NIC RX
B2        kernel-buffer copy, receive side               receiver DMA [*]
========  =============================================  ==============

[*] With ``machine.dma=False`` the kernel copies steal CPU cycles
instead: B3 extends the send call's CPU charge and B2 is paid by the CPU
inside ``wait``/``recv`` — the "no DMA support" ablation of §4's
discussion of modern-hardware capabilities.

Semantics:

* ``isend`` returns once the MPI buffer is filled (A1); the request
  completes when the kernel copy (B3) finishes — the user buffer is then
  reusable (eager protocol, infinite kernel buffers, like MPICH at the
  paper's message sizes).
* ``send`` (blocking) additionally blocks the caller until the sender-
  side transmission (B4) completes — Fig. 7's "until the message has been
  completely sent".
* ``irecv`` charges A3 and registers the match; the request completes
  when the matching message has finished its receive-side kernel copy
  (B2).  Messages arriving before the post are buffered (eager).
* ``recv`` (blocking) charges A3 then blocks until the message is
  delivered.
* Matching is FIFO per (source, tag) — MPI's non-overtaking rule.

Allocation discipline
---------------------

A simulated message used to allocate roughly a dozen heap objects per
leg: a fresh :class:`_Message` per side plus one closure per pipeline
stage (kernel copy → TX → injection → RX → delivery).  In steady state
none of that survives the message, so the hot path now recycles instead:

* :class:`_Message` records are pooled per :class:`World`
  (``_acquire_msg`` / ``_release_msg``) and carry their pipeline-stage
  callbacks as bound methods cached once at construction — scheduling a
  stage appends an existing object instead of building a closure.
* Every hardware leg (B3, B4, B1, B2) is one
  :meth:`~repro.sim.resources.FifoResource.submit_call`, and every CPU
  charge one :meth:`~repro.sim.core.Simulator.schedule_call`: the
  kernel's allocation-free primitives, called rather than copied here.
* ``wait``/``waitall`` bookkeeping lives in pooled :class:`_WaitFrame`
  records rather than per-call closures.
* The per-size cost model (A1 / kernel copy / wire time) is memoised on
  the world, and trace-enabled / transport-active dispatch is resolved
  once at world construction (``_tr`` / ``_transmit``).

Pooling is disabled automatically when a reliability transport is
active: :class:`~repro.sim.reliable.ReliableTransport` legitimately
holds message references across retransmits and dedup checks, so
recycling underneath it would corrupt them.  Event *ordering* is
untouched either way — every scheduler hop of the allocating
implementation is preserved, so runs are bit-identical.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Sequence

import numpy as np

from repro.model.machine import Machine
from repro.sim.core import Effect, Event, Process, Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network
from repro.sim.reliable import ReliableConfig, ReliableStats, ReliableTransport
from repro.sim.resources import FifoResource
from repro.sim.tracing import Trace

if TYPE_CHECKING:  # pragma: no cover - deadlock imports this module
    from repro.sim.deadlock import RunOutcome, WatchdogConfig
    from repro.sim.topology import Topology

__all__ = ["World", "Rank", "SendRequest", "RecvRequest"]


class _StallDetected(Exception):
    """Internal: raised out of the event loop by the watchdog tick."""


#: Canonical receiver-side ordering key.  All receiver NIC submissions
#: landing at one injection instant (``tx_end + network_latency``) are
#: flushed together, sorted by the sender-side lineage ``(TX submission
#: instant, pipeline launch instant, source rank)``.  The rule is a
#: *definition*, not a reconstruction: it depends only on values carried
#: by the message itself, so a rank-sharded run (:mod:`repro.sim.sharding`)
#: reproduces the single-process receiver FIFO order exactly, for every
#: shard count, without seeing the global event cascade.  The stable sort
#: preserves insertion order for entries whose whole lineage ties —
#: same-sender entries are already serialised by the TX FIFO.
_LINEAGE = itemgetter(1, 2, 3)

#: ``Process.waiting_on`` labels for the common wait widths, built once —
#: the f-string per wait showed up in cluster-scale profiles.
_WAIT_LABELS = {n: f"waitall({n})" for n in range(17)}


def _copy_payload(payload: object) -> object:
    """Value semantics at the send call, like MPI's buffered sends."""
    if payload is None:
        return None
    if isinstance(payload, np.ndarray):
        return payload.copy()
    import copy

    return copy.deepcopy(payload)


class _Message:
    """One in-flight message, reused across the pipeline stages.

    Instances are pooled per world; the ``cb_*`` slots cache the bound
    methods that the FIFO resources and the event queue invoke, so a
    message's whole B3 → B4 → B1 → B2 pipeline schedules without
    allocating a single closure.  Which fields are meaningful depends on
    the stage: the sender side fills ``kcopy``/``send_req``/``on_sent``
    and (on the canonical deferred-RX path) ``tx_submit``/``cur_wire``/
    ``extra_lat``; the receiver side fills ``tx_submit``/``rx_tx_start``/
    ``rx_label``.
    """

    __slots__ = (
        "src", "dst", "tag", "payload", "nbytes", "seq", "stream_seq",
        "launch_time", "label", "stream_key", "world", "in_use",
        # sender-side pipeline state
        "kcopy", "send_req", "on_sent", "tx_submit", "cur_wire", "extra_lat",
        # receiver-side pipeline state
        "rx_tx_start", "rx_label",
        # bound-method caches (built once, scheduled many times)
        "cb_after_kernel_copy", "cb_after_tx", "cb_receive_direct",
        "cb_on_arrival", "cb_after_rx_copy",
    )

    def __init__(self, src: int, dst: int, tag: int, payload: object, nbytes: float,
                 seq: int, stream_seq: int, label: str = "",
                 world: "World | None" = None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.seq = seq
        self.stream_seq = stream_seq
        # Simulation time the send pipeline was launched (B3 submission);
        # rank-sharded runs use it as an ordering lineage stage when two
        # wire legs tie exactly (see repro.sim.sharding).
        self.launch_time = 0.0
        # Trace-lane label override; collectives stamp their legs (e.g.
        # "bcast 0*") so traces and critical-path chains name the
        # operation instead of the bare src->dst pair.
        self.label = label
        self.stream_key = (src, dst, tag)
        self.world = world
        self.in_use = False
        self.kcopy = 0.0
        self.send_req: SendRequest | None = None
        self.on_sent: Callable | None = None
        self.tx_submit = 0.0
        self.cur_wire = 0.0
        self.extra_lat = 0.0
        self.rx_tx_start = 0.0
        self.rx_label = ""
        self.cb_after_kernel_copy = self._after_kernel_copy
        self.cb_after_tx = self._after_tx
        self.cb_receive_direct = self._receive_direct
        self.cb_on_arrival = self._on_arrival
        self.cb_after_rx_copy = self._after_rx_copy

    # -- pipeline-stage callbacks --------------------------------------------

    def _after_kernel_copy(self, interval: tuple) -> None:
        """B3 done: user buffer reusable; hand off to the wire layer."""
        w = self.world
        tr = w._tr
        if tr is not None and self.kcopy > 0:
            start, end = interval
            tr.add(self.src, "kernel_copy", start, end, f"->{self.dst}",
                   resource="dma", term="B3")
        req = self.send_req
        if req is not None:
            self.send_req = None
            req.complete_event.trigger(None)
        w._transmit(self, self.on_sent)

    def _after_tx(self, interval: tuple) -> None:
        """Sender NIC leg done (canonical deferred-RX path): build the
        receiver-leg entry and route it; the sender-side record is then
        dead and returns to the pool — the entry tuple carries every
        field the receiver half needs."""
        w = self.world
        start, end = interval
        tr = w._tr
        if tr is not None and end > start:
            tr.add(self.src, "wire", start, end,
                   self.label or f"{self.src}->{self.dst}",
                   resource="nic_tx", term="B4")
        on_sent = self.on_sent
        if on_sent is not None:
            on_sent((start, end))
        # Injection groups by the *base* latency so fault-plan jitter
        # (extra_lat) delays the leg's earliest start, not its FIFO slot.
        lat = w._lat
        latency = lat + self.extra_lat
        entry = (
            end + lat, self.tx_submit, self.launch_time, self.src,
            self.stream_seq, self.dst, self.tag, self.seq, self.payload,
            self.nbytes, self.cur_wire, end + latency, start, self.label,
        )
        w._route(entry)
        w._release_msg(self)

    def _receive_direct(self, _arrival: object) -> None:
        """Arrival callback of the direct (non-deferred) network path."""
        self.world._receive_copy(self)

    def _on_arrival(self, interval: tuple) -> None:
        """Receiver NIC leg done (canonical deferred-RX path): trace the
        B1 and in-flight intervals, record the wire latency, then one
        scheduler hop to the receive-side kernel copy."""
        w = self.world
        rx_start, arr_end = interval
        tr = w._tr
        if tr is not None:
            if arr_end > rx_start:
                tr.add(self.dst, "wire", rx_start, arr_end, self.rx_label,
                       resource="nic_rx", term="B1")
            if arr_end > self.rx_tx_start:
                tr.add(self.src, "in_flight", self.rx_tx_start, arr_end,
                       self.rx_label, resource="link", term="")
        w.network._record_latency(arr_end - self.tx_submit)
        w.sim.schedule_call(0.0, w._rcv_cb, self)

    def _after_rx_copy(self, interval: tuple) -> None:
        """B2 done: deliver in stream order."""
        w = self.world
        tr = w._tr
        if tr is not None and self.kcopy > 0:
            start, end = interval
            tr.add(self.dst, "kernel_copy", start, end, f"<-{self.src}",
                   resource="dma", term="B2")
        w._deliver(self)


class SendRequest:
    """Handle for a non-blocking send; complete when the user buffer is
    reusable (kernel copy done)."""

    __slots__ = ("complete_event", "post_cpu_cost")

    is_recv = False

    def __init__(self, sim: Simulator, name: str):
        self.complete_event = Event(sim, name=name)
        self.post_cpu_cost = 0.0


class RecvRequest:
    """Handle for a non-blocking receive; complete when the matching
    message sits in the MPI receive buffer."""

    __slots__ = ("src", "tag", "complete_event", "payload", "post_cpu_cost",
                 "post_paid")

    is_recv = True

    def __init__(self, sim: Simulator, src: int, tag: int, name: str):
        self.src = src
        self.tag = tag
        self.complete_event = Event(sim, name=name)
        self.payload: object = None
        self.post_cpu_cost = 0.0
        self.post_paid = False


class _WaitFrame:
    """Pooled bookkeeping record behind ``wait``/``waitall``.

    Replaces the two closures the wait path used to allocate per call
    (the per-request countdown and the completion body).  Released back
    to the world's pool *before* resuming the waiting process, so a
    process that immediately waits again reuses the same frame.
    """

    __slots__ = ("world", "requests", "single", "wait_from", "remaining",
                 "process", "rank", "in_use", "cb_one", "cb_done")

    def __init__(self, world: "World"):
        self.world = world
        self.requests: list | None = None
        self.single = False
        self.wait_from = 0.0
        self.remaining = 0
        self.process: Process | None = None
        self.rank = 0
        self.in_use = False
        self.cb_one = self._on_one
        self.cb_done = self._on_done

    def _on_one(self, _value: object) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self._on_done(None)

    def _on_done(self, _value: object) -> None:
        w = self.world
        t = w.sim.now
        requests = self.requests
        if t > self.wait_from and w._tr is not None:
            w.trace.add(self.rank, "blocked_wait", self.wait_from, t,
                        f"{len(requests)} reqs")
        post = 0.0
        for r in requests:
            if r.is_recv and not r.post_paid:
                post += r.post_cpu_cost
                r.post_paid = True
        if self.single:
            r0 = requests[0]
            value = r0.payload if r0.is_recv else None
        else:
            value = [(r.payload if r.is_recv else None) for r in requests]
        process = self.process
        rank = self.rank
        w._release_frame(self)
        if post > 0:
            w.trace.add(rank, "fill_kernel_recv", t, t + post, "B2-on-CPU")
            w.sim.schedule_call(post, process.resume, value)
        else:
            process.resume(value)


class World:
    """A simulated cluster of ``num_ranks`` nodes running SPMD programs."""

    def __init__(
        self,
        machine: Machine,
        num_ranks: int,
        *,
        trace: bool | str = False,
        faults: FaultPlan | None = None,
        reliable: ReliableConfig | None = None,
        topology: "Topology | None" = None,
    ):
        """``faults`` injects seeded message drop/duplicate/corrupt,
        latency jitter, bandwidth-degradation windows and node
        straggler/pause intervals (:class:`~repro.sim.faults.FaultPlan`).
        ``reliable`` layers ack/timeout/retransmit delivery
        (:class:`~repro.sim.reliable.ReliableConfig`) over the unreliable
        network so dropped messages are recovered instead of wedging the
        pipeline.

        ``trace`` selects interval recording: ``False`` (off), ``True``
        or ``"full"`` (every interval retained — Gantt/Perfetto/critical
        path), or ``"streaming"`` (intervals folded into O(ranks)
        aggregates as they close; see
        :class:`~repro.sim.tracing.Trace`).

        ``topology`` selects the fabric between the NICs
        (:mod:`repro.sim.topology`): ``None`` or a crossbar keeps the
        historical non-blocking model bit-identically; a routed topology
        (ring/mesh/fat-tree) adds per-link FIFO contention and
        store-and-forward hops to every wire leg."""
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.machine = machine
        self.num_ranks = num_ranks
        self.sim = Simulator()
        self.faults = faults
        self.trace = Trace(
            enabled=bool(trace), num_ranks=num_ranks,
            streaming=(trace == "streaming"),
        )
        self.network = Network(self.sim, machine, num_ranks, faults=faults,
                               trace=self.trace, topology=topology)
        if trace == "streaming":
            # O(ranks)-memory discipline: bound the retained wire-latency
            # sample alongside the streaming trace aggregates.
            self.network.cap_latency_samples(65536)
        self.transport = (
            ReliableTransport(self, reliable) if reliable is not None else None
        )
        self.dma = [
            FifoResource(self.sim, f"node{r}.dma", servers=machine.dma_channels)
            for r in range(num_ranks)
        ]
        # Unmatched delivered messages and posted receives, per destination.
        self._arrived: list[list[_Message]] = [[] for _ in range(num_ranks)]
        self._posted: list[list[RecvRequest]] = [[] for _ in range(num_ranks)]
        self._msg_seq = 0
        self._barrier_waiting: list[Process] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        # MPI non-overtaking: per-(src, dst, tag) stream bookkeeping so
        # messages whose pipelines complete out of order (possible with
        # multichannel DMA and unequal sizes) are still delivered FIFO.
        self._stream_next_seq: dict[tuple[int, int, int], int] = {}
        self._stream_expected: dict[tuple[int, int, int], int] = {}
        self._stream_held: dict[tuple[int, int, int], dict[int, _Message]] = {}
        # Canonical receiver-side ordering (see _unreliable_transmit):
        # every receiver NIC submission is deferred to tx_end + latency
        # and flushed in _LINEAGE order.  Needs a positive latency (the
        # deferral instant) and a dedicated RX unit — deferral must not
        # change TX/RX contention on a shared half-duplex port — so
        # half-duplex and zero-latency machines keep the direct path.
        # Routed topologies also keep the direct path: their wire legs
        # traverse link hops inside Network.transmit, and the injection
        # instant of a routed leg is not a message-carried value (it
        # depends on link contention), so deferral cannot apply.  Routed
        # runs are therefore not shardable — enforced by sharding.
        self._canonical_rx = (machine.duplex and machine.network_latency > 0.0
                              and not self.network.routed)
        self._rx_pending: dict[float, list[tuple]] = {}
        # -- hot-path dispatch, resolved once --------------------------------
        # ``_tr`` is the trace when recording, else None — one identity
        # check replaces ``trace.enabled`` lookups in every stage.
        # ``_transmit`` is the wire-layer handoff (reliable transport or
        # the fire-and-forget path), bound here instead of branched per
        # message.  ``_rcv_cb``/``_lat``/``_dma_on`` hoist per-event
        # attribute chains.
        self._tr = self.trace if self.trace.enabled else None
        self._lat = machine.network_latency
        self._dma_on = machine.dma
        self._transmit = (
            self.transport.start_transfer if self.transport is not None
            else self._unreliable_transmit
        )
        self._rcv_cb = self._receive_copy
        # Continuation callbacks, bound once instead of per schedule_call
        # (``w._isend_after_cpu`` as an argument expression allocates a
        # bound method every time).
        self._isend_cont = self._isend_after_cpu
        self._send_cont = self._send_after_cpu
        self._irecv_cont = self._irecv_after_cpu
        self._recv_cont = self._recv_after_cpu
        self._flush_cb = self._flush_rx
        # Per-size cost memo: (A1 fill, kernel copy, wire time).
        self._cost_memo: dict[float, tuple[float, float, float]] = {}
        # Message/wait-frame pools.  Message pooling is bypassed under a
        # reliability transport, which holds message references across
        # retransmits and dedup checks (recycling would corrupt them).
        self._pooling = self.transport is None
        self._msg_pool: list[_Message] = []
        self._frame_pool: list[_WaitFrame] = []
        self.pool_acquired = 0
        self.pool_released = 0
        self.pool_created = 0
        self.frames_acquired = 0
        self.frames_released = 0

    # -- pools ---------------------------------------------------------------

    def _acquire_msg(self) -> _Message:
        """A blank message record — recycled when pooling is on."""
        if not self._pooling:
            return _Message(0, 0, 0, None, 0.0, 0, 0, world=self)
        self.pool_acquired += 1
        pool = self._msg_pool
        if pool:
            msg = pool.pop()
            msg.in_use = True
            return msg
        self.pool_created += 1
        msg = _Message(0, 0, 0, None, 0.0, 0, 0, world=self)
        msg.in_use = True
        return msg

    def _release_msg(self, msg: _Message) -> None:
        """Return a dead message record to the pool, dropping payload and
        callback references so the pool retains no user data."""
        if not self._pooling:
            return
        if not msg.in_use:
            raise RuntimeError(
                f"double release of pooled message seq={msg.seq}"
            )
        msg.in_use = False
        msg.payload = None
        msg.on_sent = None
        msg.send_req = None
        self.pool_released += 1
        self._msg_pool.append(msg)

    def _acquire_frame(self) -> _WaitFrame:
        self.frames_acquired += 1
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.in_use = True
            return frame
        frame = _WaitFrame(self)
        frame.in_use = True
        return frame

    def _release_frame(self, frame: _WaitFrame) -> None:
        if not frame.in_use:
            raise RuntimeError("double release of pooled wait frame")
        frame.in_use = False
        frame.requests = None
        frame.process = None
        self.frames_released += 1
        self._frame_pool.append(frame)

    def _cost(self, nbytes: float) -> tuple[float, float, float]:
        """Memoised per-size cost triple ``(A1, kernel copy, wire)``.

        Message sizes come from tile volumes, so the distinct-size set is
        tiny; the memo is still capped as cheap insurance against a
        pathological caller."""
        c = self._cost_memo.get(nbytes)
        if c is None:
            m = self.machine
            c = (m.fill_mpi_buffer_time(nbytes),
                 m.fill_kernel_buffer_time(nbytes),
                 m.transmit_time(nbytes))
            if len(self._cost_memo) < 4096:
                self._cost_memo[nbytes] = c
        return c

    # -- program execution ---------------------------------------------------

    def context(self, rank: int) -> "Rank":
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
        return Rank(self, rank)

    def run(
        self,
        programs: Sequence[Callable[["Rank"], Generator[Effect, object, object]]],
        *,
        max_events: int = 50_000_000,
    ) -> float:
        """Spawn one program per rank, run to completion, return makespan.

        Raises ``RuntimeError`` with a blocked-process report on deadlock.
        """
        if len(programs) != self.num_ranks:
            raise ValueError(
                f"need {self.num_ranks} programs, got {len(programs)}"
            )
        for rank, prog in enumerate(programs):
            ctx = self.context(rank)
            self.sim.spawn(f"rank{rank}", prog(ctx))
        end = self.sim.run(max_events=max_events)
        self.sim.check_all_finished()
        return end

    # -- structured outcomes ---------------------------------------------------

    def run_outcome(
        self,
        programs: Sequence[Callable[["Rank"], Generator[Effect, object, object]]],
        *,
        max_events: int = 50_000_000,
        watchdog: "WatchdogConfig | None" = None,
    ) -> "RunOutcome":
        """Run like :meth:`run`, but never hang and never raise on
        deadlock: a live watchdog detects no-progress (quiescence or
        ``stall_time`` of retry churn without any rank advancing),
        triggers :func:`~repro.sim.deadlock.diagnose` automatically and
        returns a structured :class:`~repro.sim.deadlock.RunOutcome`.
        Retry/drop counters are also surfaced through ``trace.counters``.
        """
        from repro.sim.deadlock import RunOutcome, WatchdogConfig, diagnose

        if len(programs) != self.num_ranks:
            raise ValueError(
                f"need {self.num_ranks} programs, got {len(programs)}"
            )
        wd = watchdog if watchdog is not None else WatchdogConfig()
        for rank, prog in enumerate(programs):
            ctx = self.context(rank)
            self.sim.spawn(f"rank{rank}", prog(ctx))

        def tick() -> None:
            if not self.sim.unfinished_processes():
                return  # all done; let the heap drain
            if not self.sim.pending:
                raise _StallDetected  # true quiescence: nothing can unblock
            if self.sim.now - self.sim.last_progress >= wd.stall_time:
                raise _StallDetected  # churn (timers firing) without progress
            self.sim.schedule(wd.effective_interval, tick)

        if wd.enabled:
            self.sim.schedule(wd.effective_interval, tick)

        deadlocked = False
        try:
            end = self.sim.run(max_events=max_events)
        except _StallDetected:
            deadlocked = True
            end = self.sim.now
        if not deadlocked and self.sim.unfinished_processes():
            # Watchdog disabled and the heap drained with stuck ranks.
            deadlocked = True
        if not deadlocked:
            # Watchdog ticks outlive the last rank; the makespan is when
            # the ranks finished, not when the final tick fired.
            end = max(
                (p.finish_time for p in self.sim.processes
                 if p.finish_time is not None),
                default=end,
            )
        rstats = self.transport.stats if self.transport is not None \
            else ReliableStats()
        report = diagnose(self) if deadlocked else None
        if deadlocked:
            status = "deadlocked"
        elif rstats.degraded or self.messages_dropped or self.messages_corrupted:
            status = "degraded"
        else:
            status = "completed"
        for name, value in (
            ("messages_dropped", self.messages_dropped),
            ("messages_corrupted", self.messages_corrupted),
            ("retransmits", rstats.retransmits),
            ("duplicates_suppressed", rstats.duplicates_suppressed),
            ("acks_sent", rstats.acks_sent),
            ("gave_up", rstats.gave_up),
        ):
            if value:
                self.trace.bump(name, value)
        critical_path = None
        if self.trace.enabled and not deadlocked and self.trace.records:
            from repro.sim.critical_path import analyze_critical_path

            critical_path = analyze_critical_path(self.trace, makespan=end)
        return RunOutcome(
            status=status,
            completion_time=end,
            messages_sent=self.messages_sent,
            messages_dropped=self.messages_dropped,
            messages_corrupted=self.messages_corrupted,
            retransmits=rstats.retransmits,
            duplicates_suppressed=rstats.duplicates_suppressed,
            acks_sent=rstats.acks_sent,
            gave_up=rstats.gave_up,
            report=report,
            reliable_stats=rstats.as_dict(),
            critical_path=critical_path,
        )

    # -- message pipeline -----------------------------------------------------

    def _launch_message(self, msg: _Message, send_req: SendRequest | None,
                        on_sent: Callable[[tuple[float, float]], None] | None) -> None:
        """Start the B3 → B4/B1 → B2 pipeline for a prepared message."""
        msg.launch_time = self.sim.now
        if self._dma_on:
            c = self._cost_memo.get(msg.nbytes)
            b3 = c[1] if c is not None else self._cost(msg.nbytes)[1]
        else:
            b3 = 0.0
        msg.kcopy = b3
        msg.send_req = send_req
        msg.on_sent = on_sent
        self.dma[msg.src].submit_call(b3, msg.cb_after_kernel_copy)

    def _unreliable_transmit(
        self, msg: _Message,
        on_sent: Callable[[tuple[float, float]], None] | None,
    ) -> None:
        """Fire-and-forget wire leg: one attempt, faults are fatal.

        On full-duplex machines with positive switch latency the
        receiver half is *deferred*: instead of submitting to the
        receiver NIC inside the TX-end event, the submission is grouped
        under its injection instant ``tx_end + latency`` and flushed in
        the canonical ``_LINEAGE`` order.  The deferral is a constant
        shift, and the injection instant is exactly the receive leg's
        earliest-start bound, so no job start/end time moves; what it
        buys is a receiver FIFO order defined by message-carried values
        alone — the property rank-sharded runs need for bit-identity.
        """
        faults = self.faults
        fate = None
        if faults is not None:
            fate = faults.message_fate(
                msg.src, msg.dst, msg.tag, msg.stream_seq,
                attempt=0, global_seq=msg.seq,
            )
        if fate is not None and (fate.dropped or fate.corrupted):
            # The message vanishes (at the NIC, or rejected by the
            # receiver's checksum).  A blocking send still "completes"
            # (it left the node).
            self.messages_dropped += 1
            if fate.corrupted:
                self.messages_corrupted += 1
            if on_sent is not None:
                now = self.sim.now
                self.sim.schedule_call(0.0, on_sent, (now, now))
            self._release_msg(msg)
            return
        if fate is not None and fate.duplicated:
            # Without a reliability layer there is no receiver-side
            # dedup, so the extra copy is discarded at the NIC (MPI
            # matching must not see ghost messages) but still counted.
            self.network.duplicates += 1
        extra = fate.extra_latency if fate is not None else 0.0
        if msg.src == msg.dst or not self._canonical_rx:
            # Loopback never touches the wire; half-duplex/zero-latency
            # and routed-topology machines keep the direct
            # submit-at-TX-end path.
            arrival = self.network.transmit(
                msg.src, msg.dst, msg.nbytes, on_sent=on_sent,
                extra_latency=extra, label=msg.label,
            )
            arrival.add_callback(msg.cb_receive_direct)
            return

        # Sender half of Network.transmit: counters, TX wire leg, trace.
        # (rx_bytes is bumped by the receiver half at injection.)
        net = self.network
        nbytes = msg.nbytes
        net.messages_carried += 1
        net.bytes_carried += nbytes
        net.tx_bytes[msg.src] += nbytes
        msg.tx_submit = self.sim.now
        c = self._cost_memo.get(nbytes)
        wire = c[2] if c is not None else self._cost(nbytes)[2]
        if faults is not None:
            wire *= faults.wire_factor(msg.src, msg.dst, msg.tx_submit)
        msg.cur_wire = wire
        msg.extra_lat = extra
        net.tx[msg.src].submit_call(wire, msg.cb_after_tx)

    def _route(self, entry: tuple) -> None:
        """Deliver a deferred receiver leg to the world hosting its
        destination — here, always this world; a shard world forwards
        cross-shard entries to its coordinator instead."""
        self._enqueue_rx(entry)

    def _enqueue_rx(self, entry: tuple) -> None:
        """Group a deferred receiver leg under its injection instant,
        scheduling the instant's flush on first touch.

        Nearly every instant carries exactly one leg, so the group is
        stored as the bare entry and only wrapped in a list on the first
        collision — the singleton path allocates nothing."""
        t = entry[0]
        pending = self._rx_pending
        group = pending.get(t)
        if group is None:
            pending[t] = entry
            # Absolute-time scheduling: the flush must fire at exactly
            # ``t`` — a relative delay could round one ulp past it and
            # make the receive FIFO's now-clamp bind, shifting the rx
            # start.
            self.sim.schedule_call_at(t, self._flush_cb, t)
        elif type(group) is list:
            group.append(entry)
        else:
            pending[t] = [group, entry]

    def _flush_rx(self, t: float) -> None:
        entries = self._rx_pending.pop(t)
        if type(entries) is not list:
            self._inject_rx(entries)
            return
        # Stable: entries whose whole lineage ties keep insertion
        # order (same-sender entries are serialised by the TX FIFO).
        entries.sort(key=_LINEAGE)
        for entry in entries:
            self._inject_rx(entry)

    def _inject_rx(self, entry: tuple) -> None:
        """Receiver half of a transmission, run at the injection
        instant on the world owning the destination rank."""
        (_t, submitted_at, _launch, src, stream_seq, dst, tag, seq, payload,
         nbytes, wire, not_before, tx_start, msg_label) = entry
        net = self.network
        net.rx_bytes[dst] += nbytes
        msg = self._acquire_msg()
        msg.src = src
        msg.dst = dst
        msg.tag = tag
        msg.payload = payload
        msg.nbytes = nbytes
        msg.seq = seq
        msg.stream_seq = stream_seq
        msg.launch_time = 0.0
        msg.label = msg_label
        msg.stream_key = (src, dst, tag)
        msg.tx_submit = submitted_at
        msg.rx_tx_start = tx_start
        msg.rx_label = (msg_label or f"{src}->{dst}") \
            if self._tr is not None else ""
        # The only leg with an earliest-start bound: the injection instant.
        net.rx[dst].submit_call(wire, msg.cb_on_arrival, not_before)

    def _receive_copy(self, msg: _Message) -> None:
        """Receive-side kernel copy (B2) then stream-ordered delivery."""
        if self._dma_on:
            c = self._cost_memo.get(msg.nbytes)
            b2 = c[1] if c is not None else self._cost(msg.nbytes)[1]
        else:
            b2 = 0.0
        msg.kcopy = b2
        self.dma[msg.dst].submit_call(b2, msg.cb_after_rx_copy)

    def _deliver(self, msg: _Message) -> None:
        """Message pipeline finished: release in stream order, then match.

        A message whose predecessors on the same (src, dst, tag) stream
        are still in flight is held back until they land — the
        non-overtaking rule.
        """
        key = msg.stream_key
        expected = self._stream_expected.get(key, 1)
        if msg.stream_seq != expected:
            self._stream_held.setdefault(key, {})[msg.stream_seq] = msg
            return
        self._release(msg)
        held = self._stream_held.get(key)
        while held:
            nxt = self._stream_expected[key]
            successor = held.pop(nxt, None)
            if successor is None:
                break
            self._release(successor)

    def _release(self, msg: _Message) -> None:
        self._stream_expected[msg.stream_key] = msg.stream_seq + 1
        posted = self._posted[msg.dst]
        src = msg.src
        tag = msg.tag
        for k, req in enumerate(posted):
            if req.src == src and req.tag == tag:
                del posted[k]
                payload = msg.payload
                req.payload = payload
                # The payload is saved and the trigger only enqueues its
                # waiters, so the record can be recycled before it fires.
                self._release_msg(msg)
                req.complete_event.trigger(payload)
                return
        self._arrived[msg.dst].append(msg)

    def _post_receive(self, req: RecvRequest, rank: int) -> None:
        arrived = self._arrived[rank]
        src = req.src
        tag = req.tag
        for k, msg in enumerate(arrived):
            if msg.src == src and msg.tag == tag:
                del arrived[k]
                payload = msg.payload
                req.payload = payload
                self._release_msg(msg)
                req.complete_event.trigger(payload)
                return
        self._posted[rank].append(req)

    def _make_message(self, src: int, dst: int, tag: int, payload: object,
                      nbytes: float, label: str = "") -> _Message:
        if not 0 <= dst < self.num_ranks:
            raise ValueError(f"dst {dst} outside [0, {self.num_ranks})")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._msg_seq += 1
        self.messages_sent += 1
        key = (src, dst, tag)
        stream_seq = self._stream_next_seq.get(key, 0) + 1
        self._stream_next_seq[key] = stream_seq
        msg = self._acquire_msg()
        msg.src = src
        msg.dst = dst
        msg.tag = tag
        msg.payload = _copy_payload(payload)
        msg.nbytes = nbytes
        msg.seq = self._msg_seq
        msg.stream_seq = stream_seq
        msg.launch_time = 0.0
        msg.label = label
        msg.stream_key = key
        return msg

    # -- effect continuations (packed-arg forms of the old closures) ----------

    def _isend_after_cpu(self, packed: tuple) -> None:
        msg, req, process = packed
        self._launch_message(msg, req, None)
        process.resume(req)

    def _send_after_cpu(self, packed: tuple) -> None:
        msg, on_sent = packed
        self._launch_message(msg, None, on_sent)

    def _irecv_after_cpu(self, packed: tuple) -> None:
        req, rank, process = packed
        self._post_receive(req, rank)
        process.resume(req)

    def _recv_after_cpu(self, packed: tuple) -> None:
        req, rank, after_delivery = packed
        self._post_receive(req, rank)
        req.complete_event.add_callback(after_delivery)


class Rank:
    """Per-rank API handed to SPMD program generators.

    Programs yield the effect objects these methods build, e.g.::

        def program(ctx):
            req = yield ctx.isend(dst=1, nbytes=1024, payload=faces)
            yield ctx.compute_points(tile_points)
            data = yield ctx.recv(src=0)
            yield ctx.wait(req)
    """

    __slots__ = ("world", "rank")

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank

    # -- computation ----------------------------------------------------------

    def compute_points(self, points: float, fn: Callable[[], object] | None = None,
                       label: str = "") -> Effect:
        """Charge ``points`` loop iterations of CPU time; ``fn`` (the real
        numeric tile computation, when running in numeric mode) executes
        at the start of the interval and its value is returned."""
        return self.compute_seconds(
            self.world.machine.compute_time(points), fn, label
        )

    def compute_seconds(self, seconds: float, fn: Callable[[], object] | None = None,
                        label: str = "") -> Effect:
        return _ComputeEffect(self, seconds, fn, label)

    # -- non-blocking ----------------------------------------------------------

    def isend(self, dst: int, nbytes: float, payload: object = None,
              tag: int = 0, *, label: str = "") -> Effect:
        """Non-blocking send; yields a :class:`SendRequest` after A1.
        ``label`` overrides the NIC/link trace-lane label (collectives
        stamp their legs with the operation name)."""
        return _IsendEffect(self, dst, nbytes, payload, tag, label)

    def irecv(self, src: int, nbytes: float = 0.0, tag: int = 0) -> Effect:
        """Non-blocking receive; yields a :class:`RecvRequest` after A3.

        ``nbytes`` sizes the A3/B2 buffer-preparation costs (the paper
        assumes the receive fill equals the send fill for equal sizes).
        """
        return _IrecvEffect(self, src, nbytes, tag)

    def wait(self, request: SendRequest | RecvRequest) -> Effect:
        """Block until one request completes; recv requests yield payload."""
        return _WaitEffect(self, [request], single=True)

    def waitall(self, requests: Iterable[SendRequest | RecvRequest]) -> Effect:
        """Block until all requests complete; yields list of payloads/None."""
        return _WaitEffect(self, list(requests), single=False)

    # -- blocking --------------------------------------------------------------

    def send(self, dst: int, nbytes: float, payload: object = None,
             tag: int = 0, *, label: str = "") -> Effect:
        """Blocking send: CPU held through A1 (+B3 without DMA) and then
        blocked until the sender-side wire time B4 completes."""
        return _SendEffect(self, dst, nbytes, payload, tag, label)

    def recv(self, src: int, nbytes: float = 0.0, tag: int = 0) -> Effect:
        """Blocking receive: A3 then blocked until delivery; yields payload."""
        return _RecvEffect(self, src, nbytes, tag)

    def barrier(self) -> Effect:
        """Synchronise all ranks of the world.

        With ``machine.barrier_algorithm == "rendezvous"`` (default) this
        is the historical free rendezvous: zero cost, pure
        synchronisation.  With ``"dissemination"`` it runs the
        ceil(log2 n)-round dissemination barrier as real messages —
        startup, latency, and NIC occupancy all charged."""
        if self.world.machine.barrier_algorithm == "dissemination":
            from repro.sim import collectives

            return collectives.barrier(self)
        return _BarrierEffect(self)

    # -- collectives -----------------------------------------------------------

    def bcast(self, root: int, nbytes: float, payload: object = None, *,
              group: Sequence[int] | None = None, tag: int = 0) -> Effect:
        """Binomial-tree broadcast (:func:`repro.sim.collectives.bcast`);
        yields the root's payload on every rank of ``group``."""
        from repro.sim import collectives

        return collectives.bcast(self, root, nbytes, payload, group=group,
                                 tag=tag)

    def reduce(self, root: int, nbytes: float, payload: object = None, *,
               op: Callable[[object, object], object] | None = None,
               group: Sequence[int] | None = None, tag: int = 0) -> Effect:
        """Reverse-binomial reduction to ``root``
        (:func:`repro.sim.collectives.reduce`); yields the combined value
        on the root, ``None`` elsewhere."""
        from repro.sim import collectives

        return collectives.reduce(self, root, nbytes, payload, op=op,
                                  group=group, tag=tag)

    def allreduce(self, nbytes: float, payload: object = None, *,
                  op: Callable[[object, object], object] | None = None,
                  group: Sequence[int] | None = None, tag: int = 0) -> Effect:
        """Recursive-doubling allreduce
        (:func:`repro.sim.collectives.allreduce`); yields the combined
        value on every rank."""
        from repro.sim import collectives

        return collectives.allreduce(self, nbytes, payload, op=op,
                                     group=group, tag=tag)

    def gather(self, root: int, nbytes: float, payload: object = None, *,
               group: Sequence[int] | None = None, tag: int = 0) -> Effect:
        """Linear gather (:func:`repro.sim.collectives.gather`); yields
        the group-ordered contribution list on the root."""
        from repro.sim import collectives

        return collectives.gather(self, root, nbytes, payload, group=group,
                                  tag=tag)

    def multicast(self, group: Sequence[int], nbytes: float,
                  payload: object = None, *, segments: int = 1,
                  tag: int = 0) -> Effect:
        """Pipelined-chain multicast from ``group[0]`` down the chain
        (:func:`repro.sim.collectives.multicast`), the payload cut into
        ``segments`` pieces so hops overlap; yields the payload on every
        rank of the chain."""
        from repro.sim import collectives

        return collectives.multicast(self, group, nbytes, payload,
                                     segments=segments, tag=tag)

    # -- internals --------------------------------------------------------------

    def _trace(self, kind: str, start: float, end: float, label: str = "", *,
               resource: str = "cpu", term: str | None = None) -> None:
        self.world.trace.add(self.rank, kind, start, end, label,
                             resource=resource, term=term)


class _ComputeEffect(Effect):
    __slots__ = ("ctx", "seconds", "fn", "label")

    def __init__(self, ctx: Rank, seconds: float, fn, label: str):
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.ctx = ctx
        self.seconds = seconds
        self.fn = fn
        self.label = label

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        sim = w.sim
        now = sim.now
        seconds = self.seconds
        plan = w.faults
        if plan is not None and plan.has_node_faults:
            # Straggler windows stretch the charge; pause windows delay
            # its start (the node is wedged until the pause ends).
            seconds = seconds * plan.compute_factor(ctx.rank, now)
            seconds += plan.pause_delay(ctx.rank, now)
        if w._tr is not None:
            ctx._trace("compute", now, now + seconds, self.label)
        result = self.fn() if self.fn is not None else None
        if seconds < 0:
            raise ValueError(f"negative timeout: {seconds}")
        # What ``Timeout(seconds, "compute", result).start`` does, minus
        # the Timeout object: one compute effect runs per tile.
        process.waiting_on = "compute"
        sim.schedule_call(seconds, process._resume, result)


class _IsendEffect(Effect):
    __slots__ = ("ctx", "dst", "nbytes", "payload", "tag", "label")

    def __init__(self, ctx: Rank, dst: int, nbytes: float, payload: object,
                 tag: int, label: str = ""):
        self.ctx = ctx
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.tag = tag
        self.label = label

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        nbytes = self.nbytes
        msg = w._make_message(ctx.rank, self.dst, self.tag, self.payload,
                              nbytes, self.label)
        c = w._cost_memo.get(nbytes)
        if c is None:
            c = w._cost(nbytes)
        a1 = c[0]
        b3_cpu = 0.0 if w._dma_on else c[1]
        cpu = a1 + b3_cpu
        sim = w.sim
        if w._tr is not None:
            now = sim.now
            ctx._trace("fill_mpi_send", now, now + a1, f"->{self.dst}")
            if b3_cpu > 0:
                ctx._trace("fill_kernel_send", now + a1, now + cpu,
                           "B3-on-CPU")
        req = SendRequest(sim, "isend")
        process.waiting_on = "isend.fill_mpi_buffer"
        sim.schedule_call(cpu, w._isend_cont, (msg, req, process))


class _SendEffect(Effect):
    __slots__ = ("ctx", "dst", "nbytes", "payload", "tag", "label")

    def __init__(self, ctx: Rank, dst: int, nbytes: float, payload: object,
                 tag: int, label: str = ""):
        self.ctx = ctx
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.tag = tag
        self.label = label

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        nbytes = self.nbytes
        msg = w._make_message(ctx.rank, self.dst, self.tag, self.payload,
                              nbytes, self.label)
        a1, kcopy, _wire = w._cost(nbytes)
        b3_cpu = 0.0 if w._dma_on else kcopy
        cpu = a1 + b3_cpu
        now = w.sim.now
        if w._tr is not None:
            ctx._trace("fill_mpi_send", now, now + a1, f"->{self.dst}")
            if b3_cpu > 0:
                ctx._trace("fill_kernel_send", now + a1, now + cpu,
                           "B3-on-CPU")
        blocked_from = now + cpu
        dst = self.dst

        def on_sent(interval: tuple[float, float]) -> None:
            _start, end = interval
            if w._tr is not None:
                ctx._trace("blocked_send", blocked_from, end, f"->{dst}")
            process.resume(None)

        process.waiting_on = "send(blocking)"
        w.sim.schedule_call(cpu, w._send_cont, (msg, on_sent))


class _IrecvEffect(Effect):
    __slots__ = ("ctx", "src", "nbytes", "tag")

    def __init__(self, ctx: Rank, src: int, nbytes: float, tag: int):
        self.ctx = ctx
        self.src = src
        self.nbytes = nbytes
        self.tag = tag

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        c = w._cost_memo.get(self.nbytes)
        if c is None:
            c = w._cost(self.nbytes)
        a1 = c[0]
        sim = w.sim
        if w._tr is not None:
            now = sim.now
            ctx._trace("fill_mpi_recv", now, now + a1, f"<-{self.src}")
        req = RecvRequest(sim, self.src, self.tag, "irecv")
        if not w._dma_on:
            # B2 will be paid by the CPU inside wait() once the message is in.
            req.post_cpu_cost = c[1]
        process.waiting_on = "irecv.prepare_buffer"
        sim.schedule_call(a1, w._irecv_cont, (req, ctx.rank, process))


class _RecvEffect(Effect):
    __slots__ = ("ctx", "src", "nbytes", "tag")

    def __init__(self, ctx: Rank, src: int, nbytes: float, tag: int):
        self.ctx = ctx
        self.src = src
        self.nbytes = nbytes
        self.tag = tag

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        a1, kcopy, _wire = w._cost(self.nbytes)
        cpu = a1
        now = w.sim.now
        if w._tr is not None:
            ctx._trace("fill_mpi_recv", now, now + cpu, f"<-{self.src}")
        req = RecvRequest(w.sim, self.src, self.tag, "recv")
        post_cost = kcopy if not w._dma_on else 0.0
        blocked_from = now + cpu
        src = self.src

        def after_delivery(payload: object) -> None:
            t = w.sim.now
            if w._tr is not None:
                ctx._trace("blocked_recv", blocked_from, t, f"<-{src}")
            if post_cost > 0:
                ctx._trace("fill_kernel_recv", t, t + post_cost, "B2-on-CPU")
                w.sim.schedule_call(post_cost, process.resume, payload)
            else:
                process.resume(payload)

        process.waiting_on = f"recv(blocking)<-{src}"
        w.sim.schedule_call(cpu, w._recv_cont,
                            (req, ctx.rank, after_delivery))


class _WaitEffect(Effect):
    __slots__ = ("ctx", "requests", "single")

    def __init__(self, ctx: Rank, requests: list, single: bool):
        for r in requests:
            if not isinstance(r, (SendRequest, RecvRequest)):
                raise TypeError(f"cannot wait on {type(r).__name__}")
        self.ctx = ctx
        self.requests = requests
        self.single = single

    def start(self, process: Process) -> None:
        ctx = self.ctx
        w = ctx.world
        requests = self.requests
        n = len(requests)
        frame = w._acquire_frame()
        frame.requests = requests
        frame.single = self.single
        frame.wait_from = w.sim.now
        frame.remaining = n
        frame.process = process
        frame.rank = ctx.rank
        label = _WAIT_LABELS.get(n)
        process.waiting_on = label if label is not None else f"waitall({n})"
        # An empty set resumes via one zero-delay hop, a single request
        # rides its completion event directly, a group counts down.
        if n == 0:
            w.sim.schedule_call(0.0, frame.cb_done, None)
        elif n == 1:
            requests[0].complete_event.add_callback(frame.cb_done)
        else:
            for r in requests:
                r.complete_event.add_callback(frame.cb_one)


class _BarrierEffect(Effect):
    __slots__ = ("ctx",)

    def __init__(self, ctx: Rank):
        self.ctx = ctx

    def start(self, process: Process) -> None:
        w = self.ctx.world
        process.waiting_on = "barrier"
        w._barrier_waiting.append(process)
        if len(w._barrier_waiting) == w.num_ranks:
            waiting, w._barrier_waiting = w._barrier_waiting, []
            for p in waiting:
                w.sim.schedule_call(0.0, p.resume, None)

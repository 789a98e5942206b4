"""Point-to-point network model.

Each node has a transmit (TX) and a receive (RX) unit; a message occupies
the sender's TX for its wire time (the paper's B4), then — after the
switch latency — the receiver's RX for its wire time (B1).  With
``duplex=False`` TX and RX share one unit (half-duplex Ethernet), which
serialises a node's concurrent send and receive: one of the ablation
knobs for §4's "ideal scheme" discussion (Fig. 3b vs 3c).

The fabric itself is non-blocking by default (full crossbar, like a
switched cluster): only the endpoints contend.  Passing a *routed*
:class:`~repro.sim.topology.Topology` (ring, 2-D mesh, fat-tree) inserts
the fabric between the NICs: each directed link is its own
:class:`FifoResource` with per-link bandwidth, a message traverses its
route store-and-forward after the TX leg and before the RX leg, and
flows whose routes share a link serialise on it (switch-port
contention).  Hops are charged to the ``link`` trace lane as ``hop``
intervals.  The default (``topology=None`` or a
:class:`~repro.sim.topology.Crossbar`) keeps the original endpoint-only
path bit-identically.

An optional :class:`~repro.sim.faults.FaultPlan` perturbs the timing
model: bandwidth-degradation windows scale a message's wire time (both
sides, evaluated at submission) and callers may pass per-message latency
``extra_latency`` (jitter).  Message *loss* is decided above this layer —
at the :class:`~repro.sim.mpi.World` boundary or inside
:class:`~repro.sim.reliable.ReliableTransport` — because it needs the
logical message identity; the network only carries what it is given and
counts what the upper layers report (``retransmits``, ``duplicates``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.model.machine import Machine
from repro.sim.core import Event, Simulator
from repro.sim.resources import FifoResource
from repro.sim.tracing import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultPlan
    from repro.sim.topology import Topology

__all__ = ["Network"]


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list (numpy's
    default method); 0 for an empty list."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


class Network:
    """Switched cluster fabric between ``num_nodes`` endpoints."""

    __slots__ = (
        "sim", "machine", "num_nodes", "faults", "trace", "tx", "rx",
        "topology", "routed", "links", "link_messages", "link_bytes",
        "hops_routed", "messages_carried", "bytes_carried", "tx_bytes",
        "rx_bytes", "loopback_messages", "loopback_bytes", "retransmits",
        "duplicates", "_latencies", "_latency_cap", "_latency_stride",
        "_latency_skip", "_latency_count", "_latency_min", "_latency_max",
    )

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        num_nodes: int,
        *,
        faults: "FaultPlan | None" = None,
        trace: Trace | None = None,
        topology: "Topology | None" = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.sim = sim
        self.machine = machine
        self.num_nodes = num_nodes
        self.faults = faults
        self.trace = trace
        self.tx: list[FifoResource] = []
        self.rx: list[FifoResource] = []
        for node in range(num_nodes):
            tx = FifoResource(sim, f"node{node}.tx")
            rx = tx if not machine.duplex else FifoResource(sim, f"node{node}.rx")
            self.tx.append(tx)
            self.rx.append(rx)
        # Topology layer: a routed topology puts a FifoResource on every
        # directed link; a crossbar (or None) adds nothing and keeps the
        # endpoint-only fast path bit-identical.
        self.topology = topology
        self.routed = topology is not None and not topology.is_crossbar
        if self.routed and topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology is sized for {topology.num_nodes} nodes, "
                f"network has {num_nodes}"
            )
        self.links: list[FifoResource] = []
        self.link_messages: list[int] = []
        self.link_bytes: list[float] = []
        if self.routed:
            for lid in range(topology.num_links):
                self.links.append(FifoResource(sim, topology.link_name(lid)))
            self.link_messages = [0] * topology.num_links
            self.link_bytes = [0.0] * topology.num_links
        self.hops_routed = 0
        self.messages_carried = 0
        self.bytes_carried = 0.0
        self.tx_bytes = [0.0] * num_nodes
        self.rx_bytes = [0.0] * num_nodes
        # Self-sends never occupy a NIC or the wire; they are accounted
        # separately so wire counters describe actual fabric traffic.
        self.loopback_messages = 0
        self.loopback_bytes = 0.0
        # Reliability-layer accounting (bumped by ReliableTransport).
        self.retransmits = 0
        self.duplicates = 0
        self._latencies: list[float] = []
        # Bounded-memory latency sampling for cluster-scale runs: when
        # set, only every ``_latency_stride``-th latency is retained and
        # the stride doubles whenever the sample would exceed the cap —
        # deterministic decimation, no RNG, quantiles stay representative.
        # Exact extremes are tracked independently of the retained sample
        # (decimation may drop the true min/max).
        self._latency_cap: int | None = None
        self._latency_stride = 1
        self._latency_skip = 0
        self._latency_count = 0
        self._latency_min = float("inf")
        self._latency_max = float("-inf")

    def cap_latency_samples(self, cap: int) -> None:
        """Bound the retained wire-latency sample to ~``cap`` entries
        (deterministic stride decimation).  Engaged by cluster-scale
        runs so :meth:`stats` stops being O(messages) in memory.

        Takes effect immediately: samples already accumulated past the
        cap are decimated now, not on the next append — a late engage
        (cluster-scale run capping after warm-up traffic) still bounds
        memory at the call."""
        if cap < 2:
            raise ValueError("latency sample cap must be at least 2")
        self._latency_cap = cap
        lat = self._latencies
        while len(lat) > cap:
            del lat[::2]
            self._latency_stride *= 2

    def _record_latency(self, value: float) -> None:
        # Exact running extremes, independent of sampling: the decimated
        # sample can silently drop the true min/max.
        self._latency_count += 1
        if value < self._latency_min:
            self._latency_min = value
        if value > self._latency_max:
            self._latency_max = value
        if self._latency_cap is None:
            self._latencies.append(value)
            return
        if self._latency_skip > 0:
            self._latency_skip -= 1
            return
        self._latency_skip = self._latency_stride - 1
        lat = self._latencies
        lat.append(value)
        if len(lat) > self._latency_cap:
            del lat[::2]
            self._latency_stride *= 2

    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: float,
        *,
        on_sent: Callable[[tuple[float, float]], None] | None = None,
        extra_latency: float = 0.0,
        kind: str = "wire",
        tx_term: str = "B4",
        rx_term: str = "B1",
        label: str = "",
    ) -> Event:
        """Carry ``nbytes`` from ``src`` to ``dst``.

        Returns the *arrival* event (RX side complete).  ``on_sent`` fires
        when the sender-side transmission (TX) finishes — what a blocking
        send waits for.  ``extra_latency`` adds per-message switch latency
        (fault-plan jitter).  Self-sends are free (local memory),
        completing immediately.

        ``kind``/``tx_term``/``rx_term``/``label`` control the trace
        intervals recorded on the ``nic_tx``/``nic_rx``/``link`` lanes:
        data messages default to the paper's B4 (send wire) and B1
        (receive wire) terms; the reliability layer passes ``kind="ack"``
        with empty terms for its NIC-level ack frames.
        """
        self._check_node(src, "src")
        self._check_node(dst, "dst")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")
        submitted_at = self.sim.now

        if src == dst:
            # Loopback never touches a NIC or the wire: account it
            # separately so `messages`/`bytes`/`tx_bytes`/`rx_bytes`
            # describe real fabric traffic only.
            self.loopback_messages += 1
            self.loopback_bytes += nbytes
            done = Event(self.sim, name="loopback")
            now = submitted_at
            if on_sent is not None:
                self.sim.schedule_call(0.0, on_sent, (now, now))
            self.sim.schedule_call(0.0, done.trigger, (now, now))
            return done

        self.messages_carried += 1
        self.bytes_carried += nbytes
        self.tx_bytes[src] += nbytes
        self.rx_bytes[dst] += nbytes

        wire = self.machine.transmit_time(nbytes)
        if self.faults is not None:
            wire *= self.faults.wire_factor(src, dst, submitted_at)
        latency = self.machine.network_latency + extra_latency
        arrival = Event(self.sim, name="arrival")
        trace = self.trace if self.trace is not None and self.trace.enabled else None
        lane_label = (label or f"{src}->{dst}") if trace is not None else ""
        route = self.topology.route(src, dst) if self.routed else ()

        def finish_rx(tx_start: float, ready_at: float) -> None:
            # Receiver half: occupy rx[dst] from ``ready_at``, then trace
            # the B1 and in-flight intervals and sample the latency.
            def on_arrival(interval: tuple) -> None:
                rx_start, arr_end = interval
                if trace is not None:
                    if arr_end > rx_start:
                        trace.add(dst, kind, rx_start, arr_end, lane_label,
                                  resource="nic_rx", term=rx_term)
                    if arr_end > tx_start:
                        trace.add(src, "in_flight", tx_start, arr_end,
                                  lane_label, resource="link", term="")
                self._record_latency(arr_end - submitted_at)
                arrival.trigger(interval)

            self.rx[dst].submit_call(wire, on_arrival, not_before=ready_at)

        def forward(hop_idx: int, tx_start: float, ready_at: float) -> None:
            # Store-and-forward over the route: each directed link is a
            # FIFO server; the message occupies it for its per-link wire
            # time, then moves on after the topology's hop latency.
            if hop_idx >= len(route):
                finish_rx(tx_start, ready_at + latency)
                return
            lid = route[hop_idx]
            hop_wire = wire * self.topology.link_time_scale(lid)
            self.hops_routed += 1
            self.link_messages[lid] += 1
            self.link_bytes[lid] += nbytes

            def after_hop(interval: tuple) -> None:
                h_start, h_end = interval
                if trace is not None and h_end > h_start:
                    trace.add(src, "hop", h_start, h_end,
                              f"{lane_label} @{self.topology.link_name(lid)}",
                              resource="link", term="")
                forward(hop_idx + 1, tx_start,
                        h_end + self.topology.hop_latency)

            self.links[lid].submit_call(hop_wire, after_hop,
                                        not_before=ready_at)

        def after_tx(interval: tuple) -> None:
            start, end = interval
            if trace is not None and end > start:
                trace.add(src, kind, start, end, lane_label,
                          resource="nic_tx", term=tx_term)
            if on_sent is not None:
                on_sent((start, end))
            if route:
                forward(0, start, end + self.topology.hop_latency)
            else:
                finish_rx(start, end + latency)

        self.tx[src].submit_call(wire, after_tx)
        return arrival

    def stats(self) -> dict:
        """Aggregate traffic statistics: totals, per-node bytes, the
        wire-level message latency distribution (submission → arrival,
        with interpolated median/p95/p99), and the reliability layer's
        retransmit/duplicate counters.  When the latency sample was
        stride-decimated (:meth:`cap_latency_samples`), the quantiles are
        approximate and ``latency_stride`` says by how much; min and max
        stay exact."""
        lat = sorted(self._latencies)
        n = len(lat)
        out = {
            "messages": self.messages_carried,
            "bytes": self.bytes_carried,
            "tx_bytes": tuple(self.tx_bytes),
            "rx_bytes": tuple(self.rx_bytes),
            "loopback_messages": self.loopback_messages,
            "loopback_bytes": self.loopback_bytes,
            "latency_min": self._latency_min if self._latency_count else 0.0,
            "latency_median": _quantile(lat, 0.5),
            "latency_p95": _quantile(lat, 0.95),
            "latency_p99": _quantile(lat, 0.99),
            "latency_max": self._latency_max if self._latency_count else 0.0,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
        }
        if self._latency_stride > 1:
            out["latency_stride"] = self._latency_stride
        if self.routed:
            out["topology"] = self.topology.name
            out["hops"] = self.hops_routed
            out["link_messages"] = tuple(self.link_messages)
            out["link_bytes"] = tuple(self.link_bytes)
        return out

    def _check_node(self, node: int, name: str) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"{name}={node} outside [0, {self.num_nodes})"
            )

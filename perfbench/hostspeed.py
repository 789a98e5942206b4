"""Host speed probe, for end-to-end times in reference-host seconds.

The benchmark host is shared, and its speed drifts by up to 2x within
minutes, far more than the bounds a change is judged by.  The drift
moves every CPU-bound program on the host alike: over the several
commands of one run, median wall times tracked the median of this
probe, while the scatter of single commands did not.  So every untraced
command is bracketed by :func:`probe`, a fixed pure-Python event loop
(heap pushes and pops over slotted objects, the DES core's own kind of
work) run on every CPU at once, as the pooled and sharded workloads use
them.  It imports nothing from ``repro``, so no change to the program
can move it.  End-to-end times are reported multiplied by
``PROBE_REF_S / median(probes)``: seconds on a host where the probe
takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import heapq
import os
import statistics
import struct
import time

__all__ = ["PROBE_REF_S", "probe"]

#: Probe time on the reference host (about its median on a 2-vCPU
#: Xeon VM, so scaled times read close to the ones measured there).
PROBE_REF_S = 0.47


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: int):
        self.key = key
        self.count = 0


def _loop(steps: int) -> float:
    start = time.perf_counter()
    queue = [(0.0, k, _Item(k)) for k in range(64)]
    heapq.heapify(queue)
    for i in range(steps):
        t, _, item = heapq.heappop(queue)
        item.count += 1
        heapq.heappush(queue, (t + (i * 7919 % 1000) * 1e-6, i + 64, item))
    return time.perf_counter() - start


def probe(steps: int = 500_000) -> float:
    """Mean seconds the loop takes on each CPU, all CPUs at once.

    Call it with no other thread running: the forked copies run only
    the loop and ``os._exit``."""
    r, w = os.pipe()
    pids = []
    try:
        for _ in range(len(os.sched_getaffinity(0)) - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    os.write(w, struct.pack("d", _loop(steps)))
                finally:
                    os._exit(0)
            pids.append(pid)
        os.close(w)
        times = [_loop(steps)]
        for pid in pids:
            os.waitpid(pid, 0)
        data = os.read(r, 8 * len(pids))
    finally:
        os.close(r)
    times.extend(t for (t,) in struct.iter_unpack("d", data))
    return statistics.mean(times)

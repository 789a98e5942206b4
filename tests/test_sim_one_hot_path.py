"""Lint-style guard: the message layer holds no copy of the scheduler.

``repro.sim.mpi`` places every hardware leg through
``FifoResource.submit_call`` and every CPU charge through
``Simulator.schedule_call``.  It must not reach into the event queue
(``heappush``, ``sim._dq``, ``sim._heap``, ``sim._seq``) or a resource's
server frontiers (``r._free_at``) itself: each such line is a second
copy of a kernel primitive that has to be kept bit-identical by hand.
A change that re-inlines one has to edit this test and quote the A/B
ratio (``scripts/bench.py core --ab``, beside its null lane) that pays
for it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.sim.mpi as mpi_mod

#: Scheduler and FIFO internals, matched as exact attribute names so
#: ``World._msg_seq`` and ``_Message.stream_seq`` stay legal.
FORBIDDEN_ATTRS = {"_dq", "_heap", "_seq", "_free_at"}
FORBIDDEN_NAMES = {"heappush"}


def _offences(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in FORBIDDEN_NAMES:
            found.append(f"import of {node.name}")
    return found


def test_mpi_has_no_scheduler_or_fifo_internals():
    source = Path(mpi_mod.__file__).read_text()
    assert _offences(source) == []


def test_guard_catches_each_internal_and_spares_lookalikes():
    inlined = (
        "from heapq import heappush\n"
        "def leg(sim, r, entry):\n"
        "    heappush(sim._heap, entry)\n"
        "    sim._dq.append(entry)\n"
        "    sim._seq += 1\n"
        "    return r._free_at\n"
    )
    assert len(_offences(inlined)) == 6
    lookalikes = (
        "def make(w, msg):\n"
        "    w._msg_seq += 1\n"
        "    return msg.stream_seq, w._stream_next_seq, msg.seq\n"
    )
    assert _offences(lookalikes) == []

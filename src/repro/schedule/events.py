"""Per-step event expansion of a tile schedule.

Expands a (non)overlapping schedule over a tiled space into explicit
per-processor, per-step activities — which tile is computed, which
results are sent where, which inputs are received — mirroring the
structure of the paper's Figures 1 and 2.  Intended for visualisation and
for property tests of the pipelined data flow; the SPMD runtime builds
its programs directly from the mapping instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.schedule.nonoverlap import NonoverlapSchedule
from repro.schedule.overlap import OverlapSchedule

__all__ = ["StepEvents", "cross_processor_deps", "expand_events"]

TileSchedule = Union[NonoverlapSchedule, OverlapSchedule]


@dataclass
class StepEvents:
    """What one processor does during one time step.

    ``sends`` are ``(dest_rank, produced_tile, consumer_tile)`` triples;
    ``recvs`` are ``(src_rank, producer_tile, for_tile)`` triples.
    """

    rank: int
    step: int
    compute: tuple[int, ...] | None = None
    sends: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )
    recvs: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )


def cross_processor_deps(schedule: TileSchedule) -> tuple[tuple[int, ...], ...]:
    """Supernode dependences that leave the processor (non-zero outside
    the mapped dimension)."""
    md = schedule.mapped_dim
    return tuple(
        d
        for d in schedule.supernode_deps.vectors
        if any(x != 0 for k, x in enumerate(d) if k != md)
    )


def _consumers(
    schedule: TileSchedule, tile: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """(dest_rank, consumer_tile) pairs fed by ``tile`` across processors."""
    ts = schedule.tiled_space
    out = []
    for d in cross_processor_deps(schedule):
        consumer = tuple(a + b for a, b in zip(tile, d))
        if ts.contains(consumer):
            out.append((schedule.mapping.rank_of_tile(consumer), consumer))
    return out


def expand_events(schedule: TileSchedule) -> dict[tuple[int, int], StepEvents]:
    """Expand the schedule into ``(rank, step) → StepEvents``.

    Non-overlapping semantics: at ``step_of(t)`` the owner receives t's
    inputs, computes t, and sends t's results — all in that step.

    Overlapping semantics: at ``step_of(t)`` the owner computes t; the
    *send* of t's results happens at ``step_of(t) + 1`` and the matching
    *receive* at the consumer happens in that same step
    (``step_of(consumer) − 1``, since cross-processor dependences advance
    the overlap hyperplane by exactly 2).
    """
    overlap = isinstance(schedule, OverlapSchedule)
    events: dict[tuple[int, int], StepEvents] = {}

    def ev(rank: int, step: int) -> StepEvents:
        key = (rank, step)
        if key not in events:
            events[key] = StepEvents(rank=rank, step=step)
        return events[key]

    for tile in schedule.tiled_space.tiles():
        rank = schedule.mapping.rank_of_tile(tile)
        step = schedule.step_of(tile)
        ev(rank, step).compute = tile
        for dest_rank, consumer in _consumers(schedule, tile):
            send_step = step + 1 if overlap else step
            recv_step = (
                schedule.step_of(consumer) - 1
                if overlap
                else schedule.step_of(consumer)
            )
            ev(rank, send_step).sends.append((dest_rank, tile, consumer))
            ev(dest_rank, recv_step).recvs.append((rank, tile, consumer))
    return events

"""Lint-style guard: hot-path simulator classes must stay ``__dict__``-free.

Every class below is instantiated (or touched) once per simulated event
or per simulated message.  A single forgotten ``__slots__`` — or a new
attribute assigned outside the declared slots, or a base class without
``__slots__ = ()`` — silently re-grows a per-instance ``__dict__`` and
with it most of the allocation cost the zero-allocation hot path
removed.  ``cls.__dictoffset__ == 0`` is the authoritative check: it is
nonzero iff instances carry a ``__dict__``, however it was acquired
(own class, or inherited from any base).
"""

from __future__ import annotations

import inspect

import pytest

import repro.sim.collectives as collectives_mod
import repro.sim.core as core_mod
import repro.sim.mpi as mpi_mod
from repro.sim.core import (
    AllOf,
    Effect,
    Event,
    Process,
    Simulator,
    Timeout,
    WaitEvent,
)
from repro.sim.faults import (
    Degradation,
    FaultPlan,
    LinkFaults,
    MessageFate,
    NodePause,
    Straggler,
)
from repro.sim.mpi import RecvRequest, Rank, SendRequest
from repro.sim.network import Network
from repro.sim.reliable import (
    ReliableConfig,
    ReliableStats,
    ReliableTransport,
    _Transfer,
)
from repro.sim.resources import FifoResource
from repro.sim.tracing import Trace, TraceRecord

#: Classes on the per-event / per-message hot path.  Private classes are
#: reached through their modules so renames fail loudly here instead of
#: silently dropping coverage.
HOT_PATH_CLASSES = [
    # core event loop
    Effect,
    Event,
    Timeout,
    WaitEvent,
    AllOf,
    Process,
    Simulator,
    # resources / network / tracing singletons touched per event
    FifoResource,
    Network,
    Trace,
    TraceRecord,
    # message layer
    mpi_mod._Message,
    mpi_mod._WaitFrame,
    SendRequest,
    RecvRequest,
    Rank,
    mpi_mod._ComputeEffect,
    mpi_mod._IsendEffect,
    mpi_mod._SendEffect,
    mpi_mod._IrecvEffect,
    mpi_mod._RecvEffect,
    mpi_mod._WaitEffect,
    mpi_mod._BarrierEffect,
    collectives_mod.CollectiveEffect,
    # reliability layer (per message under ARQ)
    ReliableConfig,
    ReliableStats,
    ReliableTransport,
    _Transfer,
    # fault plan records (consulted per message)
    LinkFaults,
    Degradation,
    Straggler,
    NodePause,
    MessageFate,
    FaultPlan,
]


@pytest.mark.parametrize(
    "cls", HOT_PATH_CLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_hot_path_class_has_no_dict(cls):
    assert cls.__dictoffset__ == 0, (
        f"{cls.__module__}.{cls.__qualname__} instances carry a __dict__ — "
        f"a hot-path class (or one of its bases) lost its __slots__"
    )


def test_every_effect_subclass_is_slotted():
    """Sweep: any Effect subclass defined in the sim package must be
    ``__dict__``-free — new effects are hot by construction (one instance
    per program step) and must not silently regress."""
    seen = set()
    for mod in (core_mod, mpi_mod, collectives_mod):
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if (
                issubclass(cls, Effect)
                and cls.__module__.startswith("repro.sim.")
            ):
                seen.add(cls)
    assert len(seen) >= 8, "Effect sweep lost its subjects — check imports"
    offenders = sorted(
        f"{c.__module__}.{c.__qualname__}"
        for c in seen
        if c.__dictoffset__ != 0
    )
    assert not offenders, f"Effect subclasses with a __dict__: {offenders}"


def test_slots_actually_reject_stray_attributes():
    """The guard above is only meaningful if attribute injection really
    fails — prove it on a pooled message record."""
    sim = Simulator()
    res = FifoResource(sim, "x")
    with pytest.raises(AttributeError):
        res.scratch = 1  # type: ignore[attr-defined]
    ev = Event(sim)
    with pytest.raises(AttributeError):
        ev.scratch = 1  # type: ignore[attr-defined]

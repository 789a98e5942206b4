"""Persistent content-addressed cache of simulation outcomes.

Every figure/table/campaign regeneration re-runs the same deterministic
simulations; the simulator's bit-identical replays make their outcomes
perfectly cacheable.  This module stores the *scalar* outcome of one
``run_tiled`` call (completion time, message count, grain, network
stats — not traces or numeric arrays) in a JSON file named by a stable
SHA-256 of everything that determines it:

* the workload timing fingerprint — kernel name, read offsets, boundary
  value, extents, processor grid, mapped dimension (the combine function
  itself never affects timing, only numeric values, which are not
  cached);
* every machine parameter;
* the tile height ``V`` and the schedule;
* how the result was produced (full simulation, or a fault-injected
  chaos run with its chaos version and spec);
* ``CACHE_SCHEMA_VERSION`` — **bump this whenever simulator semantics
  change**, so stale entries are orphaned rather than served.

Corrupted or unreadable entries are treated as misses (the simulation
re-runs); all I/O failures are swallowed so a read-only or full disk can
never break an experiment.  The default location is
``$REPRO_CACHE_DIR`` or ``~/.cache/repro/simcache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass, field

from repro.kernels.workloads import StencilWorkload
from repro.model.machine import Machine

__all__ = [
    "CacheStats",
    "SimCache",
    "default_cache_dir",
    "key_digest",
    "run_key",
]

CACHE_SCHEMA_VERSION = 1


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/simcache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "simcache"


def run_key(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    blocking: bool,
    method: str = "sim",
    extra: dict | None = None,
) -> dict:
    """The pure-data key spec of one simulated run.

    ``method`` distinguishes result provenance ("sim" for full
    simulation, "chaos<version>" for fault-injected) so numbers from
    different kinds of run never collide.  ``extra`` merges additional determining data (e.g. a
    fault plan) into the key; ``None`` adds nothing, so keys without it
    keep their pre-existing digests.
    """
    spec = {
        "schema": CACHE_SCHEMA_VERSION,
        "kernel": workload.kernel.name,
        "read_offsets": [list(o) for o in workload.kernel.read_offsets],
        "boundary_value": workload.kernel.boundary_value,
        "extents": list(workload.space.extents),
        "procs_per_dim": list(workload.procs_per_dim),
        "mapped_dim": workload.mapped_dim,
        "machine": asdict(machine),
        "v": v,
        "blocking": blocking,
        "method": method,
    }
    if extra is not None:
        spec["extra"] = extra
    return spec


def key_digest(spec: dict) -> str:
    """The stable SHA-256 content address of one run-key spec — the
    entry filename stem, and the key run journals record."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_digest = key_digest


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance.

    ``corrupt`` counts entries that existed on disk but failed to parse
    — truncated or half-written JSON, the signature of a crash or disk
    fault mid-write.  Each one also counts in ``errors`` (any I/O or
    decode problem) and ``misses`` (the simulation re-runs), but the
    dedicated counter is the warning signal: a nonzero value on a
    healthy disk means writes are being interrupted.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses"
            f" ({self.stores} stored, {self.errors} I/O errors, "
            f"{self.corrupt} corrupt entries)"
        )


@dataclass
class SimCache:
    """On-disk JSON cache of simulation outcomes, one file per entry.

    Entries are content-addressed (`sha256` of the canonical key spec),
    so concurrent writers of the same key write the same bytes and
    different keys never contend.  Lookups never raise: any I/O or
    decode problem counts as a miss (and bumps ``stats.errors``).
    """

    path: pathlib.Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.path = pathlib.Path(self.path)

    def _entry_path(self, spec: dict) -> pathlib.Path:
        h = _digest(spec)
        return self.path / h[:2] / f"{h}.json"

    def get(self, spec: dict) -> dict | None:
        """The stored payload for ``spec``, or None on miss/corruption."""
        p = self._entry_path(spec)
        try:
            raw = p.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw)
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise TypeError("payload must be an object")
        except (ValueError, KeyError, TypeError):
            # Corrupted (e.g. half-written) entry: fall back to
            # simulation, never crash.
            self.stats.misses += 1
            self.stats.errors += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, spec: dict, payload: dict) -> None:
        """Store ``payload`` under ``spec``; I/O failures are swallowed."""
        p = self._entry_path(spec)
        try:
            p.parent.mkdir(parents=True, exist_ok=True)
            tmp = p.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps({"spec": spec, "payload": payload}))
            tmp.replace(p)
            self.stats.stores += 1
        except OSError:
            self.stats.errors += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.path.exists():
            return 0
        for f in self.path.glob("*/*.json"):
            try:
                f.unlink()
                removed += 1
            except OSError:
                self.stats.errors += 1
        return removed

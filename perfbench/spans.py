"""Span recorder for the benchmark's traced run.

A :class:`Recorder` keeps nested wall-clock spans aggregated per name —
inclusive time, self time (inclusive minus the time covered by child
spans) and count — plus named counters.  Aggregates, not raw spans, are
kept: they are all the per-layer metrics need, they cost O(layers)
memory however many windows or tasks run, and they merge across
processes by plain summation.

One recorder lives in each process.  A forked child inherits a copy of
its parent's recorder, so the child entry wrappers call :meth:`reset`
before recording; every child then ships its aggregate home with
:meth:`dump` into a directory the parent reads back with
:func:`load_dir` and folds together with :func:`merge`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

__all__ = ["Recorder", "load_dir", "merge"]


class Recorder:
    """Per-process span aggregates and counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: name -> [inclusive_ns, self_ns, count]
        self.spans: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, start_ns, child_ns]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        self._close(name, time.perf_counter_ns() - start, child)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed by the caller; it nests under the
        innermost open span like any other."""
        self._close(name, end_ns - start_ns, 0)

    def _close(self, name: str, duration: int, child: int) -> None:
        agg = self.spans.setdefault(name, [0, 0, 0])
        agg[0] += duration
        agg[1] += duration - child
        agg[2] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
        }

    def dump(self, directory: str) -> None:
        """Write this process's snapshot to ``directory`` (atomically, so
        a reader never sees half a file)."""
        path = os.path.join(directory, f"spans-{os.getpid()}-{time.monotonic_ns()}.json")
        tmp = path + ".part"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def load_dir(directory: str) -> list[dict]:
    """Every snapshot the children dumped into ``directory``."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                out.append(json.load(fh))
    return out


def merge(snapshots: list[dict]) -> dict:
    """Sum span aggregates and counters over several snapshots."""
    spans: dict[str, list[int]] = {}
    counters: dict[str, float] = {}
    for snap in snapshots:
        for name, (incl, self_ns, n) in snap["spans"].items():
            agg = spans.setdefault(name, [0, 0, 0])
            agg[0] += incl
            agg[1] += self_ns
            agg[2] += n
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"processes": len(snapshots), "spans": spans, "counters": counters}

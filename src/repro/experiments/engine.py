"""Fast sweep engine: parallel fan-out and a persistent result cache.

Every figure, table and campaign in this reproduction is a batch of
independent ``run_tiled`` calls — one per (tile height, schedule) pair.
The :class:`Engine` accelerates such batches two ways, both composable
and both bit-identical to the serial path:

1. **Parallel fan-out** — independent runs are distributed over a
   supervised worker pool (``jobs`` workers, default ``os.cpu_count()``)
   with deterministic result ordering.  The simulator is bit-identical
   across replays, so parallel results equal serial results exactly.
2. **Persistent caching** — outcomes are stored in a content-addressed
   on-disk :class:`~repro.experiments.cache.SimCache`; repeated
   benchmark/campaign runs skip re-simulation entirely.

Every miss is a full simulation: the engine never extrapolates.

The pool is *supervised* by default (:mod:`repro.experiments.supervisor`):
worker crashes, hangs and preemptions are recovered by respawn + retry,
and a task that repeatedly kills its worker is quarantined as a
structured outcome instead of aborting the batch.  ``supervised=False``
falls back to a plain ``ProcessPoolExecutor`` (the pre-supervision
behaviour, kept for overhead benchmarking).

Batches are also *resumable*: give the engine a
:class:`~repro.experiments.journal.RunJournal` and every completed run
is appended to an fsynced JSONL file the moment it finishes; a killed
sweep restarted with the same journal re-simulates only the missing
runs (CLI: ``--resume``).

Clean batches (:meth:`Engine.run_batch_outcomes`) and chaos batches
(:meth:`Engine.run_chaos_batch`) share one pipeline — journal, cache,
fan-out or in-process run, store — and differ only in their cache key
and their worker.

Workloads are shipped to worker processes as pure-data specs (kernel
registry name + extents + grid), since kernels carry closures that do
not pickle.  Workloads whose kernel is not registered (see
:func:`register_kernel`) transparently fall back to in-process
execution — same results, no parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from repro.ir.loopnest import IterationSpace
from repro.kernels.library import (
    anisotropic_3d,
    binomial_2d,
    gauss_seidel_2d,
    lcs_kernel_2d,
    sum_kernel_4d,
)
from repro.kernels.stencil import StencilKernel, sqrt_kernel_3d, sum_kernel_2d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import Machine
from repro.runtime.executor import ExecutionResult, run_tiled
from repro.sim.tracing import Trace

from repro.experiments.cache import SimCache, key_digest, run_key
from repro.experiments.journal import RunJournal
from repro.experiments.supervisor import (
    HarnessChaosPlan,
    PoisonTaskError,
    PoolStats,
    RetryPolicy,
    SupervisedPool,
    TaskOutcome,
)

__all__ = ["Engine", "RunReport", "register_kernel", "registered_kernels"]

# -- kernel registry (cross-process workload reconstruction) -----------------

_KERNEL_FACTORIES: dict[str, Callable[[], StencilKernel]] = {}


def register_kernel(factory: Callable[[], StencilKernel]) -> None:
    """Register a no-argument kernel factory under its kernel's ``name``
    so workloads using it can be fanned out to worker processes."""
    _KERNEL_FACTORIES[factory().name] = factory


def registered_kernels() -> tuple[str, ...]:
    """Names of kernels reconstructible in worker processes."""
    return tuple(sorted(_KERNEL_FACTORIES))


register_kernel(sum_kernel_2d)
register_kernel(sqrt_kernel_3d)
register_kernel(gauss_seidel_2d)
register_kernel(binomial_2d)
register_kernel(lcs_kernel_2d)
register_kernel(anisotropic_3d)
register_kernel(sum_kernel_4d)


# -- worker-side execution ---------------------------------------------------


def _run_payload(
    workload: StencilWorkload,
    v: int,
    machine: Machine,
    *,
    blocking: bool,
    max_events: int,
) -> dict:
    """The pure-data outcome of one run — the unit both the serial path
    and the pool workers execute, and the value the cache stores."""
    res = run_tiled(workload, v, machine, blocking=blocking,
                    max_events=max_events)
    stats = dict(res.network_stats)
    for key in ("tx_bytes", "rx_bytes"):
        if key in stats:
            stats[key] = list(stats[key])
    return {
        "completion_time": res.completion_time,
        "messages_sent": res.messages_sent,
        "grain": res.grain,
        "network_stats": stats,
        "method": "sim",
    }


def _workload_from_task(task: dict) -> StencilWorkload:
    return StencilWorkload(
        name=task["name"],
        space=IterationSpace.from_extents(list(task["extents"])),
        kernel=_KERNEL_FACTORIES[task["kernel"]](),
        procs_per_dim=tuple(task["procs_per_dim"]),
        mapped_dim=task["mapped_dim"],
    )


def _pool_worker(task: dict) -> dict:
    """Top-level pool target: rebuild the workload/machine, run, return
    the payload dict (cheap to pickle — no traces, no arrays)."""
    return _run_payload(
        _workload_from_task(task),
        task["v"],
        Machine(**task["machine"]),
        blocking=task["blocking"],
        max_events=task["max_events"],
    )


def _chaos_pool_worker(task: dict) -> dict:
    """Top-level pool target for chaos runs: rebuild, execute the chaos
    spec, return the scalar outcome (digests instead of arrays)."""
    from repro.experiments.chaos import chaos_payload

    return chaos_payload(
        _workload_from_task(task),
        task["v"],
        Machine(**task["machine"]),
        task["spec"],
        max_events=task["max_events"],
    )


# -- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Per-run outcome of :meth:`Engine.run_batch_outcomes`.

    ``source`` says where the payload came from: ``"journal"`` (resumed
    from a :class:`~repro.experiments.journal.RunJournal`), ``"cache"``
    (the persistent :class:`SimCache`) or ``"sim"`` (freshly simulated
    this call).  ``outcome`` carries the supervisor's per-task record
    for pool-executed runs (``None`` for served/in-process runs);
    ``result`` is ``None`` exactly when the run ultimately failed.
    """

    v: int
    blocking: bool
    digest: str
    source: str
    result: ExecutionResult | None
    outcome: TaskOutcome | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class Engine:
    """Accelerated executor for batches of independent simulated runs.

    Parameters
    ----------
    jobs:
        Worker processes for the parallel fan-out; ``None`` means
        ``os.cpu_count()``.  ``1`` runs everything in-process (caching
        still applies).
    cache:
        A :class:`SimCache`, or ``None`` to disable persistent caching.
    supervised:
        Run the worker pool under the crash/hang supervisor (default).
        ``False`` restores the plain ``ProcessPoolExecutor`` fan-out,
        where one worker death aborts the batch.
    task_timeout:
        Wall-clock budget per pool task (supervised mode); ``None``
        (default) relies on heartbeat monitoring alone.
    retry:
        :class:`~repro.experiments.supervisor.RetryPolicy` for crashed or
        timed-out pool tasks.
    journal:
        A :class:`~repro.experiments.journal.RunJournal`; completed runs
        are appended as they finish and served back on resume, before
        the cache is even consulted.
    harness_chaos:
        A :class:`~repro.experiments.supervisor.HarnessChaosPlan` that
        deterministically kills/freezes pool workers — test and CI use
        only.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: SimCache | None = None,
        *,
        supervised: bool = True,
        task_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        journal: RunJournal | None = None,
        harness_chaos: HarnessChaosPlan | None = None,
        heartbeat: float = 0.25,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.supervised = supervised
        self.task_timeout = task_timeout
        self.retry = retry
        self.journal = journal
        self.harness_chaos = harness_chaos
        self.heartbeat = heartbeat
        #: Lifetime supervision accounting across every pool batch.
        self.supervisor_stats = PoolStats()

    # -- public API ----------------------------------------------------------

    def run_tiled(
        self,
        workload: StencilWorkload,
        v: int,
        machine: Machine,
        *,
        blocking: bool,
        numeric: bool = False,
        trace: bool = False,
        max_events: int = 50_000_000,
    ) -> ExecutionResult:
        """Engine-accelerated drop-in for :func:`repro.runtime.executor.run_tiled`.

        Numeric and traced runs bypass the cache (their outputs are not
        scalar) and run in-process.
        """
        if numeric or trace:
            return run_tiled(workload, v, machine, blocking=blocking,
                             numeric=numeric, trace=trace,
                             max_events=max_events)
        return self.run_batch(workload, machine, [(v, blocking)],
                              max_events=max_events)[0]

    def run_batch(
        self,
        workload: StencilWorkload,
        machine: Machine,
        pairs: Sequence[tuple[int, bool]],
        *,
        max_events: int = 50_000_000,
    ) -> list[ExecutionResult]:
        """Run every ``(v, blocking)`` pair; results in input order.

        Journal and cache hits are served without simulation; misses are
        fanned out across the worker pool (or run in-process when
        ``jobs == 1`` or the kernel is not registered) and stored back.
        Raises :class:`PoisonTaskError` if any run ultimately failed
        under supervision — *after* every healthy run has been computed,
        cached and journaled, so a retry resumes from the survivors.
        """
        reports = self.run_batch_outcomes(
            workload, machine, pairs, max_events=max_events
        )
        failed = [r.outcome for r in reports if not r.ok]
        if failed:
            raise PoisonTaskError([o for o in failed if o is not None])
        return [r.result for r in reports]

    def run_batch_outcomes(
        self,
        workload: StencilWorkload,
        machine: Machine,
        pairs: Sequence[tuple[int, bool]],
        *,
        max_events: int = 50_000_000,
    ) -> list[RunReport]:
        """Like :meth:`run_batch`, but never raises for failed runs:
        every pair gets a structured :class:`RunReport` (source, result,
        supervisor outcome) in input order."""
        keys = [run_key(workload, v, machine, blocking=blocking)
                for v, blocking in pairs]
        digests, sources, payloads, outcomes = self._serve_run_store(
            workload, keys, _pool_worker,
            task=lambda k: self._task(workload, machine, *pairs[k],
                                      max_events),
            local=lambda k: _run_payload(
                workload, pairs[k][0], machine, blocking=pairs[k][1],
                max_events=max_events,
            ),
        )
        return [
            RunReport(
                v=v,
                blocking=blocking,
                digest=digest,
                source=source,
                result=(
                    self._to_result(workload, v, blocking, payload)
                    if payload is not None
                    else None
                ),
                outcome=outcome,
            )
            for (v, blocking), digest, source, payload, outcome in zip(
                pairs, digests, sources, payloads, outcomes
            )
        ]

    def run_chaos_batch(
        self,
        workload: StencilWorkload,
        v: int,
        machine: Machine,
        specs: Sequence[dict],
        *,
        max_events: int = 50_000_000,
    ) -> list[dict]:
        """Run every chaos spec (see :func:`repro.experiments.chaos.chaos_spec`);
        payload dicts in input order.

        Chaos runs are deterministic in the fault-plan seed, so they
        cache and fan out exactly like clean runs; the spec itself is
        folded into the cache key (``method="chaos<version>"``).  Numeric
        results cross process boundaries as SHA-256 digests, never as
        arrays.  Like :meth:`run_batch`, raises :class:`PoisonTaskError`
        only after every healthy run has been cached and journaled.
        """
        from repro.experiments.chaos import CHAOS_VERSION, chaos_payload

        keys = [
            run_key(workload, v, machine, blocking=spec["blocking"],
                    method=f"chaos{CHAOS_VERSION}", extra=spec)
            for spec in specs
        ]
        _, _, payloads, outcomes = self._serve_run_store(
            workload, keys, _chaos_pool_worker,
            task=lambda k: {
                **self._task(workload, machine, v, specs[k]["blocking"],
                             max_events),
                "spec": specs[k],
            },
            local=lambda k: chaos_payload(workload, v, machine, specs[k],
                                          max_events=max_events),
        )
        failed = [o for o in outcomes if o is not None and not o.ok]
        if failed:
            raise PoisonTaskError(failed)
        return payloads  # type: ignore[return-value]

    # -- internals -----------------------------------------------------------

    def _serve_run_store(
        self,
        workload: StencilWorkload,
        keys: Sequence[dict],
        worker: Callable[[dict], dict],
        *,
        task: Callable[[int], dict],
        local: Callable[[int], dict],
    ) -> tuple[list[str], list[str], list[dict | None],
               list[TaskOutcome | None]]:
        """The one batch pipeline behind clean and chaos batches.

        Serves each run-key spec in ``keys`` from the journal, else the
        cache; runs the misses — ``worker(task(k))`` fanned over the
        pool when ``jobs > 1``, there are several misses and the kernel
        is registered, else ``local(k)`` in-process — and stores every
        healthy fresh payload in the cache and the journal.  In-process
        runs are unsupervised: a failure there raises, as it would in a
        serial run.

        Returns, per key in input order: the digest, the source
        (``"journal"``, ``"cache"`` or ``"sim"``), the payload (``None``
        exactly when the run failed) and the supervisor outcome
        (``None`` for served runs).
        """
        digests = [key_digest(key) for key in keys]
        payloads: list[dict | None] = [None] * len(keys)
        sources = ["sim"] * len(keys)
        for k, (key, digest) in enumerate(zip(keys, digests)):
            if self.journal is not None:
                payloads[k] = self.journal.get(digest)
                if payloads[k] is not None:
                    sources[k] = "journal"
                    continue
            if self.cache is not None:
                payloads[k] = self.cache.get(key)
                if payloads[k] is not None:
                    sources[k] = "cache"
                    if self.journal is not None:
                        self.journal.record(digest, payloads[k])

        miss_idx = [k for k, p in enumerate(payloads) if p is None]
        if (
            self.jobs > 1
            and len(miss_idx) > 1
            and workload.kernel.name in _KERNEL_FACTORIES
        ):
            fresh = self._pooled(worker, [task(k) for k in miss_idx],
                                 [digests[k] for k in miss_idx])
        else:
            fresh = [
                TaskOutcome(index=i, key=digests[k], status="ok",
                            result=local(k), attempts=1, history=("ok",))
                for i, k in enumerate(miss_idx)
            ]
        outcomes: list[TaskOutcome | None] = [None] * len(keys)
        for k, out in zip(miss_idx, fresh):
            outcomes[k] = out
            if not out.ok:
                continue
            payloads[k] = out.result
            if self.cache is not None:
                self.cache.put(keys[k], out.result)
            if self.journal is not None:
                self.journal.record(digests[k], out.result)
        return digests, sources, payloads, outcomes

    def _task(self, workload: StencilWorkload, machine: Machine,
              v: int, blocking: bool, max_events: int) -> dict:
        return {
            "name": workload.name,
            "kernel": workload.kernel.name,
            "extents": list(workload.space.extents),
            "procs_per_dim": list(workload.procs_per_dim),
            "mapped_dim": workload.mapped_dim,
            "machine": asdict(machine),
            "v": v,
            "blocking": blocking,
            "max_events": max_events,
        }

    def _pooled(self, worker: Callable[[dict], dict], tasks: list[dict],
                keys: Sequence[str]) -> list[TaskOutcome]:
        """Fan tasks over the (supervised, by default) worker pool."""
        workers = min(self.jobs, len(tasks))
        if not self.supervised:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker, t) for t in tasks]
                results = [f.result() for f in futures]
            return [
                TaskOutcome(index=i, key=key, status="ok", result=r,
                            attempts=1, history=("ok",))
                for i, (key, r) in enumerate(zip(keys, results))
            ]
        with SupervisedPool(
            worker, workers,
            task_timeout=self.task_timeout, retry=self.retry,
            heartbeat=self.heartbeat, chaos=self.harness_chaos,
        ) as pool:
            outcomes = pool.run(tasks, keys=list(keys))
        self.supervisor_stats.merge(pool.stats)
        return outcomes

    def _to_result(self, workload: StencilWorkload, v: int, blocking: bool,
                   payload: dict) -> ExecutionResult:
        return ExecutionResult(
            workload_name=workload.name,
            v=v,
            grain=payload["grain"],
            blocking=blocking,
            completion_time=payload["completion_time"],
            messages_sent=payload["messages_sent"],
            mean_cpu_utilization=math.nan,
            trace=Trace(enabled=False),
            network_stats=payload.get("network_stats", {}),
        )

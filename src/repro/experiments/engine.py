"""Fast sweep engine: parallel fan-out, result cache, fast-forward.

Every figure, table and campaign in this reproduction is a batch of
independent ``run_tiled`` calls — one per (tile height, schedule) pair.
The :class:`Engine` accelerates such batches three ways, all composable
and all preserving the serial path's results:

1. **Parallel fan-out** — independent runs are distributed over a
   supervised worker pool (``jobs`` workers, default ``os.cpu_count()``)
   with deterministic result ordering.  The simulator is bit-identical
   across replays, so parallel results equal serial results exactly.
2. **Persistent caching** — outcomes are stored in a content-addressed
   on-disk :class:`~repro.experiments.cache.SimCache`; repeated
   benchmark/campaign runs skip re-simulation entirely.
3. **Steady-state fast-forward** (opt-in, ``fastforward=True``) — deep
   pipelines are simulated only through fill + a few steady periods and
   the rest extrapolated (:mod:`repro.sim.fastforward`).  Accurate to
   float round-off on periodic pipelines, with an automatic fallback to
   full simulation when periodicity checks fail and an optional
   ``validate`` mode that cross-checks against full simulation on small
   spaces.

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
from repro.sim.fastforward import (
    FASTFORWARD_VERSION,
    fastforward_eligible,
    fastforward_run,
)
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
    fastforward: bool,
    validate: bool,
    validate_max_tiles: int,
    validate_rtol: float,
    max_events: int,
) -> dict:
    """The pure-data outcome of one run — the unit both the serial path
    and the pool workers execute, and the value the cache stores."""
    if fastforward and fastforward_eligible(workload, v):
        report = fastforward_run(workload, v, machine, blocking=blocking,
                                 max_events=max_events)
        payload = {
            "completion_time": report.completion_time,
            "messages_sent": report.messages_sent,
            "grain": workload.grain(v),
            "network_stats": {},
            "method": f"ff{FASTFORWARD_VERSION}",
            "used_fastforward": report.used_fastforward,
            "period": report.period,
        }
        if (
            report.used_fastforward
            and validate
            and report.total_tiles <= validate_max_tiles
        ):
            ref = run_tiled(workload, v, machine, blocking=blocking,
                            max_events=max_events)
            err = abs(report.completion_time - ref.completion_time) / (
                ref.completion_time or 1.0
            )
            if err > validate_rtol:
                payload.update(
                    completion_time=ref.completion_time,
                    messages_sent=ref.messages_sent,
                    used_fastforward=False,
                    validation_error=err,
                )
        return payload
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
        "used_fastforward": False,
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
        fastforward=task["fastforward"],
        validate=task["validate"],
        validate_max_tiles=task["validate_max_tiles"],
        validate_rtol=task["validate_rtol"],
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
        and fast-forward still apply).
    cache:
        A :class:`SimCache`, or ``None`` to disable persistent caching.
    fastforward:
        Use steady-state extrapolation for deep pipelines (accurate to
        float round-off on periodic pipelines, auto-fallback otherwise).
        Off by default: the default engine is bit-identical to serial.
    validate:
        With ``fastforward``, cross-check extrapolated times against full
        simulation whenever the space is small enough
        (``validate_max_tiles``); mismatches beyond ``validate_rtol``
        fall back to the full-simulation number.
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
        fastforward: bool = False,
        validate: bool = False,
        validate_max_tiles: int = 96,
        validate_rtol: float = 1e-9,
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
        self.fastforward = fastforward
        self.validate = validate
        self.validate_max_tiles = validate_max_tiles
        self.validate_rtol = validate_rtol
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

        Numeric and traced runs bypass the cache and fast-forward (their
        outputs are not scalar) and run in-process.
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
        specs = [
            run_key(workload, v, machine, blocking=blocking,
                    method=self._method(workload, v))
            for v, blocking in pairs
        ]
        digests = [key_digest(spec) for spec in specs]
        payloads: list[dict | None] = [None] * len(pairs)
        sources = ["sim"] * len(pairs)
        for k, (spec, digest) in enumerate(zip(specs, digests)):
            if self.journal is not None:
                payloads[k] = self.journal.get(digest)
                if payloads[k] is not None:
                    sources[k] = "journal"
                    continue
            if self.cache is not None:
                payloads[k] = self.cache.get(spec)
                if payloads[k] is not None:
                    sources[k] = "cache"
                    if self.journal is not None:
                        self.journal.record(digest, payloads[k])

        miss_idx = [k for k, p in enumerate(payloads) if p is None]
        outcomes: list[TaskOutcome | None] = [None] * len(pairs)
        fresh = self._execute(workload, machine,
                              [pairs[k] for k in miss_idx],
                              [digests[k] for k in miss_idx], max_events)
        for k, out in zip(miss_idx, fresh):
            outcomes[k] = out
            if not out.ok:
                continue
            payloads[k] = out.result
            if self.cache is not None:
                self.cache.put(specs[k], out.result)
            if self.journal is not None:
                self.journal.record(digests[k], out.result)

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
        arrays.
        """
        from repro.experiments.chaos import CHAOS_VERSION, chaos_payload

        keys = [
            run_key(workload, v, machine, blocking=spec["blocking"],
                    method=f"chaos{CHAOS_VERSION}", extra=spec)
            for spec in specs
        ]
        digests = [key_digest(key) for key in keys]
        payloads: list[dict | None] = [None] * len(specs)
        for k, (key, digest) in enumerate(zip(keys, digests)):
            if self.journal is not None:
                payloads[k] = self.journal.get(digest)
                if payloads[k] is not None:
                    continue
            if self.cache is not None:
                payloads[k] = self.cache.get(key)
                if payloads[k] is not None and self.journal is not None:
                    self.journal.record(digest, payloads[k])

        miss_idx = [k for k, p in enumerate(payloads) if p is None]
        if (
            self.jobs > 1
            and len(miss_idx) > 1
            and workload.kernel.name in _KERNEL_FACTORIES
        ):
            tasks = []
            for k in miss_idx:
                task = self._task(workload, machine, v, specs[k]["blocking"],
                                  max_events)
                task["spec"] = specs[k]
                tasks.append(task)
            outcomes = self._pooled(_chaos_pool_worker, tasks,
                                    [digests[k] for k in miss_idx])
            bad = [o for o in outcomes if not o.ok]
            if bad:
                raise PoisonTaskError(bad)
            fresh = [o.result for o in outcomes]
        else:
            fresh = [
                chaos_payload(workload, v, machine, specs[k],
                              max_events=max_events)
                for k in miss_idx
            ]
        for k, payload in zip(miss_idx, fresh):
            payloads[k] = payload
            if self.cache is not None:
                self.cache.put(keys[k], payload)
            if self.journal is not None:
                self.journal.record(digests[k], payload)
        return payloads  # type: ignore[return-value]

    # -- internals -----------------------------------------------------------

    def _method(self, workload: StencilWorkload, v: int) -> str:
        if self.fastforward and fastforward_eligible(workload, v):
            return f"ff{FASTFORWARD_VERSION}"
        return "sim"

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
            "fastforward": self.fastforward,
            "validate": self.validate,
            "validate_max_tiles": self.validate_max_tiles,
            "validate_rtol": self.validate_rtol,
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

    def _execute(
        self,
        workload: StencilWorkload,
        machine: Machine,
        pairs: Sequence[tuple[int, bool]],
        keys: Sequence[str],
        max_events: int,
    ) -> list[TaskOutcome]:
        """Simulate every pair; one :class:`TaskOutcome` per pair.

        In-process execution (single job, lone pair, or unregistered
        kernel) is unsupervised — a failure there raises naturally, as
        it would have in a serial run."""
        if (
            self.jobs > 1
            and len(pairs) > 1
            and workload.kernel.name in _KERNEL_FACTORIES
        ):
            tasks = [self._task(workload, machine, v, blocking, max_events)
                     for v, blocking in pairs]
            return self._pooled(_pool_worker, tasks, keys)
        return [
            TaskOutcome(
                index=i, key=key, status="ok", attempts=1, history=("ok",),
                result=_run_payload(
                    workload, v, machine, blocking=blocking,
                    fastforward=self.fastforward, validate=self.validate,
                    validate_max_tiles=self.validate_max_tiles,
                    validate_rtol=self.validate_rtol, max_events=max_events,
                ),
            )
            for i, ((v, blocking), key) in enumerate(zip(pairs, keys))
        ]

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

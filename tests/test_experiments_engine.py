"""Tests for the fast sweep engine (fan-out, caching, resume, supervision)."""

import dataclasses

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.engine import Engine, registered_kernels
from repro.experiments.figures import sweep
from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import pentium_cluster
from repro.runtime.executor import run_tiled

PAIRS = [(16, True), (16, False), (64, True), (64, False)]


def _workload(name="engine-w"):
    return StencilWorkload(
        name, IterationSpace.from_extents([8, 8, 1024]),
        sqrt_kernel_3d(), (2, 2, 1), 2,
    )


@pytest.fixture(scope="module")
def machine():
    return pentium_cluster()


@pytest.fixture(scope="module")
def serial_results(machine):
    w = _workload()
    return [run_tiled(w, v, machine, blocking=blocking)
            for v, blocking in PAIRS]


def _assert_identical(results, reference):
    assert len(results) == len(reference)
    for got, ref in zip(results, reference):
        assert got.completion_time == ref.completion_time  # bit-identical
        assert got.messages_sent == ref.messages_sent
        assert got.v == ref.v
        assert got.blocking == ref.blocking
        assert got.grain == ref.grain


class TestBitIdentical:
    def test_in_process_matches_serial(self, machine, serial_results):
        engine = Engine(jobs=1)
        _assert_identical(
            engine.run_batch(_workload(), machine, PAIRS), serial_results
        )

    def test_parallel_pool_matches_serial(self, machine, serial_results):
        engine = Engine(jobs=2)
        _assert_identical(
            engine.run_batch(_workload(), machine, PAIRS), serial_results
        )

    def test_run_tiled_drop_in(self, machine, serial_results):
        engine = Engine(jobs=1)
        got = engine.run_tiled(_workload(), 16, machine, blocking=True)
        ref = serial_results[0]
        assert got.completion_time == ref.completion_time
        assert got.messages_sent == ref.messages_sent

    def test_sweep_through_engine_matches_serial(self, machine):
        w = _workload()
        heights = [16, 64, 256]
        serial = sweep(w, machine, heights)
        fast = sweep(w, machine, heights, engine=Engine(jobs=2))
        for a, b in zip(serial.points, fast.points):
            assert a.t_overlap_sim == b.t_overlap_sim
            assert a.t_nonoverlap_sim == b.t_nonoverlap_sim
            assert a.grain == b.grain

    def test_unregistered_kernel_falls_back_in_process(
        self, machine, serial_results
    ):
        kernel = dataclasses.replace(sqrt_kernel_3d(), name="not-registered")
        assert kernel.name not in registered_kernels()
        w = dataclasses.replace(_workload(), kernel=kernel)
        engine = Engine(jobs=2)
        _assert_identical(engine.run_batch(w, machine, PAIRS), serial_results)


class TestCacheIntegration:
    def test_second_batch_served_from_cache(self, tmp_path, machine,
                                            serial_results):
        engine = Engine(jobs=1, cache=SimCache(tmp_path))
        first = engine.run_batch(_workload(), machine, PAIRS)
        assert engine.cache.stats.misses == len(PAIRS)
        second = engine.run_batch(_workload(), machine, PAIRS)
        assert engine.cache.stats.hits == len(PAIRS)
        _assert_identical(first, serial_results)
        _assert_identical(second, serial_results)

    def test_cache_shared_across_engines(self, tmp_path, machine,
                                         serial_results):
        Engine(jobs=1, cache=SimCache(tmp_path)).run_batch(
            _workload(), machine, PAIRS
        )
        warm = Engine(jobs=1, cache=SimCache(tmp_path))
        _assert_identical(
            warm.run_batch(_workload(), machine, PAIRS), serial_results
        )
        assert warm.cache.stats.hits == len(PAIRS)
        assert warm.cache.stats.misses == 0


class TestArguments:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)

    def test_default_jobs_positive(self):
        assert Engine().jobs >= 1

    def test_registered_kernels_contains_seed_kernels(self):
        assert "sqrt3d" in registered_kernels()


class TestResumableBatches:
    """Journaled campaigns: kill a sweep, resume, lose nothing."""

    def test_outcomes_report_sources(self, machine, tmp_path):
        from repro.experiments.journal import RunJournal

        w = _workload("resume-w")
        with RunJournal(tmp_path / "j.jsonl") as journal:
            engine = Engine(jobs=1, journal=journal)
            first = engine.run_batch_outcomes(w, machine, PAIRS)
            assert [r.source for r in first] == ["sim"] * len(PAIRS)
            assert all(r.ok for r in first)
            again = engine.run_batch_outcomes(w, machine, PAIRS)
            assert [r.source for r in again] == ["journal"] * len(PAIRS)
        for a, b in zip(first, again):
            assert a.digest == b.digest
            assert a.result.completion_time == b.result.completion_time

    def test_resume_does_no_redundant_simulation(self, machine, tmp_path,
                                                 serial_results):
        """A sweep killed halfway and restarted with the same journal
        re-simulates only the missing runs — and the merged results are
        bit-identical to an undisturbed run."""
        from repro.experiments.journal import RunJournal

        w = _workload()
        path = tmp_path / "campaign.jsonl"
        survivors = PAIRS[: len(PAIRS) // 2]
        with RunJournal(path) as journal:
            Engine(jobs=1, journal=journal).run_batch(w, machine, survivors)

        with RunJournal(path) as journal:  # the restart
            assert journal.stats.loaded == len(survivors)
            engine = Engine(jobs=1, journal=journal)
            reports = engine.run_batch_outcomes(w, machine, PAIRS)
            assert [r.source for r in reports] == (
                ["journal"] * len(survivors)
                + ["sim"] * (len(PAIRS) - len(survivors))
            )
            assert journal.stats.served == len(survivors)
        _assert_identical([r.result for r in reports], serial_results)

    def test_cache_hits_are_backfilled_into_journal(self, machine, tmp_path):
        from repro.experiments.journal import RunJournal

        w = _workload("backfill-w")
        cache = SimCache(tmp_path / "cache")
        Engine(jobs=1, cache=cache).run_batch(w, machine, PAIRS)
        with RunJournal(tmp_path / "j.jsonl") as journal:
            engine = Engine(jobs=1, cache=cache, journal=journal)
            reports = engine.run_batch_outcomes(w, machine, PAIRS)
            assert [r.source for r in reports] == ["cache"] * len(PAIRS)
            assert journal.stats.recorded == len(PAIRS)


class TestSupervisedEngine:
    """The supervised pool is the default and stays bit-identical."""

    def test_supervised_pool_matches_serial(self, machine, serial_results):
        engine = Engine(jobs=2)
        results = engine.run_batch(_workload(), machine, PAIRS)
        _assert_identical(results, serial_results)
        assert engine.supervisor_stats.completed == len(PAIRS)
        assert engine.supervisor_stats.respawns == 0

    def test_unsupervised_pool_matches_serial(self, machine, serial_results):
        engine = Engine(jobs=2, supervised=False)
        results = engine.run_batch(_workload(), machine, PAIRS)
        _assert_identical(results, serial_results)

    @pytest.mark.resilience
    def test_worker_kills_recovered_bit_identical(self, machine,
                                                  serial_results):
        """Seeded worker kills mid-batch: every casualty is respawned
        and retried, and the results match the undisturbed run."""
        from repro.experiments.cache import key_digest, run_key
        from repro.experiments.supervisor import HarnessChaosPlan

        w = _workload()
        digests = [
            key_digest(run_key(w, v, machine, blocking=b, method="sim"))
            for v, b in PAIRS
        ]
        plan = None
        for seed in range(64):
            candidate = HarnessChaosPlan(seed=seed, kill_prob=0.5)
            if any(candidate.worker_fate(d, 0) for d in digests):
                plan = candidate
                break
        engine = Engine(jobs=2, harness_chaos=plan)
        results = engine.run_batch(w, machine, PAIRS)
        _assert_identical(results, serial_results)
        assert engine.supervisor_stats.crashed > 0
        assert engine.supervisor_stats.respawns > 0

    @pytest.mark.resilience
    def test_poison_task_surfaces_after_healthy_runs_cached(
            self, machine, tmp_path):
        """A task that always kills its worker is quarantined; the
        healthy runs complete and are journaled before the raise."""
        from repro.experiments.journal import RunJournal
        from repro.experiments.supervisor import (
            HarnessChaosPlan,
            PoisonTaskError,
            RetryPolicy,
        )

        w = _workload()
        plan = HarnessChaosPlan(seed=0, kill_prob=1.0, max_faults=10**9)
        with RunJournal(tmp_path / "j.jsonl") as journal:
            engine = Engine(
                jobs=2, journal=journal, harness_chaos=plan,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  max_delay=0.02),
            )
            with pytest.raises(PoisonTaskError) as excinfo:
                engine.run_batch(w, machine, PAIRS)
            assert all(
                o.status == "quarantined" for o in excinfo.value.outcomes
            )
            assert len(excinfo.value.outcomes) == len(PAIRS)
            assert journal.stats.recorded == 0

    @pytest.mark.resilience
    def test_poisoned_chaos_batch_journals_healthy_runs_first(
            self, machine, tmp_path):
        """A quarantined chaos spec surfaces only after the healthy
        specs of its batch are journaled, so a resume does not simulate
        them again."""
        from repro.experiments.cache import key_digest, run_key
        from repro.experiments.chaos import CHAOS_VERSION, chaos_spec
        from repro.experiments.journal import RunJournal
        from repro.experiments.supervisor import (
            HarnessChaosPlan,
            PoisonTaskError,
            RetryPolicy,
        )

        w = StencilWorkload(
            "chaos-w", IterationSpace.from_extents([8, 8, 32]),
            sqrt_kernel_3d(), (2, 2, 1), 2,
        )
        v = 8
        specs = [chaos_spec(blocking=b, numeric=n)
                 for b in (True, False) for n in (True, False)]
        digests = [
            key_digest(run_key(w, v, machine, blocking=s["blocking"],
                               method=f"chaos{CHAOS_VERSION}", extra=s))
            for s in specs
        ]
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        for seed in range(256):
            plan = HarnessChaosPlan(seed=seed, kill_prob=0.5,
                                    max_faults=10**9)
            poisoned = {
                d for d in digests
                if all(plan.worker_fate(d, a) == "kill"
                       for a in range(retry.max_attempts))
            }
            healthy = [d for d in digests if plan.worker_fate(d, 0) is None]
            if poisoned and healthy:
                break
        else:
            pytest.fail("no seed poisons one chaos spec and spares another")

        with RunJournal(tmp_path / "j.jsonl") as journal:
            engine = Engine(jobs=2, journal=journal, harness_chaos=plan,
                            retry=retry)
            with pytest.raises(PoisonTaskError) as excinfo:
                engine.run_chaos_batch(w, v, machine, specs)
            assert {o.key for o in excinfo.value.outcomes} == poisoned
            for digest in healthy:
                assert journal.get(digest) is not None

"""Fault injection: seeded fault plans, the legacy drop knob, and the
deterministic wedging of pipelines that lose messages."""

import pytest

from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import StencilWorkload
from repro.model.machine import Machine, pentium_cluster
from repro.runtime.program import TiledProgram
from repro.sim.deadlock import diagnose
from repro.sim.faults import (
    Degradation,
    FaultPlan,
    LinkFaults,
    NodePause,
    Straggler,
)
from repro.sim.mpi import World


def _machine():
    return Machine(t_c=1.0, t_s=2.0, t_t=1e-3)


class TestFaultPlanValidation:
    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_prob=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_prob=2.0)
        with pytest.raises(ValueError):
            FaultPlan(jitter=-1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Degradation(start=1.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            Degradation(start=0.0, end=1.0, factor=0.5)
        with pytest.raises(ValueError):
            Straggler(node=0, start=2.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            NodePause(node=0, start=1.0, end=0.5)

    def test_lists_frozen_to_tuples(self):
        plan = FaultPlan(links=[LinkFaults(src=0, drop_prob=0.1)])
        assert isinstance(plan.links, tuple)


class TestFaultPlanDeterminism:
    def test_same_seed_same_fates(self):
        a = FaultPlan(seed=42, drop_prob=0.3, duplicate_prob=0.2,
                      corrupt_prob=0.1, jitter=1e-4)
        b = FaultPlan(seed=42, drop_prob=0.3, duplicate_prob=0.2,
                      corrupt_prob=0.1, jitter=1e-4)
        for seq in range(1, 50):
            assert a.message_fate(0, 1, 0, seq) == b.message_fate(0, 1, 0, seq)

    def test_different_seed_different_stream(self):
        a = FaultPlan(seed=1, drop_prob=0.5)
        b = FaultPlan(seed=2, drop_prob=0.5)
        fates_a = [a.message_fate(0, 1, 0, s).dropped for s in range(1, 64)]
        fates_b = [b.message_fate(0, 1, 0, s).dropped for s in range(1, 64)]
        assert fates_a != fates_b

    def test_fate_independent_of_call_order(self):
        plan = FaultPlan(seed=3, drop_prob=0.5)
        first = plan.message_fate(0, 1, 0, 7)
        # Interleave unrelated draws; the fate must not move.
        plan.message_fate(1, 0, 2, 3)
        plan.message_fate(0, 1, 0, 8, attempt=4)
        assert plan.message_fate(0, 1, 0, 7) == first

    def test_attempts_draw_fresh_fates(self):
        plan = FaultPlan(seed=5, drop_prob=0.5)
        fates = {
            plan.message_fate(0, 1, 0, 1, attempt=a).dropped
            for a in range(16)
        }
        assert fates == {True, False}

    def test_drop_rate_roughly_matches_probability(self):
        plan = FaultPlan(seed=9, drop_prob=0.25)
        n = 2000
        drops = sum(
            plan.message_fate(0, 1, 0, s).dropped for s in range(1, n + 1)
        )
        assert 0.20 < drops / n < 0.30

    def test_roundtrip_to_dict(self):
        plan = FaultPlan(
            seed=7, drop_prob=0.1, jitter=1e-5,
            links=(LinkFaults(src=1, dst=None, drop_prob=0.5),),
            degradations=(Degradation(0.0, 1.0, 3.0),),
            stragglers=(Straggler(2, 0.0, 1.0, 2.0),),
            pauses=(NodePause(0, 0.5, 0.6),),
            drop_every_nth=4,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.message_fate(1, 0, 0, 3) == plan.message_fate(1, 0, 0, 3)


class TestLinkOverrides:
    def test_override_replaces_defaults(self):
        plan = FaultPlan(
            seed=0, drop_prob=1.0,
            links=(LinkFaults(src=0, dst=1),),  # quiet link
        )
        assert not plan.message_fate(0, 1, 0, 1).dropped
        assert plan.message_fate(1, 0, 0, 1).dropped

    def test_wildcard_endpoints(self):
        link = LinkFaults(src=None, dst=2, drop_prob=1.0)
        assert link.matches(0, 2) and link.matches(1, 2)
        assert not link.matches(0, 1)


class TestTimeDependentFaults:
    def test_wire_factor_windows(self):
        plan = FaultPlan(degradations=(
            Degradation(1.0, 2.0, 4.0),
            Degradation(1.5, 3.0, 2.0, src=0, dst=1),
        ))
        assert plan.wire_factor(0, 1, 0.5) == 1.0
        assert plan.wire_factor(0, 1, 1.0) == 4.0
        assert plan.wire_factor(0, 1, 1.75) == 8.0  # both windows stack
        assert plan.wire_factor(1, 0, 1.75) == 4.0  # link filter
        assert plan.wire_factor(0, 1, 2.5) == 2.0

    def test_compute_factor_and_pause(self):
        plan = FaultPlan(
            stragglers=(Straggler(1, 0.0, 10.0, 3.0),),
            pauses=(NodePause(0, 5.0, 7.0),),
        )
        assert plan.compute_factor(1, 2.0) == 3.0
        assert plan.compute_factor(0, 2.0) == 1.0
        assert plan.pause_delay(0, 6.0) == 1.0
        assert plan.pause_delay(0, 8.0) == 0.0
        assert plan.has_node_faults

    def test_straggler_stretches_run(self):
        def prog(ctx):
            yield ctx.compute_seconds(1.0)

        clean = World(_machine(), 1)
        base = clean.run([prog])
        slow = World(_machine(), 1, faults=FaultPlan(
            stragglers=(Straggler(0, 0.0, 100.0, 2.5),)
        ))
        assert slow.run([prog]) == pytest.approx(2.5 * base)

    def test_pause_delays_compute(self):
        def prog(ctx):
            yield ctx.compute_seconds(0.5)

        paused = World(_machine(), 1, faults=FaultPlan(
            pauses=(NodePause(0, 0.0, 3.0),)
        ))
        assert paused.run([prog]) == pytest.approx(3.5)

    def test_jitter_delays_arrival(self):
        def sender(ctx):
            yield ctx.isend(1, 1000.0)

        def receiver(ctx):
            yield ctx.recv(0, 1000.0)

        clean = World(_machine(), 2)
        base = clean.run([sender, receiver])
        jittered = World(_machine(), 2, faults=FaultPlan(seed=4, jitter=0.5))
        assert jittered.run([sender, receiver]) > base


class TestLegacyDropKnob:
    """``FaultPlan(drop_every_nth=n)``: the deterministic legacy knob."""

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_every_nth=-1)

    def test_no_drops_by_default(self):
        w = World(_machine(), 2)

        def sender(ctx):
            yield ctx.isend(1, 10)

        def receiver(ctx):
            yield ctx.recv(0, 10)

        w.run([sender, receiver])
        assert w.messages_dropped == 0

    def test_dropped_message_never_arrives(self):
        w = World(_machine(), 2, faults=FaultPlan(drop_every_nth=1))
        got = []

        def sender(ctx):
            yield ctx.send(1, 10)  # blocking send still completes

        def receiver(ctx):
            got.append((yield ctx.recv(0, 10)))

        with pytest.raises(RuntimeError, match="deadlock"):
            w.run([sender, receiver])
        assert w.messages_dropped == 1
        assert not got

    def test_only_nth_dropped(self):
        w = World(_machine(), 2, faults=FaultPlan(drop_every_nth=2))
        got = []

        def sender(ctx):
            yield ctx.isend(1, 10, payload="a")  # seq 1: delivered
            yield ctx.isend(1, 10, payload="b")  # seq 2: dropped
        def receiver(ctx):
            got.append((yield ctx.recv(0, 10)))

        w.run([sender, receiver])
        assert got == ["a"]
        assert w.messages_dropped == 1


class TestPipelineWedge:
    def test_dropped_message_wedges_tiled_run_with_diagnosis(self):
        """Losing one ghost message deterministically deadlocks the tile
        pipeline; the diagnosis names blocked ranks and the unmatched
        receive."""
        workload = StencilWorkload(
            "fault", IterationSpace.from_extents([8, 8, 32]),
            sqrt_kernel_3d(), (2, 2, 1), 2,
        )
        prog = TiledProgram(workload, 8, pentium_cluster(), blocking=False)
        world = World(pentium_cluster(), prog.num_ranks,
                      faults=FaultPlan(drop_every_nth=5))
        with pytest.raises(RuntimeError, match="deadlock"):
            world.run(prog.programs())
        report = diagnose(world)
        assert report.is_deadlocked
        assert report.blocked
        assert report.unmatched_receives
        assert report.messages_dropped == world.messages_dropped > 0
        assert report.sim_time > 0
        text = report.describe()
        assert "blocked" in text and "never matched" in text
        assert "undelivered" in text or not report.undelivered_messages
        assert "dropped by fault injection" in text

    def test_healthy_run_diagnoses_clean(self):
        workload = StencilWorkload(
            "ok", IterationSpace.from_extents([8, 8, 32]),
            sqrt_kernel_3d(), (2, 2, 1), 2,
        )
        prog = TiledProgram(workload, 8, pentium_cluster(), blocking=False)
        world = World(pentium_cluster(), prog.num_ranks)
        world.run(prog.programs())
        report = diagnose(world)
        assert not report.is_deadlocked
        assert "no deadlock" in report.describe()

    def test_describe_labels_match_field_semantics(self):
        """The describe() text must call undelivered messages what they
        are (arrived but never received), not 'delivered'."""
        w = World(_machine(), 2)

        def sender(ctx):
            yield ctx.isend(1, 10, tag=7)

        def receiver(ctx):
            yield ctx.recv(0, 10, tag=9)  # wrong tag: never matches

        with pytest.raises(RuntimeError, match="deadlock"):
            w.run([sender, receiver])
        report = diagnose(w)
        assert report.undelivered_messages == ((1, 0, 7),)
        text = report.describe()
        assert "arrived, never received" in text

"""Tests for repro.faults.retransmit — the ACK/retransmission transport."""

import pytest

from repro.algorithms import BFS, HopBroadcast, PushGossip
from repro.congest import topology
from repro.congest.simulator import Simulator, solo_run
from repro.core import RandomDelayScheduler, Workload
from repro.errors import RetransmitExhausted
from repro.faults import FaultPlan, ResilientAlgorithm, wrap_workload
from repro.faults.retransmit import window_rounds


def _workload(net, k=2):
    algorithms = [BFS(0, hops=6), HopBroadcast(net.num_nodes - 1, "tok", 6)][:k]
    return Workload(net, algorithms)


class TestConstruction:
    def test_window_math(self):
        # 2^max_retries + 2: the last backoff offset plus the feed slot.
        assert window_rounds(0) == 3
        assert window_rounds(1) == 4
        assert window_rounds(3) == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResilientAlgorithm(BFS(0), max_retries=-1)
        with pytest.raises(ValueError, match="linger_windows"):
            ResilientAlgorithm(BFS(0), linger_windows=0)

    def test_name_and_cap(self, grid4):
        wrapped = ResilientAlgorithm(BFS(0, hops=4), max_retries=2)
        assert wrapped.name == "resilient(BFS(src=0, h=4))"
        assert wrapped.max_rounds(grid4) > BFS(0, hops=4).max_rounds(grid4)

    def test_wrap_workload_preserves_identity(self, grid4):
        work = Workload(grid4, [BFS(0, hops=4)], master_seed=17, message_bits=96)
        wrapped = wrap_workload(work, max_retries=2, linger_windows=3)
        assert wrapped.master_seed == 17
        assert wrapped.message_bits == 96
        assert wrapped.num_algorithms == 1
        inner = wrapped.algorithms[0]
        assert isinstance(inner, ResilientAlgorithm)
        assert inner.max_retries == 2 and inner.linger_windows == 3


class TestTransparency:
    def test_fault_free_outputs_match_inner_solo(self, grid4):
        for algorithm in (BFS(0, hops=6), HopBroadcast(15, "x", 6)):
            reference = solo_run(grid4, algorithm, seed=5, algorithm_id=0)
            run = solo_run(
                grid4, ResilientAlgorithm(algorithm), seed=5, algorithm_id=0
            )
            assert run.outputs == reference.outputs

    def test_wrapped_workload_references_match(self, grid4):
        work = _workload(grid4)
        wrapped = wrap_workload(work)
        assert wrapped.reference_outputs() == work.reference_outputs()


class TestRecovery:
    def test_survives_five_percent_drop(self, grid4):
        """The PR's acceptance point: 5% loss + retransmission verifies."""
        work = wrap_workload(_workload(grid4), max_retries=3)
        plan = FaultPlan.message_drop(0.05, seed=7)
        result = RandomDelayScheduler().with_faults(plan).run(work, seed=3)
        assert result.correct
        assert result.report.telemetry["faults"]["faults.drops"] > 0

    def test_solo_recovery_under_heavy_drop(self, path10):
        plan = FaultPlan.message_drop(0.3, seed=2)
        run = Simulator(path10, injector=plan.injector()).run(
            ResilientAlgorithm(BFS(0, hops=9), max_retries=4),
            seed=0,
            algorithm_id=0,
        )
        reference = solo_run(path10, BFS(0, hops=9), seed=0, algorithm_id=0)
        assert run.outputs == reference.outputs

    def test_exhaustion_raises_not_hangs(self, path10):
        """A severed edge fails fast with full structured context."""
        plan = FaultPlan(seed=0, edge_drop=(((0, 1), 1.0),))
        sim = Simulator(path10, injector=plan.injector())
        with pytest.raises(RetransmitExhausted) as exc:
            sim.run(
                ResilientAlgorithm(BFS(0, hops=9), max_retries=2),
                seed=0,
                algorithm_id=0,
            )
        context = exc.value.context
        assert context["node"] == 0
        assert context["edge"] == (0, 1)
        assert context["round"] == 1  # the inner round that never got through
        assert context["algorithm"] == "BFS(src=0, h=9)"

    def test_zero_retries_still_transparent(self, grid4):
        run = solo_run(
            grid4,
            ResilientAlgorithm(BFS(0, hops=6), max_retries=0),
            seed=1,
            algorithm_id=0,
        )
        reference = solo_run(grid4, BFS(0, hops=6), seed=1, algorithm_id=0)
        assert run.outputs == reference.outputs


class TestLazyTape:
    """The wrapper hands the inner program the outer tape only on read."""

    def test_wrapped_bfs_derives_no_tape(self, path10, seed_calls):
        plan = FaultPlan.message_drop(0.3, seed=2)
        run = Simulator(path10, injector=plan.injector()).run(
            ResilientAlgorithm(BFS(0, hops=9), max_retries=4),
            seed=0,
            algorithm_id=0,
        )
        assert run.outputs[9] is not None
        assert seed_calls == []

    def test_wrapped_gossip_outputs_unchanged(self, grid4, seed_calls):
        gossip = PushGossip(5, rounds=6)
        reference = solo_run(grid4, gossip, seed=5, algorithm_id=0)
        solo_calls = sorted(seed_calls)
        del seed_calls[:]
        run = solo_run(grid4, ResilientAlgorithm(gossip), seed=5, algorithm_id=0)
        assert run.outputs == reference.outputs
        assert solo_calls and sorted(seed_calls) == solo_calls

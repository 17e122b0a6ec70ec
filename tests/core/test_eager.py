"""Tests for the eager (unsafe) scheduler — the motivation ablation."""

import pytest

from repro.algorithms import BFS, PathToken
from repro.congest import Algorithm, NodeProgram, topology
from repro.core import EagerScheduler, RandomDelayScheduler, Workload
from repro.experiments import mixed_workload


class TestEagerOnLightWorkloads:
    def test_disjoint_tokens_correct_and_optimal(self):
        """With at most one message per edge per round, naive concurrency
        is both correct and optimally fast (length = dilation)."""
        net = topology.cycle_graph(24)
        tokens = [
            PathToken([(i * 6 + j) % 24 for j in range(5)], token=i)
            for i in range(4)
        ]
        work = Workload(net, tokens)
        result = EagerScheduler().run(work, seed=0)
        assert result.correct
        assert result.report.length_rounds == work.params().dilation
        assert result.report.notes["inbox_overwrites"] == 0

    def test_single_algorithm_equals_solo(self, grid4):
        work = Workload(grid4, [BFS(0)])
        result = EagerScheduler().run(work, seed=0)
        assert result.correct
        assert result.report.length_rounds == work.params().dilation


class TestEagerCorruption:
    def test_congested_workload_corrupts(self, grid6):
        """The Section 2 warning realized: under congestion the naive
        execution silently produces wrong outputs."""
        work = mixed_workload(grid6, 12, seed=3)
        assert work.params().congestion > 1
        result = EagerScheduler().run(work, seed=0)
        assert not result.correct
        assert len(result.mismatches) > 10

    def test_same_workload_fine_with_real_scheduler(self, grid6):
        work = mixed_workload(grid6, 12, seed=3)
        result = RandomDelayScheduler().run(work, seed=0)
        assert result.correct

    def test_overlapping_tokens_lose_messages(self, path10):
        """k tokens on one path: only one can move per round; the rest
        arrive late into the wrong algorithm-round and are lost."""
        tokens = [PathToken(list(range(10)), token=i) for i in range(5)]
        work = Workload(path10, tokens)
        result = EagerScheduler().run(work, seed=0)
        assert not result.correct
        # exactly one token (the FIFO head each round) gets through clean
        delivered = sum(
            1
            for aid in range(5)
            if result.outputs[(aid, 9)] == 1000 + aid or result.outputs[(aid, 9)] == tokens[aid].token
        )
        assert delivered <= 2

    def test_reports_diagnostics(self, grid6):
        work = mixed_workload(grid6, 12, seed=3)
        result = EagerScheduler().run(work, seed=0)
        notes = result.report.notes
        assert set(notes) >= {"inbox_overwrites", "late_or_dropped", "cap"}


class _Once(Algorithm):
    """Node 0 sends one token to node 1 in round 1; everyone halts after."""

    def __init__(self, token):
        self.token = token

    def make_program(self, node, ctx):
        return _OnceProgram(self.token)


class _OnceProgram(NodeProgram):
    def __init__(self, token):
        super().__init__()
        self.token = token

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send(1, self.token)

    def on_round(self, ctx, inbox):
        self.halt()


class _Confused(_Once):
    """Like :class:`_Once`, but node 1 double-sends when its token is late
    and node 0 records what comes back."""

    def make_program(self, node, ctx):
        return _ConfusedProgram(self.token)


class _ConfusedProgram(_OnceProgram):
    heard = None

    def on_round(self, ctx, inbox):
        if ctx.node == 1 and ctx.round == 1 and not inbox:
            ctx.send(0, "early")
            ctx.send(0, "again")  # a CONGEST violation: raises
        if ctx.node == 0 and inbox:
            self.heard = (ctx.round, dict(inbox))
        if inbox or ctx.round >= 4:
            self.halt()

    def output(self):
        return self.heard


class TestConfusedPrograms:
    def test_failing_round_sends_nothing_and_keeps_its_buffer(self, path10):
        """A program that raises mid-round is counted in ``late_or_dropped``;
        what it buffered before raising goes out with its next round."""
        work = Workload(path10, [_Once("first"), _Confused("late")])
        # Alone, node 1 hears its token in round 1 and never double-sends.
        assert work.solo_runs()[1].outputs[0] is None
        result = EagerScheduler().run(work, seed=0)
        # The FIFO edge 0->1 delivers "first" in round 1 and "late" in
        # round 2; node 1's failed round-1 send to node 0 leaves with its
        # round-2 sends and arrives in round 3.
        assert result.outputs[(1, 0)] == (3, {1: "early"})
        assert result.report.notes["late_or_dropped"] == 1

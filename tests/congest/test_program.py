"""Tests for node programs, contexts, hosts and host groups."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, PushGossip
from repro.congest import HostGroup, Network, NodeContext, NodeProgram, ProgramHost
from repro.congest import solo_run, topology
from repro.congest.program import Algorithm
from repro.core import PrivateScheduler, Workload
from repro.errors import BandwidthViolation
from repro.faults import FaultPlan


class _Echo(NodeProgram):
    """Sends its round number to all neighbours for two rounds."""

    def on_start(self, ctx):
        ctx.send_all(0)

    def on_round(self, ctx, inbox):
        self.last_inbox = dict(inbox)
        if ctx.round >= 2:
            self.halt()
        else:
            ctx.send_all(ctx.round)

    def output(self):
        return getattr(self, "last_inbox", None)


class _EchoAlgorithm(Algorithm):
    def make_program(self, node, ctx):
        return _Echo()


@pytest.fixture
def net():
    return Network([(0, 1), (1, 2)])


class TestNodeContext:
    def test_send_to_non_neighbor_rejected(self, net):
        ctx = NodeContext(0, net, seed=1)
        with pytest.raises(BandwidthViolation):
            ctx.send(2, "hi")

    def test_double_send_rejected(self, net):
        ctx = NodeContext(0, net, seed=1)
        ctx.send(1, "a")
        with pytest.raises(BandwidthViolation):
            ctx.send(1, "b")

    def test_oversize_rejected(self, net):
        ctx = NodeContext(0, net, seed=1, message_bits=8)
        with pytest.raises(BandwidthViolation):
            ctx.send(1, "long string payload")

    def test_send_all(self, net):
        ctx = NodeContext(1, net, seed=1)
        ctx.send_all("x")
        assert sorted(ctx._drain()) == [(0, "x"), (2, "x")]

    def test_drain_resets(self, net):
        ctx = NodeContext(0, net, seed=1)
        ctx.send(1, "a")
        assert ctx._drain() == [(1, "a")]
        # after drain the same destination is allowed again
        ctx.send(1, "b")
        assert ctx._drain() == [(1, "b")]

    def test_rng_deterministic(self, net):
        a = NodeContext(0, net, seed=42).rng.random()
        b = NodeContext(0, net, seed=42).rng.random()
        assert a == b


class TestProgramHost:
    def test_lifecycle(self, net):
        host = ProgramHost(_EchoAlgorithm(), 1, net, seed=0)
        sends = host.start()
        assert sorted(sends) == [(0, 0), (2, 0)]
        sends = host.step(1, {0: 0})
        assert sorted(sends) == [(0, 1), (2, 1)]
        assert not host.halted
        host.step(2, {})
        assert host.halted
        assert host.output() == {}

    def test_double_start_rejected(self, net):
        host = ProgramHost(_EchoAlgorithm(), 0, net, seed=0)
        host.start()
        with pytest.raises(RuntimeError):
            host.start()

    def test_step_before_start_rejected(self, net):
        host = ProgramHost(_EchoAlgorithm(), 0, net, seed=0)
        with pytest.raises(RuntimeError):
            host.step(1, {})

    def test_halted_steps_noop(self, net):
        host = ProgramHost(_EchoAlgorithm(), 0, net, seed=0)
        host.start()
        host.step(1, {})
        host.step(2, {})
        assert host.halted
        assert host.step(3, {1: "ignored"}) == []

    def test_seed_derivation_stable(self):
        a = ProgramHost.seed_for(1, "alg", 5)
        b = ProgramHost.seed_for(1, "alg", 5)
        c = ProgramHost.seed_for(1, "alg", 6)
        assert a == b != c


def _drive(group, rounds, crash_tick=lambda r: r):
    """Start ``group`` and step it ``rounds`` times; return who stepped."""
    stepped = []
    group.start(lambda node, outbox: None)
    for r in range(1, rounds + 1):
        group.step(
            r, lambda node: None, lambda node, outbox: stepped.append((r, node)),
            crash_tick(r),
        )
    return stepped


class TestHostGroup:
    def test_hosts_halt_and_leave_the_live_set(self, net):
        group = HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo")
        sent = []
        assert group.start(lambda node, outbox: sent.append((node, sorted(outbox))))
        assert sent == [(0, [(1, 0)]), (1, [(0, 0), (2, 0)]), (2, [(1, 0)])]
        assert group.step(1, {1: {0: 0}}.get, lambda node, outbox: None)
        # Round 2 halts every program: nobody is live afterwards.
        assert not group.step(2, {}.get, lambda node, outbox: None)
        assert group.outputs() == {0: {}, 1: {}, 2: {}}

    def test_tapes_follow_seed_for(self, net):
        group = HostGroup(_EchoAlgorithm(), net, [2, 0], 7, "echo")
        assert [host.node for host in group.hosts] == [2, 0]
        expected = random.Random(ProgramHost.seed_for(7, "echo", 2)).random()
        assert group.hosts[0].ctx.rng.random() == expected

    def test_shared_tape_memo_derives_each_tape_once(self, net, seed_calls):
        tapes = {}
        groups = [
            HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo", tapes=tapes)
            for _ in range(3)
        ]
        assert seed_calls == []
        for group in groups:
            for host in group.hosts:
                host.ctx.rng.random()
        assert sorted(seed_calls) == [(0, "echo", node) for node in net.nodes]

    def test_limits_must_match_the_nodes(self):
        ring = topology.cycle_graph(6)
        with pytest.raises(ValueError, match="1 limits for 6 hosts"):
            HostGroup(PushGossip(0, rounds=4), ring, ring.nodes, 0, "x", limits=[3])

    def test_limits_cap_the_rounds_each_host_steps(self, net):
        group = HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo", limits=[0, 1, 2])
        assert _drive(group, 2) == [(1, 1), (1, 2), (2, 2)]

    def test_crashed_hosts_stop_stepping(self, net):
        injector = FaultPlan.node_crash(1, round=2).injector()
        group = HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo", injector=injector)
        assert _drive(group, 2) == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 2)]

    def test_crash_tick_is_the_callers_clock(self, net):
        injector = FaultPlan.node_crash(1, round=2).injector()
        group = HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo", injector=injector)
        # Ticks one ahead of the round: node 1 stops a round earlier.
        assert _drive(group, 2, crash_tick=lambda r: r + 1) == [(1, 0), (1, 2), (2, 0), (2, 2)]


class _DrawAt(NodeProgram):
    """Reads its tape for the first time in round ``k``: five draws."""

    def __init__(self, k):
        super().__init__()
        self._k = k
        self.draws = None

    def on_round(self, ctx, inbox):
        if ctx.round == self._k:
            self.draws = [ctx.rng.random() for _ in range(5)]
            self.halt()


class _DrawAtAlgorithm(Algorithm):
    def __init__(self, k):
        self.k = k

    def make_program(self, node, ctx):
        return _DrawAt(self.k)


class TestLazyTapes:
    def test_bfs_derives_no_tape(self, seed_calls):
        grid = topology.grid_graph(4, 4)
        run = solo_run(grid, BFS(0), seed=3, algorithm_id="bfs")
        assert run.outputs[15] is not None
        assert seed_calls == []

    def test_gossip_derives_one_tape_per_reading_node(self, seed_calls, monkeypatch):
        readers = set()
        tape = NodeContext.rng

        def recording(ctx):
            readers.add(ctx.node)
            return tape.fget(ctx)

        monkeypatch.setattr(NodeContext, "rng", property(recording))
        grid = topology.grid_graph(4, 4)
        run = solo_run(grid, PushGossip(0, rounds=6), seed=3, algorithm_id="g")
        # A node pushes (reads its tape) from the round it is informed
        # until the last round.
        pushers = {v for v, at in run.outputs.items() if at is not None and at < 6}
        assert 0 < len(readers) < grid.num_nodes
        assert readers == pushers
        assert sorted(seed_calls) == [(3, "g", v) for v in sorted(readers)]

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(0, 2**32),
        tape_id=st.one_of(st.integers(0, 50), st.text(max_size=6)),
        node=st.integers(0, 3),
        k=st.integers(1, 6),
    )
    def test_stream_is_independent_of_the_first_read_round(self, master_seed, tape_id, node, k):
        path = topology.path_graph(4)
        group = HostGroup(_DrawAtAlgorithm(k), path, [node], master_seed, tape_id)
        group.start(lambda node, outbox: None)
        for r in range(1, k + 1):
            group.step(r, lambda node: None, lambda node, outbox: None)
        expected = random.Random(ProgramHost.seed_for(master_seed, tape_id, node))
        assert group.hosts[0].program.draws == [expected.random() for _ in range(5)]

    def test_private_scheduler_derives_each_tape_at_most_once(self, seed_calls):
        grid = topology.grid_graph(5, 5)
        workload = Workload(
            grid, [PushGossip(0, rounds=5), BFS(24, hops=8), PushGossip(12, rounds=4)],
            master_seed=4, solo_cache=None,
        )
        reference = workload.reference_outputs()
        del seed_calls[:]
        result = PrivateScheduler().run(workload, seed=1)
        assert result.outputs == reference
        per_tape = Counter((tape_id, node) for _seed, tape_id, node in seed_calls)
        assert per_tape and max(per_tape.values()) == 1
        assert {tape_id for tape_id, _node in per_tape} == {0, 2}

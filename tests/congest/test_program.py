"""Tests for node programs, contexts, hosts and host groups."""

import random

import pytest

from repro.congest import HostGroup, Network, NodeContext, NodeProgram, ProgramHost
from repro.congest.program import Algorithm
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

    def test_shared_tape_memo_derives_each_tape_once(self, net, monkeypatch):
        calls = []
        original = ProgramHost.seed_for.__func__

        def counting(cls, *args):
            calls.append(args)
            return original(cls, *args)

        monkeypatch.setattr(ProgramHost, "seed_for", classmethod(counting))
        tapes = {}
        for _ in range(3):
            HostGroup(_EchoAlgorithm(), net, net.nodes, 0, "echo", tapes=tapes)
        assert len(calls) == 3

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

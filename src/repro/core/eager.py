"""The eager (unsafe) scheduler: what happens without the paper's machinery.

Start every algorithm immediately and let every node advance one
algorithm-round per physical round, while each directed edge transmits
one queued message per round, FIFO across algorithms. This is the
"just run them all" strategy a practitioner might try first.

When the workload's congestion exceeds one message per edge per round,
queues back up, messages arrive *after* the algorithm-round that needed
them, and — exactly as the paper's Section 2 warns — "the node might not
notice this and it can proceed with executing the algorithm, although
generating a wrong execution." The scheduler therefore reports honest
mismatch counts instead of pretending to be correct; on workloads whose
per-round edge loads never exceed 1 it is correct and optimally fast
(length = dilation).

This baseline exists for the ablation: it quantifies how often naive
concurrency corrupts outputs, motivating the delay/cluster machinery.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..congest.program import Algorithm, HostGroup, NodeContext, NodeProgram
from ..metrics.schedule import ScheduleReport
from .base import ScheduleResult, Scheduler
from .transport import resolve_transport
from .workload import OutputMap, Workload

__all__ = ["EagerScheduler"]


class EagerScheduler(Scheduler):
    """Naive concurrent execution with FIFO edge queues (UNSAFE).

    ``max_rounds_factor`` bounds the run at
    ``factor × (congestion + dilation + k)`` physical rounds; programs
    still unhalted then are cut off (their outputs count as mismatches).
    """

    name = "eager-unsafe"

    def __init__(self, max_rounds_factor: int = 8):
        self.max_rounds_factor = max_rounds_factor

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        network = workload.network
        params = workload.params()
        k = workload.num_algorithms
        cap = self.max_rounds_factor * (
            params.congestion + params.dilation + k + 4
        )

        # The per-directed-edge FIFO queues live in the transport channel
        # (kept object-per-message in every backend: the inbox build
        # order here is output-visible — see the channel docstring).
        channel = resolve_transport(self.transport).eager_channel()
        push = channel.push
        naive = [_Naive(algorithm) for algorithm in workload.algorithms]
        groups = [
            HostGroup(
                naive[aid], network, network.nodes, workload.master_seed,
                workload.tape_id(aid), workload.message_bits,
            )
            for aid in workload.aids
        ]
        live = [
            (aid, group)
            for aid, group in enumerate(groups)
            if group.start(lambda node, outbox: push(aid, node, outbox))
        ]
        overwrites = 0
        undelivered = 0

        physical_round = 0
        last_message_round = 0
        while live and (channel.in_flight or physical_round <= params.dilation):
            physical_round += 1
            if physical_round > cap:
                break  # cut off: a deadlocked/queued-up execution

            # Transmit one message per directed edge.
            inboxes, new_overwrites, delivered = channel.transmit()
            overwrites += new_overwrites
            if delivered:
                last_message_round = physical_round

            # Every algorithm advances one round, ready or not.
            take = inboxes.pop
            live = [
                (aid, group)
                for aid, group in live
                if group.step(
                    physical_round,
                    lambda node: take((aid, node), None),
                    lambda node, outbox: push(aid, node, outbox),
                )
            ]
            # Messages addressed to already-halted programs vanish.
            undelivered += len(inboxes)

        outputs: OutputMap = {
            (aid, node): value
            for aid, group in enumerate(groups)
            for node, value in group.outputs().items()
        }

        report = ScheduleReport(
            scheduler=self.name,
            params=params,
            length_rounds=max(last_message_round, physical_round),
            notes={
                "in_flight_at_cutoff": channel.in_flight,
                "inbox_overwrites": overwrites,
                "late_or_dropped": undelivered
                + sum(algorithm.failed_rounds for algorithm in naive),
                "cap": cap,
            },
        )
        return self._finish(workload, outputs, report)


class _Naive(Algorithm):
    """``algorithm`` run naively: a round whose program raises sends nothing.

    A confused program may violate CONGEST rules (e.g. double-sends after
    duplicate deliveries); naive execution counts the round in
    :attr:`failed_rounds` and drops its sends. What the program buffered
    before raising stays buffered for its next round.
    """

    def __init__(self, algorithm: Algorithm):
        self.algorithm = algorithm
        self.failed_rounds = 0

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _NaiveProgram(self, self.algorithm.make_program(node, ctx))


class _NaiveProgram(NodeProgram):
    """Delegates to one node's program, catching its failing rounds."""

    def __init__(self, owner: _Naive, program: NodeProgram):
        self.owner = owner
        self.program = program
        self.held: Any = None

    @property
    def _halted(self) -> bool:  # the inner program's flag, read by the host
        return self.program._halted

    def on_start(self, ctx: NodeContext) -> None:
        self.program.on_start(ctx)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if self.held is not None:
            ctx._outbox, ctx._sent_to, ctx._sent_all, ctx._broadcast = self.held
            self.held = None
        try:
            self.program.on_round(ctx, inbox)
        except Exception:
            self.owner.failed_rounds += 1
            self.held = (ctx._outbox, ctx._sent_to, ctx._sent_all, ctx._broadcast)
            ctx._outbox, ctx._sent_to, ctx._sent_all, ctx._broadcast = (
                [], set(), False, None,
            )

    def output(self) -> Any:
        return self.program.output()

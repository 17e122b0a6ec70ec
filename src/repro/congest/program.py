"""Node programs: the unit of distributed computation.

A distributed algorithm in the CONGEST model is, per the paper's Section 2,
a per-node state machine: "when this algorithm is run alone, in each round
each node knows what to send in the next round", as a function of its input,
its (pre-sampled) randomness, and the messages it has received so far.

We model this with two classes:

* :class:`Algorithm` — a factory describing one distributed algorithm
  (e.g. "BFS from node 7", "broadcast of token 12 up to 5 hops"). It builds
  one :class:`NodeProgram` per node.
* :class:`NodeProgram` — the per-node automaton. The *engine* owns time: it
  calls :meth:`NodeProgram.on_start` once, then :meth:`NodeProgram.on_round`
  once per algorithm-round with that round's inbox. Programs send by calling
  :meth:`NodeContext.send`, which buffers messages for the next round.

Every engine drives programs the same way, through one
:class:`HostGroup` per (algorithm, node subset).

This pull-based design is what lets schedulers remap algorithm-rounds onto
arbitrary physical rounds (random start delays, big-rounds, truncated
cluster copies) without the algorithm noticing — the paper's requirement
that algorithms be scheduled as black boxes.

Randomness is exposed as ``ctx.rng``, a :class:`random.Random` seeded
deterministically from ``(master seed, algorithm id, node)``. The paper
treats each node's random bits as part of its input, fixed before the
execution starts; deterministic seeding reproduces exactly that: every copy
of an algorithm run by a scheduler draws the same random tape and therefore
behaves identically given identical inbox histories. A group's tapes are
derived on first read: a tape is a pure function of its key, so deriving it
when the program first reads ``ctx.rng`` yields the same bits as deriving it
up front, and programs that never read it (BFS, broadcast, ...) never pay.
"""

from __future__ import annotations

import random
import sys
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional
from typing import Sequence, Tuple, Union

from ..errors import BandwidthViolation
from .._util import derive_seed
from .message import check_payload
from .network import Network

__all__ = [
    "Broadcast",
    "NodeContext",
    "NodeProgram",
    "Algorithm",
    "HostGroup",
    "ProgramHost",
    "Send",
]

#: A buffered outgoing message: ``(destination node, payload)``.
Send = Tuple[int, Any]


class Broadcast:
    """A compacted ``send_all``: one payload to every neighbour.

    Draining a round in which a node only called :meth:`NodeContext.send_all`
    yields one of these instead of ``len(neighbors)`` tuples. Iterating
    produces exactly the ``(neighbor, payload)`` pairs the per-neighbour
    path would have buffered (in neighbour order), so any consumer that
    loops over a drained outbox sees identical messages; transports that
    understand broadcasts read :attr:`payload`/:attr:`neighbors` directly
    and skip the per-message tuple objects entirely.
    """

    __slots__ = ("payload", "neighbors")

    def __init__(self, payload: Any, neighbors: Tuple[int, ...]):
        self.payload = payload
        self.neighbors = neighbors

    def __iter__(self) -> Iterator[Send]:
        payload = self.payload
        return iter([(neighbor, payload) for neighbor in self.neighbors])

    def __len__(self) -> int:
        return len(self.neighbors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Broadcast({self.payload!r} -> {len(self.neighbors)} neighbours)"


#: What :meth:`NodeContext._drain` hands to the engine: either the
#: per-message outbox or a compacted broadcast.
Outbox = Union[List[Send], Broadcast]


class _Tapes:
    """The deferred tapes of one :class:`HostGroup`.

    Node ``v``'s seed is ``ProgramHost.seed_for(master_seed, tape_id, v)``,
    derived on demand and kept in ``memo`` (``(tape_id, node) -> seed``,
    possibly shared by copies of one algorithm).
    """

    __slots__ = ("master_seed", "tape_id", "memo")

    def __init__(self, master_seed: int, tape_id: Any, memo: Dict[Tuple[Any, int], int]):
        self.master_seed = master_seed
        self.tape_id = tape_id
        self.memo = memo

    def seed(self, node: int) -> int:
        key = (self.tape_id, node)
        seed = self.memo.get(key)
        if seed is None:
            seed = self.memo[key] = ProgramHost.seed_for(self.master_seed, self.tape_id, node)
        return seed


class NodeContext:
    """Per-node execution context handed to a :class:`NodeProgram`.

    Provides the node's identity, its local view of the network (neighbours
    and the global parameter ``n``), its private random tape, and the
    :meth:`send` primitive. One context exists per (algorithm copy, node)
    and lives for the whole execution. ``seed`` is the tape's seed, or a
    group's deferred tapes; either way :attr:`rng` is built on first read.
    """

    __slots__ = (
        "node",
        "num_nodes",
        "neighbors",
        "_tape",
        "_rng",
        "round",
        "_message_bits",
        "_outbox",
        "_sent_to",
        "_sent_all",
        "_broadcast",
    )

    def __init__(
        self,
        node: int,
        network: Network,
        seed: Union[int, _Tapes],
        message_bits: Optional[int] = None,
    ):
        self.node = node
        self.num_nodes = network.num_nodes
        self.neighbors: Tuple[int, ...] = network.neighbors(node)
        self._tape = seed
        self._rng: Optional[random.Random] = None
        #: Current algorithm-round (0 before the first round).
        self.round = 0
        self._message_bits = message_bits
        self._outbox: List[Send] = []
        self._sent_to: set = set()
        self._sent_all = False
        self._broadcast: Any = None

    @property
    def rng(self) -> random.Random:
        """The node's random tape, derived on first read."""
        rng = self._rng
        if rng is None:
            tape = self._tape
            seed = tape.seed(self.node) if isinstance(tape, _Tapes) else tape
            rng = self._rng = random.Random(seed)
        return rng

    def send(self, neighbor: int, payload: Any) -> None:
        """Buffer one message to ``neighbor``, delivered next round.

        Enforces the CONGEST constraints: the destination must be a
        neighbour, at most one message per neighbour per round, and the
        payload must fit the per-message bit budget (when one is set).
        """
        if self._sent_all or neighbor in self._sent_to:
            raise BandwidthViolation(
                f"node {self.node} sent twice to {neighbor} in round {self.round}",
                node=self.node,
                round=self.round,
                edge=(self.node, neighbor),
            )
        if neighbor not in self.neighbors:
            raise BandwidthViolation(
                f"node {self.node} tried to send to non-neighbour {neighbor}",
                node=self.node,
                round=self.round,
            )
        if self._message_bits is not None:
            check_payload(payload, self._message_bits)
        self._sent_to.add(neighbor)
        self._outbox.append((neighbor, payload))

    def send_all(self, payload: Any) -> None:
        """Send the same payload to every neighbour.

        When nothing has been sent yet this round, the CONGEST checks
        collapse: every destination is a neighbour by construction, no
        duplicates are possible, and one payload check covers all
        copies (the ``_sent_all`` flag stands in for the per-neighbour
        duplicate set). The round then drains as a single
        :class:`Broadcast` object instead of per-neighbour tuples.
        Mixed with prior individual sends, the checked per-neighbour
        path runs instead (duplicate detection).
        """
        if self._sent_to or self._sent_all:
            for neighbor in self.neighbors:
                self.send(neighbor, payload)
            return
        if self._message_bits is not None:
            check_payload(payload, self._message_bits)
        self._sent_all = True
        self._broadcast = payload

    def _drain(self) -> Outbox:
        if self._sent_all:
            self._sent_all = False
            payload, self._broadcast = self._broadcast, None
            return Broadcast(payload, self.neighbors)
        out, self._outbox = self._outbox, []
        if self._sent_to:
            self._sent_to.clear()
        return out


class NodeProgram(ABC):
    """The per-node behaviour of one distributed algorithm.

    Subclasses implement :meth:`on_round` (and optionally
    :meth:`on_start`), call ``ctx.send`` to communicate, :meth:`halt` when
    locally finished, and expose their result via :meth:`output`.

    A program that has halted receives no further ``on_round`` calls; any
    messages still addressed to it are dropped by the engine.
    """

    def __init__(self) -> None:
        self._halted = False

    # -- lifecycle -----------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        """Called once before round 1. Sends here are delivered in round 1."""

    @abstractmethod
    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        """Process the inbox of one algorithm-round and buffer next sends.

        ``inbox`` maps sender node id to payload for every message that
        traversed an incident edge toward this node during round
        ``ctx.round``.
        """

    def halt(self) -> None:
        """Mark this node as locally finished."""
        self._halted = True

    @property
    def halted(self) -> bool:
        """Whether this node has locally finished."""
        return self._halted

    def output(self) -> Any:
        """The node's output value (``None`` until decided)."""
        return None


class Algorithm(ABC):
    """A distributed algorithm: a factory of per-node programs.

    Instances carry the algorithm's *global* parameters (source node, hop
    bound, weight function, ...). The distributed-algorithm-scheduling
    machinery identifies algorithms by the index they get in a workload; the
    :attr:`name` is purely cosmetic.
    """

    @property
    def name(self) -> str:
        """Human-readable algorithm name (defaults to the class name)."""
        return type(self).__name__

    @abstractmethod
    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        """Create this algorithm's program for ``node``."""

    def max_rounds(self, network: Network) -> int:
        """Safety cap on solo running time (engine raises past this)."""
        return 4 * network.num_nodes + 16


class ProgramHost:
    """Drives one (algorithm, node) program on behalf of an engine.

    Engines never touch :class:`NodeProgram` directly: a
    :class:`HostGroup` creates one host per participating node and calls
    :meth:`start` once and :meth:`step` once per algorithm-round,
    collecting the buffered sends.
    """

    __slots__ = ("node", "ctx", "program", "_started")

    def __init__(
        self,
        algorithm: Algorithm,
        node: int,
        network: Network,
        seed: Union[int, _Tapes],
        message_bits: Optional[int] = None,
    ):
        self.node = node
        self.ctx = NodeContext(node, network, seed, message_bits)
        self.program = algorithm.make_program(node, self.ctx)
        self._started = False

    @classmethod
    def seed_for(cls, master_seed: int, algorithm_id: Any, node: int) -> int:
        """The canonical per-(algorithm, node) seed derivation."""
        return derive_seed(master_seed, "node-program", algorithm_id, node)

    def start(self) -> Outbox:
        """Run ``on_start``; return sends to be delivered in round 1."""
        if self._started:
            raise RuntimeError("ProgramHost.start called twice")
        self._started = True
        self.ctx.round = 0
        if not self.program.halted:
            self.program.on_start(self.ctx)
        return self.ctx._drain()

    def step(self, algo_round: int, inbox: Mapping[int, Any]) -> Outbox:
        """Run one algorithm-round; return sends for the following round.

        ``algo_round`` is the algorithm-local round number (1-based) whose
        inbox is being delivered. Halted programs ignore the call.
        """
        if not self._started:
            raise RuntimeError("ProgramHost.step before start")
        program = self.program
        if program._halted:
            return []
        ctx = self.ctx
        ctx.round = algo_round
        program.on_round(ctx, inbox)
        return ctx._drain()

    @property
    def halted(self) -> bool:
        """Whether the underlying program has halted."""
        return self.program.halted

    def output(self) -> Any:
        """The underlying program's output."""
        return self.program.output()


class HostGroup:
    """One algorithm driven on a node subset: the single stepping core.

    Every engine drives its programs through groups, so an algorithm sees
    one driving protocol however it is scheduled. A group builds one
    :class:`ProgramHost` per node with the tape
    ``seed_for(master_seed, tape_id, node)``, derived on first read of the
    node's ``ctx.rng`` (``tapes``, when given, is a ``(tape_id, node) ->
    seed`` memo shared by copies of one algorithm). It owns the *live set*,
    in ``nodes`` order. A host leaves it for good when it halts, once it
    has stepped round ``limits[i]`` (optional, one per node; ``step`` then
    runs rounds ``1, 2, …`` in order), or when
    ``injector.crashed(node, crash_tick)`` holds. All three are monotone.
    """

    __slots__ = ("hosts", "_crashed", "_live")

    def __init__(
        self,
        algorithm: Algorithm,
        network: Network,
        nodes: Iterable[int],
        master_seed: int,
        tape_id: Any,
        message_bits: Optional[int] = None,
        limits: Optional[Sequence[int]] = None,
        injector: Any = None,
        tapes: Optional[Dict[Tuple[Any, int], int]] = None,
    ):
        deferred = _Tapes(master_seed, tape_id, {} if tapes is None else tapes)
        self.hosts = [
            ProgramHost(algorithm, node, network, deferred, message_bits) for node in nodes
        ]
        if limits is not None and len(limits) != len(self.hosts):
            raise ValueError(f"{len(limits)} limits for {len(self.hosts)} hosts")
        self._crashed = injector.crashed if injector and injector.enabled else None
        # (node, bound step, program, limit) per live host: the hot loop
        # steps without re-resolving attributes.
        self._live = [
            (host.node, host.step, host.program, limit)
            for host, limit in zip(self.hosts, repeat(sys.maxsize) if limits is None else limits)
        ]

    def start(self, emit: Callable[[int, Outbox], None]) -> bool:
        """Start every host (sends to ``emit(node, outbox)``); return whether any is live."""
        for host in self.hosts:
            emit(host.node, host.start())
        self._live = [entry for entry in self._live if not entry[2]._halted and entry[3] > 0]
        return bool(self._live)

    def step(
        self,
        algo_round: int,
        inbox_of: Callable[[int], Optional[Mapping[int, Any]]],
        emit: Callable[[int, Outbox], None],
        crash_tick: int = 0,
    ) -> bool:
        """Run round ``algo_round`` on the live hosts; return whether any stays live.

        ``inbox_of(node)`` gives a node's inbox (``None`` when empty); sends
        go to ``emit(node, outbox)``.
        """
        crashed = self._crashed
        live = []
        keep = live.append
        for entry in self._live:
            node, step, program, limit = entry
            if crashed is not None and crashed(node, crash_tick):
                continue
            inbox = inbox_of(node)
            emit(node, step(algo_round, {} if inbox is None else inbox))
            if not program._halted and algo_round < limit:
                keep(entry)
        self._live = live
        return bool(live)

    def outputs(self) -> Dict[int, Any]:
        """Every host's output, ``node -> value``."""
        return {host.node: host.output() for host in self.hosts}

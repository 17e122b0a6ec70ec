"""Golden pins for every engine that drives node programs.

Each engine's full outputs and counters on one fixed run are pinned to
exact values: the solo simulator, the phase engine, the cluster engine
(via :class:`~repro.core.PrivateScheduler`), the eager baseline and the
Bellagio harness. The faulted runs crash one node and delay messages,
so the crash-stop and late-delivery paths are pinned too. Outputs are
pinned by a digest of their sorted ``repr``; counters are pinned as
literals.
"""

import hashlib

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import solo_run, topology
from repro.core import EagerScheduler, PrivateScheduler, Workload, run_delayed_phases
from repro.derandomize import DistinctElements, run_with_private_randomness
from repro.experiments import mixed_workload
from repro.faults import FaultPlan, NodeCrash


def _digest(mapping) -> str:
    text = repr(sorted(mapping.items(), key=lambda item: repr(item[0])))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plan(crash_round: int, node: int = 10, delay: float = 0.3) -> FaultPlan:
    """One node of the 4x4 grid crash-stops; a share of messages is late."""
    return FaultPlan(
        seed=11,
        delay=delay,
        max_extra_delay=2,
        crashes=(NodeCrash(node, crash_round),),
    )


def _workload(net) -> Workload:
    return Workload(net, [BFS(0, hops=6), HopBroadcast(15, "tok", 6)])


def _solo(node: int, crash_round: int, delay: float, algorithm_index: int):
    net = topology.grid_graph(4, 4)
    algorithm = _workload(net).algorithms[algorithm_index]
    injector = _plan(crash_round, node, delay).injector()
    run = solo_run(
        net, algorithm, seed=3, algorithm_id=algorithm_index, injector=injector
    )
    events = list(run.trace.events())
    return {
        "outputs": _digest(run.outputs),
        "rounds": run.rounds,
        "completion_round": run.completion_round,
        "messages": run.trace.num_messages,
        "trace": hashlib.sha256(repr(events).encode()).hexdigest()[:16],
        "max_message_bits": run.max_message_bits,
        "faults": injector.snapshot(),
    }


def _phases(crash_round: int, **kwargs):
    net = topology.grid_graph(4, 4)
    injector = _plan(crash_round).injector()
    execution = run_delayed_phases(
        _workload(net), [0, 2], injector=injector, **kwargs
    )
    return {
        "outputs": _digest(execution.outputs),
        "num_phases": execution.num_phases,
        "max_phase_load": execution.max_phase_load,
        "histogram": sorted(execution.load_histogram.items()),
        "messages": execution.messages,
        "truncated": execution.truncated,
        "faults": injector.snapshot(),
    }


def _private(crash_round: int):
    net = topology.grid_graph(4, 4)
    result = PrivateScheduler().with_faults(_plan(crash_round)).run(
        _workload(net), seed=2
    )
    report = result.report
    return {
        "outputs": _digest(result.outputs),
        "length_rounds": report.length_rounds,
        "num_phases": report.num_phases,
        "max_phase_load": report.max_phase_load,
        "messages_sent": report.messages_sent,
        "messages_deduplicated": report.messages_deduplicated,
        "messages_truncated": report.notes["messages_truncated"],
        "num_copies": report.notes["num_copies"],
        "faults": report.telemetry["faults"],
    }


#: ``(crashed node, crash round, delay probability, algorithm index)``.
#: The two delay-free cases crash the last unhalted node exactly one
#: round after every other node has halted: the run must end before
#: that round, not after it.
SOLO = {
    (10, 1, 0.3, 0): {
        "outputs": "19b4015fc4f4675c",
        "rounds": 6,
        "completion_round": 7,
        "messages": 25,
        "trace": "00f773a8979f27ee",
        "max_message_bits": 4,
        "faults": {
            "faults.crash_drops": 3,
            "faults.delays": 5,
        },
    },
    (10, 1, 0.3, 1): {
        "outputs": "65f44aae3349d7c2",
        "rounds": 7,
        "completion_round": 9,
        "messages": 28,
        "trace": "8971ff1013156e2e",
        "max_message_bits": 32,
        "faults": {
            "faults.crash_drops": 4,
            "faults.delays": 7,
        },
    },
    (10, 3, 0.3, 1): {
        "outputs": "af2d1e7fec8e1fc3",
        "rounds": 7,
        "completion_round": 9,
        "messages": 28,
        "trace": "381928ff4381c28b",
        "max_message_bits": 32,
        "faults": {"faults.delays": 7},
    },
    (10, 7, 0.3, 0): {
        "outputs": "a454ee7a00dea369",
        "rounds": 7,
        "completion_round": 7,
        "messages": 29,
        "trace": "31fc5e90a62d8ffb",
        "max_message_bits": 4,
        "faults": {"faults.delays": 7},
    },
    (15, 6, 0.0, 0): {
        "outputs": "7cea050842349af5",
        "rounds": 6,
        "completion_round": 5,
        "messages": 24,
        "trace": "178371ca5efcd293",
        "max_message_bits": 4,
        "faults": {"faults.crash_drops": 2},
    },
    (0, 6, 0.0, 1): {
        "outputs": "af2d1e7fec8e1fc3",
        "rounds": 6,
        "completion_round": 5,
        "messages": 24,
        "trace": "da7ec952bb509f9c",
        "max_message_bits": 32,
        "faults": {"faults.crash_drops": 2},
    },
}

PHASES = {
    1: {
        "outputs": "0e83ae9d434351fa",
        "num_phases": 9,
        "max_phase_load": 2,
        "histogram": [(1, 48), (2, 1)],
        "messages": 50,
        "truncated": False,
        "faults": {
            "faults.crash_drops": 7,
            "faults.delays": 14,
        },
    },
    3: {
        "outputs": "0e83ae9d434351fa",
        "num_phases": 9,
        "max_phase_load": 2,
        "histogram": [(1, 48), (2, 1)],
        "messages": 50,
        "truncated": False,
        "faults": {
            "faults.crash_drops": 7,
            "faults.delays": 14,
        },
    },
    7: {
        "outputs": "6cb14f68c325c283",
        "num_phases": 9,
        "max_phase_load": 2,
        "histogram": [(1, 55), (2, 1)],
        "messages": 57,
        "truncated": False,
        "faults": {
            "faults.crash_drops": 1,
            "faults.delays": 19,
        },
    },
}

PHASES_TRUNCATED = {
    "outputs": "28ef30d8d6555795",
    "num_phases": 5,
    "max_phase_load": 2,
    "histogram": [(1, 29), (2, 1)],
    "messages": 39,
    "truncated": True,
    "faults": {"faults.crash_drops": 6, "faults.delays": 7},
}

PRIVATE = {
    1: {
        "outputs": "0e83ae9d434351fa",
        "length_rounds": 32,
        "num_phases": 8,
        "max_phase_load": 2,
        "messages_sent": 55,
        "messages_deduplicated": 485,
        "messages_truncated": 0,
        "num_copies": 28,
        "faults": {
            "faults.crash_drops": 8,
            "faults.delays": 13,
        },
    },
    4: {
        "outputs": "a2e73cb15aff23fe",
        "length_rounds": 32,
        "num_phases": 8,
        "max_phase_load": 1,
        "messages_sent": 55,
        "messages_deduplicated": 485,
        "messages_truncated": 0,
        "num_copies": 28,
        "faults": {
            "faults.crash_drops": 4,
            "faults.delays": 13,
        },
    },
}

#: ``(algorithms, workload seed)`` of a mixed workload on the 6x6 grid.
EAGER = {
    (12, 3): {
        "outputs": "11a2d96464026af7",
        "length_rounds": 5,
        "inbox_overwrites": 0,
        "late_or_dropped": 77,
        "in_flight_at_cutoff": 100,
        "mismatches": 64,
    },
    (16, 2): {
        "outputs": "d919543bfe5fd499",
        "length_rounds": 5,
        "inbox_overwrites": 0,
        "late_or_dropped": 71,
        "in_flight_at_cutoff": 157,
        "mismatches": 154,
    },
}

BELLAGIO = {
    "outputs": "2c911ae173f246a7",
    "output_layer": "757385826badf64f",
    "simulation_rounds": 74,
    "num_layers": 14,
}


@pytest.mark.parametrize("case", sorted(SOLO))
def test_solo_under_crash_and_delay(case):
    assert _solo(*case) == SOLO[case]


@pytest.mark.parametrize("crash_round", sorted(PHASES))
def test_phase_engine_under_crash_and_delay(crash_round):
    assert _phases(crash_round) == PHASES[crash_round]


def test_phase_engine_truncated():
    assert _phases(3, max_phases=4, on_limit="truncate") == PHASES_TRUNCATED


@pytest.mark.parametrize("crash_round", sorted(PRIVATE))
def test_cluster_engine_under_crash_and_delay(crash_round):
    assert _private(crash_round) == PRIVATE[crash_round]


def _eager(k: int, workload_seed: int):
    work = mixed_workload(topology.grid_graph(6, 6), k, seed=workload_seed)
    result = EagerScheduler().run(work, seed=0)
    notes = result.report.notes
    return {
        "outputs": _digest(result.outputs),
        "length_rounds": result.report.length_rounds,
        "inbox_overwrites": notes["inbox_overwrites"],
        "late_or_dropped": notes["late_or_dropped"],
        "in_flight_at_cutoff": notes["in_flight_at_cutoff"],
        "mismatches": len(result.mismatches),
    }


def _bellagio():
    net = topology.grid_graph(5, 5)
    values = {v: (v % 6) * 7919 + 3 for v in net.nodes}
    locality = DistinctElements(0, values, 2, 0.5, net.num_nodes).rounds
    result = run_with_private_randomness(
        net,
        lambda seed: DistinctElements(seed, values, 2, 0.5, net.num_nodes),
        locality,
        seed=4,
    )
    return {
        "outputs": _digest(result.outputs),
        "output_layer": _digest(result.output_layer),
        "simulation_rounds": result.simulation_rounds,
        "num_layers": result.num_layers,
    }


@pytest.mark.parametrize("case", sorted(EAGER))
def test_eager_on_congested_grid(case):
    assert _eager(*case) == EAGER[case]


def test_bellagio_harness():
    assert _bellagio() == BELLAGIO

"""Seeded input generator: one seed -> the spec strings of one workload.

The program under test only ever sees the strings produced here, parsed
with :func:`repro.service.parse_network` / :func:`parse_algorithm`. The
generator keeps the *amount* of work nearly constant across seeds (fixed
network shapes, fixed algorithm-kind counts, balanced per-chunk mixes)
and lets the seed move only the parameters: sources, hop bounds, master
seeds, the random-regular graph, and which earlier jobs are resubmitted.
That is what keeps the run-to-run spread across seeds small.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: The ``serve-mixed`` networks (at most 64 nodes each) with their node
#: counts; ``{seed}`` is filled per stream.
SERVE_NETWORKS = (
    ("grid:8x8", 64),
    ("torus:7x7", 49),
    ("ring:40", 40),
    ("hypercube:6", 64),
    ("tree:5", 63),
    ("regular:n=48,degree=4,seed={seed}", 48),
)

#: Algorithm kinds of the serve stream: one of each per network per chunk.
SERVE_KINDS = ("bfs", "broadcast", "flooding", "gossip", "leader", "agg", "mis")

#: Message-heavy kinds of ``schedule-large`` and how many of each.
LARGE_KINDS = (
    ("leader", 2),
    ("coloring", 2),
    ("mis", 2),
    ("gossip", 3),
    ("agg", 2),
    ("bfs", 2),
    ("broadcast", 3),
)

#: Kinds of ``schedule-private`` and how many of each.
PRIVATE_KINDS = (
    ("bfs", 2),
    ("broadcast", 2),
    ("gossip", 2),
    ("leader", 1),
    ("agg", 1),
    ("mis", 1),
    ("coloring", 1),
)


def _algorithm(rng: random.Random, kind: str, nodes: int, span: int, phases: int) -> str:
    """One algorithm spec; ``span`` is its hop/round bound, ``phases``
    the phase budget of the randomized symmetry breakers."""
    node = rng.randrange(nodes)
    if kind == "bfs":
        return f"bfs:source={node},hops={span}"
    if kind == "broadcast":
        return f"broadcast:source={node},token={rng.randrange(1000)},hops={span}"
    if kind == "flooding":
        return f"flooding:source={node},token={rng.randrange(1000)}"
    if kind == "gossip":
        return f"gossip:source={node},rounds={span}"
    if kind == "leader":
        return f"leader:deadline={span}"
    if kind == "agg":
        op = rng.choice(("min", "max", "sum"))
        return f"agg:root={node},height={span},op={op}"
    if kind == "mis":
        return f"mis:nodes={nodes},phases={phases}"
    if kind == "coloring":
        return f"coloring:phases={phases}"
    raise ValueError(f"unknown algorithm kind {kind!r}")


def serve_mixed(seed: int, chunks: int = 19) -> Dict[str, Any]:
    """A closed-loop job stream over six small networks.

    Every chunk (one poll of the serve loop) holds one fresh job per
    (network, kind) pair; every chunk after the first adds a third as
    many exact resubmissions of jobs from *earlier* chunks (a job still
    queued in the same chunk could not be served from the registry).
    With 19 chunks that is 1050 jobs, 252 of them (24%) resubmissions.
    """
    rng = random.Random(f"perfbench:serve-mixed:{seed}")
    graph_seed = rng.randrange(1000)
    networks = [spec.format(seed=graph_seed) for spec, _ in SERVE_NETWORKS]
    master_seeds = [rng.randrange(1 << 16) for _ in range(4)]
    jobs: List[Dict[str, Any]] = []
    seen = set()
    fresh_per_chunk = len(SERVE_NETWORKS) * len(SERVE_KINDS)
    resubmits_per_chunk = fresh_per_chunk // 3
    for chunk in range(chunks):
        earlier = [i for i, job in enumerate(jobs) if job["resubmit_of"] is None]
        batch: List[Dict[str, Any]] = []
        for net_index, (_, nodes) in enumerate(SERVE_NETWORKS):
            for kind in SERVE_KINDS:
                for _attempt in range(1000):
                    # Leader election has no source: widen its only
                    # parameter so a long stream still finds distinct jobs.
                    span = rng.randint(3, 8) + (rng.randrange(8) if kind == "leader" else 0)
                    job = {
                        "net": networks[net_index],
                        "algo": _algorithm(rng, kind, nodes, span, rng.randint(3, 8)),
                        "seed": rng.choice(master_seeds),
                        "resubmit_of": None,
                    }
                    key = (job["net"], job["algo"], job["seed"])
                    if key not in seen:
                        seen.add(key)
                        break
                else:
                    raise ValueError(f"no distinct {kind} job left on {job['net']}")
                batch.append(job)
        if chunk:
            for original in rng.sample(earlier, resubmits_per_chunk):
                batch.append(dict(jobs[original], resubmit_of=original))
        rng.shuffle(batch)
        for job in batch:
            job["chunk"] = chunk
        jobs.extend(batch)
    return {
        "workload": "serve-mixed",
        "networks": networks,
        "jobs": jobs,
        "chunk_sizes": [
            sum(1 for job in jobs if job["chunk"] == c) for c in range(chunks)
        ],
        "batch_size": 8,
        "schedule_seed": rng.randrange(1 << 16),
    }


def _schedule(
    workload: str,
    seed: int,
    network: str,
    nodes: int,
    kinds,
    span: int,
    instances: int,
) -> Dict[str, Any]:
    """``instances`` independent schedule problems on one network shape.

    One schedule's length over ``max(C, D)`` moves by 10-20% from seed to
    seed (the random delays decide how many phases it takes), so a
    repetition schedules several independent instances in turn and the
    ratio is summed over all of them. Hop bounds and phase budgets are
    fixed, so congestion and dilation barely move with the seed; the
    seed picks sources, tokens, operators and both seeds per instance.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    problems = []
    for _ in range(instances):
        algorithms = [
            _algorithm(rng, kind, nodes, span, 5)
            for kind, count in kinds
            for _ in range(count)
        ]
        rng.shuffle(algorithms)
        problems.append(
            {
                "network": network,
                "algorithms": algorithms,
                "master_seed": rng.randrange(1 << 16),
                "schedule_seed": rng.randrange(1 << 16),
            }
        )
    return {"workload": workload, "instances": problems}


def schedule_large(seed: int, side: int = 32, instances: int = 3) -> Dict[str, Any]:
    """Sixteen message-heavy algorithms on a ``side x side`` torus, per
    instance.

    The torus is vertex-transitive, so the seeded choice of sources
    does not change how much work a BFS or broadcast does.
    """
    return _schedule(
        "schedule-large", seed, f"torus:{side}x{side}", side * side,
        LARGE_KINDS, 3 * side // 8, instances,
    )


def schedule_private(seed: int, side: int = 10, instances: int = 10) -> Dict[str, Any]:
    """Ten algorithms on a ``side x side`` grid per instance, scheduled
    with private randomness."""
    return _schedule(
        "schedule-private", seed, f"grid:{side}x{side}", side * side,
        PRIVATE_KINDS, 4, instances,
    )


#: Generator and the keyword arguments of its tiny (self-test) size.
GENERATORS = {
    "serve-mixed": (serve_mixed, {"chunks": 3}),
    "schedule-large": (schedule_large, {"side": 8, "instances": 1}),
    "schedule-private": (schedule_private, {"side": 5, "instances": 1}),
}


def generate(workload: str, seed: int, tiny: bool = False) -> Dict[str, Any]:
    """The spec strings of ``workload`` for ``seed`` (deterministic)."""
    generator, tiny_kwargs = GENERATORS[workload]
    return generator(seed, **(tiny_kwargs if tiny else {}))

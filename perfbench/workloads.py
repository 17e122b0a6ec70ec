"""The three benchmark workloads: per-repetition set-up and timed section.

Every repetition builds everything fresh — networks and algorithms
parsed from the spec strings, a fresh :class:`SoloRunCache`, a fresh
:class:`RunRegistry` and, for ``serve-mixed``, a fresh service
directory — the way a new ``serve`` invocation or library caller does.
Nothing is shared between repetitions, and the process-wide ``"default"``
solo cache is never consulted (it would turn every later repetition
into all cache hits).

A repetition returns a :class:`Rep`: the timings of the timed section
plus everything the output checks and the per-layer counters need,
read after the clock stopped.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core import PrivateScheduler, RandomDelayScheduler, Workload
from repro.parallel import ParallelRunner, SoloRunCache
from repro.service import (
    AdmissionPolicy,
    ShardedSchedulerService,
    parse_algorithm,
    parse_network,
)

MB = 1024 * 1024


@dataclass
class Rep:
    """One repetition of a workload (timed section plus what it left)."""

    setup_s: float
    wall_s: float
    #: Per-job latency in seconds, in job order (``None``: never terminal).
    latencies: List[Optional[float]]
    #: Jobs (serve) or algorithms (library) that reached a terminal state.
    terminal: int
    attempted: int
    #: Sigma schedule length and Sigma max(C, D) over every schedule run.
    rounds: int
    lower_bound: int
    peak_rss_mb: float
    #: Per job or algorithm: what the output checks compare.
    results: List[Dict[str, Any]]
    #: Simulated statistics folded into the seed's digest.
    sim: List[Any]
    #: Counters read from the public ``stats()`` of each layer.
    stats: Dict[str, float] = field(default_factory=dict)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def _report_sim(report) -> List[Any]:
    params = report.params
    return [
        report.length_rounds,
        params.congestion,
        params.dilation,
        report.messages_sent,
        report.num_phases,
    ]


# ---------------------------------------------------------------------------
# serve-mixed: the serve path
# ---------------------------------------------------------------------------


def serve_mixed(spec: Dict[str, Any], workdir: Path, tracer=None) -> Rep:
    """Closed-loop poll -> drain over a directory-backed sharded service.

    Built as ``python -m repro serve`` builds it (disk registry, per-shard
    journals and event logs, ``fsync="batch"``, random-delay scheduler),
    with ``ParallelRunner(1)`` so the load comes from one process. One
    chunk of the stream is submitted, then ``drain()`` runs; the next
    chunk goes in only after the drain returned.

    A ``tracer`` (see :mod:`tracer`) is installed for the timed section
    only.
    """
    start = time.perf_counter()
    networks = {net: parse_network(net) for net in spec["networks"]}
    jobs = [
        (networks[job["net"]], parse_algorithm(job["algo"], network=networks[job["net"]]))
        for job in spec["jobs"]
    ]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if ShardedSchedulerService.pending_jobs(workdir):
        raise RuntimeError(f"fresh service directory {workdir} has pending jobs")
    cache = SoloRunCache()
    service = ShardedSchedulerService(
        directory=workdir,
        scheduler=RandomDelayScheduler(),
        batch_size=spec["batch_size"],
        policy=AdmissionPolicy(),
        runner=ParallelRunner(1),
        schedule_seed=spec["schedule_seed"],
        solo_cache=cache,
        fsync="batch",
    )
    setup_s = time.perf_counter() - start

    submitted_at: List[float] = [0.0] * len(jobs)
    latency: List[Optional[float]] = [None] * len(jobs)
    handles: List[Any] = [None] * len(jobs)
    pending: List[int] = []
    clock = time.perf_counter

    def wave_boundary() -> bool:
        # drain() polls this before every wave and once after the last:
        # each call is a wave boundary, where newly terminal jobs close.
        now = clock()
        still = []
        for index in pending:
            if handles[index].terminal:
                latency[index] = now - submitted_at[index]
            else:
                still.append(index)
        pending[:] = still
        return False

    if tracer is not None:
        tracer.install()
    t0 = clock()
    position = 0
    for size in spec["chunk_sizes"]:
        for index in range(position, position + size):
            job_spec = spec["jobs"][index]
            network, algorithm = jobs[index]
            submitted_at[index] = clock()
            job = service.submit(
                network,
                algorithm,
                master_seed=job_spec["seed"],
                spec={
                    "id": f"s{index:05d}",
                    "net": job_spec["net"],
                    "algo": job_spec["algo"],
                    "seed": job_spec["seed"],
                },
            )
            handles[index] = job
            if job.terminal:
                latency[index] = clock() - submitted_at[index]
            else:
                pending.append(index)
        position += size
        service.drain(stop=wave_boundary)
    service.shutdown(drain=False)
    wall_s = clock() - t0
    if tracer is not None:
        tracer.uninstall()
    peak = _peak_rss_mb()

    stats = service.stats()
    cache_stats = cache.stats()
    registry_stats = stats["registry"]
    rounds = lower_bound = 0
    sim: List[Any] = []
    retries = 0
    for key in sorted(service.shards):
        shard = service.shards[key]
        for report in shard.reports:
            rounds += report.length_rounds
            lower_bound += report.params.trivial_lower_bound
            sim.append(_report_sim(report))
        if shard.events is not None:
            retries += sum(1 for e in shard.events.events if e.kind == "retried")
    results = []
    for index, job in enumerate(handles):
        result = job.result
        results.append(
            {
                "state": job.state.value,
                "tape_id": job.tape_id,
                "message_bits": job.message_bits,
                "from_registry": bool(result is not None and result.from_registry),
                "batched": "batch" in job.meta,
                "outputs": result.outputs if result is not None else None,
            }
        )
        sim.append(
            [
                job.state.value,
                result.from_registry if result is not None else None,
                result.solo_rounds if result is not None else None,
                result.batch_size if result is not None else None,
            ]
        )
    queue = stats["latency"]["queue_latency_s"] if stats["latency"] else {}
    batched_jobs = sum(1 for r in results if r["batched"])
    journal = stats["journal"] or {}
    disk_registry = _dir_bytes(workdir / "registry", "*.pkl")
    disk_journal = _dir_bytes(workdir / "shards", "*/journal.jsonl")
    disk_events = _dir_bytes(workdir / "shards", "*/events.jsonl")
    counters = {
        "parallel.cache.lookups": cache_stats["hits"] + cache_stats["misses"],
        "parallel.cache.hits": cache_stats["hits"],
        "parallel.cache.misses": cache_stats["misses"],
        "service.queue.batches": stats["batches"],
        "service.queue.batched_jobs": batched_jobs,
        "service.queue.wait_p50_ms": 1e3 * (queue.get("p50") or 0.0),
        "service.queue.wait_p99_ms": 1e3 * (queue.get("p99") or 0.0),
        "service.registry.gets": registry_stats["hits"] + registry_stats["misses"],
        "service.registry.hits": registry_stats["hits"],
        "service.registry.puts": registry_stats["stores"],
        "service.journal.appends": journal.get("records", 0),
        "service.journal.bytes": disk_journal,
        "service.events.emits": stats["events"],
        "service.events.bytes": disk_events,
        "service.retries": retries,
        "service.registry.bytes": disk_registry,
        "service.disk_mb": (disk_registry + disk_journal + disk_events) / MB,
    }
    shutil.rmtree(workdir)
    return Rep(
        setup_s=setup_s,
        wall_s=wall_s,
        latencies=latency,
        terminal=sum(1 for job in handles if job.terminal),
        attempted=len(jobs),
        rounds=rounds,
        lower_bound=lower_bound,
        peak_rss_mb=peak,
        results=results,
        sim=sim,
        stats=counters,
    )


# ---------------------------------------------------------------------------
# schedule-large / schedule-private: the library path
# ---------------------------------------------------------------------------


def _library(
    spec: Dict[str, Any], make_scheduler: Callable[[], Any], tracer=None
) -> Rep:
    """Per instance: solo references, then one schedule, then verification.

    Each algorithm counts as one job whose latency is its instance's
    call: a library caller gets every output when the schedule returns.
    """
    start = time.perf_counter()
    problems = []
    for instance in spec["instances"]:
        network = parse_network(instance["network"])
        algorithms = [
            parse_algorithm(text, network=network)
            for text in instance["algorithms"]
        ]
        problems.append((instance, network, algorithms, SoloRunCache(), make_scheduler()))
    setup_s = time.perf_counter() - start

    clock = time.perf_counter
    runs = []
    if tracer is not None:
        tracer.install()
    latencies: List[Optional[float]] = []
    t0 = clock()
    for instance, network, algorithms, cache, scheduler in problems:
        called = clock()
        workload = Workload(
            network, algorithms, master_seed=instance["master_seed"], solo_cache=cache
        )
        workload.solo_runs()
        result = scheduler.run(workload, seed=instance["schedule_seed"])
        latencies.extend([clock() - called] * workload.num_algorithms)
        runs.append((workload, result))
    wall_s = clock() - t0
    if tracer is not None:
        tracer.uninstall()
    peak = _peak_rss_mb()

    rounds = lower_bound = 0
    sim: List[Any] = []
    results = []
    for workload, result in runs:
        report = result.report
        rounds += report.length_rounds
        lower_bound += report.params.trivial_lower_bound
        sim.append([_report_sim(report), report.messages_deduplicated])
        for run in workload.solo_runs():
            sim.append([run.rounds, run.completion_round, run.trace.num_messages])
        verified = set(result.verified_algorithms) if result.failure is None else set()
        results.extend(
            {
                "state": "done" if aid in verified else "failed",
                "tape_id": workload.tape_id(aid),
                "message_bits": workload.message_bits,
                "outputs": {
                    node: value
                    for (a, node), value in result.outputs.items()
                    if a == aid
                },
            }
            for aid in workload.aids
        )
    hits = sum(cache.stats()["hits"] for _, _, _, cache, _ in problems)
    misses = sum(cache.stats()["misses"] for _, _, _, cache, _ in problems)
    return Rep(
        setup_s=setup_s,
        wall_s=wall_s,
        latencies=latencies,
        terminal=len(results),
        attempted=len(results),
        rounds=rounds,
        lower_bound=lower_bound,
        peak_rss_mb=peak,
        results=results,
        sim=sim,
        stats={
            "parallel.cache.lookups": hits + misses,
            "parallel.cache.hits": hits,
            "parallel.cache.misses": misses,
        },
    )


def schedule_large(spec: Dict[str, Any], workdir: Path, tracer=None) -> Rep:
    """Theorem 1.1's random-delay schedule with the default transport."""
    return _library(spec, RandomDelayScheduler, tracer)


def schedule_private(spec: Dict[str, Any], workdir: Path, tracer=None) -> Rep:
    """Theorem 1.3's private-randomness schedule (clustering path)."""
    return _library(spec, PrivateScheduler, tracer)


RUNNERS = {
    "serve-mixed": serve_mixed,
    "schedule-large": schedule_large,
    "schedule-private": schedule_private,
}

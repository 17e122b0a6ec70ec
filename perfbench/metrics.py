"""Metric definitions and how each is computed from the repetitions.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics of
``BENCHMARK.json`` (the self-test checks it). Every per-layer metric
names the end-to-end metric and workload it is predicted to move: a
later change that claims a gain on one layer shows it here first.

Every per-layer time is a *self* time (span time minus the spans nested
in it), so the ``*_s`` layer metrics plus ``trace.unattributed_s`` add
up to ``trace.wall_s``. Per-layer values are means over the traced
repetitions of a run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

ALL = ("serve-mixed", "schedule-large", "schedule-private")
SERVE = ("serve-mixed",)
LARGE = ("schedule-large",)
PRIVATE = ("schedule-private",)
LIBRARY = ("schedule-large", "schedule-private")

#: ``name -> (unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_latency_p50_ms": ("ms", "lower"),
    "job_latency_p99_ms": ("ms", "lower"),
    "rounds_over_lb": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

#: ``name -> (unit, better, [(end-to-end metric, workloads), ...])``
#: of the per-layer metrics (``--trace 1``).
PER_LAYER: Dict[str, Tuple[str, str, List[Tuple[str, Tuple[str, ...]]]]] = {
    "congest.program.hosts": ("count", "lower", [("jobs_per_s", SERVE), ("job_latency_p99_ms", SERVE)]),
    "congest.program.host_build_s": ("s", "lower", [("jobs_per_s", SERVE), ("job_latency_p99_ms", SERVE)]),
    "congest.program.tape_derive_s": ("s", "lower", [("jobs_per_s", SERVE), ("job_latency_p99_ms", SERVE)]),
    "congest.program.tape_use_ratio": ("ratio", "higher", [("jobs_per_s", SERVE)]),
    "congest.program.steps": ("count", "lower", [("wall_s", LIBRARY)]),
    "congest.program.step_s": ("s", "lower", [("wall_s", LIBRARY)]),
    "congest.simulator.solo_runs": ("count", "lower", [("wall_s", ALL)]),
    "congest.simulator.solo_s": ("s", "lower", [("wall_s", ALL)]),
    "congest.simulator.sim_rounds": ("count", "lower", [("wall_s", ALL)]),
    "congest.simulator.messages": ("count", "lower", [("wall_s", ALL)]),
    "core.transport.calls": ("count", "lower", [("wall_s", LARGE)]),
    "core.transport.s": ("s", "lower", [("wall_s", LARGE)]),
    "core.transport.messages": ("count", "lower", [("wall_s", LARGE)]),
    "core.phase_engine.runs": ("count", "lower", [("wall_s", LARGE)]),
    "core.phase_engine.self_s": ("s", "lower", [("wall_s", LARGE)]),
    "core.phase_engine.skipped_phases": ("count", "higher", [("wall_s", LARGE)]),
    "core.cluster_engine.self_s": ("s", "lower", [("wall_s", PRIVATE)]),
    "clustering.s": ("s", "lower", [("wall_s", PRIVATE)]),
    "randomness.s": ("s", "lower", [("wall_s", PRIVATE)]),
    "core.scheduler.self_s": ("s", "lower", [("wall_s", LIBRARY)]),
    "core.verify_s": ("s", "lower", [("wall_s", ALL)]),
    "metrics.measure_params_s": ("s", "lower", [("wall_s", ALL)]),
    "parallel.cache.lookups": ("count", "lower", [("jobs_per_s", SERVE)]),
    "parallel.cache.hit_ratio": ("ratio", "higher", [("jobs_per_s", SERVE)]),
    "parallel.cache.s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.queue.batches": ("count", "lower", [("job_latency_p99_ms", SERVE), ("rounds_over_lb", SERVE)]),
    "service.queue.jobs_per_batch": ("ratio", "higher", [("job_latency_p99_ms", SERVE), ("rounds_over_lb", SERVE)]),
    "service.queue.wait_p50_ms": ("ms", "lower", [("job_latency_p99_ms", SERVE)]),
    "service.queue.wait_p99_ms": ("ms", "lower", [("job_latency_p99_ms", SERVE)]),
    "service.registry.gets": ("count", "lower", [("jobs_per_s", SERVE)]),
    "service.registry.hit_ratio": ("ratio", "higher", [("jobs_per_s", SERVE)]),
    "service.registry.get_s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.registry.puts": ("count", "lower", [("jobs_per_s", SERVE)]),
    "service.registry.put_s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.registry.bytes": ("bytes", "lower", [("jobs_per_s", SERVE)]),
    "service.journal.appends": ("count", "lower", [("jobs_per_s", SERVE)]),
    "service.journal.s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.journal.bytes": ("bytes", "lower", [("jobs_per_s", SERVE)]),
    "service.events.emits": ("count", "lower", [("jobs_per_s", SERVE)]),
    "service.events.s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.events.bytes": ("bytes", "lower", [("jobs_per_s", SERVE)]),
    "service.disk_mb": ("MB", "lower", [("jobs_per_s", SERVE)]),
    "service.submit_self_s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.drain_self_s": ("s", "lower", [("jobs_per_s", SERVE)]),
    "service.shutdown_s": ("s", "lower", [("wall_s", SERVE)]),
    "service.retries": ("count", "lower", [("jobs_per_s", SERVE)]),
    "trace.wall_s": ("s", "lower", [("wall_s", ALL)]),
    "trace.overhead_frac": ("ratio", "lower", [("wall_s", ALL)]),
    "trace.unattributed_s": ("s", "lower", [("wall_s", ALL)]),
    "trace.host_tape_share": ("ratio", "lower", [("jobs_per_s", SERVE)]),
    "trace.service_io_share": ("ratio", "lower", [("jobs_per_s", SERVE)]),
}

#: Per-layer self-time metric of each traced layer (see ``tracer.LAYERS``).
SELF_TIME = {
    "congest.program.host_build": "congest.program.host_build_s",
    "congest.program.tape_derive": "congest.program.tape_derive_s",
    "congest.program.step": "congest.program.step_s",
    "congest.simulator": "congest.simulator.solo_s",
    "core.transport": "core.transport.s",
    "core.phase_engine": "core.phase_engine.self_s",
    "core.cluster_engine": "core.cluster_engine.self_s",
    "clustering": "clustering.s",
    "randomness": "randomness.s",
    "core.verify": "core.verify_s",
    "metrics.measure_params": "metrics.measure_params_s",
    "core.scheduler": "core.scheduler.self_s",
    "parallel.cache": "parallel.cache.s",
    "service.submit": "service.submit_self_s",
    "service.drain": "service.drain_self_s",
    "service.shutdown": "service.shutdown_s",
    "service.registry.get": "service.registry.get_s",
    "service.registry.put": "service.registry.put_s",
    "service.journal": "service.journal.s",
    "service.events": "service.events.s",
}

#: Layers whose self time counts as service disk I/O (ROADMAP item 1's
#: "registry disk, journal and event log" share).
SERVICE_IO = ("service.registry.get", "service.registry.put", "service.journal", "service.events")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values: List[float], q: float) -> float:
    """Inclusive-method quantile ``q`` in (0, 1) of ``values``."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(reps, import_s: float, failed: int, attempted: int) -> Dict[str, float]:
    """End-to-end metrics over the (untraced) repetitions of a run.

    Timings are medians over the repetitions. Latency percentiles are
    taken within each repetition, over its jobs (1050 on
    ``serve-mixed``; on the library workloads a job's latency is its
    instance's schedule call), and then the median over repetitions is
    reported.
    """
    latencies = [[value for value in rep.latencies if value is not None] for rep in reps]
    return {
        "setup_s": import_s + statistics.median(rep.setup_s for rep in reps),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "jobs_per_s": statistics.median(rep.terminal / rep.wall_s for rep in reps),
        "job_latency_p50_ms": 1e3 * statistics.median(
            statistics.median(values) for values in latencies
        ),
        "job_latency_p99_ms": 1e3 * statistics.median(
            quantile(values, 0.99) for values in latencies
        ),
        "rounds_over_lb": _ratio(
            sum(rep.rounds for rep in reps), sum(rep.lower_bound for rep in reps)
        ),
        # The high-water mark after the first repetition: later ones
        # only add allocator noise to a process-lifetime maximum.
        "peak_rss_mb": reps[0].peak_rss_mb,
        "ok_frac": 1.0 - _ratio(failed, attempted),
    }


def _layer_values(rep, tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    calls, counts, stats = tracer.calls, tracer.counts, rep.stats
    values = {metric: tracer.self_s[layer] for layer, metric in SELF_TIME.items()}
    lookups = stats.get("parallel.cache.lookups", 0)
    gets = stats.get("service.registry.gets", 0)
    batches = stats.get("service.queue.batches", 0)
    values.update(
        {
            "congest.program.hosts": calls["congest.program.host_build"],
            "congest.program.tape_use_ratio": _ratio(
                counts["congest.program.tape_reads"], calls["congest.program.host_build"]
            ),
            "congest.program.steps": calls["congest.program.step"],
            "congest.simulator.solo_runs": calls["congest.simulator"],
            "congest.simulator.sim_rounds": counts["congest.simulator.sim_rounds"],
            "congest.simulator.messages": counts["congest.simulator.messages"],
            "core.transport.calls": calls["core.transport"],
            "core.transport.messages": counts["core.transport.messages"],
            "core.phase_engine.runs": calls["core.phase_engine"],
            "core.phase_engine.skipped_phases": counts["core.phase_engine.skipped_phases"],
            "parallel.cache.lookups": lookups,
            "parallel.cache.hit_ratio": _ratio(stats.get("parallel.cache.hits", 0), lookups),
            "service.queue.batches": batches,
            "service.queue.jobs_per_batch": _ratio(
                stats.get("service.queue.batched_jobs", 0), batches
            ),
            "service.registry.gets": gets,
            "service.registry.hit_ratio": _ratio(stats.get("service.registry.hits", 0), gets),
            "trace.wall_s": rep.wall_s,
            "trace.unattributed_s": rep.wall_s - sum(tracer.self_s.values()),
            "trace.host_tape_share": _ratio(
                tracer.self_s["congest.program.host_build"]
                + tracer.self_s["congest.program.tape_derive"],
                rep.wall_s,
            ),
            "trace.service_io_share": _ratio(
                sum(tracer.self_s[layer] for layer in SERVICE_IO), rep.wall_s
            ),
        }
    )
    for name in (
        "service.queue.wait_p50_ms",
        "service.queue.wait_p99_ms",
        "service.registry.puts",
        "service.registry.bytes",
        "service.journal.appends",
        "service.journal.bytes",
        "service.events.emits",
        "service.events.bytes",
        "service.disk_mb",
        "service.retries",
    ):
        values[name] = stats.get(name, 0)
    return values


def per_layer(traced, untraced) -> Dict[str, float]:
    """Per-layer metrics: means over the traced ``(rep, tracer)`` pairs,
    with the tracing overhead taken against the untraced repetitions."""
    per_rep = [_layer_values(rep, tracer) for rep, tracer in traced]
    values = {
        name: statistics.fmean(float(rep[name]) for rep in per_rep)
        for name in PER_LAYER
        if name != "trace.overhead_frac"
    }
    traced_wall = statistics.median(rep.wall_s for rep, _ in traced)
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return values

"""The batch scheduling service: shards, batcher, workers, registry glue.

This is the serving shape the paper's result wants (Theorem 1.1:
``k`` algorithms amortize into one ``O(congestion + dilation·log n)``
schedule): callers :meth:`~SchedulerService.submit` independent
``(network, algorithm)`` jobs over time, the service batches compatible
jobs — same network, master seed, and message budget — into single
:class:`~repro.core.workload.Workload` executions scheduled by any
existing :class:`~repro.core.base.Scheduler`, and each job gets back
exactly the outputs of its standalone run (stable tape identities make
this hold batch-invariantly, even for randomized algorithms).

Pipeline per submission::

    submit ──registry hit──────────────────────────▶ done (no execution)
       └────miss──▶ admission probe ──reject/park──▶ rejected / parked
                        └──admit──▶ queued ──▶ batched ──▶ running ──▶ done
                                                              └─retry─▶ failed

Theorem 1.1 is about *one* network, and jobs on different networks
share nothing, so the service partitions jobs by network: each
:class:`Shard` is plain data (a :class:`JobQueue`, a journal segment,
an event log, its execution reports and batch counter) keyed by
:func:`shard_key`. :meth:`~SchedulerService.drain` stages every batch
every shard can form into one :class:`~repro.parallel.runner
.ParallelRunner` wave, so independent networks are in flight together
while batching stays FIFO within a shard. A service that only ever sees
one network is simply the one-shard case. The content-addressed
:class:`~repro.service.registry.RunRegistry` and the solo-run cache are
shared across shards; job ids come from one service-wide sequence.

Execution is resilient by construction: batches run through
:meth:`~repro.core.base.Scheduler.run_resilient`, so fault-induced
errors become structured results; jobs whose batch died or diverged are
retried as solo executions — with bounded exponential backoff between
attempts — up to ``max_retries`` before being marked ``failed``, and a
batch that exceeds ``stuck_batch_timeout`` is distrusted wholesale and
sent down the same retry path: one bad job cannot sink its batchmates.

Crash safety is the journal's job (:mod:`repro.service.journal`): with
a ``directory``, every shard owns ``<directory>/shards/<key>/
journal.jsonl``, every state transition is appended there *before* it
is applied, and :meth:`SchedulerService.recover` rebuilds the service
after a crash — replaying idempotently against the registry so an
acknowledged completion is never executed twice, and quarantining a
job whose batch died ``poison_threshold`` times. The critical sections
are threaded with named :func:`~repro.faults.crashpoints.crash_point`
markers (:data:`CRASH_POINTS`) so the recovery contract is enforced by
killing the service at every one of them in tests and CI.

Telemetry follows the Recorder pattern used everywhere else: attach an
:class:`~repro.telemetry.InMemoryRecorder` for ``service.*`` counters,
the ``service.queue_depth`` gauge, the ``service.batch_size`` histogram,
and the ``service.drain`` span.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..congest.message import default_message_bits
from ..congest.network import Network
from ..congest.program import Algorithm
from ..congest.simulator import Simulator, SoloRun
from ..core.base import ScheduleResult, Scheduler
from ..core.random_delay import RandomDelayScheduler
from ..core.workload import Workload
from ..faults.crashpoints import crash_point
from ..metrics.congestion import measure_params
from ..metrics.schedule import ENGINE_COUNTERS, ScheduleReport
from ..parallel.cache import SoloRunCache, default_cache, network_fingerprint
from ..parallel.runner import ParallelRunner
from ..telemetry import NULL_RECORDER, Recorder
from .admission import AdmissionPolicy
from .events import EventLog, LatencyAccumulator, check_fsync
from .jobs import Job, JobResult, JobState, job_fingerprint
from .journal import (
    TERMINAL_RECORD_STATES,
    JobJournal,
    JournalState,
    decode_job_payload,
    encode_job_payload,
    read_journal,
)
from .registry import RunArtifact, RunRegistry

__all__ = [
    "CRASH_POINTS",
    "JobQueue",
    "LegacyJournalError",
    "SchedulerService",
    "ServiceClosed",
    "Shard",
    "shard_key",
]

#: Every named crash point the service threads through its write-ahead
#: critical sections, in lifecycle order. ``pre_journal`` points kill
#: the process before the intent record lands (the transition must
#: vanish on recovery); ``post_journal`` points kill it after the
#: record but before the in-memory transition (recovery must finish the
#: transition); ``complete.pre_registry`` / ``complete.pre_journal``
#: bracket the artifact store so recovery proves exactly-once
#: completion on both sides of the acknowledgement.
CRASH_POINTS = (
    "submit.pre_journal",
    "submit.post_journal",
    "admission.post_journal",
    "release.post_journal",
    "batch.pre_journal",
    "batch.post_journal",
    "complete.pre_registry",
    "complete.pre_journal",
    "complete.post_journal",
    "failed.pre_journal",
    "failed.post_journal",
)

#: Hex digits of the network fingerprint used as the shard directory
#: name — short enough to read in a path, long enough that collisions
#: would need ~10^14 distinct networks.
SHARD_KEY_CHARS = 12


def shard_key(network: Network) -> str:
    """Stable shard id of a network (fingerprint-derived, path-safe)."""
    return f"net-{network_fingerprint(network)[:SHARD_KEY_CHARS]}"


class ServiceClosed(RuntimeError):
    """Raised when submitting to a service that has been shut down."""


class LegacyJournalError(RuntimeError):
    """A non-empty pre-sharding ``<dir>/journal.jsonl`` was found.

    The service only reads per-shard journals, so serving over that file
    would silently drop whatever acknowledged work it still records.
    """


class JobQueue:
    """FIFO job store with compatibility-aware batch selection.

    Batch selection is O(batch), not O(pending): queued jobs are
    indexed by their *compatibility key* — the interned network
    identity plus ``(master_seed, message_bits)``, exactly the
    partition :meth:`~repro.service.jobs.Job.compatible_with` induces —
    so :meth:`next_batch` pops the anchor's bucket instead of rescanning
    the whole pending FIFO. Per-state counts (and the parked set) are
    maintained incrementally through the job transition observer, so
    :attr:`backlog` / :meth:`by_state` / :meth:`parked` stop iterating
    every job ever seen on each stats poll.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        #: Global FIFO of queued job ids; ids popped through a bucket
        #: are skipped lazily when they surface at the head.
        self._pending: Deque[str] = deque()
        self._popped: set = set()
        #: Compatibility-key index: each bucket is the pending FIFO
        #: restricted to one key, in the same relative order.
        self._buckets: Dict[Tuple[int, int, Optional[int]], Deque[str]] = {}
        self._key_of: Dict[str, Tuple[int, int, Optional[int]]] = {}
        #: Interned distinct networks (by ``is`` / ``==``), giving each
        #: compatibility class a stable small-integer handle.
        self._networks: List[Any] = []
        self._net_index: Dict[int, int] = {}
        self._retained: List[Any] = []
        self._depth = 0
        self._counts: Dict[JobState, int] = {state: 0 for state in JobState}
        self._parked: Dict[str, Job] = {}

    def _intern_network(self, network: Any) -> int:
        # id() is a safe cache key because every mapped object is kept
        # alive in _retained, so a live id can never be recycled.
        idx = self._net_index.get(id(network))
        if idx is not None:
            return idx
        for known_idx, known in enumerate(self._networks):
            if known is network or known == network:
                idx = known_idx
                break
        else:
            self._networks.append(network)
            idx = len(self._networks) - 1
        self._net_index[id(network)] = idx
        self._retained.append(network)
        return idx

    def _compat_key(self, job: Job) -> Tuple[int, int, Optional[int]]:
        return (
            self._intern_network(job.network),
            job.master_seed,
            job.message_bits,
        )

    def _enqueue(self, job: Job) -> None:
        key = self._compat_key(job)
        self._key_of[job.job_id] = key
        self._pending.append(job.job_id)
        self._buckets.setdefault(key, deque()).append(job.job_id)
        self._depth += 1

    def _on_transition(self, job: Job, old: JobState, new: JobState) -> None:
        self._counts[old] -= 1
        self._counts[new] += 1
        if old is JobState.PARKED:
            self._parked.pop(job.job_id, None)
        if new is JobState.PARKED:
            self._parked[job.job_id] = job

    def add(self, job: Job) -> None:
        """Register a job; queued jobs also enter the pending FIFO."""
        previous = self.jobs.get(job.job_id)
        if previous is not None:
            self._counts[previous.state] -= 1
            self._parked.pop(previous.job_id, None)
        self.jobs[job.job_id] = job
        self._counts[job.state] += 1
        job._observer = self._on_transition
        if job.state is JobState.QUEUED:
            self._enqueue(job)
        elif job.state is JobState.PARKED:
            self._parked[job.job_id] = job

    def requeue(self, job: Job) -> None:
        """Put a parked job back into the pending FIFO."""
        job.transition(JobState.QUEUED)
        self._enqueue(job)

    @property
    def depth(self) -> int:
        """Jobs waiting to be batched (queued only)."""
        return self._depth

    @property
    def backlog(self) -> int:
        """Jobs the service still owes work: queued + parked."""
        return self._depth + len(self._parked)

    def parked(self) -> List[Job]:
        """Every job currently parked by admission control."""
        return list(self._parked.values())

    def next_batch(self, batch_size: int) -> List[Job]:
        """Pop up to ``batch_size`` mutually compatible queued jobs.

        The oldest queued job anchors the batch; later queued jobs join
        in FIFO order iff :meth:`~repro.service.jobs.Job.compatible_with`
        the anchor (same network / master seed / message budget).
        Incompatible jobs keep their queue position for a later batch.
        The anchor's compatibility bucket *is* the pending FIFO filtered
        to jobs compatible with it, so popping the bucket selects the
        identical batch the old full rescan did, in O(batch).
        """
        if batch_size < 1:
            return []
        while self._pending and self._pending[0] in self._popped:
            self._popped.discard(self._pending.popleft())
        if not self._pending:
            return []
        bucket = self._buckets[self._key_of[self._pending[0]]]
        batch: List[Job] = []
        while bucket and len(batch) < batch_size:
            job_id = bucket.popleft()
            self._popped.add(job_id)
            self._depth -= 1
            batch.append(self.jobs[job_id])
        return batch

    def by_state(self) -> Dict[str, int]:
        """Job counts per lifecycle state (all states always present)."""
        return {state.value: self._counts[state] for state in JobState}

    def recount(self) -> Dict[str, int]:
        """Full O(jobs) recount of :meth:`by_state` (test oracle)."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts


@dataclass
class Shard:
    """One network's slice of the service: plain data, no behaviour.

    ``journal`` and ``events`` are ``None`` when the service has no
    directory / no event log; ``reports`` holds every workload execution
    (batches and solo retries) in execution order, and ``batches``
    continues the shard's journaled batch-id chain.
    """

    key: str
    queue: JobQueue
    journal: Optional[JobJournal] = None
    events: Optional[EventLog] = None
    reports: List[ScheduleReport] = field(default_factory=list)
    batches: int = 0


def _execute_payload(
    payload: Tuple[Scheduler, Workload, int]
) -> Tuple[ScheduleResult, float]:
    # Module-level trampoline so ParallelRunner can pickle the task.
    # Returns (result, elapsed) so the parent can apply its stuck-batch
    # timeout to pool executions it never clocked itself.
    scheduler, workload, seed = payload
    start = time.perf_counter()
    result = scheduler.run_resilient(workload, seed=seed)
    return result, time.perf_counter() - start


def _provenance(job: Job) -> Dict[str, Any]:
    # Fuzz provenance stamped at submission (spec["scenario"] /
    # spec["fuzz_seed"]); empty for ordinary jobs.
    return {
        key: job.meta[key]
        for key in ("scenario", "fuzz_seed")
        if key in job.meta
    }


def _registry_result(artifact: RunArtifact) -> JobResult:
    return JobResult(
        outputs=dict(artifact.outputs),
        solo_rounds=artifact.solo_rounds,
        scheduler=artifact.scheduler,
        batch_size=artifact.batch_size,
        from_registry=True,
        version=artifact.version,
    )


def _tape_id(fingerprint: Optional[str], job_id: str) -> str:
    return f"job:{fingerprint[:24]}" if fingerprint else f"job-anon:{job_id}"


def _refuse_legacy_journal(directory: Path) -> None:
    legacy = directory / "journal.jsonl"
    if legacy.exists() and legacy.stat().st_size > 0:
        raise LegacyJournalError(
            f"{legacy} is a pre-sharding journal; this service only reads "
            f"{directory / 'shards'}/<key>/journal.jsonl. Finish it with the "
            "release that wrote it, or delete it to discard its jobs."
        )


class SchedulerService:
    """Accepts jobs, batches them per network, executes, persists results.

    Parameters
    ----------
    directory:
        Service directory. With one, every shard journals to
        ``<directory>/shards/<key>/journal.jsonl`` (and spools
        ``events.jsonl`` next to it), the registry defaults to
        ``<directory>/registry``, and :meth:`recover` can rebuild the
        service after a crash. ``None`` keeps everything in memory.
    scheduler:
        Scheduler executing each batched workload (default
        :class:`~repro.core.random_delay.RandomDelayScheduler` — the
        Theorem 1.1 construction).
    batch_size:
        Maximum jobs per workload execution.
    policy:
        :class:`~repro.service.admission.AdmissionPolicy` applied at
        submission (default: admit everything). ``max_queue_depth``
        judges the backlog summed over every shard, ``max_shard_depth``
        the backlog of the shard the job would join.
    registry:
        :class:`~repro.service.registry.RunRegistry` serving
        resubmissions and persisting artifacts.
    recorder:
        Telemetry sink for ``service.*`` metrics; also threaded into
        the registry, and into the scheduler when batches run in-process.
    runner:
        :class:`~repro.parallel.runner.ParallelRunner` each drain wave
        is mapped over (default serial).
    max_retries:
        Solo re-executions granted to a job whose batch failed or
        diverged before it is marked ``failed``.
    schedule_seed:
        Seed for the scheduler's own randomness (delays, cluster
        radii), fixed per service for reproducibility.
    solo_cache:
        Passed through to every workload built by the service (default:
        the process-wide solo-run cache, which also makes admission
        probes free once the reference exists).
    events:
        Job-lifecycle event logs (see :mod:`repro.service.events`), one
        per shard. ``"auto"`` (default) spools ``events.jsonl`` when a
        directory is set and keeps in-memory logs otherwise;
        ``"memory"`` forces in-memory logs; ``None`` disables lifecycle
        events (and with them ``stats()["latency"]``).
    stuck_batch_timeout:
        Wall-clock seconds after which a batch execution is distrusted:
        its jobs go down the solo-retry path instead of being settled
        from the (suspiciously slow) result. ``None`` never times out.
    retry_backoff / retry_backoff_max:
        Base and cap of the exponential backoff slept between solo
        retries of a failed job (``min(retry_backoff * 2**attempt,
        retry_backoff_max)`` seconds). The default base of 0 disables
        sleeping, which keeps tests and in-memory services fast.
    poison_threshold:
        Journaled batch attempts after which :meth:`recover` moves a
        still-pending job to the ``quarantined`` dead-letter state
        instead of re-queueing it — a job that killed the process this
        many times stops sinking its batchmates.
    transport:
        Message-transport backend (see :mod:`repro.core.transport`)
        threaded into admission probes, batch workloads, and the
        scheduler. ``None`` defers to the scheduler's own setting and
        the ``REPRO_TRANSPORT`` environment default. Backends are
        bit-identical, so this only affects wall-clock time.
    fsync:
        Durability policy for every shard journal and event log.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        scheduler: Optional[Scheduler] = None,
        batch_size: int = 8,
        policy: Optional[AdmissionPolicy] = None,
        registry: Optional[RunRegistry] = None,
        recorder: Recorder = NULL_RECORDER,
        runner: Optional[ParallelRunner] = None,
        max_retries: int = 1,
        schedule_seed: int = 1,
        solo_cache: Any = "default",
        events: Optional[str] = "auto",
        stuck_batch_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        retry_backoff_max: float = 0.5,
        poison_threshold: int = 3,
        transport: Any = None,
        fsync: str = "batch",
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if stuck_batch_timeout is not None and stuck_batch_timeout <= 0:
            raise ValueError("stuck_batch_timeout must be positive (or None)")
        if retry_backoff < 0 or retry_backoff_max < 0:
            raise ValueError("retry backoff values must be non-negative")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if events not in ("auto", "memory", None):
            raise ValueError("events must be 'auto', 'memory', or None")
        self.directory = Path(directory) if directory is not None else None
        self.scheduler = scheduler if scheduler is not None else RandomDelayScheduler()
        self.batch_size = batch_size
        self.policy = policy if policy is not None else AdmissionPolicy()
        if registry is None:
            registry = RunRegistry(
                self.directory / "registry" if self.directory is not None else None
            )
        self.registry = registry
        self.recorder = recorder
        if recorder.enabled and self.registry.recorder is NULL_RECORDER:
            self.registry.recorder = recorder
        self.runner = runner if runner is not None else ParallelRunner(1)
        self.max_retries = max_retries
        self.schedule_seed = schedule_seed
        self.solo_cache = solo_cache
        self.events_mode = events
        self.stuck_batch_timeout = stuck_batch_timeout
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.poison_threshold = poison_threshold
        self.transport = transport
        self.fsync = check_fsync(fsync)
        self._sleep = time.sleep  # injectable for backoff tests
        #: Live shards in creation order, ``key -> Shard``.
        self.shards: Dict[str, Shard] = {}
        self._job_counter = 0
        #: Per-batch elapsed seconds of every wave the drains dispatched,
        #: in wave order — the raw material for critical-path throughput
        #: accounting (``bench_e23``): a wave's cost on enough cores is
        #: its max entry; a serial drain pays the sum.
        self.drain_waves: List[List[float]] = []
        self._closed = False
        if self.directory is not None:
            # Open every shard with history now, so the one job-id sequence
            # continues past every journaled id, whatever network comes next.
            for path in sorted((self.directory / "shards").glob("*/journal.jsonl")):
                self._open_shard(path.parent.name)

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------

    def _open_shard(self, key: str) -> Shard:
        shard_dir = (
            self.directory / "shards" / key if self.directory is not None else None
        )
        shard = Shard(key, JobQueue())
        if self.events_mode is not None:
            spool = self.events_mode == "auto" and shard_dir is not None
            shard.events = EventLog(
                shard_dir / "events.jsonl" if spool else None, fsync=self.fsync
            )
        if shard_dir is not None:
            shard.journal = JobJournal(shard_dir / "journal.jsonl", fsync=self.fsync)
            # Continue the id chains of whatever history the journal
            # replayed, so post-restart ids never collide with
            # journaled ones.
            shard.batches = shard.journal.state.last_batch
            self._job_counter = max(self._job_counter, shard.journal.state.last_job)
        self.shards[key] = shard
        return shard

    def _journal(self, shard: Shard, kind: str, **fields: Any) -> None:
        """Append one WAL record; no-op for journal-less services."""
        if shard.journal is not None:
            shard.journal.append(kind, **fields)

    def _emit(self, shard: Shard, kind: str, job: Job, **attrs: Any) -> None:
        if shard.events is not None:
            shard.events.emit(
                kind,
                job.job_id,
                fingerprint=job.fingerprint,
                queue_depth=shard.queue.depth,
                **attrs,
            )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        network: Network,
        algorithm: Algorithm,
        master_seed: int = 0,
        message_bits: Optional[int] = -1,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Submit one job to its network's shard; returns it post-admission.

        Resubmissions of content-identical jobs are served from the
        registry immediately (state ``done``, ``result.from_registry``),
        skipping admission and execution entirely.

        ``spec`` is an optional JSON-able description of the job (the
        CLI passes its spool record: ``{"id", "net", "algo", "seed"}``).
        With a journal it rides in the ``submit`` record so
        :meth:`recover` can rebuild the job human-readably; without one
        the journal falls back to pickling ``(network, algorithm)``.
        """
        if self._closed:
            raise ServiceClosed("service has been shut down")
        key = shard_key(network)
        shard = self.shards.get(key)
        if shard is None:
            shard = self._open_shard(key)
        if message_bits == -1:
            message_bits = default_message_bits(network.num_nodes)
        fingerprint = job_fingerprint(network, algorithm, master_seed, message_bits)
        # Job ids come from one service-wide sequence so they stay
        # unique across shards (the CLI maps spool records by job id,
        # and merged event streams key latencies by it).
        self._job_counter += 1
        job_id = f"j{self._job_counter:04d}"
        job = Job(
            job_id=job_id,
            network=network,
            algorithm=algorithm,
            master_seed=master_seed,
            message_bits=message_bits,
            fingerprint=fingerprint,
            tape_id=_tape_id(fingerprint, job_id),
        )
        job.meta["shard"] = key
        if spec is not None:
            if "id" in spec:
                job.meta["spool"] = spec["id"]
            # "scenario"/"fuzz_seed" are the fuzzer's provenance stamps:
            # they ride into the failure events below so a divergence in
            # a serve log names the scenario that reproduces it.
            for name in ("net", "algo", "scenario", "fuzz_seed"):
                if name in spec:
                    job.meta[name] = spec[name]
        if shard.journal is not None:
            # Write-ahead: the job exists durably before it exists in
            # memory. A crash before this line means the submission was
            # never acknowledged and legitimately vanishes.
            payload = encode_job_payload(network, algorithm, spec)
            crash_point("submit.pre_journal")
            shard.journal.append(
                "submit",
                job=job_id,
                fingerprint=fingerprint,
                master_seed=master_seed,
                message_bits=message_bits,
                algorithm=algorithm.name,
                payload=payload,
                spool=job.meta.get("spool"),
            )
            crash_point("submit.post_journal")
        if self.recorder.enabled:
            self.recorder.counter("service.submitted")
        self._emit(shard, "submitted", job)

        artifact = self.registry.get(fingerprint)
        if artifact is not None:
            self._journal(shard, "done", job=job_id, from_registry=True)
            job.state = JobState.DONE
            job.result = _registry_result(artifact)
            shard.queue.add(job)
            self._emit(shard, "done", job, from_registry=True)
            return job

        job.params = measure_params([self._probe(job)])
        self._admit(shard, job)
        self._gauge_depth()
        return job

    def _admit(self, shard: Shard, job: Job) -> None:
        """Decide, journal and apply one admission (WAL order)."""
        decision = self.policy.check(
            job.params, self.backlog(), shard_depth=shard.queue.backlog
        )
        if decision.admitted:
            kind, state = "admitted", JobState.QUEUED
        elif decision.action == "park":
            kind, state = "parked", JobState.PARKED
        else:
            kind, state = "rejected", JobState.REJECTED
        detail = {} if decision.admitted else {"reason": decision.reason}
        self._journal(shard, kind, job=job.job_id, **detail)
        crash_point("admission.post_journal")
        job.state = state
        if not decision.admitted:
            job.reason = decision.reason
        if state is JobState.PARKED and decision.cause:
            job.meta["park_cause"] = decision.cause
        if self.recorder.enabled:
            self.recorder.counter(f"service.{kind}")
        shard.queue.add(job)
        self._emit(shard, kind, job, **({"reason": job.reason} if job.reason else {}))

    def submit_many(
        self,
        network: Network,
        algorithms: Sequence[Algorithm],
        master_seed: int = 0,
        message_bits: Optional[int] = -1,
    ) -> List[Job]:
        """Submit a stream of jobs sharing one network and seed."""
        return [
            self.submit(
                network, algorithm, master_seed=master_seed,
                message_bits=message_bits,
            )
            for algorithm in algorithms
        ]

    def _probe(self, job: Job) -> SoloRun:
        """The job's standalone reference run (admission + ground truth).

        Goes through the configured solo-run cache under the job's
        stable tape identity, so the batched workload's own reference
        lookups (same key) are hits — admission costs no extra
        simulation in the steady state.
        """
        cache = self._resolve_cache()
        if cache is not None:
            return cache.get_or_run(
                job.network,
                job.algorithm,
                algorithm_id=job.tape_id,
                seed=job.master_seed,
                message_bits=job.message_bits,
                transport=self.transport,
            )
        sim = Simulator(
            job.network, message_bits=job.message_bits, transport=self.transport
        )
        return sim.run(
            job.algorithm, seed=job.master_seed, algorithm_id=job.tape_id
        )

    def _resolve_cache(self) -> Optional[SoloRunCache]:
        if self.solo_cache == "default":
            return default_cache()
        if isinstance(self.solo_cache, SoloRunCache):
            return self.solo_cache
        return None

    def release_parked(self, cause: Optional[str] = None) -> List[Job]:
        """Re-queue parked jobs in every shard (e.g. after raising the budget).

        With ``cause`` (an :class:`~repro.service.admission
        .AdmissionDecision` cause such as ``"depth"``), only jobs parked
        for that reason are released — the serve loop uses this to free
        backpressure-parked jobs once their shard drained without also
        releasing jobs parked to wait for a bigger round budget.
        """
        released = []
        for shard in self.shards.values():
            for job in shard.queue.parked():
                if cause is not None and job.meta.get("park_cause") != cause:
                    continue
                # WAL order like every other transition: the record lands
                # before parked→queued is applied, so a crash here recovers
                # the job as queued instead of silently re-parking it.
                self._journal(shard, "released", job=job.job_id)
                crash_point("release.post_journal")
                shard.queue.requeue(job)
                released.append(job)
                self._emit(shard, "released", job)
        self._gauge_depth()
        return released

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _stage_batch(self, shard: Shard) -> Optional[Tuple[str, List[Job], Workload]]:
        batch = shard.queue.next_batch(self.batch_size)
        if not batch:
            return None
        shard.batches += 1
        batch_id = f"b{shard.batches:04d}"
        if shard.journal is not None:
            # Journal batch membership before any job transitions: a
            # crash mid-batch must leave a durable record that these
            # jobs were attempted (that is what the poison counter and
            # quarantine decision are computed from on recovery).
            crash_point("batch.pre_journal")
            shard.journal.append(
                "batch", batch=batch_id, jobs=[job.job_id for job in batch]
            )
            crash_point("batch.post_journal")
        workload = self._workload(batch)
        for job in batch:
            job.transition(JobState.BATCHED)
            job.meta["batch"] = batch_id
            self._emit(shard, "batched", job, batch=batch_id, batch_jobs=len(batch))
        if self.recorder.enabled:
            self.recorder.counter("service.batches")
            self.recorder.observe("service.batch_size", len(batch))
        self._gauge_depth()
        return batch_id, batch, workload

    def _workload(self, jobs: List[Job]) -> Workload:
        return Workload(
            jobs[0].network,
            [job.algorithm for job in jobs],
            master_seed=jobs[0].master_seed,
            message_bits=jobs[0].message_bits,
            solo_cache=self.solo_cache,
            algorithm_ids=[job.tape_id for job in jobs],
            transport=self.transport,
        )

    def _run_scheduler(self, in_process: bool = True) -> Scheduler:
        # Pool workers get a recorder-free copy: the live recorder does
        # not pickle, and its spans would land in the child anyway.
        scheduler = copy.copy(self.scheduler)
        scheduler.recorder = self.recorder if in_process else NULL_RECORDER
        if self.transport is not None:
            scheduler.transport = self.transport
        return scheduler

    def drain(self, stop: Optional[Callable[[], bool]] = None) -> List[Job]:
        """Execute every queued batch; returns all jobs processed.

        Each iteration stages one *wave*: every batch every shard can
        currently form, mapped over the runner in one ordered map (so a
        pooled wave settles exactly like a serial one). Within a shard,
        batches keep their FIFO order — they are staged in queue order
        and settled in submission order. Solo retries always run in the
        parent so the registry and telemetry see every outcome.

        ``stop`` is polled before every wave and once after the last;
        when it turns true the drain returns after the in-flight wave
        settles, leaving the rest queued for a later drain (the serve
        loop's graceful-shutdown hook).
        """
        processed: List[Job] = []
        in_process = self.runner.workers <= 1
        with self.recorder.span(
            "service.drain", category="service", shards=len(self.shards)
        ):
            while not (stop is not None and stop()):
                staged = []
                for shard in self.shards.values():
                    item = self._stage_batch(shard)
                    while item is not None:
                        staged.append((shard,) + item)
                        item = self._stage_batch(shard)
                if not staged:
                    break
                payloads = [
                    (self._run_scheduler(in_process), workload, self.schedule_seed)
                    for *_, workload in staged
                ]
                results = self.runner.map(_execute_payload, payloads)
                wave: List[float] = []
                for (shard, batch_id, batch, _), (result, elapsed) in zip(staged, results):
                    self._settle(shard, batch_id, batch, result, elapsed)
                    processed.extend(batch)
                    wave.append(elapsed)
                self.drain_waves.append(wave)
        return processed

    def _settle(
        self,
        shard: Shard,
        batch_id: str,
        batch: List[Job],
        result: ScheduleResult,
        elapsed: float,
    ) -> None:
        """Assign a batch execution's outcome to its jobs (with retries)."""
        shard.reports.append(result.report)
        failure: Any = result.failure
        if self.stuck_batch_timeout is not None and elapsed > self.stuck_batch_timeout:
            failure = (
                f"stuck batch: {elapsed:.3f}s exceeded "
                f"stuck_batch_timeout={self.stuck_batch_timeout}s"
            )
            if self.recorder.enabled:
                self.recorder.counter("service.stuck_batches")
        served = set(result.verified_algorithms) if failure is None else set()
        for aid, job in enumerate(batch):
            job.transition(JobState.RUNNING)
            job.attempts += 1
            if aid in served:
                outputs = {
                    node: value
                    for (a, node), value in result.outputs.items()
                    if a == aid
                }
                self._complete(shard, job, outputs, result.report, len(batch), batch_id)
            else:
                self._retry_solo(shard, job, batch_id, failure)

    def _retry_solo(self, shard: Shard, job: Job, batch_id: str, failure=None) -> None:
        """Re-execute a job alone until it verifies or retries run out."""
        last_reason = str(failure) if failure is not None else "outputs diverged"
        for attempt in range(self.max_retries):
            if self.retry_backoff > 0:
                delay = min(self.retry_backoff * 2**attempt, self.retry_backoff_max)
                if delay > 0:
                    self._sleep(delay)
            if self.recorder.enabled:
                self.recorder.counter("service.retries")
            self._emit(
                shard, "retried", job,
                batch=batch_id,
                attempt=job.attempts + 1,
                reason=last_reason,
                **_provenance(job),
            )
            job.attempts += 1
            result = self._run_scheduler().run_resilient(
                self._workload([job]), seed=self.schedule_seed
            )
            shard.reports.append(result.report)
            if result.correct:
                outputs = {node: value for (_aid, node), value in result.outputs.items()}
                self._complete(shard, job, outputs, result.report, 1, batch_id)
                return
            last_reason = (
                str(result.failure)
                if result.failure is not None
                else f"{len(result.mismatches)} outputs diverged"
            )
        if shard.journal is not None:
            crash_point("failed.pre_journal")
            shard.journal.append("failed", job=job.job_id, reason=last_reason)
            crash_point("failed.post_journal")
        job.transition(JobState.FAILED, reason=last_reason)
        if self.recorder.enabled:
            self.recorder.counter("service.jobs_failed")
        self._emit(
            shard, "failed", job, batch=batch_id, reason=last_reason, **_provenance(job)
        )

    def _complete(
        self,
        shard: Shard,
        job: Job,
        outputs: Dict[int, Any],
        report: ScheduleReport,
        batch_size: int,
        batch_id: str,
    ) -> None:
        solo_rounds = job.params.dilation if job.params is not None else 0
        # Completion order is the exactly-once contract: the artifact
        # lands in the registry FIRST, the journal acknowledges SECOND,
        # the in-memory transition happens LAST. A crash between
        # registry.put and the journal record leaves a pending job whose
        # artifact already exists — recovery finds the registry hit and
        # marks it done without re-executing; a crash before registry.put
        # re-executes, which is legal because nothing was acknowledged.
        crash_point("complete.pre_registry")
        if job.fingerprint is not None:
            self.registry.put(
                RunArtifact(
                    fingerprint=job.fingerprint,
                    outputs=dict(outputs),
                    solo_rounds=solo_rounds,
                    scheduler=report.scheduler,
                    batch_size=batch_size,
                    version=report.version,
                    meta={
                        "batch": batch_id,
                        "schedule_seed": self.schedule_seed,
                        "length_rounds": report.length_rounds,
                    },
                )
            )
        if shard.journal is not None:
            crash_point("complete.pre_journal")
            shard.journal.append("done", job=job.job_id, batch=batch_id)
            crash_point("complete.post_journal")
        job.result = JobResult(
            outputs=outputs,
            solo_rounds=solo_rounds,
            scheduler=report.scheduler,
            batch_size=batch_size,
            version=report.version,
        )
        job.transition(JobState.DONE)
        if self.recorder.enabled:
            self.recorder.counter("service.jobs_done")
        self._emit(shard, "done", job, batch=batch_id, batch_size=batch_size)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, directory: Union[str, Path], **kwargs: Any) -> "SchedulerService":
        """Rebuild a service from its per-shard journals after a crash.

        Every ``<directory>/shards/<key>/journal.jsonl`` is replayed
        against the shared registry (``<directory>/registry`` unless a
        ``registry`` kwarg overrides it); remaining kwargs go to the
        constructor unchanged. Raises :class:`LegacyJournalError` if a
        non-empty pre-sharding ``<directory>/journal.jsonl`` exists.

        Recovery is an idempotent replay: terminal jobs are restored
        as-is, and every still-pending job is re-decided against the
        durable evidence — a registry artifact under its fingerprint
        means the completion was acknowledged before the crash, so the
        job is marked ``done`` **without re-execution** (exactly-once);
        a job journaled into ``poison_threshold`` or more batch
        attempts is dead-lettered as ``quarantined``; a job whose
        payload cannot be rebuilt is ``failed`` with a reason; a job
        last journaled ``submitted`` or ``parked`` goes back through
        the current admission policy (so a resume with a raised budget
        frees parked jobs); anything else re-enters the queue to be
        drained again. Each new decision is itself journaled first, so
        recovering a recovered journal reaches the identical state.
        """
        _refuse_legacy_journal(Path(directory))
        service = cls(directory=directory, **kwargs)
        awaiting_admission = []
        for shard in service.shards.values():
            for job_id, entry in sorted(shard.journal.state.jobs.items()):
                job = service._rebuild_job(job_id, entry)
                if entry["state"] in TERMINAL_RECORD_STATES:
                    service._restore_terminal(shard, job, entry)
                elif entry["state"] in ("submitted", "parked"):
                    awaiting_admission.append((job_id, shard, job, entry))
                else:
                    service._redecide_pending(shard, job, entry)
        # Admission judges the backlog of *every* shard, so jobs still
        # awaiting a decision are re-decided only after all shards'
        # queued work is loaded, in global submission order — the
        # decision must not depend on which shard key sorts first.
        for _, shard, job, entry in sorted(awaiting_admission, key=lambda item: item[0]):
            service._redecide_pending(shard, job, entry)
        service._gauge_depth()
        return service

    @staticmethod
    def pending_jobs(directory: Union[str, Path]) -> Dict[str, List[str]]:
        """Per-shard pending job ids left by a crashed serve.

        Reads journal segments without opening (and thus repairing)
        them — the cheap pre-flight the CLI uses to refuse a plain
        ``serve`` over unfinished work. Raises
        :class:`LegacyJournalError` like :meth:`recover`.
        """
        base = Path(directory)
        _refuse_legacy_journal(base)
        pending: Dict[str, List[str]] = {}
        for path in sorted((base / "shards").glob("*/journal.jsonl")):
            state = JournalState()
            for record in read_journal(path)[0]:
                state.apply(record)
            unfinished = state.pending()
            if unfinished:
                pending[path.parent.name] = unfinished
        return pending

    def _rebuild_job(self, job_id: str, entry: Dict[str, Any]) -> Job:
        """A journaled job as an in-memory :class:`Job` (state unset)."""
        fingerprint = entry.get("fingerprint")
        decoded = None
        if entry["state"] not in TERMINAL_RECORD_STATES:
            decoded = decode_job_payload(entry.get("payload"))
        network, algorithm = decoded if decoded is not None else (None, None)
        job = Job(
            job_id=job_id,
            network=network,
            algorithm=algorithm,
            master_seed=entry.get("master_seed", 0),
            message_bits=entry.get("message_bits"),
            fingerprint=fingerprint,
            tape_id=_tape_id(fingerprint, job_id),
        )
        job.attempts = entry.get("batch_attempts", 0)
        job.meta["recovered"] = True
        job.meta["algorithm"] = entry.get("algorithm", "?")
        for name in ("spool", "batch"):
            if entry.get(name):
                job.meta[name] = entry[name]
        payload = entry.get("payload")
        if isinstance(payload, dict) and "net" in payload:
            job.meta["net"] = payload["net"]
            job.meta["algo"] = payload["algo"]
        return job

    def _restore_terminal(self, shard: Shard, job: Job, entry: Dict[str, Any]) -> None:
        """Re-create a job whose journaled state is already terminal."""
        state = entry["state"]
        if state == "done":
            artifact = self.registry.get(job.fingerprint)
            if artifact is not None:
                job.result = _registry_result(artifact)
            else:
                # In-memory registry, or artifact pruned: the completion
                # stands (it was acknowledged) but outputs are gone.
                job.reason = "recovered: result artifact unavailable"
        else:
            job.reason = entry.get("reason") or {
                "failed": "failed before crash",
                "rejected": "",
                "quarantined": "quarantined",
            }[state]
        job.state = JobState(state)
        shard.queue.add(job)

    def _redecide_pending(self, shard: Shard, job: Job, entry: Dict[str, Any]) -> None:
        """Decide what a journaled-but-unfinished job becomes now.

        Every outcome is journaled before it is applied, keeping the
        WAL discipline through recovery itself — which is what makes
        recovering twice converge to the same state.
        """
        artifact = self.registry.get(job.fingerprint)
        if artifact is not None:
            # The crash hit between registry.put and the journal's
            # "done" record: the result was durably acknowledged, so
            # finishing the paperwork — not re-executing — is the only
            # correct move (exactly-once completion).
            self._journal(shard, "done", job=job.job_id, from_registry=True)
            job.result = _registry_result(artifact)
            self._settle_recovered(
                shard, job, JobState.DONE, "jobs_done",
                from_registry=True, recovered=True,
            )
            return
        if entry.get("batch_attempts", 0) >= self.poison_threshold:
            reason = (
                f"quarantined after {entry['batch_attempts']} journaled "
                f"batch attempts (poison_threshold={self.poison_threshold})"
            )
            self._journal(shard, "quarantined", job=job.job_id, reason=reason)
            job.reason = reason
            self._settle_recovered(shard, job, JobState.QUARANTINED, "quarantined", reason=reason)
            return
        if job.network is None or job.algorithm is None:
            reason = "recovered: job payload unrecoverable"
            self._journal(shard, "failed", job=job.job_id, reason=reason)
            job.reason = reason
            self._settle_recovered(shard, job, JobState.FAILED, "jobs_failed", reason=reason)
            return
        job.params = measure_params([self._probe(job)])
        if entry["state"] in ("submitted", "parked"):
            # "submitted": the crash landed before any admission
            # decision. "parked": the old decision was to wait for a
            # bigger budget. Either way the *current* policy decides,
            # through the same journaled path as a live submit — a
            # restart with a raised budget releases parked jobs instead
            # of stranding them parked forever (and re-parks them,
            # journaled again, when the budget still says no).
            self._admit(shard, job)
            return
        self._settle_recovered(
            shard, job, JobState.QUEUED, "recovered", state=entry["state"]
        )

    def _settle_recovered(
        self, shard: Shard, job: Job, target: JobState, counter: str, **attrs: Any
    ) -> None:
        job.state = target
        shard.queue.add(job)
        if self.recorder.enabled:
            self.recorder.counter(f"service.{counter}")
        kind = "recovered" if target is JobState.QUEUED else target.value
        self._emit(shard, kind, job, **attrs)

    def journaled_spools(self) -> set:
        """Spool ids already journaled by any shard (skip on re-serve)."""
        return {
            entry["spool"]
            for shard in self.shards.values()
            if shard.journal is not None
            for entry in shard.journal.state.jobs.values()
            if entry.get("spool")
        }

    # ------------------------------------------------------------------
    # querying and lifecycle
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Jobs owed across every shard (queued + parked)."""
        return sum(shard.queue.backlog for shard in self.shards.values())

    def queue_depth(self) -> int:
        """Queued jobs across every shard."""
        return sum(shard.queue.depth for shard in self.shards.values())

    @property
    def reports(self) -> List[ScheduleReport]:
        """Every execution report, shard by shard in creation order."""
        return [report for shard in self.shards.values() for report in shard.reports]

    def jobs(self) -> List[Job]:
        """All jobs across shards, in global submission (job id) order."""
        return sorted(
            (job for shard in self.shards.values() for job in shard.queue.jobs.values()),
            key=lambda j: j.job_id,
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-friendly status of one job (raises KeyError if unknown)."""
        for shard in self.shards.values():
            if job_id in shard.queue.jobs:
                return shard.queue.jobs[job_id].describe()
        raise KeyError(job_id)

    def stats(self) -> Dict[str, Any]:
        """Service-level aggregate: states, queue, latency, registry.

        Every job lives in exactly one shard, so the aggregate is a pure
        merge: per-state job counts, batch counts, and the uniform
        :data:`~repro.metrics.schedule.ENGINE_COUNTERS` of every
        execution report add; ``latency`` folds the per-shard
        :class:`~repro.service.events.LatencyAccumulator` sketches
        (p50/p90/p99 queue and end-to-end latency plus jobs/sec; ``None``
        with ``events=None``). ``shards`` gives per-shard depth, backlog
        and batches for hot-shard visibility.
        """
        jobs = {state.value: 0 for state in JobState}
        engines = {name: 0.0 for name in ENGINE_COUNTERS}
        latency = LatencyAccumulator()
        events = 0
        journals = [s.journal for s in self.shards.values() if s.journal is not None]
        per_shard: Dict[str, Dict[str, Any]] = {}
        for key, shard in self.shards.items():
            for state, count in shard.queue.by_state().items():
                jobs[state] += count
            for report in shard.reports:
                for name, value in report.engine_counters().items():
                    engines[name] += value
            if shard.events is not None:
                events += len(shard.events)
                latency.merge(LatencyAccumulator.from_events(shard.events.events))
            per_shard[key] = {
                "queue_depth": shard.queue.depth,
                "backlog": shard.queue.backlog,
                "batches": shard.batches,
                "jobs": shard.queue.by_state(),
            }
        return {
            "jobs": jobs,
            "queue_depth": self.queue_depth(),
            "backlog": self.backlog(),
            "batches": sum(shard.batches for shard in self.shards.values()),
            "registry": self.registry.stats(),
            "engine_counters": engines,
            "latency": latency.stats() if self.events_mode is not None else None,
            "journal": {
                "segments": len(journals),
                "records": sum(len(journal) for journal in journals),
                "pending": sum(len(journal.state.pending()) for journal in journals),
                "problems": [p for journal in journals for p in journal.problems],
            } if journals else None,
            "events": events,
            "shards": per_shard,
            "closed": self._closed,
        }

    def checkpoint(self) -> None:
        """Compact every shard journal to its live state."""
        for shard in self.shards.values():
            if shard.journal is not None:
                shard.journal.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, drain: bool = True) -> List[Job]:
        """Stop accepting jobs; optionally drain every shard first.

        Graceful by default: every queued job is executed before the
        service closes. Parked jobs stay parked (resubmittable to a
        service with a bigger budget); with ``drain=False`` queued jobs
        simply remain queued, visible via :meth:`status`.
        """
        processed = self.drain() if drain else []
        for shard in self.shards.values():
            if shard.events is not None:
                shard.events.close()
            if shard.journal is not None:
                shard.journal.close()
        self.runner.close()
        self._closed = True
        return processed

    def _gauge_depth(self) -> None:
        if self.recorder.enabled:
            self.recorder.gauge("service.queue_depth", self.queue_depth())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulerService(shards={len(self.shards)}, "
            f"backlog={self.backlog()}, closed={self._closed})"
        )

"""Crash recovery: the service's exactly-once contract, enforced.

The matrix test kills the service (via in-process
:class:`~repro.faults.InjectedCrash`) at *every* named crash point and
hit count, over a one-network stream (one shard) and a three-network
stream (three shard journals), recovers from the journals, drains, and
asserts the recovered terminal state is identical to an uninterrupted
run: same states, bit-identical outputs, no acknowledged completion
executed twice.
"""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import default_message_bits, topology
from repro.core import RandomDelayScheduler, Scheduler
from repro.errors import ScheduleError
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    CRASH_POINTS,
    AdmissionPolicy,
    JobState,
    SchedulerService,
    job_fingerprint,
)
from repro.telemetry import InMemoryRecorder


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


@pytest.fixture()
def grid():
    return topology.grid_graph(4, 4)


def _algorithms(network, count=4):
    nodes = list(network.nodes)
    out = []
    for i in range(count):
        if i % 2:
            out.append(HopBroadcast(nodes[(3 * i) % len(nodes)], 900 + i, 3))
        else:
            out.append(BFS(nodes[i % len(nodes)], hops=3))
    return out


def _one_network():
    grid = topology.grid_graph(4, 4)
    return [(grid, algorithm) for algorithm in _algorithms(grid)]


def _three_networks():
    return [
        (network, algorithm)
        for network in (topology.cycle_graph(5 + n) for n in range(3))
        for algorithm in _algorithms(network, count=3)
    ]


#: Job streams the crash matrix runs: one shard, and three shards.
STREAMS = {"one-network": _one_network, "three-networks": _three_networks}


def _run(directory, stream, crash=None, hit=1, **kwargs):
    """One service run; returns the service, or None if it crashed."""
    kwargs.setdefault("batch_size", 2)
    service = SchedulerService(directory=directory, **kwargs)

    def serve():
        for network, algorithm in stream:
            service.submit(network, algorithm)
        service.drain()

    try:
        if crash is not None:
            with armed(crash, hit=hit):
                serve()
        else:
            serve()
    except InjectedCrash:
        # The process is considered dead: nothing in-memory survives,
        # only journal + registry + events on disk.
        return None
    service.shutdown(drain=False)
    return service


def _terminal_snapshot(service):
    """What must be identical across crashed+recovered vs clean runs."""
    snap = {}
    for job in service.jobs():
        snap[job.fingerprint] = (
            job.state.value,
            dict(job.result.outputs) if job.result is not None else None,
            job.result.solo_rounds if job.result is not None else None,
        )
    return snap


def _journal_seq(service):
    return sum(shard.journal.seq for shard in service.shards.values())


class TestCrashMatrix:
    @pytest.mark.parametrize("stream_name", sorted(STREAMS))
    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("hit", [1, 2])
    def test_kill_recover_drain_matches_uninterrupted(
        self, tmp_path, point, hit, stream_name
    ):
        stream = STREAMS[stream_name]()
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        baseline = _run(baseline_dir, stream)
        expected = _terminal_snapshot(baseline)
        assert all(
            state == JobState.DONE.value for state, _, _ in expected.values()
        )

        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        crashed = _run(crash_dir, stream, crash=point, hit=hit)
        if crashed is not None:
            # The point never reached this hit count in a full run;
            # the run is itself the uninterrupted execution.
            assert _terminal_snapshot(crashed) == expected
            return

        recovered = SchedulerService.recover(directory=crash_dir)
        acknowledged = {
            job.fingerprint
            for job in recovered.jobs()
            if job.result is not None and job.result.from_registry
        }
        # A submission the crash caught before its journal record was
        # never acknowledged — the client resubmits it, exactly as the
        # CLI's spool replay does. Every journaled job must have
        # survived recovery.
        have = {job.fingerprint for job in recovered.jobs()}
        for network, algorithm in stream:
            fingerprint = job_fingerprint(
                network, algorithm, 0, default_message_bits(network.num_nodes)
            )
            if fingerprint not in have:
                recovered.submit(network, algorithm)
        recovered.drain()
        assert _terminal_snapshot(recovered) == expected
        # Exactly-once: a completion acknowledged before the crash was
        # served from the registry, never executed again.
        for job in recovered.jobs():
            if job.fingerprint in acknowledged:
                assert job.result.from_registry
        # And no registry artifact was overwritten for acknowledged jobs:
        # stores count only the still-pending executions.
        assert recovered.registry.stats()["stores"] == len(expected) - len(
            acknowledged
        )
        recovered.shutdown(drain=False)

    @pytest.mark.parametrize(
        "point", ["complete.pre_journal", "complete.post_journal"]
    )
    def test_acknowledged_job_not_reexecuted(self, tmp_path, grid, point):
        """Crash after registry.put: recovery finishes the paperwork only."""
        assert _run(tmp_path, _one_network(), crash=point, hit=1) is None
        recovered = SchedulerService.recover(directory=tmp_path)
        done = [
            job for job in recovered.jobs() if job.state is JobState.DONE
        ]
        assert done, "the acknowledged completion must already be done"
        assert all(job.result.from_registry for job in done)
        # recovery itself executed nothing
        assert recovered.reports == []
        assert recovered.registry.stats()["stores"] == 0

    def test_crash_before_journal_loses_unacknowledged_submit(
        self, tmp_path, grid
    ):
        assert (
            _run(tmp_path, _one_network(), crash="submit.pre_journal", hit=1)
            is None
        )
        recovered = SchedulerService.recover(directory=tmp_path)
        # The submission never became durable, so it legitimately
        # vanished — but nothing else leaked into the journal either.
        assert recovered.jobs() == []
        # Id counters start fresh; nothing to collide with.
        job = recovered.submit(grid, BFS(0, hops=2))
        assert job.job_id == "j0001"


class TestRecoverIdempotence:
    def test_recover_twice_equals_recover_once(self, tmp_path, grid):
        assert (
            _run(tmp_path, _one_network(), crash="complete.pre_registry", hit=2)
            is None
        )
        first = SchedulerService.recover(directory=tmp_path)
        snap_once = {
            job.job_id: job.state.value for job in first.jobs()
        }
        seq_once = _journal_seq(first)
        first.shutdown(drain=False)

        second = SchedulerService.recover(directory=tmp_path)
        snap_twice = {
            job.job_id: job.state.value for job in second.jobs()
        }
        assert snap_twice == snap_once
        # The first recovery journaled its decisions; the second found
        # nothing new to decide.
        assert _journal_seq(second) == seq_once
        second.shutdown(drain=False)

    def test_replay_journal_on_live_service_is_noop(self, tmp_path):
        """Replaying a cleanly finished serve decides nothing new."""
        service = _run(tmp_path, _three_networks())
        before = {job.job_id: job.state for job in service.jobs()}
        seq = _journal_seq(service)
        replayed = SchedulerService.recover(directory=tmp_path)
        assert {job.job_id: job.state for job in replayed.jobs()} == before
        assert _journal_seq(replayed) == seq
        assert replayed.reports == []
        replayed.shutdown(drain=False)


class TestParkedRecovery:
    """Parked jobs must survive crashes without getting stranded."""

    _PARKING = dict(round_budget=2, park_over_budget=True)

    def _park_one(self, tmp_path, grid):
        service = SchedulerService(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        job = service.submit(grid, BFS(0, hops=6))
        assert job.state is JobState.PARKED
        return service

    def test_release_crash_recovers_jobs_as_queued(self, tmp_path, grid):
        """A journaled release survives a crash mid-release_parked."""
        service = self._park_one(tmp_path, grid)
        with pytest.raises(InjectedCrash):
            with armed("release.post_journal", hit=1):
                service.release_parked()
        # Even recovering under the same parking policy, the durable
        # released record wins: the job comes back queued, not parked.
        recovered = SchedulerService.recover(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        [job] = recovered.jobs()
        assert job.state is JobState.QUEUED
        recovered.drain()
        assert job.state is JobState.DONE
        recovered.shutdown(drain=False)

    def test_recover_redecides_parked_against_current_policy(
        self, tmp_path, grid
    ):
        """Parked is not sticky across restarts: the live budget decides."""
        self._park_one(tmp_path, grid).shutdown(drain=False)

        # Same tight budget: recovery re-parks (journaled again).
        still = SchedulerService.recover(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        [parked] = still.jobs()
        assert parked.state is JobState.PARKED
        still.shutdown(drain=False)

        # Raised (here: unlimited) budget: recovery admits and drains —
        # the pre-fix behaviour left the job parked forever.
        freed = SchedulerService.recover(
            directory=tmp_path, solo_cache=SoloRunCache()
        )
        [job] = freed.jobs()
        assert job.state is JobState.QUEUED
        freed.drain()
        assert job.state is JobState.DONE
        freed.shutdown(drain=False)


class TestQuarantine:
    def test_poison_job_dead_lettered_after_threshold(self, tmp_path, grid):
        """A job that kills every batch stops being retried on restart."""
        attempts = 0
        while attempts < 3:
            service = SchedulerService.recover(
                directory=tmp_path, poison_threshold=3
            )
            if not service.jobs():
                service.submit_many(grid, _algorithms(grid, count=2))
            try:
                with armed("batch.post_journal", hit=1):
                    service.drain()
            except InjectedCrash:
                attempts += 1
                continue
            pytest.fail("drain must crash while the point is armed")
        recorder = InMemoryRecorder()
        recovered = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3, recorder=recorder
        )
        states = {job.job_id: job.state for job in recovered.jobs()}
        assert all(
            state is JobState.QUARANTINED for state in states.values()
        )
        for job in recovered.jobs():
            assert "poison_threshold" in job.reason
        # quarantine is terminal: draining executes nothing
        recovered.drain()
        assert recovered.reports == []
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["service.quarantined"] == len(states)

    def test_below_threshold_jobs_requeue(self, tmp_path, grid):
        service = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3
        )
        service.submit_many(grid, _algorithms(grid, count=2))
        with pytest.raises(InjectedCrash):
            with armed("batch.post_journal", hit=1):
                service.drain()
        recovered = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3
        )
        recovered.drain()
        assert all(
            job.state is JobState.DONE for job in recovered.jobs()
        )


class _Flaky(Scheduler):
    """Fails the first ``n`` executions, then delegates to random-delay."""

    name = "flaky"

    def __init__(self, failures):
        self.remaining = [failures]  # list: shared across service's copies
        self.inner = RandomDelayScheduler()

    def run(self, workload, seed=0):
        if self.remaining[0] > 0:
            self.remaining[0] -= 1
            raise ScheduleError("injected batch failure", round=1)
        return self.inner.run(workload, seed=seed)


class TestRetryBackoff:
    def test_exponential_backoff_between_solo_retries(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=3),
            batch_size=2,
            max_retries=3,
            retry_backoff=0.1,
            retry_backoff_max=0.25,
            solo_cache=SoloRunCache(),
        )
        delays = []
        service._sleep = delays.append
        service.submit_many(grid, _algorithms(grid, count=2))
        service.drain()
        assert all(job.state is JobState.DONE for job in service.jobs())
        # Per failing job: 0.1, then 0.2, capped at 0.25 thereafter.
        assert delays[:2] == [0.1, 0.2]
        assert all(d <= 0.25 for d in delays)

    def test_zero_backoff_never_sleeps(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=1),
            batch_size=2,
            max_retries=2,
            solo_cache=SoloRunCache(),
        )
        service._sleep = lambda d: pytest.fail(f"slept {d}s with backoff=0")
        service.submit_many(grid, _algorithms(grid, count=2))
        service.drain()
        assert all(job.state is JobState.DONE for job in service.jobs())

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ValueError):
            SchedulerService(retry_backoff=-0.1)


class TestStuckBatch:
    def test_stuck_batch_distrusted_and_retried_solo(self, grid):
        recorder = InMemoryRecorder()
        service = SchedulerService(
            batch_size=4,
            stuck_batch_timeout=1e-12,  # every batch is "stuck"
            recorder=recorder,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _algorithms(grid))
        service.drain()
        assert all(job.state is JobState.DONE for job in jobs)
        # Every job was re-run solo after its batch was distrusted.
        assert all(job.result.batch_size == 1 for job in jobs)
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["service.stuck_batches"] >= 1

    def test_no_timeout_by_default(self, grid):
        service = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        jobs = service.submit_many(grid, _algorithms(grid))
        service.drain()
        assert all(job.result.batch_size == len(jobs) for job in jobs)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            SchedulerService(stuck_batch_timeout=0)

"""Per-network shards: routing, bit-identity, backpressure, stats.

Sharding is a *transparent* restructuring: a multi-network stream
drained through one service gives the byte-identical terminal states,
outputs, and registry contents that draining each network's jobs alone
gives. These tests pin that contract:

* routing — jobs land in per-network shards keyed by the network
  fingerprint (``==``-equal rebuilt networks share a shard);
* bit-identity — a wave drain of a multi-network workload settles every
  job exactly like per-network services draining their own jobs, with
  zero duplicate executions (registry stores are counted);
* backpressure — ``max_shard_depth`` parks/sheds on the hot shard
  only, and ``release_parked(cause="depth")`` frees exactly the
  backpressure-parked jobs;
* cross-shard stats — counters, batch counts and latency sketches add
  across shards;
* recovery — pending submissions are re-decided against every shard's
  backlog, and a pre-sharding top-level journal is refused. (The
  :data:`CRASH_POINTS` matrix over one- and multi-network streams lives
  in ``test_recovery.py``.)
"""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import solo_run, topology
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    AdmissionPolicy,
    JobJournal,
    JobState,
    LatencyAccumulator,
    LegacyJournalError,
    SchedulerService,
    ShardedSchedulerService,
    latency_stats,
    shard_key,
)
from repro.telemetry import InMemoryRecorder


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def _networks(count=4):
    return [topology.cycle_graph(5 + n) for n in range(count)]


def _algorithms(network, count=3):
    nodes = list(network.nodes)
    out = []
    for i in range(count):
        if i % 2:
            out.append(HopBroadcast(nodes[(3 * i) % len(nodes)], 900 + i, 3))
        else:
            out.append(BFS(nodes[i % len(nodes)], hops=3))
    return out


def _submit_all(service, networks):
    jobs = []
    for network in networks:
        for algorithm in _algorithms(network):
            jobs.append(service.submit(network, algorithm))
    return jobs


def _terminal_snapshot(service):
    snap = {}
    for job in service.jobs():
        snap[job.fingerprint] = (
            job.state.value,
            dict(job.result.outputs) if job.result is not None else None,
            job.result.solo_rounds if job.result is not None else None,
        )
    return snap


class TestRouting:
    def test_jobs_route_by_network_fingerprint(self):
        nets = _networks(3)
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
        jobs = _submit_all(service, nets)
        assert len(service.shards) == 3
        keys = {shard_key(net) for net in nets}
        assert set(service.shards) == keys
        for job in jobs:
            assert job.meta["shard"] == shard_key(job.network)
        service.shutdown()

    def test_equal_networks_share_a_shard(self):
        a = topology.cycle_graph(6)
        b = topology.cycle_graph(6)  # == a, is not a
        assert a is not b and a == b
        assert shard_key(a) == shard_key(b)
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
        service.submit(a, BFS(0, hops=2))
        service.submit(b, BFS(1, hops=2))
        assert len(service.shards) == 1
        # …and the two jobs batch together inside that shard.
        done = service.drain()
        assert len(done) == 2
        assert service.stats()["shards"][shard_key(a)]["batches"] == 1
        service.shutdown()

    def test_submit_many_and_status_lookup(self):
        nets = _networks(2)
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
        jobs = service.submit_many(nets[0], _algorithms(nets[0]))
        service.submit_many(nets[1], _algorithms(nets[1]))
        assert service.backlog() == 6
        status = service.status(jobs[0].job_id)
        assert status["state"] == "queued"
        with pytest.raises(KeyError):
            service.status("j9999")
        service.shutdown()


class TestBitIdentity:
    def test_sharded_drain_matches_single_queue_serial_drain(self, tmp_path):
        nets = _networks(4)

        # The witness: each network's jobs drained alone by its own
        # service (one shard, one queue).
        expected = {}
        stores = 0
        for net in nets:
            single = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
            _submit_all(single, [net])
            single.shutdown(drain=True)
            expected.update(_terminal_snapshot(single))
            stores += single.registry.stores
        assert all(s == "done" for s, _, _ in expected.values())

        sharded = ShardedSchedulerService(
            directory=tmp_path, batch_size=4, solo_cache=SoloRunCache()
        )
        jobs = _submit_all(sharded, nets)
        processed = sharded.drain()
        assert len(processed) == len(jobs)
        sharded.shutdown(drain=False)

        assert _terminal_snapshot(sharded) == expected
        # Zero duplicate executions: every unique job stored exactly once.
        assert sharded.registry.stores == len(jobs)
        assert stores == len(jobs)

    def test_outputs_match_solo_references(self):
        nets = _networks(2)
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
        jobs = _submit_all(service, nets)
        service.drain()
        for job in jobs:
            reference = solo_run(
                job.network,
                job.algorithm,
                seed=job.master_seed,
                message_bits=job.message_bits,
            )
            assert job.state is JobState.DONE
            assert job.result.outputs == reference.outputs
        service.shutdown()

    def test_resubmission_served_from_shared_registry(self):
        net = _networks(1)[0]
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
        algo = BFS(0, hops=3)
        first = service.submit(net, algo)
        service.drain()
        again = service.submit(net, BFS(0, hops=3))
        assert again.state is JobState.DONE
        assert again.result.from_registry
        assert again.result.outputs == first.result.outputs
        service.shutdown()

    def test_wave_records_cover_all_batches(self):
        nets = _networks(4)
        service = ShardedSchedulerService(
            batch_size=8, solo_cache=SoloRunCache()
        )
        _submit_all(service, nets)
        service.drain()
        # 4 shards, all compatible within a shard -> one wave, 4 batches.
        assert len(service.drain_waves) == 1
        assert len(service.drain_waves[0]) == 4
        assert all(elapsed > 0 for elapsed in service.drain_waves[0])
        service.shutdown()


class TestBackpressure:
    def test_hot_shard_parks_others_unaffected(self):
        hot, cold = _networks(2)
        policy = AdmissionPolicy(max_shard_depth=2, park_over_depth=True)
        service = ShardedSchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        hot_jobs = [
            service.submit(hot, BFS(i % hot.num_nodes, hops=2))
            for i in range(4)
        ]
        states = [j.state for j in hot_jobs]
        assert states == [
            JobState.QUEUED,
            JobState.QUEUED,
            JobState.PARKED,
            JobState.PARKED,
        ]
        assert all(
            j.meta.get("park_cause") == "depth"
            for j in hot_jobs
            if j.state is JobState.PARKED
        )
        cold_job = service.submit(cold, BFS(0, hops=2))
        assert cold_job.state is JobState.QUEUED
        service.shutdown()

    def test_sheds_without_park_flag(self):
        net = _networks(1)[0]
        policy = AdmissionPolicy(max_shard_depth=1)
        service = ShardedSchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        first = service.submit(net, BFS(0, hops=2))
        second = service.submit(net, BFS(1, hops=2))
        assert first.state is JobState.QUEUED
        assert second.state is JobState.REJECTED
        assert "shard depth" in second.reason
        service.shutdown()

    def test_release_by_cause_frees_only_depth_parked(self):
        net = _networks(1)[0]
        policy = AdmissionPolicy(
            max_shard_depth=1,
            park_over_depth=True,
            round_budget=1,
            park_over_budget=True,
        )
        service = ShardedSchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        # Over-budget on an empty shard: parked with cause="budget".
        budget_parked = service.submit(net, BFS(0, hops=3))
        assert budget_parked.state is JobState.PARKED
        assert budget_parked.meta["park_cause"] == "budget"
        # The budget-parked job does not occupy the queue, so fill it…
        queued = service.submit(net, HopBroadcast(0, 1, 2))
        # …whose admission sees backlog 1 (the parked job) at capacity.
        assert queued.state is JobState.PARKED
        assert queued.meta["park_cause"] == "depth"
        released = service.release_parked(cause="depth")
        assert [j.job_id for j in released] == [queued.job_id]
        assert budget_parked.state is JobState.PARKED
        service.shutdown(drain=False)

    def test_global_depth_gate_sees_summed_backlog(self):
        nets = _networks(2)
        policy = AdmissionPolicy(max_queue_depth=3)
        service = ShardedSchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        accepted = [
            service.submit(nets[0], BFS(0, hops=2)),
            service.submit(nets[0], BFS(1, hops=2)),
            service.submit(nets[1], BFS(0, hops=2)),
        ]
        assert all(j.state is JobState.QUEUED for j in accepted)
        # The fourth submission goes to the *second* shard (depth 1),
        # but the global gate judges the summed backlog of 3.
        shed = service.submit(nets[1], BFS(1, hops=2))
        assert shed.state is JobState.REJECTED
        assert "queue depth" in shed.reason
        service.shutdown(drain=False)


class TestCrossShardStats:
    def test_merged_stats_equal_single_queue_run(self):
        nets = _networks(3)

        # Each network drained alone by its own service.
        singles = []
        for net in nets:
            single = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
            _submit_all(single, [net])
            single.drain()
            singles.append(single.stats())

        sharded = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        _submit_all(sharded, nets)
        sharded.drain()
        stats = sharded.stats()

        def total(get):
            return sum(get(single) for single in singles)

        for state, count in stats["jobs"].items():
            assert count == total(lambda st: st["jobs"][state])
        assert stats["batches"] == total(lambda st: st["batches"])
        for name, value in stats["engine_counters"].items():
            assert value == total(lambda st: st["engine_counters"][name])
        latency = stats["latency"]
        # Histogram buckets add: merged counts equal the summed runs'.
        for key in ("queue_latency_s", "e2e_latency_s"):
            assert latency[key]["count"] == total(
                lambda st: st["latency"][key]["count"]
            )
        for key in ("completed", "events"):
            assert latency[key] == total(lambda st: st["latency"][key])
        sharded.shutdown(drain=False)

    def test_merged_recorder_counters_add(self):
        nets = _networks(3)
        recorder = InMemoryRecorder()
        sharded = SchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), recorder=recorder
        )
        jobs = _submit_all(sharded, nets)
        sharded.drain()
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["service.submitted"] == len(jobs)
        assert snapshot["counters"]["service.jobs_done"] == len(jobs)
        # The depth gauge tracks the queued total across shards.
        assert snapshot["gauges"]["service.queue_depth"] == 0
        # One histogram sample per batch, whichever shard formed it.
        hist = snapshot["histograms"]["service.batch_size"]
        assert hist["count"] == sharded.stats()["batches"] == len(nets)
        sharded.shutdown(drain=False)

    def test_latency_accumulator_merge_equals_concatenated_stream(self):
        nets = _networks(3)
        sharded = ShardedSchedulerService(
            batch_size=4, solo_cache=SoloRunCache()
        )
        _submit_all(sharded, nets)
        sharded.drain()
        merged = LatencyAccumulator()
        combined = []
        for shard in sharded.shards.values():
            merged.merge(
                LatencyAccumulator.from_events(shard.events.events)
            )
            combined.extend(shard.events.events)
        assert merged.stats() == latency_stats(combined)
        sharded.shutdown(drain=False)


class TestShardedRecovery:
    def test_recover_twice_converges(self, tmp_path):
        nets = _networks(2)
        directory = tmp_path / "svc"
        service = ShardedSchedulerService(
            directory=directory, batch_size=2, solo_cache=SoloRunCache()
        )
        try:
            with armed("batch.post_journal", hit=2):
                _submit_all(service, nets)
                service.drain()
        except InjectedCrash:
            pass
        disarm()
        first = ShardedSchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        first_states = {
            j.job_id: j.state.value for j in first.jobs()
        }
        first.shutdown(drain=False)
        second = ShardedSchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        assert {
            j.job_id: j.state.value for j in second.jobs()
        } == first_states
        second.drain()
        assert all(
            j.state is JobState.DONE for j in second.jobs()
        )
        second.shutdown(drain=False)

    @pytest.mark.parametrize("crashed_shard", ["sorts-first", "sorts-last"])
    def test_pending_submission_judged_against_every_shard(
        self, tmp_path, crashed_shard
    ):
        """Regression: recovery re-admitted against a partial backlog.

        Two jobs queue on one shard; the third submission, to another
        shard, crashes right after its ``submit`` record. Uninterrupted,
        the global ``max_queue_depth=2`` gate rejects it. Recovery must
        reach the same decision whichever shard key sorts first: shard
        journals used to be replayed one at a time, so the crashed job
        was re-admitted against only the shards loaded before it.
        """
        by_key = sorted(_networks(4), key=shard_key)
        crashed, busy = (
            (by_key[0], by_key[-1])
            if crashed_shard == "sorts-first"
            else (by_key[-1], by_key[0])
        )
        policy = AdmissionPolicy(max_queue_depth=2)
        baseline = ShardedSchedulerService(policy=policy, solo_cache=SoloRunCache())
        baseline.submit(busy, BFS(0, hops=2))
        baseline.submit(busy, BFS(1, hops=2))
        assert baseline.submit(crashed, BFS(0, hops=2)).state is JobState.REJECTED

        directory = tmp_path / "svc"
        service = ShardedSchedulerService(
            directory=directory, policy=policy, solo_cache=SoloRunCache()
        )
        service.submit(busy, BFS(0, hops=2))
        service.submit(busy, BFS(1, hops=2))
        with pytest.raises(InjectedCrash):
            with armed("submit.post_journal", hit=1):
                service.submit(crashed, BFS(0, hops=2))
        disarm()
        recovered = ShardedSchedulerService.recover(
            directory, policy=policy, solo_cache=SoloRunCache()
        )
        states = [job.state for job in recovered.jobs()]
        assert states == [JobState.QUEUED, JobState.QUEUED, JobState.REJECTED]
        recovered.shutdown(drain=False)

    def test_job_ids_continue_across_every_shard_history(self, tmp_path):
        """Regression: a clean re-serve reused an unopened shard's ids.

        Shards used to open lazily, so a fresh service over a directory
        learned a shard's journaled job ids only when that shard got
        its next job; a job on another network restarted at ``j0001``.
        """
        directory = tmp_path / "svc"
        first = SchedulerService(directory=directory, solo_cache=SoloRunCache())
        grid = topology.grid_graph(4, 4)
        served = [first.submit(grid, BFS(source, hops=2)) for source in (0, 5)]
        first.drain()
        first.shutdown()
        assert [job.job_id for job in served] == ["j0001", "j0002"]

        second = SchedulerService(directory=directory, solo_cache=SoloRunCache())
        job = second.submit(topology.cycle_graph(8), BFS(0, hops=2))
        assert job.job_id == "j0003"
        second.shutdown()

    def test_legacy_single_journal_refused(self, tmp_path):
        """A pre-sharding ``<dir>/journal.jsonl`` is refused, not ignored."""
        legacy = tmp_path / "journal.jsonl"
        legacy.touch()
        # An empty legacy file records nothing: nothing to refuse.
        assert SchedulerService.pending_jobs(tmp_path) == {}
        journal = JobJournal(legacy)
        journal.append("submit", job="j0001", fingerprint=None, payload=None)
        journal.close()
        with pytest.raises(LegacyJournalError, match=str(legacy)):
            SchedulerService.pending_jobs(tmp_path)
        with pytest.raises(LegacyJournalError, match=str(legacy)):
            SchedulerService.recover(tmp_path)

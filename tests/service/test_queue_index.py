"""JobQueue's indexed batch selection vs the old O(pending) rescan.

The queue rewrite (compatibility-key buckets, incremental state counts)
is a pure data-structure optimization — it must be *behaviorally
invisible*. These property tests drive the new :class:`JobQueue` and a
reference implementation of the old full-scan queue through identical
random operation sequences and assert they can never be told apart:

* :meth:`next_batch` pops the byte-identical batch (same job ids, same
  order) for every batch size — the anchor's bucket *is* the pending
  FIFO filtered to the anchor's compatibility class;
* ``depth`` / ``backlog`` / ``parked()`` / ``by_state()`` agree after
  every operation, with :meth:`JobQueue.recount` (a full O(jobs)
  recount) as the oracle for the incremental counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import topology
from repro.service import JobQueue, JobState
from repro.service.jobs import Job

# Distinct topologies, plus an equal-but-not-identical duplicate of the
# first: the interning layer must treat `==`-equal networks as one
# compatibility class exactly like Job.compatible_with does.
NETWORKS = [
    topology.path_graph(4),
    topology.path_graph(4),  # == NETWORKS[0], is not NETWORKS[0]
    topology.cycle_graph(5),
    topology.grid_graph(2, 3),
]


def _make_job(job_id, net_idx, seed, bits, state=JobState.QUEUED):
    return Job(
        job_id=job_id,
        network=NETWORKS[net_idx],
        algorithm=None,
        master_seed=seed,
        message_bits=bits,
        fingerprint=None,
        tape_id=f"tape:{job_id}",
        state=state,
    )


class OldScanQueue:
    """The pre-index JobQueue, verbatim: list FIFO + full rescans."""

    def __init__(self):
        self.jobs = {}
        self._pending = []

    def add(self, job):
        self.jobs[job.job_id] = job
        if job.state is JobState.QUEUED:
            self._pending.append(job.job_id)

    def requeue(self, job):
        job.state = JobState.QUEUED
        self._pending.append(job.job_id)

    @property
    def depth(self):
        return len(self._pending)

    @property
    def backlog(self):
        return self.depth + sum(
            1 for job in self.jobs.values() if job.state is JobState.PARKED
        )

    def parked(self):
        return [j for j in self.jobs.values() if j.state is JobState.PARKED]

    def next_batch(self, batch_size):
        if not self._pending or batch_size < 1:
            return []
        anchor = self.jobs[self._pending[0]]
        batch, remaining = [], []
        for job_id in self._pending:
            job = self.jobs[job_id]
            if len(batch) < batch_size and job.compatible_with(anchor):
                batch.append(job)
            else:
                remaining.append(job_id)
        self._pending = remaining
        return batch

    def by_state(self):
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts


# One queue operation: add a job (compat class + initial state), pop a
# batch of some size, park-release everything, or finish a popped batch.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, len(NETWORKS) - 1),
            st.integers(0, 2),
            st.sampled_from([None, 8]),
            st.sampled_from([JobState.QUEUED, JobState.PARKED]),
        ),
        st.tuples(st.just("batch"), st.integers(1, 5)),
        st.tuples(st.just("release")),
        st.tuples(st.just("finish")),
    ),
    min_size=1,
    max_size=60,
)


def _assert_equivalent(new, old):
    assert new.depth == old.depth
    assert new.backlog == old.backlog
    assert [j.job_id for j in new.parked()] == [
        j.job_id for j in old.parked()
    ]
    assert new.by_state() == old.by_state()
    assert new.by_state() == new.recount()


class TestIndexedQueueEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_batches_and_counts_indistinguishable_from_old_scan(self, ops):
        new, old = JobQueue(), OldScanQueue()
        counter = 0
        popped_new, popped_old = [], []
        for op in ops:
            if op[0] == "add":
                _, net_idx, seed, bits, state = op
                counter += 1
                job_id = f"j{counter:04d}"
                new.add(_make_job(job_id, net_idx, seed, bits, state))
                old.add(_make_job(job_id, net_idx, seed, bits, state))
            elif op[0] == "batch":
                got = new.next_batch(op[1])
                want = old.next_batch(op[1])
                assert [j.job_id for j in got] == [j.job_id for j in want]
                # Mirror the service staging a batch: popped jobs leave QUEUED.
                for job in got:
                    job.transition(JobState.BATCHED)
                    popped_new.append(job)
                for job in want:
                    job.state = JobState.BATCHED
                    popped_old.append(job)
            elif op[0] == "release":
                for job in new.parked():
                    new.requeue(job)
                for job in old.parked():
                    old.requeue(job)
            else:  # finish: settle every popped job
                for job in popped_new:
                    job.transition(JobState.RUNNING)
                    job.transition(JobState.DONE)
                for job in popped_old:
                    job.state = JobState.DONE
                popped_new, popped_old = [], []
            _assert_equivalent(new, old)

    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_drain_to_empty_pops_every_queued_job_exactly_once(self, ops):
        new, old = JobQueue(), OldScanQueue()
        counter = 0
        for op in ops:
            if op[0] != "add":
                continue
            _, net_idx, seed, bits, state = op
            counter += 1
            job_id = f"j{counter:04d}"
            new.add(_make_job(job_id, net_idx, seed, bits, state))
            old.add(_make_job(job_id, net_idx, seed, bits, state))
        seen = []
        while True:
            got = new.next_batch(3)
            want = old.next_batch(3)
            assert [j.job_id for j in got] == [j.job_id for j in want]
            if not got:
                break
            # every batch is mutually compatible with its anchor
            assert all(j.compatible_with(got[0]) for j in got)
            for job in got:
                job.transition(JobState.BATCHED)
            for job in want:
                job.state = JobState.BATCHED
            seen.extend(j.job_id for j in got)
        assert new.depth == 0
        assert len(seen) == len(set(seen))
        queued_ids = [
            j.job_id
            for j in old.jobs.values()
            if j.state is JobState.BATCHED
        ]
        assert sorted(seen) == sorted(queued_ids)


class TestIncrementalCounts:
    def test_transitions_keep_counts_exact(self):
        queue = JobQueue()
        jobs = [_make_job(f"j{i:04d}", i % 3, 0, None) for i in range(9)]
        for job in jobs:
            queue.add(job)
        assert queue.by_state() == queue.recount()
        batch = queue.next_batch(4)
        for job in batch:
            job.transition(JobState.BATCHED)
            job.transition(JobState.RUNNING)
            job.transition(JobState.DONE)
        assert queue.by_state() == queue.recount()
        assert queue.by_state()["done"] == len(batch)

    def test_overwriting_add_does_not_double_count(self):
        queue = JobQueue()
        job = _make_job("j0001", 0, 0, None, state=JobState.PARKED)
        queue.add(job)
        replacement = _make_job("j0001", 0, 0, None, state=JobState.DONE)
        queue.add(replacement)
        assert queue.by_state() == queue.recount()
        assert queue.parked() == []

    def test_equal_networks_share_a_bucket(self):
        queue = JobQueue()
        a = _make_job("j0001", 0, 0, None)  # path_graph(4)
        b = _make_job("j0002", 1, 0, None)  # distinct-but-== path_graph(4)
        queue.add(a)
        queue.add(b)
        batch = queue.next_batch(8)
        assert [j.job_id for j in batch] == ["j0001", "j0002"]

"""The indexed :class:`JobQueue` must behave exactly like a deque.

The queue backs every scheduler's wait list, and its vectorised
``backfill_candidates`` pre-filter drives the EASY scan — so these
tests pin (a) deque parity over arbitrary op sequences, (b) the
pre-filter against a brute-force evaluation of the same predicate, and
(c) that the numpy mask path and the narrow Python path agree.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.scheduling.job import Job
from repro.scheduling.queue import JobQueue


def make_job(job_id: int, size: int = 1, requested: float = 100.0) -> Job:
    return Job(
        job_id=job_id,
        submit_time=float(job_id),
        runtime=min(50.0, requested),
        requested_time=requested,
        size=size,
    )


queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "popleft", "remove", "iterate"]),
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    ),
    max_size=120,
)


@given(queue_ops)
@settings(max_examples=60)
def test_deque_parity(ops):
    """append/popleft/remove/len/iteration match collections.deque."""
    queue = JobQueue()
    model: deque[Job] = deque()
    next_id = 1
    for name, size, requested in ops:
        if name == "append" or not model:
            job = make_job(next_id, size=size, requested=requested)
            next_id += 1
            queue.append(job)
            model.append(job)
        elif name == "popleft":
            assert queue.popleft() is model.popleft()
        elif name == "remove":
            victim = model[size % len(model)]
            queue.remove(victim)
            model.remove(victim)
        assert len(queue) == len(model)
        assert bool(queue) == bool(model)
        assert list(queue) == list(model)
        if model:
            assert queue[0] is model[0]


def brute_force_candidates(queue: JobQueue, free: int, extra: int, slack: float):
    """The pre-filter predicate evaluated job-by-job over the live tail."""
    jobs = list(queue)
    return [
        job.job_id
        for job in jobs[1:]
        if job.size <= free and (job.size <= extra or job.requested_time <= slack)
    ]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=32),
            st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        ),
        min_size=2,
        max_size=150,
    ),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=32),
    st.floats(min_value=-10.0, max_value=1100.0, allow_nan=False),
    st.data(),
)
@settings(max_examples=60)
def test_backfill_candidates_match_brute_force(entries, free, extra, slack, data):
    """Mask (wide) and scan (narrow) paths both equal the predicate, in order.

    Random removals leave tombstones in the middle of the window, and
    150 entries cross the wide-path threshold, so both code paths and
    the sentinel handling are exercised.
    """
    queue = JobQueue()
    for index, (size, requested) in enumerate(entries, start=1):
        queue.append(make_job(index, size=size, requested=requested))
    removals = data.draw(
        st.lists(st.integers(min_value=1, max_value=len(entries)), max_size=10)
    )
    for job_id in removals:
        try:
            queue.remove(make_job(job_id))
        except ValueError:
            pass  # already removed
    if not queue:
        return
    got = [queue.job_at(p).job_id for p in queue.backfill_candidates(free, extra, slack)]
    expected = brute_force_candidates(queue, free, extra, slack)
    if free <= 0:
        assert got == []
    else:
        assert got == expected


def test_candidates_after_offset_and_narrowing():
    queue = JobQueue()
    for index in range(1, 101):
        queue.append(make_job(index, size=index % 10 + 1, requested=50.0 * index))
    positions = queue.backfill_candidates(8, 0, 2000.0)
    assert positions is not None and len(positions) > 0
    first = positions[0]
    tail = queue.backfill_candidates(8, 0, 2000.0, after=int(first))
    assert [queue.job_at(p).job_id for p in tail] == [
        queue.job_at(p).job_id for p in positions[1:]
    ]
    narrowed = queue.narrow_positions(positions, 3)
    survivors = {queue.job_at(p).job_id for p in positions if queue.job_at(p).size <= 3}
    narrowed_ids = {queue.job_at(p).job_id for p in narrowed}
    # Never drops an eligible candidate; with numpy it prunes exactly
    # (without, it may return the tail unchanged — callers re-verify).
    assert narrowed_ids >= survivors
    try:
        import numpy  # noqa: F401
    except ImportError:
        pass
    else:
        assert narrowed_ids == survivors


def test_compaction_preserves_order_and_membership():
    queue = JobQueue()
    jobs = [make_job(i, size=1) for i in range(1, 400)]
    for job in jobs:
        queue.append(job)
    # Remove every other job, then keep appending to force compaction.
    for job in jobs[::2]:
        queue.remove(job)
    before = list(queue)
    generation = queue.generation
    extra = [make_job(1000 + i) for i in range(600)]
    for job in extra:
        queue.append(job)
    assert queue.generation >= generation  # compaction may have re-homed slots
    assert list(queue) == before + extra
    assert queue[0] is before[0]


def test_clear_after_growth_and_compaction_leaves_a_reusable_queue():
    queue = JobQueue()
    jobs = [make_job(i, size=1 + i % 7) for i in range(1, 300)]
    queue.extend(jobs)  # grows past the initial capacity
    for job in jobs[::2]:
        queue.remove(job)
    queue.extend(make_job(1000 + i) for i in range(200))  # compacts
    generation = queue.generation
    queue.clear()
    queue.check_consistency()
    assert len(queue) == 0 and not queue and list(queue) == []
    assert queue.generation > generation
    assert queue.backfill_candidates(64, 64, 1e9) == ()
    again = [make_job(5000 + i, size=2) for i in range(100)]
    queue.extend(again)
    queue.check_consistency()
    assert list(queue) == again
    assert queue.popleft() is again[0]
    # Candidates are the non-head jobs, all of which pass this gate.
    assert [queue.job_at(int(p)) for p in queue.backfill_candidates(2, 2, 1e9)] == again[2:]


def test_extend_positions_appends_new_tail():
    queue = JobQueue()
    for index in range(1, 80):
        queue.append(make_job(index, size=2))
    positions = queue.backfill_candidates(4, 4, 100.0)
    seen = queue.slots_used
    queue.append(make_job(500, size=1))
    queue.append(make_job(501, size=9))
    combined = queue.extend_positions(positions, seen, queue.slots_used)
    ids = [queue.job_at(int(p)).job_id for p in combined]
    assert ids[-2:] == [500, 501]  # unfiltered tail; caller re-verifies
    assert ids[: len(positions)] == [queue.job_at(int(p)).job_id for p in positions]

"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.cluster.machine import Machine
from repro.core.gears import PAPER_GEAR_SET
from repro.scheduling.job import Job

# One shared hypothesis profile: scheduler property tests run whole
# simulations per example, so keep the example count moderate and the
# deadline off (simulation time varies with the drawn workload).
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "Regenerate the committed golden-trace fixtures under "
            "tests/goldens/ instead of comparing against them."
        ),
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether this run should rewrite golden fixtures instead of asserting."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def small_machine() -> Machine:
    """An 8-CPU machine with the paper gear set."""
    return Machine("test", total_cpus=8, gears=PAPER_GEAR_SET)


@pytest.fixture
def medium_machine() -> Machine:
    return Machine("test", total_cpus=64, gears=PAPER_GEAR_SET)


def make_job(
    job_id: int = 1,
    submit: float = 0.0,
    runtime: float = 1000.0,
    requested: float | None = None,
    size: int = 1,
    beta: float | None = None,
) -> Job:
    """Concise job constructor for hand-built scheduling scenarios."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        requested_time=requested if requested is not None else max(runtime, 1.0),
        size=size,
        beta=beta,
    )


def random_workload(
    seed: int,
    n_jobs: int,
    max_cpus: int,
    *,
    mean_gap: float = 300.0,
    max_runtime: float = 5000.0,
) -> list[Job]:
    """A small random-but-reproducible workload for invariant tests."""
    rng = random.Random(seed)
    clock = 0.0
    jobs = []
    for index in range(n_jobs):
        clock += rng.expovariate(1.0 / mean_gap)
        runtime = rng.uniform(1.0, max_runtime)
        requested = runtime * rng.uniform(1.0, 5.0)
        jobs.append(
            Job(
                job_id=index + 1,
                submit_time=clock,
                runtime=runtime,
                requested_time=requested,
                size=rng.randint(1, max_cpus),
            )
        )
    return jobs


# -- hypothesis strategies shared across test modules -------------------------

job_ids = st.integers(min_value=1, max_value=10**6)
small_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def job_strategy(draw, max_size: int = 16):
    submit = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    runtime = draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    over = draw(st.floats(min_value=1.0, max_value=10.0, allow_nan=False))
    requested = max(runtime * over, 1.0)
    return Job(
        job_id=draw(job_ids),
        submit_time=submit,
        runtime=runtime,
        requested_time=requested,
        size=draw(st.integers(min_value=1, max_value=max_size)),
    )


@st.composite
def workload_strategy(draw, max_jobs: int = 25, max_cpus: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    jobs = []
    clock = 0.0
    for index, gap in enumerate(gaps):
        clock += gap
        runtime = draw(st.floats(min_value=0.0, max_value=4000.0, allow_nan=False))
        over = draw(st.floats(min_value=1.0, max_value=6.0, allow_nan=False))
        jobs.append(
            Job(
                job_id=index + 1,
                submit_time=clock,
                runtime=runtime,
                requested_time=max(runtime * over, 1.0),
                size=draw(st.integers(min_value=1, max_value=max_cpus)),
            )
        )
    return jobs


def _burst_jobs(blockers, bursts) -> list[Job]:
    """Jobs for :func:`burst_workload` / :func:`burst_workload_strategy`.

    ``blockers`` are ``(size, runtime)`` jobs submitted at t=0, which
    keep the machine busy; ``bursts`` are ``(gap, members)`` groups, each
    ``gap`` seconds after the previous one, whose ``members`` are
    ``(offset, size, runtime, overestimate)`` arrivals a few seconds apart.
    """
    jobs = []
    for size, runtime in blockers:
        jobs.append(
            Job(job_id=len(jobs) + 1, submit_time=0.0, runtime=runtime,
                requested_time=runtime, size=size)
        )
    clock = 0.0
    for gap, members in bursts:
        clock += gap
        for offset, size, runtime, over in members:
            clock += offset
            jobs.append(
                Job(job_id=len(jobs) + 1, submit_time=clock, runtime=runtime,
                    requested_time=runtime * over, size=size)
            )
    return jobs


def burst_workload(seed: int, cpus: int, *, n_bursts: int = 6) -> list[Job]:
    """Bursts of long-requested arrivals behind long-running blockers.

    The queue repeatedly fills up within a burst and drains between
    bursts, and the queued jobs' waits stay short against their
    requested times, so BSLD policies reduce gears while the queue
    length crosses small WQ thresholds in both directions.
    """
    rng = random.Random(seed)
    blockers = [
        (rng.randint(1, cpus), rng.uniform(2000.0, 20000.0))
        for _ in range(rng.randint(1, 3))
    ]
    bursts = [
        (
            rng.uniform(0.0, 6000.0),
            [
                (rng.uniform(0.0, 30.0), rng.randint(1, cpus),
                 rng.uniform(500.0, 15000.0), rng.uniform(1.0, 3.0))
                for _ in range(rng.randint(1, 8))
            ],
        )
        for _ in range(n_bursts)
    ]
    return _burst_jobs(blockers, bursts)


@st.composite
def burst_workload_strategy(draw, cpus: int = 8, max_bursts: int = 5):
    """Hypothesis twin of :func:`burst_workload`."""
    blockers = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=cpus),
                st.floats(min_value=2000.0, max_value=20000.0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    member = st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.integers(min_value=1, max_value=cpus),
        st.floats(min_value=500.0, max_value=15000.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    bursts = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=6000.0),
                st.lists(member, min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=max_bursts,
        )
    )
    return _burst_jobs(blockers, bursts)

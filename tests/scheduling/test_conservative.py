"""Conservative backfilling scenarios and properties."""

import pytest

from repro.analysis import sanitize
from repro.api import Simulation
from repro.cluster.machine import Machine
from repro.cluster.power import SleepPolicy
from repro.core.frequency_policy import BsldThresholdPolicy, FixedGearPolicy
from repro.experiments.config import PolicySpec, RunSpec
from repro.scheduling.base import SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from tests.conftest import make_job, random_workload


def run_conservative(jobs, cpus=4, policy=None, sleep=None):
    machine = Machine("m", cpus)
    scheduler = ConservativeBackfilling(
        machine,
        policy or FixedGearPolicy(),
        config=SchedulerConfig(validate=True, sleep=sleep),
    )
    return scheduler.run(jobs)


def starts(result):
    return {o.job.job_id: o.start_time for o in result.outcomes}


class TestConservativeScenarios:
    def test_backfills_into_safe_hole(self):
        jobs = [
            make_job(1, submit=0.0, runtime=100.0, size=3),
            make_job(2, submit=1.0, runtime=50.0, size=4),
            make_job(3, submit=2.0, runtime=50.0, requested=50.0, size=1),
        ]
        assert starts(run_conservative(jobs)) == {1: 0.0, 2: 100.0, 3: 2.0}

    def test_later_job_cannot_delay_any_reservation(self):
        # Job 4 (1 CPU, 200s requested) may not push job 2's (t=100) or
        # job 3's (t=150) reservations; it fits concurrently with job 2
        # only if a CPU is spare -- job 2 takes all 4, so it waits for
        # the first hole that hurts nobody.
        jobs = [
            make_job(1, submit=0.0, runtime=100.0, size=3),
            make_job(2, submit=1.0, runtime=50.0, size=4),
            make_job(3, submit=2.0, runtime=60.0, requested=60.0, size=4),
            make_job(4, submit=3.0, runtime=200.0, requested=200.0, size=1),
        ]
        result = starts(run_conservative(jobs))
        assert result[2] == 100.0
        assert result[3] == 150.0
        assert result[4] == 210.0

    def test_early_finish_compresses_schedule(self):
        jobs = [
            make_job(1, submit=0.0, runtime=50.0, requested=500.0, size=4),
            make_job(2, submit=1.0, runtime=10.0, size=4),
        ]
        assert starts(run_conservative(jobs))[2] == 50.0

    def test_wake_stall_overrunning_a_reservation(self):
        # Job 3 fills the hole [500, 1000) before job 2's reservation
        # exactly, but its two processors have slept since t=10, so the
        # start stalls 5 s and overruns that reservation; job 2 then
        # starts once job 3's stretched window ends.
        jobs = [
            make_job(1, submit=0.0, runtime=1000.0, size=2),
            make_job(2, submit=1.0, runtime=100.0, size=4),
            make_job(3, submit=500.0, runtime=500.0, size=2),
        ]
        sleep = SleepPolicy(sleep_after_seconds=10.0, wake_seconds=5.0)
        result = run_conservative(jobs, sleep=sleep)
        assert starts(result) == {1: 0.0, 2: 1005.0, 3: 500.0}
        assert result.energy.sleep.wake_delayed_jobs == 1

    def test_gear_dependent_wait_probe(self):
        """Under conservative BF the policy sees gear-dependent waits: a
        slow gear pushes the job past an existing reservation, so its
        predicted wait is larger."""
        policy = BsldThresholdPolicy(bsld_threshold=1.4, wq_threshold=None)
        # Empty machine -> zero wait at any gear, so the prediction is
        # max(Coef(f) * RQ / max(600, RQ), 1) = Coef(f) for RQ=1000:
        #   0.8 GHz -> 1.9375 (> 1.4), 1.1 GHz -> 1.545 (> 1.4),
        #   1.4 GHz -> 1.321 (< 1.4)  => first passing gear is 1.4 GHz.
        jobs = [make_job(1, submit=0.0, runtime=1000.0, requested=1000.0, size=3)]
        result = run_conservative(jobs, policy=policy)
        assert result.outcomes[0].gear.frequency == pytest.approx(1.4)


class TestConservativeVsEasy:
    def test_conservative_no_worse_for_head_blocking(self):
        """Conservative guarantees every reservation; on these traces the
        two agree for the unreduced case."""
        jobs = random_workload(seed=8, n_jobs=40, max_cpus=8)
        machine = Machine("m", 8)
        conservative = ConservativeBackfilling(machine, FixedGearPolicy()).run(jobs)
        easy = EasyBackfilling(machine, FixedGearPolicy()).run(jobs)
        assert conservative.job_count == easy.job_count
        # EASY backfills more aggressively; conservative average wait is
        # typically >= EASY's, never catastrophically worse.
        assert conservative.average_wait() <= easy.average_wait() * 3 + 600.0

    @pytest.mark.parametrize("seed", [12, 13, 14])
    def test_arrivals_never_delay_existing_reservations(self, seed):
        """The defining conservative guarantee: an arrival-triggered
        replan leaves every previously queued job's reservation exactly
        where it was (the newcomer plans around them, never through
        them).  Finish-triggered replans may compress the schedule."""
        jobs = random_workload(seed=seed, n_jobs=40, max_cpus=8)
        machine = Machine("m", 8)
        scheduler = ConservativeBackfilling(
            machine, FixedGearPolicy(), config=SchedulerConfig(validate=True)
        )
        scheduler.run(jobs)
        log = scheduler.plan_log
        assert log, "validate mode must record plans"
        arrival_passes = 0
        for (_, _, before), (trigger, _, after) in zip(log, log[1:], strict=False):
            if trigger != "arrival":
                continue
            arrival_passes += 1
            for job_id, promised in before.items():
                if job_id in after:
                    assert after[job_id] <= promised + 1e-6, (
                        f"arrival delayed job {job_id}: {promised} -> {after[job_id]}"
                    )
        assert arrival_passes > 0


class _CountingPolicy(BsldThresholdPolicy):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.calls = 0

    def select_gear(self, job, ctx):
        self.calls += 1
        return super().select_gear(job, ctx)


#: ``select_gear`` calls of the CTC-1000 run below when every pass
#: replanned the whole queue from scratch.
FULL_REPLAN_SELECT_GEAR_CALLS = 27764


def test_plan_reuse_cuts_gear_selections(monkeypatch):
    """Arrival-only passes reuse the kept plan and select gears for the
    new jobs only: at most 80% of the full-replan call count on a fixed
    conservative + sleep trace.  Counts are host-independent, so this
    fails exactly when reuse stops firing."""
    # The sanitizer re-derives every kept plan with extra selections.
    monkeypatch.setattr(sanitize, "_ENABLED", False)
    spec = RunSpec(
        workload="CTC",
        n_jobs=1000,
        seed=1,
        scheduler="conservative",
        policy=PolicySpec.power_aware(2.0, None),
        sleep=SleepPolicy.preset("default"),
    )
    simulation = Simulation(spec)
    policy = _CountingPolicy(2.0, None)
    scheduler = ConservativeBackfilling(
        simulation.machine, policy, config=SchedulerConfig(sleep=spec.sleep)
    )
    scheduler.run(simulation.jobs)
    assert policy.calls <= 0.8 * FULL_REPLAN_SELECT_GEAR_CALLS, policy.calls

"""Conservative backfilling (extension baseline), incremental profile.

Unlike EASY, *every* queued job holds a reservation, and a job may only
backfill if it delays no reservation at all.  The paper's frequency-
assignment loop plugs in unchanged — here the predicted wait time is
genuinely gear-dependent (a slower, longer job may only fit into a
later hole), which exercises the ``wait_time_for`` generality of
:class:`~repro.core.frequency_policy.SchedulingContext`.

The *running-jobs* availability profile — which the original
implementation rebuilt with one ``reserve`` per running job per pass —
is maintained incrementally across events through the scheduler
lifecycle hooks: a starting job reserves ``[now, estimated_end)`` once,
a finishing job releases its remaining claim, and each pass merely
advances the profile origin and copies it.

Queued-job reservations are replanned from scratch on every pass that
follows a start, a finish or a boost re-estimate (classic "compression
on early completion" behaviour).  Passes in between see only arrivals,
and they reuse the previous plan: a pass that starts nothing and leaves
every waiting job reserved strictly after ``now`` keeps its planning
profile, and the next pass advances that profile's origin and plans
only the newly arrived tail.  The reuse also requires the same policy
object (``set_policy`` and ``set_gear_cap`` install a new one) and the
same :meth:`~repro.core.frequency_policy.FrequencyPolicy.wq_gate`
answer for the grown queue.  It is exact because no policy reads
``ctx.now`` and utilisation cannot move without a start or finish.
Every capacity increase in the running profile lies at an estimated
end, at or after the next finish, which is later than ``now`` (finishes
fire before same-time arrivals).  So every reserved begin lies there or
at another reservation's end, after ``now``.  A full replan therefore
probes the same profile for every kept job and reproduces the kept plan
exactly; only the WQ size changes, and the gate covers it.  Under the
sanitizer each kept plan is re-derived by a dry full replan and
compared with the kept profile.

The rebuild-per-pass implementation lives on as
:class:`~repro.scheduling.reference.ReferenceConservativeBackfilling`,
and differential tests pin this scheduler to it schedule-for-schedule
(and, under ``validate``, plan-for-plan).  Both run on the same
:class:`~repro.cluster.profile.AvailabilityProfile`, so those
differentials cover the incremental bookkeeping, the plan reuse and the
start probes; the profile has its own brute-force differential.
"""

from __future__ import annotations

from itertools import islice
from math import inf

from repro.cluster.profile import AvailabilityProfile
from repro.core.frequency_policy import (
    FrequencyPolicy,
    SchedulingContext,
    _always_feasible,
)
from repro.core.gears import Gear
from repro.registry import SCHEDULERS
from repro.scheduling.base import Scheduler, _RunningJob
from repro.scheduling.job import Job
from repro.sim.engine import SimulationError

__all__ = ["ConservativeBackfilling"]


class _StartProbe:
    """Memoizing earliest-start prober for one queued job in one pass.

    The BSLD policy asks for the prospective wait at up to every gear,
    and the planning loop needs the start of the chosen gear again; each
    ask used to be an independent profile scan from ``now``.  Two exact
    properties collapse that: identical durations share one answer (the
    memo), and for a fixed size a shorter window never starts later —
    so the top-gear (shortest, ``Coef == 1``) start, computed once,
    floors the scan for every slower gear without changing its result.
    """

    __slots__ = (
        "_profile", "_now", "_size", "_submit", "_requested", "_beta",
        "_coefficient", "_top_frequency", "_cache", "_floor",
    )

    def __init__(self, profile: AvailabilityProfile, job: Job, now: float,
                 coefficient, top_frequency: float) -> None:
        self._profile = profile
        self._now = now
        self._size = job.size
        self._submit = job.submit_time
        self._requested = job.requested_time
        self._beta = job.beta
        self._coefficient = coefficient
        self._top_frequency = top_frequency
        self._cache: dict[float, float] = {}
        self._floor: float | None = None

    def duration_for(self, gear: Gear) -> float:
        return self._requested * self._coefficient(gear.frequency, self._beta)

    def start_for(self, duration: float) -> float:
        cache = self._cache
        start = cache.get(duration)
        if start is not None:
            return start
        floor = self._floor
        if floor is None:
            top_duration = self._requested * self._coefficient(
                self._top_frequency, self._beta
            )
            floor = self._profile.find_start(self._now, top_duration, self._size)
            self._floor = floor
            cache[top_duration] = floor
            if duration == top_duration:
                return floor
        start = self._profile.find_start(floor, duration, self._size)
        cache[duration] = start
        return start

    def wait_for(self, gear: Gear) -> float:
        start = self.start_for(self.duration_for(gear))
        if start < self._now:
            start = self._now
        return start - self._submit


class _SavedPlan:
    """A pass's plan, kept for reuse by a later arrival-only pass."""

    __slots__ = ("profile", "waiting", "est_version", "policy", "gate", "begins")

    def __init__(self, profile: AvailabilityProfile, waiting: int, est_version: int,
                 policy: FrequencyPolicy, gate: object,
                 begins: dict[int, float] | None) -> None:
        #: Running-job profile plus every kept reservation.
        self.profile = profile
        #: How many queue-head jobs the plan covers (the whole queue then).
        self.waiting = waiting
        self.est_version = est_version
        self.policy = policy
        #: ``policy.wq_gate`` of the queue length the plan was made at.
        self.gate = gate
        #: ``{job_id: reserved begin}``, kept only under ``validate``.
        self.begins = begins


@SCHEDULERS.register("conservative")
class ConservativeBackfilling(Scheduler):
    def _reset_pass_state(self) -> None:
        #: With ``config.validate``, every pass appends
        #: ``(trigger, now, {job_id: reserved_start})`` here; tests use it
        #: to assert the conservative no-delay guarantee.
        self.plan_log: list[tuple[str, float, dict[int, float]]] = []
        #: Free-CPU profile of the *running* jobs only, kept in sync by
        #: the lifecycle hooks below.  Queued-job reservations never
        #: enter it — they are replanned on a per-pass copy.
        self._profile = AvailabilityProfile(self._pool.total_cpus)
        #: The last pass's plan while the next pass may still reuse it.
        self._saved: _SavedPlan | None = None

    # -- incremental profile maintenance ----------------------------------------
    def _note_started(self, running: _RunningJob, now: float) -> None:
        if running.estimated_end > now:
            self._profile.reserve(now, running.estimated_end, running.job.size)

    def _note_finished(self, running: _RunningJob, now: float) -> None:
        # Return the unused tail of the estimate (early completion); the
        # consumed part lies in the past and is dropped by the next
        # ``advance_origin``.
        if running.estimated_end > now:
            self._profile.release(now, running.estimated_end, running.job.size)

    def _note_reestimated(self, running: _RunningJob, old_estimated_end: float, now: float) -> None:
        size = running.job.size
        if old_estimated_end > now:
            self._profile.release(now, old_estimated_end, size)
        if running.estimated_end > now:
            self._profile.reserve(now, running.estimated_end, size)

    def _sanitize_pass(self, now: float) -> None:
        super()._sanitize_pass(now)
        # The incremental running-set profile is this scheduler's extra
        # structure; a corrupt breakpoint list would silently misplace
        # reservations on the next replanning pass.
        self._profile.check_consistency()
        saved = self._saved
        if (
            saved is None
            or saved.est_version != self._est_version
            or saved.policy is not self._policy
        ):
            return
        # A plan the next pass may reuse must be exactly what a full
        # replan of its jobs would build now: re-derive that replan dry
        # (starting nothing) and compare it with the kept profile.  The
        # plan covered the whole queue when it was kept, so it was made
        # at WQ size `waiting - 1`; later arrivals only matter through
        # the gate, which the reusing pass checks.
        from repro.analysis.sanitize import require

        profile = self._profile.copy()
        utilization = self._utilization()
        begins = {}
        for job in islice(self._queue, saved.waiting):
            _gear, duration, start = self._place(
                profile, job, now, saved.waiting - 1, utilization
            )
            require(
                start > now,
                f"kept plan holds job {job.job_id}, which a full replan at "
                f"t={now} places at {start}",
            )
            begins[job.job_id] = start
            profile.reserve(start, start + duration, job.size)
        kept = saved.profile.copy()
        kept.advance_origin(now)
        require(
            list(kept.segments()) == list(profile.segments()),
            f"kept planning profile differs from a full replan at t={now}",
        )
        if saved.begins is not None:
            require(
                saved.begins == begins,
                f"kept reservations differ from a full replan at t={now}",
            )

    # -- the pass ----------------------------------------------------------------
    def _place(
        self,
        profile: AvailabilityProfile,
        job: Job,
        now: float,
        wq_size: int,
        utilization: float,
    ) -> tuple[Gear, float, float]:
        """Choose ``job``'s gear on ``profile``: ``(gear, duration, start)``."""
        probe = _StartProbe(
            profile, job, now, self._time_model.coefficient, self._gears.top.frequency
        )
        gear = self._policy.select_gear(
            job,
            SchedulingContext(
                now=now,
                wait_time_for=probe.wait_for,
                wq_size=wq_size,
                utilization=utilization,
                must_schedule=True,  # every job gets a reservation
                feasible=_always_feasible,
            ),
        )
        if gear is None:
            raise SimulationError(
                f"policy {self._policy.describe()} refused job {job.job_id} "
                f"in a must_schedule context"
            )
        duration = probe.duration_for(gear)
        return gear, duration, probe.start_for(duration)

    def _schedule_pass(self, now: float) -> None:
        self._profile.advance_origin(now)
        queue = self._queue
        if not queue:
            return
        validate = self._config.validate
        if self._pool.free_cpus == 0 and not validate:
            # Replanning is pure computation until something can start:
            # a pass that provably starts nothing (no free processor,
            # and frequency policies are pure functions of their
            # inputs) leaves no trace — the next pass with free capacity
            # replans identically.  Validate mode keeps the full path so
            # the plan log covers every event.
            return
        policy = self._policy
        wq_size = len(queue) - 1
        gate = policy.wq_gate(wq_size)
        saved = self._saved
        self._saved = None
        est_version = self._est_version
        if (
            saved is not None
            and saved.est_version == est_version
            and saved.policy is policy
            and saved.gate == gate
        ):
            # Only arrivals since the kept plan: no start, finish or
            # re-estimate (est_version), the same policy, and the same
            # WQ gate.  Every kept reservation begins at or after the
            # next finish, so a full replan would probe the same profile
            # for it and reproduce it; plan just the new tail.  (Module
            # docstring: why this is exact.)
            profile = saved.profile
            profile.advance_origin(now)
            kept = saved.waiting
            pending = list(islice(queue, kept, None))
            plan = None if saved.begins is None else dict(saved.begins)
        else:
            profile = self._profile.copy()
            kept = 0
            pending = list(queue)
            plan = {} if validate else None
        still_waiting: list[Job] = []
        earliest = inf  # earliest reserved begin among the jobs left waiting
        utilization = self._utilization()
        for job in pending:
            gear, duration, start = self._place(profile, job, now, wq_size, utilization)
            begin = start if start > now else now
            # Whether started or merely reserved, the job consumes profile
            # space so later queue entries cannot plan over it (the
            # conservative property).
            end = begin + duration
            if plan is not None:
                plan[job.job_id] = begin
            if start <= now and self._pool.fits(job.size):
                started = self._start_job(now, job, gear)
                # Jobs started earlier in this very pass raise the
                # utilisation later candidates observe.
                utilization = self._utilization()
                stall = started.segment_start - now
                if stall > 0.0 and profile.fits_at(end, stall, job.size):
                    # The start roused sleeping nodes: its true window
                    # includes the wake stall, and later queue entries in
                    # this very pass must not plan over the boot (future
                    # reservations stay wake-blind — wake state at a
                    # future start is unknowable — but every pass replans
                    # over the incremental profile, which carries the
                    # stall through estimated_end).  Keyed on the actual
                    # stall, never on estimate overruns, so zero-wake
                    # (and unclamped) schedules stay byte-identical to a
                    # sleep-free run.  A job backfilled into a hole that
                    # its wake-blind window fills exactly overruns the
                    # reservation behind the hole: that reservation is
                    # already broken, so this pass keeps the wake-blind
                    # window and the next pass replans it behind the boot.
                    end += stall
            else:
                still_waiting.append(job)
                if begin < earliest:
                    earliest = begin
            profile.reserve(begin, end, job.size)
        if self._est_version != est_version:
            waiting = list(islice(queue, kept))
            waiting.extend(still_waiting)
            queue.clear()
            queue.extend(waiting)
        elif earliest > now:
            # Nothing started (so the queue already equals the jobs left
            # waiting) and no reservation sits at `now`: keep the plan.
            self._saved = _SavedPlan(profile, len(queue), est_version, policy, gate, plan)
        if plan is not None:
            self.plan_log.append((self._trigger, now, plan))

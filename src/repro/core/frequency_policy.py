"""CPU-frequency assignment policies (the paper's core contribution).

A frequency policy answers one question for the job scheduler: *at
which gear should this job be scheduled, if at all?*  It has two entry
points:

* :meth:`FrequencyPolicy.select_gear` reads a :class:`SchedulingContext`
  (the wait as a function of the gear, the wait queue size and a
  per-gear feasibility callback — what Figures 1-2 of the paper
  consult) and returns a gear, or ``None`` to skip the job this pass.
  Conservative backfilling uses it: there the wait depends on the gear.
* :meth:`FrequencyPolicy.fixed_wait_decisions` returns the
  ``(head, backfill)`` closure pair for a wait that is the same at
  every gear.  EASY backfilling and FCFS call it on both cores.

The policy is deliberately scheduler-agnostic: the same object plugs
into EASY backfilling, plain FCFS and conservative backfilling, which
is exactly the portability claim of the paper ("the frequency scaling
algorithm can be applied with any parallel job scheduling policy").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.core.gears import Gear, GearSet
from repro.metrics.bsld import BSLD_THRESHOLD_SECONDS, predicted_bsld
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.power.time_model import BetaTimeModel
    from repro.scheduling.job import Job

__all__ = [
    "SchedulingContext",
    "FrequencyPolicy",
    "FixedGearPolicy",
    "BsldThresholdPolicy",
    "GearCappedPolicy",
    "NO_WQ_LIMIT",
]

#: Sentinel for the paper's "WQ size NO LIMIT" configuration.
NO_WQ_LIMIT: int | None = None

#: The two halves of :meth:`FrequencyPolicy.fixed_wait_decisions`.
HeadDecision = Callable[["Job", float, int, int, float], int]
BackfillDecision = Callable[["Job", float, int, int, bool, float, float], int]


def _always_feasible(gear: Gear) -> bool:
    return True


class SchedulingContext:
    """Inputs available to a frequency decision.

    A ``__slots__`` value class (not a dataclass): conservative
    backfilling and the derived fixed-wait pair build one per decision,
    so construction cost is on the hot path.

    Attributes
    ----------
    now:
        Current simulation time.
    wait_time_for:
        ``WT`` of Eq. (2) as a function of the candidate gear: the wait
        the tentative allocation would impose (scheduled start - submit
        time).  Under EASY the start does not depend on the gear (the
        running-jobs free profile is non-decreasing in time), but under
        conservative backfilling a longer (slower) job may only fit
        later, so ``WT`` is gear-dependent in general.
    wq_size:
        Jobs currently waiting on execution, *excluding* the candidate.
    utilization:
        Fraction of machine CPUs busy right now (used by the
        utilisation-triggered comparator policy).
    must_schedule:
        True for the queue head (``MakeJobReservation``), which EASY
        must always schedule; False for backfill candidates
        (``BackfillJob``), which may be skipped.
    feasible:
        Per-gear admission test.  For the queue head this is always
        true; for a backfill candidate it encodes "fits now without
        violating the head's reservation" at that gear's stretched
        duration.  Policies must not return a gear this test rejects in
        a may-skip (``must_schedule=False``) context — schedulers rely
        on it to prune candidates no gear can admit.
    """

    __slots__ = (
        "now", "wait_time_for", "wq_size", "utilization", "must_schedule", "feasible",
    )

    def __init__(
        self,
        now: float,
        wait_time_for: Callable[[Gear], float],
        wq_size: int,
        utilization: float,
        must_schedule: bool,
        feasible: Callable[[Gear], bool] = _always_feasible,
    ) -> None:
        self.now = now
        self.wait_time_for = wait_time_for
        self.wq_size = wq_size
        self.utilization = utilization
        self.must_schedule = must_schedule
        self.feasible = feasible


class FrequencyPolicy(ABC):
    """Base class; concrete policies implement :meth:`select_gear`."""

    #: Whether a skipped backfill candidate stays skipped while, under an
    #: unchanged machine state, the clock advances and the queue grows.
    #: The fused core then skips arrival passes that provably start
    #: nothing; an unknown policy (``False``) gets every pass.
    refusals_persist = False

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        """Attach machine facts; called once by the scheduler."""
        self._gears = gears
        self._time_model = time_model

    @property
    def gears(self) -> GearSet:
        return self._gears

    @property
    def time_model(self) -> BetaTimeModel:
        return self._time_model

    @abstractmethod
    def select_gear(self, job: Job, ctx: SchedulingContext) -> Gear | None:
        """The gear to schedule ``job`` at, or ``None`` to skip it."""

    def fixed_wait_decisions(self, total_cpus: int) -> tuple[HeadDecision, BackfillDecision]:
        """The EASY/FCFS decision pair on a machine of ``total_cpus``.

        ``head(job, wait, wq_size, free, now)`` gives the queue head's
        gear; ``backfill(job, wait, wq_size, free, gated, now, t_res)``
        a backfill candidate's, or -1 to skip it.  Both answer with an
        index into ``gears.ascending()``.  ``gated`` means the job needs
        more than the processors spare at the head's reservation, so a
        gear fits only if ``now + requested * Coef(gear) <= t_res``;
        callers pass it only once the top gear fits (``Coef == 1``).

        Schedulers build the pair once per :meth:`bind`.  This default
        derives it from :meth:`select_gear`, with utilisation
        ``(total_cpus - free) / total_cpus``.
        """
        ladder = self._gears.ascending()
        coefficient = self._time_model.coefficient
        select_gear = self.select_gear

        def head(job: Job, wait: float, wq_size: int, free: int, now: float) -> int:
            gear = select_gear(
                job,
                SchedulingContext(
                    now, lambda gear: wait, wq_size, (total_cpus - free) / total_cpus,
                    must_schedule=True,
                ),
            )
            if gear is None:
                raise SimulationError(
                    f"policy {self.describe()} refused to schedule queue head "
                    f"{job.job_id} (must_schedule contexts cannot be skipped)"
                )
            return ladder.index(gear)

        def backfill(
            job: Job, wait: float, wq_size: int, free: int, gated: bool, now: float,
            t_res: float,
        ) -> int:
            feasible = _always_feasible
            if gated:
                requested = job.requested_time
                beta = job.beta

                def fits(gear: Gear) -> bool:
                    return now + requested * coefficient(gear.frequency, beta) <= t_res

                feasible = fits
            gear = select_gear(
                job,
                SchedulingContext(
                    now, lambda gear: wait, wq_size, (total_cpus - free) / total_cpus,
                    must_schedule=False, feasible=feasible,
                ),
            )
            return -1 if gear is None else ladder.index(gear)

        return head, backfill

    def wq_gate(self, wq_size: int) -> object:
        """The part of :meth:`select_gear` that depends on ``ctx.wq_size``.

        Two queue lengths with equal gates yield equal decisions when
        every other context input is equal; conservative backfilling
        reuses a plan across arrivals only while the gate holds.  The
        default is the size itself, so a policy that does not override
        this never has a plan reused once the queue grows.
        """
        return wq_size

    def describe(self) -> str:
        return type(self).__name__

    @property
    def applies_dvfs(self) -> bool:
        """Whether this policy can ever pick a non-top gear."""
        return True


class FixedGearPolicy(FrequencyPolicy):
    """Every job runs at one fixed gear.

    With the default (top gear) this is the paper's no-DVFS baseline;
    pinning a lower gear gives the naive "slow everything down"
    strawman that motivates BSLD-aware selection.
    """

    #: It skips only a gear that does not fit, and fits only tighten.
    refusals_persist = True

    def __init__(self, frequency: float | None = None) -> None:
        self._frequency = frequency

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        self._gear = (
            gears.top if self._frequency is None else gears.by_frequency(self._frequency)
        )

    def select_gear(self, job: Job, ctx: SchedulingContext) -> Gear | None:
        feasible = ctx.feasible
        if feasible is _always_feasible or feasible(self._gear):
            return self._gear
        return None

    def fixed_wait_decisions(self, total_cpus: int) -> tuple[HeadDecision, BackfillDecision]:
        fixed_idx = self._gears.ascending().index(self._gear)
        fixed_frequency = self._gear.frequency
        coefficient = self._time_model.coefficient
        fixed_coef = coefficient(fixed_frequency)

        def head(job: Job, wait: float, wq_size: int, free: int, now: float) -> int:
            return fixed_idx

        def backfill(
            job: Job, wait: float, wq_size: int, free: int, gated: bool, now: float,
            t_res: float,
        ) -> int:
            if gated:
                beta = job.beta
                if beta is None:
                    coef = fixed_coef
                else:
                    coef = coefficient(fixed_frequency, beta)
                if not (now + job.requested_time * coef <= t_res):
                    return -1
            return fixed_idx

        return head, backfill

    def wq_gate(self, wq_size: int) -> object:
        return None

    def describe(self) -> str:
        label = "top" if self._frequency is None else f"{self._frequency:g}GHz"
        return f"FixedGear({label})"

    @property
    def applies_dvfs(self) -> bool:
        return self._frequency is not None


class BsldThresholdPolicy(FrequencyPolicy):
    """The paper's two-threshold frequency-assignment algorithm.

    Scan gears from ``Flowest`` to ``Ftop`` (Figures 1-2) and pick the
    first feasible gear whose *predicted BSLD* (Eq. 2) stays below
    ``bsld_threshold`` — but only when at most ``wq_threshold`` other
    jobs are waiting; otherwise go straight to ``Ftop``.

    Parameters
    ----------
    bsld_threshold:
        Maximum tolerated predicted bounded slowdown (paper: 1.5/2/3).
    wq_threshold:
        Maximum wait-queue size (excluding the candidate) for which
        frequency reduction is attempted; ``NO_WQ_LIMIT`` (None)
        removes the restriction (paper: 0/4/16/NO LIMIT).
    bsld_time_threshold:
        ``Th`` of the BSLD formulas (600 s in the paper).
    strict_top_backfill:
        Figure 2 read literally demands ``satisfiesBSLD`` even at
        ``Ftop`` before backfilling a job.  The default ``False``
        applies the check only to *reduced* gears, which Table 3 of the
        paper shows is the behaviour actually evaluated (SDSC's WQ0
        wait matching its no-DVFS wait requires unconditional Ftop
        backfills); set ``True`` for the literal pseudocode.
    """

    #: A longer wait raises every predicted BSLD, a later clock only
    #: tightens the fits, and a longer queue only closes the WQ gate.
    refusals_persist = True

    def __init__(
        self,
        bsld_threshold: float = 2.0,
        wq_threshold: int | None = NO_WQ_LIMIT,
        bsld_time_threshold: float = BSLD_THRESHOLD_SECONDS,
        strict_top_backfill: bool = False,
    ) -> None:
        if bsld_threshold < 1.0:
            raise ValueError(
                f"bsld_threshold below 1 can never be met (BSLD >= 1), got {bsld_threshold}"
            )
        if wq_threshold is not None and wq_threshold < 0:
            raise ValueError(f"wq_threshold must be >= 0 or None, got {wq_threshold}")
        self.bsld_threshold = bsld_threshold
        self.wq_threshold = wq_threshold
        self.bsld_time_threshold = bsld_time_threshold
        self.strict_top_backfill = strict_top_backfill

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        # Hot-path tables: the ascending ladder with the default-β time
        # coefficient of every gear, resolved once instead of per decision.
        self._ladder = gears.ascending()
        self._top_only = (gears.top,)
        self._default_coefs = tuple(
            time_model.coefficient(gear.frequency) for gear in self._ladder
        )
        self._top_index = len(self._ladder) - 1

    # -- the algorithm of Figures 1 and 2 ------------------------------------
    def select_gear(self, job: Job, ctx: SchedulingContext) -> Gear | None:
        top = self._ladder[self._top_index]
        wq_threshold = self.wq_threshold
        if wq_threshold is None or ctx.wq_size <= wq_threshold:
            candidates = self._ladder
            start = 0
        else:
            candidates = self._top_only
            start = self._top_index
        feasible = ctx.feasible
        check_feasible = feasible is not _always_feasible
        check_top = self.strict_top_backfill and not ctx.must_schedule
        beta = job.beta
        requested = job.requested_time
        time_threshold = self.bsld_time_threshold
        denominator = time_threshold if time_threshold > requested else requested
        bsld_threshold = self.bsld_threshold
        wait_time_for = ctx.wait_time_for
        coefficient = self._time_model.coefficient
        if start == 0:
            # Predicted BSLD is monotone non-increasing in frequency (the
            # coefficient shrinks to exactly 1 at Ftop, and a shorter job
            # never starts later), so if even Ftop misses the threshold no
            # reduced gear can pass — the whole ladder walk collapses to
            # the loop's top-gear outcome.
            bsld_top = (wait_time_for(top) + requested) / denominator
            if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                if not check_top and (not check_feasible or feasible(top)):
                    return top
                return top if ctx.must_schedule else None
        for offset, gear in enumerate(candidates):
            if check_feasible and not feasible(gear):
                continue
            if gear is top and not check_top:
                return gear
            if beta is None:
                coef = self._default_coefs[start + offset]
            else:
                coef = coefficient(gear.frequency, beta)
            wait = wait_time_for(gear)
            # Inline Eq. (2): job validation guarantees requested > 0, so
            # the denominator is always positive here (predict() keeps
            # the fully-validated scalar path for external callers).
            bsld = (wait + requested * coef) / denominator
            if bsld < 1.0:
                bsld = 1.0
            if bsld < bsld_threshold:
                return gear
        if ctx.must_schedule:
            # The queue head must hold a reservation even when no gear
            # satisfies the threshold; EASY admission wins over DVFS.
            return top
        return None

    def fixed_wait_decisions(self, total_cpus: int) -> tuple[HeadDecision, BackfillDecision]:
        """:meth:`select_gear` over flat tables, for a gear-independent wait."""
        bsld_threshold = self.bsld_threshold
        wq_threshold = self.wq_threshold
        time_threshold = self.bsld_time_threshold
        strict_top = self.strict_top_backfill
        default_coefs = self._default_coefs
        freqs = [gear.frequency for gear in self._ladder]
        n_gears = len(freqs)
        top_idx = self._top_index
        coefficient = self._time_model.coefficient

        def head(job: Job, wait: float, wq_size: int, free: int, now: float) -> int:
            if wq_threshold is not None and wq_size > wq_threshold:
                return top_idx
            requested = job.requested_time
            denominator = time_threshold if time_threshold > requested else requested
            bsld_top = (wait + requested) / denominator
            if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                return top_idx
            beta = job.beta
            for index in range(n_gears):
                if index == top_idx:
                    return top_idx
                if beta is None:
                    coef = default_coefs[index]
                else:
                    coef = coefficient(freqs[index], beta)
                bsld = (wait + requested * coef) / denominator
                if bsld < 1.0:
                    bsld = 1.0
                if bsld < bsld_threshold:
                    return index
            return top_idx  # pragma: no cover - the loop always hits top

        def backfill(
            job: Job, wait: float, wq_size: int, free: int, gated: bool, now: float,
            t_res: float,
        ) -> int:
            requested = job.requested_time
            beta = job.beta
            denominator = time_threshold if time_threshold > requested else requested
            if wq_threshold is not None and wq_size > wq_threshold:
                start = top_idx
            else:
                start = 0
                # Predicted BSLD is monotone non-increasing in frequency:
                # if even Ftop misses the threshold, no reduced gear can
                # pass (and the top gear is always feasible when gated —
                # the caller pre-verified now + requested <= t_res).
                bsld_top = (wait + requested) / denominator
                if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                    return -1 if strict_top else top_idx
            for index in range(start, n_gears):
                if beta is None:
                    coef = default_coefs[index]
                else:
                    coef = coefficient(freqs[index], beta)
                if gated and not (now + requested * coef <= t_res):
                    continue
                if index == top_idx and not strict_top:
                    return top_idx
                bsld = (wait + requested * coef) / denominator
                if bsld < 1.0:
                    bsld = 1.0
                if bsld < bsld_threshold:
                    return index
            return -1

        return head, backfill

    def predict(self, job: Job, gear: Gear, wait_time: float) -> float:
        """Eq. (2) for this job at this gear under ``wait_time``."""
        coefficient = self.time_model.coefficient(gear.frequency, job.beta)
        return predicted_bsld(
            wait_time=wait_time,
            requested_time=job.requested_time,
            coefficient=coefficient,
            threshold=self.bsld_time_threshold,
        )

    def wq_gate(self, wq_size: int) -> object:
        """Whether reduced gears are tried at all (the WQ threshold)."""
        return self.wq_threshold is None or wq_size <= self.wq_threshold


    def describe(self) -> str:
        wq = "NO" if self.wq_threshold is None else str(self.wq_threshold)
        extra = ", strict" if self.strict_top_backfill else ""
        return f"BSLDthreshold={self.bsld_threshold:g}, WQthreshold={wq}{extra}"


class GearCappedPolicy(FrequencyPolicy):
    """Clamp another policy's selections to gears at or below a frequency.

    The runtime-control wrapper behind
    :meth:`~repro.scheduling.base.Scheduler.set_gear_cap` (and the
    ``power_cap`` instrument): the inner policy decides as usual, and
    any selection above ``max_frequency`` is stepped down to the
    highest capped gear that the scheduling context still admits.  A
    backfill candidate whose capped (longer-running) variant no longer
    fits is skipped; the queue head always schedules at the capped
    gear, mirroring the EASY admission-over-DVFS rule.

    A cap below the machine's lowest frequency clamps to the lowest
    gear — a simulation can never refuse to run jobs outright.
    """

    def __init__(self, inner: FrequencyPolicy, max_frequency: float) -> None:
        if max_frequency <= 0.0:
            raise ValueError(f"max_frequency must be positive, got {max_frequency}")
        self._inner = inner
        self._max_frequency = max_frequency

    @property
    def inner(self) -> FrequencyPolicy:
        return self._inner

    @property
    def max_frequency(self) -> float:
        return self._max_frequency

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        self._inner.bind(gears, time_model)
        eligible = [g for g in gears if g.frequency <= self._max_frequency]
        self._cap_gear = eligible[-1] if eligible else gears.lowest

    def select_gear(self, job: Job, ctx: SchedulingContext) -> Gear | None:
        gear = self._inner.select_gear(job, ctx)
        if gear is None or gear.frequency <= self._cap_gear.frequency:
            return gear
        capped = self._cap_gear
        if ctx.must_schedule or ctx.feasible(capped):
            return capped
        return None

    def wq_gate(self, wq_size: int) -> object:
        return self._inner.wq_gate(wq_size)

    def describe(self) -> str:
        return f"{self._inner.describe()} | cap<={self._max_frequency:g}GHz"

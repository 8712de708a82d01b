"""Unit tests for the frequency-assignment policies (Figures 1-2 logic)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frequency_policy import (
    BsldThresholdPolicy,
    FixedGearPolicy,
    FrequencyPolicy,
    GearCappedPolicy,
    NO_WQ_LIMIT,
    SchedulingContext,
)
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.core.gears import PAPER_GEAR_SET
from repro.power.time_model import BetaTimeModel
from repro.sim.engine import SimulationError
from tests.conftest import make_job

TIME_MODEL = BetaTimeModel.for_gear_set(PAPER_GEAR_SET)


def bind(policy):
    policy.bind(PAPER_GEAR_SET, TIME_MODEL)
    return policy


def ctx(wait=0.0, wq=0, must=True, feasible=None, util=0.5):
    return SchedulingContext(
        now=0.0,
        wait_time_for=lambda gear: wait,
        wq_size=wq,
        utilization=util,
        must_schedule=must,
        feasible=feasible or (lambda gear: True),
    )


class TestFixedGearPolicy:
    def test_defaults_to_top(self):
        policy = bind(FixedGearPolicy())
        assert policy.select_gear(make_job(), ctx()) == PAPER_GEAR_SET.top
        assert not policy.applies_dvfs
        assert policy.describe() == "FixedGear(top)"

    def test_pinned_gear(self):
        policy = bind(FixedGearPolicy(0.8))
        assert policy.select_gear(make_job(), ctx()) == PAPER_GEAR_SET.lowest
        assert policy.applies_dvfs

    def test_unknown_frequency_raises_at_bind(self):
        with pytest.raises(KeyError):
            bind(FixedGearPolicy(1.75))

    def test_infeasible_returns_none(self):
        policy = bind(FixedGearPolicy())
        assert policy.select_gear(make_job(), ctx(feasible=lambda g: False)) is None


class TestBsldThresholdSelection:
    def test_zero_wait_long_request_picks_lowest_passing_gear(self):
        # pred = Coef(f) for RQ >= 600 at zero wait.
        job = make_job(runtime=5000.0, requested=5000.0)
        assert bind(BsldThresholdPolicy(2.0, None)).select_gear(job, ctx()).frequency == 0.8
        assert bind(BsldThresholdPolicy(1.5, None)).select_gear(job, ctx()).frequency == 1.4
        assert bind(BsldThresholdPolicy(1.2, None)).select_gear(job, ctx()).frequency == 1.7

    def test_short_request_always_lowest(self):
        # RQ=300 < 600: pred = max(300*Coef/600, 1) = 1 < any threshold.
        job = make_job(runtime=300.0, requested=300.0)
        policy = bind(BsldThresholdPolicy(1.5, None))
        assert policy.select_gear(job, ctx()).frequency == 0.8

    def test_large_wait_forces_top_for_head(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        # wait 10000s: pred at top = 11 > 2, but the head must schedule.
        gear = policy.select_gear(job, ctx(wait=10000.0, must=True))
        assert gear == PAPER_GEAR_SET.top

    def test_large_wait_backfill_allowed_at_top_by_default(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        gear = policy.select_gear(job, ctx(wait=10000.0, must=False))
        assert gear == PAPER_GEAR_SET.top  # relaxed Figure-2 reading

    def test_strict_mode_blocks_top_backfill(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None, strict_top_backfill=True))
        assert policy.select_gear(job, ctx(wait=10000.0, must=False)) is None

    def test_strict_mode_still_schedules_heads(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None, strict_top_backfill=True))
        assert policy.select_gear(job, ctx(wait=10000.0, must=True)) == PAPER_GEAR_SET.top


class TestWqThreshold:
    def test_wq_over_threshold_goes_top(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(3.0, wq_threshold=4))
        assert policy.select_gear(job, ctx(wq=5)).frequency == 2.3
        assert policy.select_gear(job, ctx(wq=4)).frequency == 0.8

    def test_wq_zero_semantics(self):
        """WQ threshold 0 still reduces when no *other* job waits."""
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, wq_threshold=0))
        assert policy.select_gear(job, ctx(wq=0)).frequency == 0.8
        assert policy.select_gear(job, ctx(wq=1)).frequency == 2.3

    def test_no_limit(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, NO_WQ_LIMIT))
        assert policy.select_gear(job, ctx(wq=10**6)).frequency == 0.8

    def test_wq_gate_flips_exactly_where_selection_does(self):
        """The gate equals across WQ sizes exactly when decisions may."""
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(3.0, wq_threshold=4))
        for wq in range(8):
            reduced = policy.select_gear(job, ctx(wq=wq)).frequency < 2.3
            assert policy.wq_gate(wq) == reduced
        assert bind(BsldThresholdPolicy(2.0, NO_WQ_LIMIT)).wq_gate(10**6)
        capped = bind(GearCappedPolicy(BsldThresholdPolicy(3.0, 4), 1.4))
        assert [capped.wq_gate(wq) for wq in (4, 5)] == [True, False]

    def test_wq_blind_policies_have_a_constant_gate(self):
        for policy in (FixedGearPolicy(), UtilizationTriggeredPolicy()):
            assert policy.wq_gate(0) == policy.wq_gate(10**6)

    def test_default_gate_is_the_size_itself(self):
        class Custom(FrequencyPolicy):
            def select_gear(self, job, ctx):
                return None

        assert Custom().wq_gate(3) != Custom().wq_gate(4)


def test_only_bundled_policies_promise_persistent_refusals():
    class Custom(FrequencyPolicy):
        def select_gear(self, job, ctx):
            return None

    assert not Custom().refusals_persist
    for policy in (FixedGearPolicy(), BsldThresholdPolicy(), UtilizationTriggeredPolicy()):
        assert policy.refusals_persist


class TestFeasibility:
    def test_infeasible_low_gears_skipped(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        gear = policy.select_gear(job, ctx(feasible=lambda g: g.frequency >= 1.4))
        # 1.4 GHz is feasible and pred = Coef(1.4) = 1.32 < 2.
        assert gear.frequency == pytest.approx(1.4)

    def test_nothing_feasible_backfill_returns_none(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        assert policy.select_gear(job, ctx(feasible=lambda g: False, must=False)) is None

    def test_nothing_feasible_head_still_returns_top(self):
        """Heads fall back to Ftop even if the feasibility probe objects;
        EASY's reservation for the head cannot be skipped."""
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        assert policy.select_gear(job, ctx(feasible=lambda g: False, must=True)) == PAPER_GEAR_SET.top


class TestPredict:
    def test_matches_formula(self):
        policy = bind(BsldThresholdPolicy(2.0, None))
        job = make_job(runtime=1000.0, requested=1200.0)
        low = PAPER_GEAR_SET.lowest
        expected = (600.0 + 1200.0 * 1.9375) / 1200.0
        assert policy.predict(job, low, wait_time=600.0) == pytest.approx(expected)

    def test_honours_per_job_beta(self):
        policy = bind(BsldThresholdPolicy(2.0, None))
        cpu_bound = make_job(runtime=5000.0, requested=5000.0, beta=1.0)
        mem_bound = make_job(runtime=5000.0, requested=5000.0, beta=0.0)
        low = PAPER_GEAR_SET.lowest
        assert policy.predict(cpu_bound, low, 0.0) == pytest.approx(2.3 / 0.8)
        assert policy.predict(mem_bound, low, 0.0) == pytest.approx(1.0)

    def test_per_job_beta_changes_selection(self):
        policy = bind(BsldThresholdPolicy(1.5, None))
        mem_bound = make_job(runtime=5000.0, requested=5000.0, beta=0.1)
        assert policy.select_gear(mem_bound, ctx()).frequency == 0.8


class TestValidation:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="bsld_threshold"):
            BsldThresholdPolicy(0.9, None)

    def test_negative_wq_rejected(self):
        with pytest.raises(ValueError, match="wq_threshold"):
            BsldThresholdPolicy(2.0, -1)

    def test_describe(self):
        assert BsldThresholdPolicy(2.0, 4).describe() == "BSLDthreshold=2, WQthreshold=4"
        assert "NO" in BsldThresholdPolicy(2.0, None).describe()
        assert "strict" in BsldThresholdPolicy(2.0, None, strict_top_backfill=True).describe()

    def test_gear_dependent_wait_context(self):
        """SchedulingContext supports per-gear wait times (conservative BF)."""
        policy = bind(BsldThresholdPolicy(1.5, None))
        job = make_job(runtime=5000.0, requested=5000.0)
        # Lower gears imply huge waits; only 2.0 GHz sees a zero wait.
        context = SchedulingContext(
            now=0.0,
            wait_time_for=lambda gear: 0.0 if gear.frequency >= 2.0 else 1e6,
            wq_size=0,
            utilization=0.0,
            must_schedule=True,
            feasible=lambda gear: True,
        )
        assert policy.select_gear(job, context).frequency == pytest.approx(2.0)


# -- the fixed-wait decision pair against select_gear --------------------------

#: Every shipped policy: (label, factory).  Built fresh per example so
#: no state leaks between draws.
PAIR_POLICIES = {
    "bsld(2,0)": lambda: BsldThresholdPolicy(2.0, 0),
    "bsld(1.5,4)": lambda: BsldThresholdPolicy(1.5, 4),
    "bsld(3,NO)": lambda: BsldThresholdPolicy(3.0, None),
    "bsld(2,0)-strict": lambda: BsldThresholdPolicy(2.0, 0, strict_top_backfill=True),
    "bsld(1.5,4)-strict": lambda: BsldThresholdPolicy(1.5, 4, strict_top_backfill=True),
    "bsld(3,NO)-strict": lambda: BsldThresholdPolicy(3.0, None, strict_top_backfill=True),
    "fixed-top": FixedGearPolicy,
    "fixed-0.8": lambda: FixedGearPolicy(0.8),
    "util": UtilizationTriggeredPolicy,
    "capped-bsld(2,4)": lambda: GearCappedPolicy(BsldThresholdPolicy(2.0, 4), 1.4),
}

TOTAL_CPUS = 128
LADDER = PAPER_GEAR_SET.ascending()
#: Every per-gear coefficient at the drawn betas: t_res drawn on one of
#: these lands a gear exactly on the admission boundary.
COEFS = sorted(
    {TIME_MODEL.coefficient(g.frequency, b) for g in LADDER for b in (None, 0.0, 0.5, 1.0)}
)


def wq_threshold_of(policy):
    inner = policy.inner if isinstance(policy, GearCappedPolicy) else policy
    return getattr(inner, "wq_threshold", None)


@st.composite
def decision_inputs(draw):
    name = draw(st.sampled_from(sorted(PAIR_POLICIES)))
    policy = bind(PAIR_POLICIES[name]())
    requested = draw(st.floats(min_value=1.0, max_value=20000.0))
    beta = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    job = make_job(runtime=requested, requested=requested, beta=beta)
    wait = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50000.0)))
    threshold = wq_threshold_of(policy)
    if threshold is None:
        wq_size = draw(st.integers(min_value=0, max_value=50))
    else:
        # Just below, at and just above the threshold, plus anywhere.
        wq_size = draw(
            st.one_of(
                st.sampled_from([max(threshold - 1, 0), threshold, threshold + 1]),
                st.integers(min_value=0, max_value=50),
            )
        )
    free = draw(st.integers(min_value=0, max_value=TOTAL_CPUS))
    now = draw(st.floats(min_value=0.0, max_value=1e6))
    # gated candidates need the top gear to fit (the callers' check):
    # t_res = now + requested * factor with factor >= Coef(Ftop) == 1.
    factor = draw(st.one_of(st.sampled_from(COEFS), st.floats(min_value=1.0, max_value=3.0)))
    t_res = now + requested * factor
    gated = draw(st.booleans())
    return policy, job, wait, wq_size, free, now, gated, t_res


def plain_context(policy, job, wait, wq_size, free, now, must, gated=False, t_res=0.0):
    coefficient = policy.time_model.coefficient

    def feasible(gear):
        if not gated:
            return True
        return now + job.requested_time * coefficient(gear.frequency, job.beta) <= t_res

    return SchedulingContext(
        now=now,
        wait_time_for=lambda gear: wait,
        wq_size=wq_size,
        utilization=(TOTAL_CPUS - free) / TOTAL_CPUS,
        must_schedule=must,
        feasible=feasible,
    )


class TestFixedWaitDecisions:
    """Each policy's (head, backfill) pair decides exactly as select_gear."""

    @given(decision_inputs())
    @settings(max_examples=400)
    def test_pair_matches_select_gear(self, inputs):
        policy, job, wait, wq_size, free, now, gated, t_res = inputs
        head, backfill = policy.fixed_wait_decisions(TOTAL_CPUS)

        expected_head = policy.select_gear(
            job, plain_context(policy, job, wait, wq_size, free, now, must=True)
        )
        assert LADDER[head(job, wait, wq_size, free, now)] == expected_head

        expected = policy.select_gear(
            job,
            plain_context(policy, job, wait, wq_size, free, now, False, gated, t_res),
        )
        index = backfill(job, wait, wq_size, free, gated, now, t_res)
        if expected is None:
            assert index == -1
        else:
            assert index >= 0 and LADDER[index] == expected

    def test_derived_head_refusal_raises(self):
        class Refuses(FrequencyPolicy):
            def select_gear(self, job, ctx):
                return None

        head, backfill = bind(Refuses()).fixed_wait_decisions(TOTAL_CPUS)
        job = make_job()
        with pytest.raises(SimulationError, match="refused to schedule queue head"):
            head(job, 0.0, 0, TOTAL_CPUS, 0.0)
        assert backfill(job, 0.0, 0, TOTAL_CPUS, False, 0.0, 0.0) == -1

    def test_derived_context_carries_the_exact_inputs(self):
        seen = []

        class Records(FrequencyPolicy):
            def select_gear(self, job, ctx):
                seen.append(
                    (ctx.now, ctx.wait_time_for(self.gears.lowest), ctx.wq_size,
                     ctx.utilization, ctx.must_schedule)
                )
                return self.gears.top

        head, backfill = bind(Records()).fixed_wait_decisions(TOTAL_CPUS)
        job = make_job()
        assert LADDER[head(job, 7.5, 3, 32, 100.25)] == PAPER_GEAR_SET.top
        assert LADDER[backfill(job, 2.5, 4, 96, False, 50.5, 60.0)] == PAPER_GEAR_SET.top
        assert seen == [(100.25, 7.5, 3, 0.75, True), (50.5, 2.5, 4, 0.25, False)]

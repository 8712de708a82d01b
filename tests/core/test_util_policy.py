"""Unit tests for the utilisation-triggered comparator policy."""

import pytest

from repro.core.frequency_policy import SchedulingContext
from repro.core.gears import PAPER_GEAR_SET
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.power.time_model import BetaTimeModel
from tests.conftest import make_job


def bind(policy=None):
    policy = policy or UtilizationTriggeredPolicy()
    policy.bind(PAPER_GEAR_SET, BetaTimeModel.for_gear_set(PAPER_GEAR_SET))
    return policy


def ctx(util, must=True, feasible=None):
    return SchedulingContext(
        now=0.0,
        wait_time_for=lambda gear: 0.0,
        wq_size=0,
        utilization=util,
        must_schedule=must,
        feasible=feasible or (lambda gear: True),
    )


class TestGearMapping:
    def test_idle_machine_lowest_gear(self):
        assert bind().select_gear(make_job(), ctx(0.1)).frequency == 0.8

    def test_mid_utilization_mid_gear(self):
        assert bind().select_gear(make_job(), ctx(0.5)).frequency == pytest.approx(1.7)

    def test_busy_machine_top_gear(self):
        assert bind().select_gear(make_job(), ctx(0.9)).frequency == 2.3

    def test_boundaries_are_exclusive(self):
        policy = bind()
        assert policy.select_gear(make_job(), ctx(0.4)).frequency == pytest.approx(1.7)
        assert policy.select_gear(make_job(), ctx(0.6)).frequency == 2.3

    def test_custom_steps(self):
        policy = bind(UtilizationTriggeredPolicy(steps=((0.8, 1),)))
        assert policy.select_gear(make_job(), ctx(0.5)).frequency == pytest.approx(1.1)
        assert policy.select_gear(make_job(), ctx(0.9)).frequency == 2.3

    def test_gear_index_clamped_to_ladder(self):
        policy = bind(UtilizationTriggeredPolicy(steps=((0.9, 99),)))
        assert policy.select_gear(make_job(), ctx(0.1)) == PAPER_GEAR_SET.top


class TestFeasibilityFallback:
    def test_falls_back_to_faster_gear(self):
        policy = bind()
        gear = policy.select_gear(make_job(), ctx(0.1, feasible=lambda g: g.frequency >= 2.0))
        assert gear.frequency == pytest.approx(2.0)

    def test_backfill_may_fail(self):
        policy = bind()
        assert policy.select_gear(make_job(), ctx(0.1, must=False, feasible=lambda g: False)) is None

    def test_head_always_scheduled(self):
        policy = bind()
        gear = policy.select_gear(make_job(), ctx(0.1, must=True, feasible=lambda g: False))
        assert gear == PAPER_GEAR_SET.top


class TestValidation:
    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            UtilizationTriggeredPolicy(steps=((0.6, 0), (0.4, 1)))

    def test_duplicate_bounds_rejected(self):
        # Regression: `bounds != sorted(bounds)` accepted duplicates,
        # silently dead-lettering the later step (first match wins).
        with pytest.raises(ValueError, match="strictly ascending"):
            UtilizationTriggeredPolicy(steps=((0.4, 0), (0.4, 3)))

    def test_strictly_ascending_bounds_accepted(self):
        policy = UtilizationTriggeredPolicy(steps=((0.2, 0), (0.4, 1), (0.9, 2)))
        assert "UtilizationTriggered" in policy.describe()

    def test_out_of_range_bounds_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            UtilizationTriggeredPolicy(steps=((1.4, 0),))

    def test_negative_gear_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UtilizationTriggeredPolicy(steps=((0.4, -1),))

    def test_describe(self):
        assert "UtilizationTriggered" in UtilizationTriggeredPolicy().describe()

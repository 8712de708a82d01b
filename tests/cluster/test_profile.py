"""Unit and property tests for the availability profile."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.profile import AvailabilityProfile


def make_profile(total=8, origin=0.0):
    return AvailabilityProfile(total, origin)


class TestBasics:
    def test_initial_state(self):
        profile = make_profile()
        assert profile.total_cpus == 8
        assert profile.origin == 0.0
        assert profile.free_at(0.0) == 8
        assert profile.free_at(1e9) == 8

    def test_rejects_empty_machine(self):
        with pytest.raises(ValueError, match="CPU"):
            AvailabilityProfile(0)

    def test_free_before_origin_clamps(self):
        profile = make_profile(origin=100.0)
        assert profile.free_at(0.0) == 8


class TestReserve:
    def test_step_function(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 3)
        assert profile.free_at(5.0) == 8
        assert profile.free_at(10.0) == 5
        assert profile.free_at(19.999) == 5
        assert profile.free_at(20.0) == 8

    def test_overlapping_reservations_stack(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 3)
        profile.reserve(5.0, 15.0, 3)
        assert profile.free_at(2.0) == 5
        assert profile.free_at(7.0) == 2
        assert profile.free_at(12.0) == 5

    def test_over_reservation_rejected(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 6)
        with pytest.raises(ValueError, match="over-reservation"):
            profile.reserve(5.0, 8.0, 3)

    def test_failed_reserve_leaves_profile_unchanged(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 6)
        before = list(profile.segments())
        with pytest.raises(ValueError):
            profile.reserve(5.0, 8.0, 3)
        assert profile.free_at(6.0) == 2  # untouched
        # Capacity is checked before any breakpoint is inserted.
        assert list(profile.segments()) == before

    def test_empty_interval_rejected(self):
        profile = make_profile()
        with pytest.raises(ValueError, match="empty"):
            profile.reserve(5.0, 5.0, 1)

    def test_before_origin_rejected(self):
        profile = make_profile(origin=10.0)
        with pytest.raises(ValueError, match="precedes"):
            profile.reserve(5.0, 15.0, 1)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            make_profile().reserve(0.0, 1.0, 0)


class TestRelease:
    def test_roundtrip(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 3)
        profile.release(10.0, 20.0, 3)
        for time in (5.0, 10.0, 15.0, 25.0):
            assert profile.free_at(time) == 8

    def test_over_release_rejected(self):
        profile = make_profile()
        with pytest.raises(ValueError, match="over-release"):
            profile.release(0.0, 5.0, 1)


class TestQueries:
    def test_min_free(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 5)
        assert profile.min_free(0.0, 10.0) == 8
        assert profile.min_free(5.0, 15.0) == 3
        assert profile.min_free(20.0, 30.0) == 8

    def test_min_free_point_interval(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 5)
        assert profile.min_free(10.0, 10.0) == 3

    def test_min_free_rejects_reversed(self):
        with pytest.raises(ValueError, match="precedes"):
            make_profile().min_free(10.0, 5.0)

    def test_fits_at(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 6)
        assert profile.fits_at(0.0, 10.0, 8)     # ends exactly at the dip
        assert not profile.fits_at(0.0, 11.0, 8)
        assert profile.fits_at(10.0, 5.0, 2)
        assert not profile.fits_at(10.0, 5.0, 3)
        assert not profile.fits_at(0.0, 1.0, 9)  # larger than machine
        assert not profile.fits_at(0.0, 1.0, 0)

    def test_segments_cover_timeline(self):
        profile = make_profile()
        profile.reserve(5.0, 10.0, 2)
        segments = list(profile.segments())
        assert segments[0][0] == 0.0
        assert segments[-1][1] == float("inf")
        for (_s0, e0, _), (s1, _, _) in zip(segments, segments[1:], strict=False):
            assert e0 == s1


class TestFindStart:
    def test_immediate_when_free(self):
        assert make_profile().find_start(0.0, 100.0, 8) == 0.0

    def test_waits_for_release(self):
        profile = make_profile()
        profile.reserve(0.0, 50.0, 6)
        assert profile.find_start(0.0, 10.0, 4) == 50.0

    def test_fits_into_gap_between_reservations(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 6)
        profile.reserve(30.0, 40.0, 6)
        # 4 CPUs for 20s fit exactly into the [10, 30) gap.
        assert profile.find_start(0.0, 20.0, 4) == 10.0
        # ... but 25s must wait until the second block clears.
        assert profile.find_start(0.0, 25.0, 4) == 40.0

    def test_respects_earliest(self):
        profile = make_profile()
        assert profile.find_start(17.0, 5.0, 2) == 17.0

    def test_earliest_inside_busy_segment(self):
        profile = make_profile()
        profile.reserve(0.0, 100.0, 7)
        assert profile.find_start(50.0, 10.0, 2) == 100.0

    def test_zero_duration(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 8)
        assert profile.find_start(0.0, 0.0, 1) == 10.0

    def test_rejects_impossible_size(self):
        with pytest.raises(ValueError, match="capacity"):
            make_profile().find_start(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="size"):
            make_profile().find_start(0.0, 1.0, 0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            make_profile().find_start(0.0, -1.0, 1)


class TestHousekeeping:
    def test_copy_is_independent(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 4)
        clone = profile.copy()
        clone.reserve(0.0, 10.0, 4)
        assert profile.free_at(5.0) == 4
        assert clone.free_at(5.0) == 0

    def test_advance_origin_drops_history(self):
        profile = make_profile()
        profile.reserve(0.0, 10.0, 4)
        profile.reserve(20.0, 30.0, 4)
        profile.advance_origin(15.0)
        assert profile.origin == 15.0
        assert profile.free_at(16.0) == 8
        assert profile.free_at(25.0) == 4

    def test_release_compacts_segments(self):
        profile = make_profile()
        profile.reserve(10.0, 20.0, 3)
        profile.release(10.0, 20.0, 3)
        assert len(list(profile.segments())) == 1


reservations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=15,
)


@given(reservations)
def test_profile_invariants_property(blocks):
    """Free counts stay within [0, total]; find_start results verify."""
    profile = AvailabilityProfile(8)
    applied = []
    for start, duration, size in blocks:
        end = start + duration
        if profile.min_free(start, end) >= size:
            profile.reserve(start, end, size)
            applied.append((start, end, size))
    for _start, _end, free in profile.segments():
        assert 0 <= free <= 8
    # find_start always returns a feasible slot
    for size in (1, 4, 8):
        slot = profile.find_start(0.0, 10.0, size)
        assert profile.fits_at(slot, 10.0, size)
    # releasing everything restores a flat profile
    for start, end, size in applied:
        profile.release(start, end, size)
    assert next(iter(profile.segments()))[2] == 8
    assert len(list(profile.segments())) == 1


@given(
    reservations,
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
)
def test_find_start_is_earliest_property(blocks, earliest, duration, size):
    """No feasible start exists at any earlier profile breakpoint."""
    profile = AvailabilityProfile(8)
    for start, dur, block_size in blocks:
        end = start + dur
        if profile.min_free(start, end) >= block_size:
            profile.reserve(start, end, block_size)
    found = profile.find_start(earliest, duration, size)
    assert found >= earliest
    assert profile.fits_at(found, duration, size)
    # candidate starts are `earliest` and segment boundaries after it
    candidates = [earliest, *(s for s, _, _ in profile.segments() if earliest < s < found)]
    for candidate in candidates:
        if candidate < found:
            assert not profile.fits_at(candidate, duration, size)

"""Piecewise-constant availability profile of free processors over time.

This is the general allocation-search structure behind
``findAllocation`` / ``TryToFindBackfilledAllocation`` in the paper's
pseudocode.  The fast EASY implementation in
:mod:`repro.scheduling.easy` uses an O(1) specialisation; this full
profile backs conservative backfilling, where every queued job holds a
reservation, and the reference schedulers in
:mod:`repro.scheduling.reference`.

The profile is a step function ``free(t)`` held as two parallel flat
lists: ``_times[i]`` is the start of segment ``i``, which spans to
``_times[i+1]`` (the last segment extends to infinity) with
``_free[i]`` processors available.  Lookups bisect; a mutation touches
the segments its interval covers, so every operation is O(n) in the
breakpoint count with small constants.  At the depths conservative
runs reach (a few hundred breakpoints) this beats a blocked index,
whose bookkeeping only pays off around a few thousand.

The profile keeps itself *compacted*: no two adjacent segments hold the
same free count.  A mutation can only create equal neighbours at the
two boundaries of its interval, so it merges there and nowhere else;
the breakpoint count therefore stays bounded by the number of live
reservations, not by the number ever seen (``advance_origin`` drops the
historical prefix the simulation clock has passed).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

__all__ = ["AvailabilityProfile"]


class AvailabilityProfile:
    """Flat breakpoint-list availability profile (see module docstring)."""

    __slots__ = ("_total", "_times", "_free")

    def __init__(self, total_cpus: int, origin: float = 0.0) -> None:
        if total_cpus <= 0:
            raise ValueError(f"profile needs at least 1 CPU, got {total_cpus}")
        self._total = total_cpus
        self._times: list[float] = [origin]
        self._free: list[int] = [total_cpus]

    # -- introspection -------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        return self._total

    @property
    def origin(self) -> float:
        return self._times[0]

    def segments(self) -> Iterator[tuple[float, float, int]]:
        """Yield ``(start, end, free)`` triples; the last end is ``inf``."""
        times = self._times
        ends = times[1:] + [float("inf")]
        return iter(zip(times, ends, self._free, strict=True))

    def breakpoint_count(self) -> int:
        """Number of segment boundaries currently held (memory proxy)."""
        return len(self._times)

    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (clamped to the origin on the left)."""
        index = bisect_right(self._times, time) - 1
        return self._free[index if index > 0 else 0]

    def min_free(self, start: float, end: float) -> int:
        """Minimum free count over ``[start, end)``."""
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end == start:
            return self.free_at(start)
        times = self._times
        first = bisect_right(times, start) - 1
        if first < 0:
            first = 0
        last = bisect_left(times, end, first)
        return min(self._free[first:last]) if last > first else self._total

    def check_consistency(self) -> None:
        """Verify the flat-list invariants (sanitizer hook).

        Checks parallel-list alignment, strictly-increasing breakpoints,
        capacity bounds ``0 <= free <= total`` on every segment, and the
        no-equal-neighbours compaction invariant that bounds the
        breakpoint count.  O(breakpoints); called only under
        :mod:`repro.analysis.sanitize`.
        """
        from repro.analysis.sanitize import require

        times = self._times
        free = self._free
        require(len(times) >= 1, "profile lost its last segment")
        require(
            len(times) == len(free),
            f"time/free columns disagree: {len(times)} times, {len(free)} counts",
        )
        for i, (time, count) in enumerate(zip(times, free, strict=True)):
            require(
                0 <= count <= self._total,
                f"free count {count} outside [0, {self._total}] at t={time}",
            )
            if i:
                require(
                    time > times[i - 1],
                    f"breakpoints not strictly increasing at segment {i} "
                    f"({time} after {times[i - 1]})",
                )
                require(
                    count != free[i - 1],
                    f"uncompacted equal-free neighbour at t={time} (free={count})",
                )

    # -- mutation --------------------------------------------------------------
    def _span(self, start: float, end: float) -> tuple[int, int]:
        """Indices ``[first, last)`` of the segments overlapping ``[start, end)``."""
        times = self._times
        if start < times[0]:
            raise ValueError(f"time {start} precedes the profile origin {times[0]}")
        first = bisect_right(times, start) - 1
        return first, bisect_left(times, end, first + 1)

    def _shift(self, first: int, start: float, end: float, delta: int) -> None:
        """Add ``delta`` over ``[start, end)``, then merge at its two boundaries.

        ``first`` is the index of the segment containing ``start``.
        """
        times = self._times
        free = self._free
        if times[first] != start:
            first += 1
            times.insert(first, start)
            free.insert(first, free[first - 1])
        last = bisect_left(times, end, first + 1)
        if last == len(times) or times[last] != end:
            times.insert(last, end)  # the segment from `end` keeps its value
            free.insert(last, free[last - 1])
        free[first:last] = [count + delta for count in free[first:last]]
        # Interior neighbours moved together, so only the two boundaries
        # can have equalised; merge the right one first so `first` holds.
        if last < len(times) and free[last] == free[last - 1]:
            del times[last]
            del free[last]
        if first > 0 and free[first] == free[first - 1]:
            del times[first]
            del free[first]

    def reserve(self, start: float, end: float, size: int) -> None:
        """Consume ``size`` processors over ``[start, end)``.

        Raises ``ValueError`` — leaving the profile untouched — if any
        touched segment would go negative; callers are expected to have
        verified fit via :meth:`min_free` or :meth:`find_start`.
        """
        if size <= 0:
            raise ValueError(f"reservation size must be positive, got {size}")
        if end <= start:
            raise ValueError(f"reservation interval [{start}, {end}) is empty")
        first, last = self._span(start, end)
        free = self._free
        if min(free[first:last]) < size:
            i = next(i for i in range(first, last) if free[i] < size)
            raise ValueError(
                f"over-reservation: segment [{self._times[i]}, ...) has "
                f"{free[i]} free, requested {size}"
            )
        self._shift(first, start, end, -size)

    def release(self, start: float, end: float, size: int) -> None:
        """Undo a :meth:`reserve` over exactly the same interval."""
        if size <= 0:
            raise ValueError(f"release size must be positive, got {size}")
        if end <= start:
            raise ValueError(f"release interval [{start}, {end}) is empty")
        first, last = self._span(start, end)
        free = self._free
        ceiling = self._total - size
        if max(free[first:last]) > ceiling:
            i = next(i for i in range(first, last) if free[i] > ceiling)
            raise ValueError(
                f"over-release: segment [{self._times[i]}, ...) would hold "
                f"{free[i] + size} of {self._total} CPUs"
            )
        self._shift(first, start, end, size)

    def advance_origin(self, time: float) -> None:
        """Drop history before ``time`` (the simulation clock moved on)."""
        times = self._times
        if time <= times[0]:
            return
        index = bisect_right(times, time) - 1
        del times[:index]
        del self._free[:index]
        times[0] = time

    # -- search ------------------------------------------------------------------
    def find_start(self, earliest: float, duration: float, size: int) -> float:
        """Earliest ``t >= earliest`` with ``free >= size`` over ``[t, t+duration)``.

        Mirrors ``findAllocation`` in the paper.  Always succeeds for
        ``size <= total_cpus`` because the final segment of the profile
        has every reservation expired.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if size > self._total:
            raise ValueError(f"size {size} exceeds machine capacity {self._total}")
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        times = self._times
        free = self._free
        if earliest < times[0]:
            earliest = times[0]
        i = bisect_right(times, earliest) - 1
        n = len(times)
        while True:
            while free[i] < size:
                i += 1  # the last segment is fully free, so this stops
            candidate = times[i]
            if candidate < earliest:
                candidate = earliest
            end = candidate + duration
            j = i + 1
            while j < n and times[j] < end:
                if free[j] < size:
                    break
                j += 1
            else:
                return candidate
            i = j  # the violating segment; the outer loop skips past it

    def fits_at(self, start: float, duration: float, size: int) -> bool:
        """Whether ``size`` CPUs are free over ``[start, start+duration)``."""
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if size <= 0 or size > self._total:
            return False
        if duration == 0.0:
            return self.free_at(start) >= size
        return self.min_free(start, start + duration) >= size

    # -- housekeeping ---------------------------------------------------------------
    def copy(self) -> "AvailabilityProfile":
        clone = AvailabilityProfile.__new__(AvailabilityProfile)
        clone._total = self._total
        clone._times = self._times.copy()
        clone._free = self._free.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"[{s:g},{'inf' if e == float('inf') else format(e, 'g')}):{f}"
                          for s, e, f in self.segments())
        return f"AvailabilityProfile({parts})"

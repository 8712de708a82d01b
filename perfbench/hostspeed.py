"""Host-speed calibration for the timed metrics.

The 2-CPU hosts this benchmark targets share their cores with other
tenants, and the speed of the same code drifts by up to 1.5x over a few
seconds.  That drift is larger than any bound a benchmark could keep, so
each timed metric is reported at a reference host speed: the benchmark
times a fixed probe (a pure-Python integer loop that no simulator code
shares, so no change to the simulator can move it) next to the work, and
scales the work's time by ``REFERENCE_PROBE_S / probe time``.

Single-process operations run in stages (a simulation, an encoding)
with a probe between stages; workloads whose work runs in other
processes (sweep workers, the serve daemon) sample the probe from a
thread of the measuring process while the work runs.  The unscaled
values are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import threading
import time

PROBE_LOOPS = 100_000
PROBE_REPEATS = 3
#: Probe time on a quiet reference host; scaled times read as if the
#: host ran at that speed.
REFERENCE_PROBE_S = 0.004


def probe() -> float:
    """Median CPU seconds of a few runs of the fixed loop.

    CPU time of the calling thread, not wall time: a sampler thread
    that waits for a core, or for the interpreter lock, must not read
    that wait as a slow host.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.thread_time()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value
        times.append(time.thread_time() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor bringing a time bracketed by two probes to reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)


def staged(stages):
    """Run an operation made of sequential stages, with a probe between stages.

    Each stage receives the previous stage's output.  Returns
    ``(seconds, scaled_seconds, outputs)``, one entry per stage: its wall
    time without the probes, the same time scaled by the mean of the
    probes on either side of it, and its output.
    """
    seconds, scaled, outputs = [], [], []
    before = probe()
    previous = None
    for stage in stages:
        start = time.perf_counter()
        previous = stage(previous)
        elapsed = time.perf_counter() - start
        after = probe()
        seconds.append(elapsed)
        scaled.append(elapsed * scale(before, after))
        outputs.append(previous)
        before = after
    return seconds, scaled, outputs


class Sampler:
    """Probe the host from a background thread while work runs elsewhere."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Factor bringing times measured meanwhile to reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

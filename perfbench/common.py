"""Shared definitions of the benchmark: paths, specs, hygiene, statistics.

Everything here is imported by the orchestrator (``run.py``), the
in-process workload child (``child.py``) and the serve launcher, so a
workload is defined in exactly one place.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
from pathlib import Path
from typing import NoReturn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout, listed in the root .gitignore.
WORK = ROOT / ".perfbench"

#: Each would silently change which code runs; the benchmark refuses them.
FORBIDDEN_ENV = (
    "REPRO_ENGINE",
    "REPRO_SANITIZE",
    "REPRO_WORKLOAD_CACHE",
    "REPRO_WORKLOAD_CACHE_DIR",
)

# Workload sizes.  paper-sweep (2k instead of the paper's 5k jobs) and
# serve-mixed (500-job traces) are cut so one run of every workload,
# with its output checks, fits the benchmark's time budget on a 2-CPU
# host.
DEEP_QUEUE_JOBS = 50_000
#: conservative-sleep cycles over many short CTC traces: the run time of
#: one trace varies threefold between seeds, so the median operation
#: over twenty traces keeps the figures steady where one trace cannot.
CONSERVATIVE_TRACES = 20
CONSERVATIVE_JOBS = 250
SWEEP_JOBS = 2_000
SWEEP_WORKERS = 2
SERVE_JOBS = 500
SERVE_WORKERS = 2
SERVE_CLIENT_THREADS = 2
#: Requests per class and per second of --seconds.
SERVE_PER_CLASS_PER_SECOND = 7
#: Finished keys the dedup class resubmits (run once at setup).
SERVE_WARM_KEYS = 4
#: Setup samples per run: fresh processes that set up and exit.
SETUP_SAMPLES = 3


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC} (run from a full checkout)")
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set: it changes which code runs")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro.faults import active_injector

    if active_injector() is not None:
        fail("refusing to run with a fault plan installed")


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts (same sources)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


# -- workload specs --------------------------------------------------------------
def deep_queue_specs(seed: int) -> list:
    from repro.experiments.config import PolicySpec, RunSpec

    return [
        RunSpec(
            workload="SDSC",
            policy=PolicySpec.power_aware(2.0, None),
            n_jobs=DEEP_QUEUE_JOBS,
            seed=seed,
            engine="columnar",
        )
    ]


def conservative_sleep_specs(seed: int) -> list:
    from repro.cluster.power import SleepPolicy
    from repro.experiments.config import PolicySpec, RunSpec

    return [
        RunSpec(
            workload="CTC",
            policy=PolicySpec.power_aware(2.0, None),
            n_jobs=CONSERVATIVE_JOBS,
            seed=seed * CONSERVATIVE_TRACES + index,
            scheduler="conservative",
            sleep=SleepPolicy.preset("default"),
            engine="columnar",
        )
        for index in range(CONSERVATIVE_TRACES)
    ]


def sweep_specs(seed: int) -> list:
    """The default ``repro-sim sweep`` grid: 5 baselines then 60 DVFS runs."""
    from repro.experiments.config import BSLD_THRESHOLDS, WQ_THRESHOLDS, PolicySpec, RunSpec
    from repro.workloads.models import WORKLOAD_NAMES

    baselines = [RunSpec(workload=w, n_jobs=SWEEP_JOBS, seed=seed) for w in WORKLOAD_NAMES]
    grid = [
        RunSpec(
            workload=w,
            policy=PolicySpec.power_aware(bsld, wq),
            n_jobs=SWEEP_JOBS,
            seed=seed,
        )
        for w in WORKLOAD_NAMES
        for bsld in BSLD_THRESHOLDS
        for wq in WQ_THRESHOLDS
    ]
    return baselines + grid


def serve_spec(trace_seed: int):
    from repro.experiments.config import PolicySpec, RunSpec

    return RunSpec(
        workload="SDSC",
        policy=PolicySpec.power_aware(2.0, None),
        n_jobs=SERVE_JOBS,
        seed=trace_seed,
    )


# -- result facts ----------------------------------------------------------------
def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def arrival_order(result) -> list[tuple[float, float]]:
    """``(submit, start)`` per job in arrival (submit, job id) order."""
    rows = sorted((o.job.submit_time, o.job.job_id, o.start_time) for o in result.outcomes)
    return [(submit, start) for submit, _job_id, start in rows]


def peak_queue_depth(result) -> int:
    """Most jobs waiting at once, from submit and start times.

    Depth is taken after all submissions and starts at one timestamp,
    so a job that starts the instant it arrives never counts.
    """
    delta: dict[float, int] = {}
    for submit, start in arrival_order(result):
        delta[submit] = delta.get(submit, 0) + 1
        delta[start] = delta.get(start, 0) - 1
    depth = peak = 0
    for time in sorted(delta):
        depth += delta[time]
        peak = max(peak, depth)
    return peak


def backfilled_starts(result) -> int:
    """Jobs that started before some job that arrived ahead of them."""
    latest = float("-inf")
    jumped = 0
    for _submit, start in arrival_order(result):
        if start < latest:
            jumped += 1
        latest = max(latest, start)
    return jumped


def result_facts(result, n_bytes: int) -> dict:
    return {
        "scheduling.events": result.events_processed,
        "scheduling.peak_queue_depth": peak_queue_depth(result),
        "core.reduced_ratio": result.reduced_jobs / result.job_count,
        "serialize.bytes_per_job": n_bytes / result.job_count,
        "backfilled_starts": backfilled_starts(result),
    }


def combine_facts(facts: list[dict]) -> dict:
    """Facts per result of several equal-length results; the queue peak is the max."""
    combined = {name: statistics.fmean(f[name] for f in facts) for name in facts[0]}
    combined["scheduling.peak_queue_depth"] = max(
        f["scheduling.peak_queue_depth"] for f in facts
    )
    return combined


# -- statistics ------------------------------------------------------------------
def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")

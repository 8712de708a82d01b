"""Profile a full-scale simulation (the guide's measure-first workflow).

Usage::

    python scripts/profile_simulation.py [workload] [n_jobs]

Prints the cProfile hot spots of one baseline + one power-aware run.
Use this before optimising anything in the scheduler hot path.

Runs go through :meth:`repro.api.Simulation.run` — the same lane
resolution the CLI, the experiment runner and the batch runner use — so
the profile reflects exactly the code users run: the fused columnar
core when numpy is installed, else the reference core.  Each profile is
headed by the lane that ran it (``REPRO_ENGINE=reference`` profiles the
reference core).  Workload materialisation happens outside the profiled
region; only the simulation core is measured.
"""

import cProfile
import pstats
import sys

from repro.api import Simulation
from repro.experiments.config import PolicySpec, RunSpec
from repro.sim.columnar import fallback_reason
from repro.sim.lanes import resolve_engine_name


def executed_lane(simulation: Simulation) -> str:
    """The core ``simulation.run()`` executes on, with any fallback reason."""
    lane = resolve_engine_name(simulation.spec)
    if lane == "columnar":
        reason = fallback_reason(simulation)
        if reason is not None:
            return f"reference (columnar fallback: {reason})"
    return lane


def main(workload: str = "SDSC", n_jobs: int = 5000) -> None:
    for label, policy in (
        ("baseline (no DVFS)", PolicySpec.baseline()),
        ("power-aware DVFS(2, NO)", PolicySpec.power_aware(2.0, None)),
    ):
        simulation = Simulation(RunSpec(workload=workload, n_jobs=n_jobs, policy=policy))
        # len() materialises the trace outside the profile.
        print(f"=== {label}: {workload}, {len(simulation.jobs)} jobs " + "=" * 30)
        print(f"lane: {executed_lane(simulation)}")
        profiler = cProfile.Profile()
        profiler.enable()
        simulation.run()
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(12)


if __name__ == "__main__":
    workload = sys.argv[1] if len(sys.argv) > 1 else "SDSC"
    n_jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 5000
    main(workload, n_jobs)
